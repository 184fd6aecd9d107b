"""An exact oracle for the four checks on seeded scalar programs.

Every block is scalar, a 1x1 PSD block or a 1-D SOC block, so each reads
g(x) >= 0, and the paper's conditions are the NLP ones (Andreani, Haeser,
Schuverdt & Silva, SIAM J. Optim. 22, 2012): nondegeneracy is LICQ,
robinson is MFCQ, and rcpld and crsc are RCPLD and CRSC.  The programs have
integer linear data and at most one quadratic term, so every gradient is
affine in x.  A family's rank is then constant near the origin exactly when
its rank there equals its generic rank, the largest rank at seeded rational
points.  A vertex SOC block of dimension 2 is polyhedral, so for
nondegeneracy and robinson it splits exactly into two scalar constraints
(not for rcpld and crsc, whose naive conic forms differ from the NLP ones).
The oracle decides each condition by fractions.Fraction elimination and
calls nothing of coneguard; the tests compare its verdicts with the checks'.
"""

import itertools
import random
from fractions import Fraction

import numpy as np
import pytest

from coneguard.classify import classify
from coneguard.cqchecks import check_crsc, check_nondegeneracy, check_rcpld, check_robinson
from coneguard.model import evaluate, loads

CHECKS = {"nondegeneracy": check_nondegeneracy, "robinson": check_robinson, "rcpld": check_rcpld, "crsc": check_crsc}
CHUNKS, PER_CHUNK = 10, 30
VERTEX_PROGRAMS = 150


class Program:
    """Rows of integer gradients at the origin: p equalities, then the rows
    of each block, given as (kind, dimension) in order; at most one
    quadratic term c * x_i * x_k on row r, given as (r, c, i, k)."""

    def __init__(self, n, p, blocks, rows, quad=None):
        self.n, self.p, self.blocks, self.rows, self.quad = n, p, blocks, rows, quad

    def gradients(self, x):
        """Every row's gradient at the point x (a sequence of Fractions)."""
        grads = [[Fraction(v) for v in row] for row in self.rows]
        if self.quad is not None:
            r, c, i, k = self.quad
            grads[r][i] += c * x[k]
            grads[r][k] += c * x[i]
        return grads

    def text(self):
        exprs = []
        for r, row in enumerate(self.rows):
            terms = ["0"] + ["%d * x%d" % (v, i + 1) for i, v in enumerate(row)]
            if self.quad is not None and self.quad[0] == r:
                terms.append("%d * x%d * x%d" % (self.quad[1], self.quad[2] + 1, self.quad[3] + 1))
            exprs.append(" + ".join(terms))
        lines = ["vars %d" % self.n, "objective x1"] + ["eq h%d %s" % (r, e) for r, e in enumerate(exprs[: self.p])]
        at = self.p
        for j, (kind, dim) in enumerate(self.blocks):
            lines += ["%s b%d %d" % (kind, j, dim)] + exprs[at : at + dim]
            at += dim
        return "\n".join(lines) + "\n"

    def scalar_rows(self):
        """The equality rows and the scalar constraint rows at the origin; a
        vertex SOC block of dimension 2 is the two scalar constraints
        g0 + g1 >= 0 and g0 - g1 >= 0, since K_2 = {(a + b, a - b) : a, b >= 0}."""
        rows, at, scalars = self.rows, self.p, []
        for _, dim in self.blocks:
            if dim == 1:
                scalars.append(rows[at])
            else:
                g0, g1 = rows[at], rows[at + 1]
                scalars += [[u + v for u, v in zip(g0, g1)], [u - v for u, v in zip(g0, g1)]]
            at += dim
        return rows[: self.p], scalars


def _rows(rng, n, count):
    """count rows; each copies, negates or scales an earlier row half of the time."""
    rows = []
    for _ in range(count):
        if rows and rng.random() < 0.5:
            factor = rng.choice((1, -1, 2, 3))
            rows.append([factor * v for v in rng.choice(rows)])
        else:
            rows.append([rng.randint(-2, 2) for _ in range(n)])
    return rows


def draw(rng):
    """n = 2-3, 0-1 equalities and 1-4 scalar blocks, all active at the
    origin; half of the programs have one quadratic term."""
    n, p, m = rng.randint(2, 3), rng.randint(0, 1), rng.randint(1, 4)
    blocks = [(rng.choice(("psd", "soc")), 1) for _ in range(m)]
    quad = None
    if rng.random() < 0.5:
        quad = (rng.randrange(p + m), rng.choice((-1, 1, 2)), rng.randrange(n), rng.randrange(n))
    return Program(n, p, blocks, _rows(rng, n, p + m), quad)


def draw_vertex(rng):
    """n = 2-3, 0-1 equalities, 0-2 scalar blocks and one vertex SOC block of
    dimension 2 at a random place among them, all linear and active at the
    origin."""
    n, p, m = rng.randint(2, 3), rng.randint(0, 1), rng.randint(0, 2)
    blocks = [(rng.choice(("psd", "soc")), 1) for _ in range(m)]
    blocks.insert(rng.randint(0, m), ("soc", 2))
    return Program(n, p, blocks, _rows(rng, n, p + m + 2))


def rank(vectors):
    """The exact rank of a list of vectors, by Gaussian elimination."""
    mat = [list(map(Fraction, v)) for v in vectors]
    r = 0
    for c in range(len(mat[0]) if mat else 0):
        pivot = next((i for i in range(r, len(mat)) if mat[i][c] != 0), None)
        if pivot is None:
            continue
        mat[r], mat[pivot] = mat[pivot], mat[r]
        for i in range(r + 1, len(mat)):
            f = mat[i][c] / mat[r][c]
            mat[i] = [a - f * b for a, b in zip(mat[i], mat[r])]
        r += 1
    return r


def basis(vectors):
    """Indices of the vectors that each raise the rank of those kept before."""
    kept = []
    for i, v in enumerate(vectors):
        if rank([vectors[j] for j in kept] + [v]) > len(kept):
            kept.append(i)
    return kept


def coefficients(family, target):
    """y with sum_i y_i family_i = target, or None when target is outside the
    span of family, a linearly independent list."""
    k = len(family)
    aug = [[Fraction(v[i]) for v in family] + [Fraction(target[i])] for i in range(len(target))]
    for c in range(k):
        pivot = next(i for i in range(c, len(aug)) if aug[i][c] != 0)
        aug[c], aug[pivot] = aug[pivot], aug[c]
        aug[c] = [a / aug[c][c] for a in aug[c]]
        for i in range(len(aug)):
            if i != c and aug[i][c] != 0:
                f = aug[i][c]
                aug[i] = [a - f * b for a, b in zip(aug[i], aug[c])]
    if any(row[k] != 0 for row in aug[k:]):
        return None
    return [aug[i][k] for i in range(k)]


def in_cone(target, free, coned):
    """target in span(free) + cone(coned), by conic Caratheodory: some
    linearly independent family of a basis of free and a subset of coned
    expresses target with nonnegative coefficients on the subset."""
    fixed = [free[i] for i in basis(free)]
    for size in range(len(coned) + 1):
        for subset in itertools.combinations(coned, size):
            family = fixed + list(subset)
            if rank(family) < len(family):
                continue
            y = coefficients(family, target)
            if y is not None and all(b >= 0 for b in y[len(fixed) :]):
                return True
    return False


def positively_dependent(free, coned):
    """Some nonzero alpha >= 0 puts sum alpha_j coned_j in span(free): exactly
    when some -coned_j lies in span(free) + cone(coned)."""
    return any(in_cone([-v for v in g], free, coned) for g in coned)


def regularity(prog):
    """Nondegeneracy (LICQ) and robinson (MFCQ) at the origin."""
    eq, blocks = prog.scalar_rows()
    return {
        "nondegeneracy": "Holds" if rank(eq + blocks) == len(eq + blocks) else "Fails",
        "robinson": "Holds" if rank(eq) == len(eq) and not positively_dependent(eq, blocks) else "Fails",
    }


def oracle(prog, points):
    """The four verdicts at the origin of a program of scalar blocks; points
    are the seeded rational points whose largest rank is a family's generic
    rank."""
    at = [prog.gradients(x) for x in [[0] * prog.n] + points]
    h, g = list(range(prog.p)), list(range(prog.p, len(prog.rows)))

    def generic(rows):
        return max(rank([grads[r] for r in rows]) for grads in at)

    zero = at[0]
    eq, blocks = [zero[r] for r in h], [zero[r] for r in g]
    # RCPLD: a constant equality rank, and each subset of blocks positively
    # dependent together with an equality basis at the origin stays linearly
    # dependent near it
    eq_basis = [h[i] for i in basis(eq)]
    rcpld = generic(h) == len(eq_basis)
    for size in range(len(g) + 1):
        for subset in itertools.combinations(g, size):
            family = eq_basis + list(subset)
            if positively_dependent([zero[r] for r in eq_basis], [zero[r] for r in subset]):
                rcpld = rcpld and generic(family) < len(family)
    # CRSC: a constant rank of the equalities and the blocks of J-, those
    # whose negated gradient lies in span(equalities) + cone(blocks)
    j_minus = [r for r in g if in_cone([-v for v in zero[r]], eq, blocks)]
    crsc = generic(h + j_minus) == rank([zero[r] for r in h + j_minus])
    return dict(regularity(prog), rcpld="Holds" if rcpld else "Fails", crsc="Holds" if crsc else "Fails")


def _rational_points(rng, n, count=3):
    return [[Fraction(rng.randint(-1000, 1000), rng.randint(1, 1000)) for _ in range(n)] for _ in range(count)]


def _mismatches(prog, expected):
    """(check, verdict, oracle's verdict, program) for each check that differs from the oracle."""
    pt = evaluate(loads(prog.text()), np.zeros(prog.n))
    cls = classify(pt)
    found = []
    for name, want in expected.items():
        verdict = CHECKS[name](pt, cls).verdict
        if verdict != want:
            found.append((name, verdict, want, prog.text()))
    return found


@pytest.mark.parametrize("chunk", range(CHUNKS))
def test_checks_give_the_oracle_verdicts_on_scalar_programs(chunk):
    rng = random.Random(20120 + chunk)
    mismatches = []
    for _ in range(PER_CHUNK):
        prog = draw(rng)
        mismatches += _mismatches(prog, oracle(prog, _rational_points(rng, prog.n)))
    assert mismatches == []


def test_nondegeneracy_and_robinson_split_a_vertex_soc_block_of_dimension_two():
    rng = random.Random(2012)
    mismatches = []
    for _ in range(VERTEX_PROGRAMS):
        prog = draw_vertex(rng)
        mismatches += _mismatches(prog, regularity(prog))
    assert mismatches == []


def test_oracle_decides_textbook_programs():
    # x1 >= 0 and -x1 + x2^2 >= 0: MFCQ fails, RCPLD fails (the pair is
    # positively dependent at 0, independent wherever x2 != 0), CRSC fails
    # for the same rank jump; x1 >= 0 and -x1 >= 0: every constant-rank
    # condition holds, LICQ and MFCQ fail
    rng = random.Random(0)
    opposite = Program(2, 0, [("psd", 1), ("psd", 1)], [[1, 0], [-1, 0]], (1, 1, 1, 1))
    expected = {"nondegeneracy": "Fails", "robinson": "Fails", "rcpld": "Fails", "crsc": "Fails"}
    assert oracle(opposite, _rational_points(rng, 2)) == expected
    linear = Program(2, 0, [("psd", 1), ("soc", 1)], [[1, 0], [-1, 0]])
    expected = {"nondegeneracy": "Fails", "robinson": "Fails", "rcpld": "Holds", "crsc": "Holds"}
    assert oracle(linear, _rational_points(rng, 2)) == expected
    # (x1, x2) in K_2 at the origin: LICQ and MFCQ hold; (x1, x1) fails both
    assert regularity(Program(2, 0, [("soc", 2)], [[1, 0], [0, 1]])) == {"nondegeneracy": "Holds", "robinson": "Holds"}
    assert regularity(Program(2, 0, [("soc", 2)], [[1, 0], [1, 0]])) == {"nondegeneracy": "Fails", "robinson": "Fails"}
