"""Shared fixtures, independent oracles, and corpus generators.

The oracles here deliberately re-derive expected values by a different
route from the library code: finite differences for gradients, dense
numpy decompositions for spectral facts, exhaustive enumeration for
active-set questions, and a vectorized grid scan for homogeneous conic
dependence.  Tests freeze no constant that an oracle can recompute.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np
import pytest

from coneguard import ConicProgram, evaluate, loads
from coneguard.classify import TOL_ACT, TOL_GAP, IndexClassification
from coneguard.cones import svec_dim

REPO = Path(__file__).resolve().parent.parent
PROBLEMS = REPO / "problems"

SOC_LINE = PROBLEMS / "soc_boundary_line.txt"
PSD_PAIR = PROBLEMS / "psd_pair_line.txt"
SCALAR_PAIR = PROBLEMS / "scalar_pair.txt"


@pytest.fixture(scope="session")
def soc_line_program():
    return loads(SOC_LINE.read_text())


@pytest.fixture(scope="session")
def psd_pair_program():
    return loads(PSD_PAIR.read_text())


@pytest.fixture(scope="session")
def scalar_pair_program():
    return loads(SCALAR_PAIR.read_text())


# ---------------------------------------------------------------------------
# doubles of every magnitude


def seeded_doubles(seed, size):
    """-0.0, the least subnormal and the largest double, then the finite
    doubles among size seeded random bit patterns."""
    bits = np.frombuffer(np.random.default_rng(seed).bytes(8 * size), dtype=np.float64)
    return [-0.0, 5e-324, 1.7976931348623157e308] + [float(v) for v in bits[np.isfinite(bits)]]


def same_bits(a, b):
    return np.asarray(a, dtype=np.float64).tobytes() == np.asarray(b, dtype=np.float64).tobytes()


# ---------------------------------------------------------------------------
# finite differences


def fd_gradient(fun, x, h=1e-6):
    """Central finite-difference gradient of a scalar function."""
    x = np.asarray(x, dtype=float)
    out = np.zeros_like(x)
    for i in range(x.size):
        e = np.zeros_like(x)
        e[i] = h
        out[i] = (fun(x + e) - fun(x - e)) / (2.0 * h)
    return out


def fd_tolerance(scale):
    return max(1e-6 * abs(scale), 1e-8)


def labelled(prog, label):
    """A classification giving every block of prog the same label.

    ``reduced_view`` takes labels as given, so this fixes which reduction a
    test exercises on a program that no point classifies that way.
    """
    return IndexClassification((label,) * len(prog.blocks), TOL_ACT, TOL_GAP, tuple(b.name for b in prog.blocks))


# ---------------------------------------------------------------------------
# problem-text construction with exact (dyadic) coefficients


def affine_entry_text(coeffs, constant):
    """Render constant + sum coeffs[k] * x{k+1} as expression text."""
    parts = [repr(float(constant))]
    for k, c in enumerate(coeffs):
        c = float(c)
        if c == 0.0:
            continue
        parts.append("+ %s * x%d" % (repr(c), k + 1))
    return " ".join(parts)


def affine_block_lines(kind, name, dim, coeff_rows, values_at_star, x_star):
    """Block whose entries are affine with prescribed values at x_star.

    coeff_rows: (entry_count, n) dyadic coefficients. values_at_star: the
    exact entry values wanted at x_star.  The constant term is solved for,
    which is exact when all inputs are dyadic rationals.
    """
    lines = ["%s %s %d" % (kind, name, dim)]
    for row, val in zip(coeff_rows, values_at_star):
        constant = float(val) - float(np.dot(row, x_star))
        lines.append(affine_entry_text(row, constant))
    return lines


def build_program_text(n, objective, eqs=(), blocks=()):
    lines = ["vars %d" % n, "objective %s" % objective]
    for name, expr in eqs:
        lines.append("eq %s %s" % (name, expr))
    for block_lines in blocks:
        lines.extend(block_lines)
    return "\n".join(lines) + "\n"


def _dyadic(rng, size=None, lo=-4, hi=5):
    return rng.integers(lo, hi, size=size) / 2.0


_PYTHAGOREAN = ((3.0, 4.0, 5.0), (1.5, 2.0, 2.5), (6.0, 8.0, 10.0))


def random_feasible_program(rng, *, allow_soc=True, allow_psd=True, max_eq=2):
    """Random program with exactly representable structure at a known point.

    Active semidefinite blocks with a repeated zero eigenvalue are placed
    exactly at the zero matrix (their complementary face is then the whole
    cone); other block values are exact dyadic data.  Returns
    (program, x_star).
    """
    n = int(rng.integers(2, 5))
    x_star = _dyadic(rng, n, -2, 3)
    obj_coeffs = rng.integers(-2, 3, size=n)
    objective = affine_entry_text(obj_coeffs, 0.0)

    eqs = []
    for i in range(int(rng.integers(0, max_eq + 1))):
        row = rng.integers(-2, 3, size=n)
        if not np.any(row):
            row[int(rng.integers(0, n))] = 1
        constant = -float(np.dot(row, x_star))
        eqs.append(("h%d" % (i + 1), affine_entry_text(row, constant)))

    kinds = []
    if allow_soc:
        kinds += ["soc_interior", "soc_boundary", "soc_vertex"]
    if allow_psd:
        kinds += ["psd_inactive", "psd_simple", "psd_multiple"]
    blocks = []
    n_blocks = int(rng.integers(1, 4))
    for b in range(n_blocks):
        kind = kinds[int(rng.integers(0, len(kinds)))]
        name = "g%d" % (b + 1)
        if kind.startswith("soc"):
            m = int(rng.integers(1, 4))
            if kind == "soc_interior":
                tail = _dyadic(rng, m - 1, -2, 3)
                head = float(np.sum(np.abs(tail))) + 1.0 + float(rng.integers(0, 2))
                value = np.concatenate([[head], tail])
            elif kind == "soc_boundary":
                if m == 1:
                    value = np.zeros(1)
                elif m == 2:
                    a = float(rng.integers(1, 4)) / 2.0
                    value = np.array([a, a if rng.integers(0, 2) else -a])
                else:
                    leg_a, leg_b, hyp = _PYTHAGOREAN[int(rng.integers(0, len(_PYTHAGOREAN)))]
                    tail = np.zeros(m - 1)
                    tail[0], tail[1] = leg_a, leg_b
                    value = np.concatenate([[hyp], tail])
            else:
                value = np.zeros(m)
            coeff_rows = rng.integers(-2, 3, size=(m, n))
            blocks.append(affine_block_lines("soc", name, m, coeff_rows, value, x_star))
        else:
            m = int(rng.integers(1, 3))
            count = svec_dim(m)
            if kind == "psd_inactive":
                diag = rng.integers(1, 4, size=m) / 2.0
                mat = np.diag(diag)
            elif kind == "psd_simple":
                if m == 1:
                    mat = np.zeros((1, 1))
                else:
                    mat = np.diag([0.0, float(rng.integers(1, 4))])
                    if rng.integers(0, 2):
                        mat = mat[::-1, ::-1]
            else:
                mat = np.zeros((m, m))
            iu = np.triu_indices(m)
            values = mat[iu]
            coeff_rows = rng.integers(-2, 3, size=(count, n))
            blocks.append(affine_block_lines("psd", name, m, coeff_rows, values, x_star))

    text = build_program_text(n, objective, eqs, blocks)
    prog = loads(text)
    pt = evaluate(prog, x_star)
    assert pt.residual <= 1e-12, "generator must produce a feasible point"
    return prog, x_star


def random_irreducible_program(rng):
    """Program with p = 0 whose active blocks are all irreducible.

    Active blocks are either multi-dimensional second-order cone blocks at
    the vertex or semidefinite blocks equal to the zero matrix; inactive
    blocks may appear as padding.
    """
    n = int(rng.integers(2, 5))
    x_star = _dyadic(rng, n, -2, 3)
    obj_coeffs = rng.integers(-2, 3, size=n)
    objective = affine_entry_text(obj_coeffs, 0.0)
    blocks = []
    n_blocks = int(rng.integers(1, 4))
    for b in range(n_blocks):
        name = "g%d" % (b + 1)
        choice = int(rng.integers(0, 3))
        if choice == 0:
            m = int(rng.integers(2, 4))
            coeff_rows = rng.integers(-2, 3, size=(m, n))
            blocks.append(affine_block_lines("soc", name, m, coeff_rows, np.zeros(m), x_star))
        elif choice == 1:
            m = int(rng.integers(2, 3))
            count = svec_dim(m)
            coeff_rows = rng.integers(-2, 3, size=(count, n))
            blocks.append(affine_block_lines("psd", name, m, coeff_rows, np.zeros(count), x_star))
        else:
            m = int(rng.integers(1, 3))
            tail = _dyadic(rng, m - 1, -1, 2)
            head = float(np.sum(np.abs(tail))) + 1.0
            value = np.concatenate([[head], tail])
            coeff_rows = rng.integers(-2, 3, size=(m, n))
            blocks.append(affine_block_lines("soc", name, m, coeff_rows, value, x_star))
    prog = loads(build_program_text(n, objective, (), blocks))
    pt = evaluate(prog, x_star)
    assert pt.residual <= 1e-12
    return prog, x_star


# ---------------------------------------------------------------------------
# grid oracle for homogeneous conic dependence


def _grid_axis(step, bound):
    k = int(round(bound / step))
    return np.arange(-k, k + 1) * step


def _cartesian(axes):
    grids = np.meshgrid(*axes, indexing="ij")
    return np.stack([g.reshape(-1) for g in grids], axis=1)


def grid_dependence_oracle(eq_basis, soc_blocks, psd_blocks, rays, *,
                           step=0.02, bound=1.2, threshold=1e-6, chunk=500000):
    """Brute-force dependence decision on the normalization slice.

    Free coefficients are eliminated exactly by orthogonal projection, so
    only cone coordinates are gridded.  The slice {normalization = 1} is
    enumerated directly: all but one of the unit-weight coordinates range
    over the grid, the last is snapped from the slab constraint, and the
    weight-zero coordinates (cone tails, off-diagonals) are crossed in
    afterwards.  The oracle declares dependence when any cone-feasible
    point achieves a combination residual below the threshold.  Returns
    (dependent, best_residual).
    """
    n = None
    for v in list(eq_basis) + list(rays):
        n = np.asarray(v).size
    for jac in soc_blocks:
        n = np.asarray(jac).shape[1]
    for partials in psd_blocks:
        n = np.asarray(partials).shape[0]
    assert n is not None

    cols = []  # columns of the cone part, n x D
    norm_row = []  # e-functional weights per cone coordinate
    feas_checks = []  # functions mapping the grid (N, D) to boolean masks
    offset = 0
    for jac in soc_blocks:
        jac = np.asarray(jac, dtype=float)
        m = jac.shape[0]
        for r in range(m):
            cols.append(jac[r])
            norm_row.append(1.0 if r == 0 else 0.0)
        lo = offset

        def soc_ok(grid, lo=lo, m=m):
            z0 = grid[:, lo]
            tail = grid[:, lo + 1 : lo + m]
            return z0 >= np.sqrt(np.sum(tail * tail, axis=1)) - 1e-12

        feas_checks.append(soc_ok)
        offset += m
    for partials in psd_blocks:
        partials = np.asarray(partials, dtype=float)
        m = partials.shape[1]
        iu = np.triu_indices(m)
        for a, b in zip(*iu):
            col = partials[:, a, b] if a == b else np.sqrt(2.0) * partials[:, a, b]
            cols.append(col)
            norm_row.append(1.0 if a == b else 0.0)
        lo = offset
        d = svec_dim(m)

        def psd_ok(grid, lo=lo, m=m, d=d, iu=iu):
            mats = np.zeros((grid.shape[0], m, m))
            vals = grid[:, lo : lo + d].copy()
            off = iu[0] != iu[1]
            vals[:, off] /= np.sqrt(2.0)
            mats[:, iu[0], iu[1]] = vals
            mats[:, iu[1], iu[0]] = vals
            w = np.linalg.eigvalsh(mats)
            return w[:, 0] >= -1e-12

        feas_checks.append(psd_ok)
        offset += d
    for r in rays:
        cols.append(np.asarray(r, dtype=float))
        norm_row.append(1.0)
        lo = offset

        def ray_ok(grid, lo=lo):
            return grid[:, lo] >= -1e-12

        feas_checks.append(ray_ok)
        offset += 1

    D = offset
    A = np.stack(cols, axis=1) if cols else np.zeros((n, 0))
    if eq_basis:
        B = np.stack([np.asarray(v, dtype=float) for v in eq_basis], axis=1)
        q, _ = np.linalg.qr(B)
        P = np.eye(n) - q @ q.T
    else:
        P = np.eye(n)
    M = P @ A  # residual map acting on cone coordinates only

    weights = np.asarray(norm_row)
    dist_idx = [i for i in range(D) if weights[i] == 1.0]
    off_idx = [i for i in range(D) if weights[i] == 0.0]
    axis = _grid_axis(step, bound)

    # Enumerate the unit-weight coordinates on the slab sum ~ 1.  Every
    # such coordinate is nonnegative at any cone-feasible point (second
    # order heads dominate their tails, positive semidefinite diagonals
    # are nonnegative, ray coefficients are sign-constrained), so the
    # axes restrict to [0, bound] and partial sums prune at 1 + step/2.
    k = len(dist_idx)
    if k == 0:
        return False, np.inf
    pos = axis[axis >= -1e-15]
    rows = np.zeros((1, 0))
    sums = np.zeros(1)
    for _ in range(k - 1):
        add = np.tile(pos, sums.size)
        sums = np.repeat(sums, pos.size) + add
        rows = np.concatenate([np.repeat(rows, pos.size, axis=0), add[:, None]], axis=1)
        keep = sums <= 1.0 + step / 2.0 + 1e-12
        rows, sums = rows[keep], sums[keep]
    last = np.round((1.0 - sums) / step) * step
    ok = (np.abs(last + sums - 1.0) <= step / 2.0 + 1e-12) & (last >= -1e-12)
    dist_rows = np.concatenate([rows[ok], last[ok, None]], axis=1)
    if dist_rows.shape[0] == 0:
        return False, np.inf

    off_grid = _cartesian([axis] * len(off_idx)) if off_idx else np.zeros((1, 0))
    best = np.inf
    rows_per_chunk = max(1, chunk // off_grid.shape[0])
    for at in range(0, dist_rows.shape[0], rows_per_chunk):
        block = dist_rows[at : at + rows_per_chunk]
        full = np.empty((block.shape[0] * off_grid.shape[0], D))
        full[:, dist_idx] = np.repeat(block, off_grid.shape[0], axis=0)
        if off_idx:
            full[:, off_idx] = np.tile(off_grid, (block.shape[0], 1))
        keep = full
        for check in feas_checks:
            if keep.shape[0] == 0:
                break
            keep = keep[check(keep)]
        if keep.shape[0] == 0:
            continue
        residuals = np.linalg.norm(keep @ M.T, axis=1)
        best = min(best, float(residuals.min()))
        if best <= threshold:
            return True, best
    return best <= threshold, best


def make_planted_dependent(rng, n, soc_dims, psd_dims, n_rays, n_eq=0, step=0.02):
    """Instance with an exact cone-feasible dependence witness on the grid.

    Builds random generators, picks a strictly cone-interior witness with
    grid-aligned coordinates and normalization exactly 1, then subtracts
    the witness combination from one generator column so the system maps
    the witness to zero.  Returns (eq_basis, soc_blocks, psd_blocks, rays).
    """
    qsteps = max(1, int(round(0.1 / step)))  # witness coords in multiples of 0.1

    def snap(v):
        return np.round(np.asarray(v) / (qsteps * step)) * (qsteps * step)

    soc_blocks = [rng.integers(-2, 3, size=(m, n)).astype(float) for m in soc_dims]
    psd_blocks = []
    for m in psd_dims:
        partials = rng.integers(-2, 3, size=(n, m, m)).astype(float)
        partials = (partials + partials.transpose(0, 2, 1)) / 2.0
        psd_blocks.append(partials)
    rays = [rng.integers(-2, 3, size=n).astype(float) for _ in range(n_rays)]
    eq_basis = []
    if n_eq:
        while True:
            cand = [rng.integers(-2, 3, size=n).astype(float) for _ in range(n_eq)]
            if np.linalg.matrix_rank(np.stack(cand)) == n_eq:
                eq_basis = cand
                break

    # split ten grid units of normalization mass across the blocks; a
    # matrix block gets at least two units so its diagonal stays positive
    mins = [1] * len(soc_dims) + [2 if m > 1 else 1 for m in psd_dims] + [1] * n_rays
    parts = len(mins)
    base = np.asarray(mins, dtype=int)
    extra = 10 - int(base.sum())
    assert extra >= 0, "too many blocks for one unit of mass"
    spread = rng.multinomial(extra, np.full(parts, 1.0 / parts)) if parts else base
    weights = (base + spread) * (qsteps * step)

    witness_soc, witness_psd, witness_alpha = [], [], []
    idx = 0
    target = np.zeros(n)
    for jac, m in zip(soc_blocks, soc_dims):
        z = np.zeros(m)
        z[0] = weights[idx]
        if m > 1:  # strictly interior: small grid-aligned tail
            z[1] = snap(min(0.2, z[0] / 2.0))
        witness_soc.append(z)
        target += jac.T @ z
        idx += 1
    for partials, m in zip(psd_blocks, psd_dims):
        mat = np.zeros((m, m))
        trace_mass = weights[idx]
        mat[np.diag_indices(m)] = snap(trace_mass / m)
        mat[0, 0] += trace_mass - np.trace(mat)
        witness_psd.append(mat)
        target += np.tensordot(partials, mat, axes=([1, 2], [0, 1]))
        idx += 1
    for r in rays:
        witness_alpha.append(weights[idx])
        target += weights[idx] * r
        idx += 1
    if eq_basis:
        lam = snap(rng.uniform(-0.5, 0.5, size=n_eq))
        for c, v in zip(lam, eq_basis):
            target += c * v

    # cancel the residual inside one generator so the witness is exact
    if rays and witness_alpha[-1] > 0:
        rays[-1] = rays[-1] - target / witness_alpha[-1]
    elif soc_blocks:
        z = witness_soc[0]
        soc_blocks[0] = soc_blocks[0] - np.outer(z, target) / float(z @ z)
    else:
        mat = witness_psd[0]
        partials = psd_blocks[0]
        scale = float(np.sum(mat * mat))
        psd_blocks[0] = partials - np.einsum("i,ab->iab", target, mat) / scale
    return eq_basis, soc_blocks, psd_blocks, rays


def make_planted_independent(rng, n, soc_dims, psd_dims, n_rays, n_eq=0, margin=0.25):
    """Instance built around a strictly separating direction.

    A direction d is chosen; every generator is corrected so its pairing
    with d exceeds the margin relative to its normalization weight, and
    the free vectors are made orthogonal to d.  Every normalized conic
    combination then has residual at least about margin/|d|.
    """
    d = rng.standard_normal(n)
    d /= np.linalg.norm(d)
    soc_blocks = []
    for m in soc_dims:
        jac = rng.integers(-2, 3, size=(m, n)).astype(float)
        jd = jac @ d
        # want (J d)_0 - |(J d)_tail| >= margin: shift the first row along d
        need = margin + float(np.linalg.norm(jd[1:])) - float(jd[0])
        if need > 0:
            jac[0] += (need + margin) * d
        soc_blocks.append(jac)
    psd_blocks = []
    for m in psd_dims:
        partials = rng.integers(-2, 3, size=(n, m, m)).astype(float)
        partials = (partials + partials.transpose(0, 2, 1)) / 2.0
        md = np.tensordot(d, partials, axes=(0, 0))
        w = np.linalg.eigvalsh(md)
        need = margin - float(w[0])
        if need > 0:
            partials = partials + np.einsum("i,ab->iab", (need + margin) * d, np.eye(m))
        psd_blocks.append(partials)
    rays = []
    for _ in range(n_rays):
        r = rng.integers(-2, 3, size=n).astype(float)
        need = margin - float(r @ d)
        if need > 0:
            r = r + (need + margin) * d
        rays.append(r)
    eq_basis = []
    for _ in range(n_eq):
        while True:
            v = rng.integers(-2, 3, size=n).astype(float)
            v = v - float(v @ d) * d  # orthogonal to d keeps the separation exact
            if np.linalg.norm(v) >= 0.5:
                break
        eq_basis.append(v)
    return eq_basis, soc_blocks, psd_blocks, rays


# ---------------------------------------------------------------------------
# exhaustive oracle for cone membership (nonnegative representability)


def brute_force_cone_membership(target, free, coned, tol=1e-8):
    """Decide target in span(free) + cone(coned) by active-set enumeration.

    For every subset S of the coned vectors, solve the unconstrained least
    squares with free vectors plus S; accept when the residual is small
    and the S-coefficients are nonnegative (up to tol).  Exhaustive over
    subsets, so correct for small instances.
    """
    import itertools

    target = np.asarray(target, dtype=float)
    free = [np.asarray(v, dtype=float) for v in free]
    coned = [np.asarray(v, dtype=float) for v in coned]
    scale = max(1.0, float(np.linalg.norm(target)))
    for k in range(len(coned) + 1):
        for subset in itertools.combinations(range(len(coned)), k):
            mats = free + [coned[i] for i in subset]
            if mats:
                a = np.stack(mats, axis=1)
                sol, *_ = np.linalg.lstsq(a, target, rcond=None)
                resid = float(np.linalg.norm(a @ sol - target))
                cone_part = sol[len(free) :]
            else:
                resid = float(np.linalg.norm(target))
                cone_part = np.zeros(0)
            if resid <= tol * scale and np.all(cone_part >= -tol):
                return True
    return False
