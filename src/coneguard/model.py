"""Problem container, text format, evaluation, and diagonal embedding.

A program is

    minimize f(x)  subject to  h(x) = 0,  g_j(x) in K_j for each block j,

where each block cone K_j is a second-order cone K_m or the positive
semidefinite matrices of order m.  The text format is line oriented:

    vars <n>                    # 1 <= n <= 2**31 - 1
    objective <expr>
    eq <name> <expr>            # zero or more
    soc <name> <m>              # followed by m expression lines
    psd <name> <m>              # followed by m(m+1)/2 expression lines,
                                # upper triangle in row-major order

'#' starts a comment; blank lines are ignored.  A block of affine lines
folds into an ``AffineFold``, no tapes.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from . import expr as ex
from .cones import (
    SpectralData,
    adjoint,
    eig_sym,
    psd_distance,
    soc_distance,
    svec_dim,
    sym_from_upper,
    upper_triangle,
)
from .errors import ConeguardError, DimensionMismatchError, DomainError, ProblemFormatError

_MAX_VARS = 2**31 - 1  # folds store variable indices, and n itself, as int32
BLOCK_LIMIT = 1e154  # about the root of the largest double, so products of block data stay finite


class AffineFold:
    """Block entries c0 + c1 * xi + ... as (term, entry) arrays.

    Row 0 holds c0, row t term t; variable n is the constant 1, and a
    missing term is -0.0 * 1, which changes no sum.  Summing rows in
    order gives each entry's tape value; the Jacobian is summed alike.
    The Jacobian and PSD partials are built on first use, read-only, shared.
    """

    def __init__(self, terms, n):
        shape = (1 + max(len(coef) for _, coef, _ in terms), len(terms))
        self.n = n
        self.coef = np.full(shape, -0.0)
        self.var = np.full(shape, n, dtype=np.int32)
        for e, (c0, coef, var) in enumerate(terms):
            self.coef[: len(coef) + 1, e] = (c0, *coef)
            self.var[1 : len(var) + 1, e] = var
        self._jac = self._partials = None

    @property
    def jac(self):
        """The (entries, n) Jacobian."""
        if self._jac is None:
            jac = np.zeros((self.coef.shape[1], self.n + 1))
            for t in range(1, self.coef.shape[0]):
                jac[np.arange(self.coef.shape[1]), self.var[t]] += self.coef[t]
            self._jac = jac[:, : self.n].copy()
            self._jac.flags.writeable = False
        return self._jac

    def values(self, x):
        # a view would hold the whole table
        return np.add.accumulate(self.coef * np.concatenate((x, [1.0]))[self.var])[-1].copy()

    def partials(self, m):
        """The (n, m, m) partials of the PSD block of order m."""
        if self._partials is None:
            self._partials = _psd_partials(self.jac, m)
            self._partials.flags.writeable = False
        return self._partials

    def terms(self):
        """Per entry (c0, coefficients, variables), as from ``expr.affine_terms``."""
        ends = 1 + np.count_nonzero(self.var[1:] < self.n, axis=0)
        coef, var = self.coef.T.tolist(), self.var.T.tolist()
        return [(c[0], c[1:k], v[1:k]) for c, v, k in zip(coef, var, ends.tolist())]


def _psd_partials(jac, m):
    rows, cols = upper_triangle(m)
    partials = np.zeros((jac.shape[1], m, m))
    partials[:, rows, cols] = jac.T
    partials[:, cols, rows] = jac.T
    return partials


class ConicBlock:
    __slots__ = ("name", "kind", "dim", "tapes", "affine")

    def __init__(self, name, kind, dim, tapes=None, affine=None):
        self.name = name
        self.kind = kind  # "soc" | "psd"
        self.dim = dim
        self.tapes = tapes  # None for a folded block until entries is read
        self.affine = affine

    @property
    def entries(self):
        """Entry tapes; a folded block builds them on first use."""
        if self.tapes is None:
            self.tapes = tuple(ex.affine_tape(*terms) for terms in self.affine.terms())
        return self.tapes


def _block(name, kind, dim, entries, n):
    """A block of entry tapes, or folded if all entries are terms."""
    if all(isinstance(entry, tuple) for entry in entries):
        return ConicBlock(name, kind, dim, affine=AffineFold(entries, n))
    return ConicBlock(name, kind, dim, tuple(ex.affine_tape(*e) if isinstance(e, tuple) else e for e in entries))


class ConicProgram(NamedTuple):
    n: int
    objective: ex.Tape
    eq_names: tuple
    equalities: tuple
    blocks: tuple

    @property
    def p(self):
        return len(self.equalities)

    def block_index(self, name):
        for j, blk in enumerate(self.blocks):
            if blk.name == name:
                return j
        raise KeyError(name)


def _parse_expr(source, n, line_no):
    try:
        return ex.parse(source, n)
    except ConeguardError as err:
        raise ProblemFormatError(str(err), line_no) from err


def _count(text, what, line_no):
    """A count, ASCII digits read like variable indices: leading zeros of any
    length are fine and more than 10 significant digits reads as 2**31."""
    if not (text.isascii() and text.isdigit()):
        raise ProblemFormatError("%s must be an integer" % what, line_no)
    return ex.bounded(text)


def loads(text):
    """Parse the problem text format into a ConicProgram."""
    lines = []
    for raw_no, raw in enumerate(text.splitlines(), start=1):
        body = raw.split("#", 1)[0].strip()
        if body:
            lines.append((raw_no, body))
    pos = 0

    def take():
        nonlocal pos
        if pos >= len(lines):
            raise ProblemFormatError("unexpected end of file", lines[-1][0] if lines else 1)
        item = lines[pos]
        pos += 1
        return item

    line_no, body = take()
    parts = body.split()
    if parts[0] != "vars" or len(parts) != 2:
        raise ProblemFormatError("expected 'vars <n>'", line_no)
    n = _count(parts[1], "variable count", line_no)
    if n < 1:
        raise ProblemFormatError("variable count must be positive", line_no)
    if n > _MAX_VARS:
        raise ProblemFormatError("variable count must be at most %d" % _MAX_VARS, line_no)

    line_no, body = take()
    parts = body.split(None, 1)
    if parts[0] != "objective" or len(parts) != 2:
        raise ProblemFormatError("expected 'objective <expr>'", line_no)
    objective = _parse_expr(parts[1], n, line_no)

    eq_names, equalities, blocks = [], [], []
    seen_blocks = set()
    while pos < len(lines):
        line_no, body = take()
        parts = body.split(None, 2)
        key = parts[0]
        if key == "eq":
            if blocks:
                raise ProblemFormatError("equalities must precede blocks", line_no)
            if len(parts) != 3:
                raise ProblemFormatError("expected 'eq <name> <expr>'", line_no)
            name = parts[1]
            if name in eq_names:
                raise ProblemFormatError("duplicate equality name %r" % name, line_no)
            eq_names.append(name)
            equalities.append(_parse_expr(parts[2], n, line_no))
        elif key in ("soc", "psd"):
            if len(parts) != 3:
                raise ProblemFormatError("expected '%s <name> <m>'" % key, line_no)
            name = parts[1]
            if name in seen_blocks:
                raise ProblemFormatError("duplicate block name %r" % name, line_no)
            if name in eq_names:  # witness rows name equalities and blocks alike
                raise ProblemFormatError("block name %r is an equality's name" % name, line_no)
            seen_blocks.add(name)
            m = _count(parts[2], "block dimension", line_no)
            if m < 1:
                raise ProblemFormatError("block dimension must be positive", line_no)
            count = m if key == "soc" else svec_dim(m)
            if count > len(lines) - pos:
                raise ProblemFormatError(
                    "block %r needs %d entry lines, %d follow" % (name, count, len(lines) - pos), line_no
                )
            entries = []
            for _ in range(count):
                entry_no, entry_body = take()
                terms = ex.affine_terms(entry_body, n)
                entries.append(_parse_expr(entry_body, n, entry_no) if terms is None else terms)
            blocks.append(_block(name, key, m, entries, n))
        else:
            raise ProblemFormatError("unknown directive %r" % key, line_no)

    return ConicProgram(n, objective, tuple(eq_names), tuple(equalities), tuple(blocks))


def dumps(prog):
    out = ["vars %d" % prog.n, "objective %s" % ex.to_source(prog.objective)]
    for name, eq in zip(prog.eq_names, prog.equalities):
        out.append("eq %s %s" % (name, ex.to_source(eq)))
    for blk in prog.blocks:
        out.append("%s %s %d" % (blk.kind, blk.name, blk.dim))
        out.extend(ex.to_source(entry) for entry in blk.entries)
    return "\n".join(out) + "\n"


class SocBlockValue(NamedTuple):
    value: np.ndarray  # (m,), z0 first
    jac: np.ndarray  # (m, n)


class PsdBlockValue(NamedTuple):
    value: np.ndarray  # (m, m) symmetric
    partials: np.ndarray  # (n, m, m), each slice symmetric
    spectral: SpectralData


class EvaluatedPoint(NamedTuple):
    program: ConicProgram
    x: np.ndarray
    f: float
    grad_f: np.ndarray
    h: np.ndarray
    jac_h: np.ndarray  # (p, n)
    blocks: tuple
    distances: tuple  # each block's distance to its cone
    residual: float


def _rows(tapes, x, where, limit=np.finfo(float).max):
    """Values and gradient rows of tapes at x; ``where(i)`` names tape i."""
    vals, jac = np.zeros(len(tapes)), np.zeros((len(tapes), x.size))
    for i, tape in enumerate(tapes):
        try:
            gv = ex.eval_grad(tape, x)
        except DomainError as err:
            raise DomainError("%s: %s" % (where(i), err)) from err
        vals[i], jac[i] = gv.value, gv.partials
    return _finite(vals, jac, where, limit)


def _finite(vals, jac, where, limit=np.finfo(float).max):
    """vals and jac, unless an entry is non-finite or above limit in magnitude."""
    bounds = (vals.min(initial=0.0), vals.max(initial=0.0), jac.min(initial=0.0), jac.max(initial=0.0))
    if not all(-limit <= b <= limit for b in bounds):  # a NaN bound fails too
        i = int(np.argmax(~((np.abs(vals) <= limit) & (np.abs(jac) <= limit).all(axis=1))))
        if np.isfinite(vals[i]) and np.isfinite(jac[i]).all():
            raise DomainError("%s: value or derivative too large (above %g in magnitude)" % (where(i), limit))
        raise DomainError("%s: non-finite value or derivative" % where(i))
    return vals, jac


@np.errstate(over="ignore", invalid="ignore")  # _finite reports these
def evaluate(prog, x):
    """Evaluate objective, constraints, Jacobians, and cone residuals at x.

    Raises DomainError on a non-finite x, outside a domain, on a non-finite
    value, or on a block value or derivative above BLOCK_LIMIT in magnitude.
    """
    x = np.asarray(x, dtype=float).reshape(-1)
    if x.size != prog.n:
        raise DimensionMismatchError("point has %d coordinates, program has %d" % (x.size, prog.n))
    if not np.isfinite(x).all():
        raise DomainError("point has a non-finite entry")
    f, grad_f = _rows((prog.objective,), x, lambda i: "objective")
    h, jac_h = _rows(prog.equalities, x, lambda i: "equality %r" % prog.eq_names[i])
    values = []
    distances = []
    for blk in prog.blocks:
        where = lambda i: "block %r entry %d" % (blk.name, i)
        fold = blk.affine
        if fold is None:
            vals, jac = _rows(blk.entries, x, where, BLOCK_LIMIT)
        else:
            vals, jac = _finite(fold.values(x), fold.jac, where, BLOCK_LIMIT)
        if blk.kind == "soc":
            values.append(SocBlockValue(vals, jac))
            distances.append(soc_distance(vals))
        else:
            partials = _psd_partials(jac, blk.dim) if fold is None else fold.partials(blk.dim)
            mat = sym_from_upper(vals, blk.dim)
            spectral = eig_sym(mat)
            values.append(PsdBlockValue(mat, partials, spectral))
            distances.append(psd_distance(mat, spectral))
    hres = float(np.max(np.abs(h))) if prog.p else 0.0
    # np.max keeps a NaN, which max would drop
    residual = float(np.max([hres] + distances))
    return EvaluatedPoint(prog, x.copy(), float(f[0]), grad_f[0], h, jac_h, tuple(values), tuple(distances), residual)


def block_distances(pt):
    """Per-constraint infeasibility, keyed by name."""
    out = {"eq:" + name: abs(float(h)) for name, h in zip(pt.program.eq_names, pt.h)}
    out.update(zip((blk.name for blk in pt.program.blocks), pt.distances))
    return out


def apply_jacobian_adjoint(pt, j, multiplier):
    """Compute the gradient-space image J_g^T(mu) for block j."""
    bv = pt.blocks[j]
    return adjoint(bv.jac if pt.program.blocks[j].kind == "soc" else bv.partials, np.asarray(multiplier))


def lagrangian_gradient(pt, lam, multipliers):
    """grad f + J_h^T lam - sum_j J_{g_j}^T(mu_j), one mu (or None) per block in order."""
    grad = pt.grad_f.copy()
    if pt.program.p:
        grad = grad + pt.jac_h.T @ np.asarray(lam, dtype=float)
    for j, mu in enumerate(multipliers):
        if mu is not None:
            grad = grad - apply_jacobian_adjoint(pt, j, mu)
    return grad


def embed_block_diagonal(prog):
    """Merge all PSD blocks into a single block-diagonal PSD block."""
    for blk in prog.blocks:
        if blk.kind != "psd":
            raise DimensionMismatchError(
                "diagonal embedding needs an all-psd program; block %r is %s" % (blk.name, blk.kind)
            )
    if len(prog.blocks) <= 1:
        return prog
    total = sum(blk.dim for blk in prog.blocks)
    grid = [[(0.0, [], [])] * total for _ in range(total)]
    off = 0
    for blk in prog.blocks:
        for entry, a, b in zip(blk.affine.terms() if blk.affine else blk.tapes, *upper_triangle(blk.dim)):
            grid[off + a][off + b] = entry
        off += blk.dim
    entries = [grid[a][b] for a, b in zip(*upper_triangle(total))]
    name = "diag"
    taken = {blk.name for blk in prog.blocks} | set(prog.eq_names)
    while name in taken:
        name += "_"
    block = _block(name, "psd", total, entries, prog.n)
    return ConicProgram(prog.n, prog.objective, prog.eq_names, prog.equalities, (block,))
