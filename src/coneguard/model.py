"""Problem container, text format, evaluation, and diagonal embedding.

A program is

    minimize f(x)  subject to  h(x) = 0,  g_j(x) in K_j for each block j,

where each block cone K_j is a second-order cone K_m or the positive
semidefinite matrices of order m.  The text format is line oriented:

    vars <n>
    objective <expr>
    eq <name> <expr>            # zero or more
    soc <name> <m>              # followed by m expression lines
    psd <name> <m>              # followed by m(m+1)/2 expression lines,
                                # upper triangle in row-major order

'#' starts a comment; blank lines are ignored.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import expr as ex
from .cones import (
    SocVector,
    SpectralData,
    SymMatrix,
    eig_sym,
    psd_distance,
    soc_distance,
    svec_dim,
    upper_triangle,
)
from .errors import ConeguardError, DimensionMismatchError, DomainError, ProblemFormatError


class AffineFold:
    """Block entries c0 + c1 * xi + ... as (term, entry) arrays.

    Row 0 holds c0, row t term t; variable n is the constant 1, and a
    missing term is -0.0 * 1, which changes no sum.  Summing rows in
    order gives each entry's tape value; the Jacobian is summed alike.
    """

    def __init__(self, terms, n):
        shape = (1 + max(len(coef) for _, coef, _ in terms), len(terms))
        self.coef = np.full(shape, -0.0)
        self.var = np.full(shape, n, dtype=np.int32)
        for e, (c0, coef, var) in enumerate(terms):
            self.coef[: len(coef) + 1, e] = (c0, *coef)
            self.var[1 : len(var) + 1, e] = var
        jac = np.zeros((shape[1], n + 1))
        for t in range(1, shape[0]):
            jac[np.arange(shape[1]), self.var[t]] += self.coef[t]
        self.jac = jac[:, :n].copy()

    def values(self, x):
        return np.add.accumulate(self.coef * np.concatenate((x, [1.0]))[self.var])[-1]


@dataclass(frozen=True)
class ConicBlock:
    name: str
    kind: str  # "soc" | "psd"
    dim: int
    entries: tuple  # of ex.Tape
    affine: AffineFold | None = field(default=None, compare=False, repr=False)


def _block(name, kind, dim, entries, n):
    terms = [ex.affine_terms(entry) for entry in entries]
    fold = None if None in terms else AffineFold(terms, n)
    return ConicBlock(name, kind, dim, tuple(entries), fold)


@dataclass(frozen=True)
class ConicProgram:
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
    try:
        n = int(parts[1])
    except ValueError:
        raise ProblemFormatError("variable count must be an integer", line_no) from None
    if n < 1:
        raise ProblemFormatError("variable count must be positive", line_no)

    line_no, body = take()
    key, _, rest = body.partition(" ")
    if key != "objective" or not rest.strip():
        raise ProblemFormatError("expected 'objective <expr>'", line_no)
    objective = _parse_expr(rest.strip(), n, line_no)

    eq_names, equalities, blocks = [], [], []
    seen_blocks = set()
    stage = "eq"
    while pos < len(lines):
        line_no, body = take()
        parts = body.split(None, 2)
        key = parts[0]
        if key == "eq":
            if stage != "eq":
                raise ProblemFormatError("equalities must precede blocks", line_no)
            if len(parts) != 3:
                raise ProblemFormatError("expected 'eq <name> <expr>'", line_no)
            name = parts[1]
            if name in eq_names:
                raise ProblemFormatError("duplicate equality name %r" % name, line_no)
            eq_names.append(name)
            equalities.append(_parse_expr(parts[2], n, line_no))
        elif key in ("soc", "psd"):
            stage = "block"
            if len(parts) != 3:
                raise ProblemFormatError("expected '%s <name> <m>'" % key, line_no)
            name = parts[1]
            if name in seen_blocks:
                raise ProblemFormatError("duplicate block name %r" % name, line_no)
            seen_blocks.add(name)
            try:
                m = int(parts[2])
            except ValueError:
                raise ProblemFormatError("block dimension must be an integer", line_no) from None
            if m < 1:
                raise ProblemFormatError("block dimension must be positive", line_no)
            count = m if key == "soc" else svec_dim(m)
            entries = []
            for _ in range(count):
                entry_no, entry_body = take()
                entries.append(_parse_expr(entry_body, n, entry_no))
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


@dataclass(eq=False)
class SocBlockValue:
    value: SocVector
    jac: np.ndarray  # (m, n)


@dataclass(eq=False)
class PsdBlockValue:
    value: SymMatrix
    partials: np.ndarray  # (n, m, m), each slice symmetric
    spectral: SpectralData


@dataclass(eq=False)
class EvaluatedPoint:
    program: ConicProgram
    x: np.ndarray
    f: float
    grad_f: np.ndarray
    h: np.ndarray
    jac_h: np.ndarray  # (p, n)
    blocks: tuple
    residual: float


def _rows(tapes, x, where):
    """Values and gradient rows of tapes at x; ``where(i)`` names tape i."""
    vals, jac = np.zeros(len(tapes)), np.zeros((len(tapes), x.size))
    for i, tape in enumerate(tapes):
        try:
            gv = ex.eval_grad(tape, x)
        except DomainError as err:
            raise DomainError("%s: %s" % (where(i), err)) from err
        vals[i], jac[i] = gv.value, gv.partials
    return _finite(vals, jac, where)


def _finite(vals, jac, where):
    if np.count_nonzero(np.isfinite(jac)) + np.count_nonzero(np.isfinite(vals)) < jac.size + len(vals):
        bad = ~(np.isfinite(vals) & np.isfinite(jac).all(axis=1))
        raise DomainError("%s: non-finite value or derivative" % where(int(np.argmax(bad))))
    return vals, jac


@np.errstate(over="ignore", invalid="ignore")  # _finite reports these
def evaluate(prog, x):
    """Evaluate objective, constraints, Jacobians, and cone residuals at x.

    Raises DomainError outside a domain or on a non-finite value.
    """
    x = np.asarray(x, dtype=float).reshape(-1)
    if x.size != prog.n:
        raise DimensionMismatchError("point has %d coordinates, program has %d" % (x.size, prog.n))
    gf = ex.eval_grad(prog.objective, x)
    _finite(np.array([gf.value]), gf.partials[None], lambda i: "objective")
    h, jac_h = _rows(prog.equalities, x, lambda i: "equality %r" % prog.eq_names[i])
    values = []
    distances = []
    for blk in prog.blocks:
        where = lambda i: "block %r entry %d" % (blk.name, i)
        if blk.affine is None:
            vals, jac = _rows(blk.entries, x, where)
        else:
            vals, jac = _finite(blk.affine.values(x), blk.affine.jac.copy(), where)
        if blk.kind == "soc":
            z = SocVector(vals[0], vals[1:])
            values.append(SocBlockValue(z, jac))
            distances.append(soc_distance(z))
        else:
            m = blk.dim
            rows, cols = upper_triangle(m)
            mat = np.zeros((m, m))
            mat[rows, cols] = vals
            mat[cols, rows] = vals
            partials = np.zeros((prog.n, m, m))
            partials[:, rows, cols] = jac.T
            partials[:, cols, rows] = jac.T
            sym = SymMatrix(mat)
            spectral = eig_sym(sym)
            values.append(PsdBlockValue(sym, partials, spectral))
            distances.append(psd_distance(sym, spectral))
    hres = float(np.max(np.abs(h))) if prog.p else 0.0
    # np.max keeps a NaN, which max would drop
    residual = float(np.max([hres] + distances))
    return EvaluatedPoint(prog, x.copy(), gf.value, gf.partials, h, jac_h, tuple(values), residual)


def block_distances(pt):
    """Per-constraint infeasibility, keyed by name."""
    out = {}
    for i, name in enumerate(pt.program.eq_names):
        out["eq:" + name] = abs(float(pt.h[i]))
    for blk, bv in zip(pt.program.blocks, pt.blocks):
        if blk.kind == "soc":
            out[blk.name] = soc_distance(bv.value)
        else:
            out[blk.name] = psd_distance(bv.value, bv.spectral)
    return out


def apply_jacobian_adjoint(pt, j, multiplier):
    """Compute the gradient-space image J_g^T(mu) for block j."""
    blk = pt.program.blocks[j]
    bv = pt.blocks[j]
    if blk.kind == "soc":
        mu = multiplier.as_array() if isinstance(multiplier, SocVector) else np.asarray(multiplier)
        return bv.jac.T @ mu
    mat = multiplier.mat if isinstance(multiplier, SymMatrix) else np.asarray(multiplier)
    return np.tensordot(bv.partials, mat, axes=([1, 2], [0, 1]))


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
    zero = ex.parse("0", prog.n)
    grid = [[zero] * total for _ in range(total)]
    off = 0
    for blk in prog.blocks:
        for entry, a, b in zip(blk.entries, *upper_triangle(blk.dim)):
            grid[off + a][off + b] = entry
        off += blk.dim
    entries = [grid[a][b] for a, b in zip(*upper_triangle(total))]
    name = "diag"
    taken = {blk.name for blk in prog.blocks}
    while name in taken:
        name += "_"
    block = _block(name, "psd", total, entries, prog.n)
    return ConicProgram(prog.n, prog.objective, prog.eq_names, prog.equalities, (block,))
