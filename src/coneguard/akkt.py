"""Approximate-KKT traces: residual evaluation, certification, recovery.

A trace is an ordered list of iterate records (point, equality multipliers,
cone multipliers for the irreducible blocks, scalar coefficients for the
reduced blocks).  The stationarity residual of a record keeps the index
sets frozen at a reference point while evaluating all gradients at the
record's own point.

Trace file format (text, '#' starts a comment, 17 significant digits):

    k <integer>
    x <n values>
    lambda <p values>            (omitted when there are no equalities)
    mu <block-name> <values...>  (cone multiplier; second-order blocks list
                                  m values, semidefinite blocks list the
                                  m(m+1)/2 upper-triangle entries row-major)
    alpha <block-name> <value>   (reduced-block coefficient)

Records start at their `k` line; `mu` and `alpha` lines may repeat per
block.  Missing multipliers default to zero.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .certificates import (
    TOL_CERT,
    TOL_RANK,
    Certificate,
    DependenceWitness,
    caratheodory_reduce,
    numerical_rank,
    verify_dependence,
)
from .classify import TOL_ACT, TOL_GAP, classify
from .cones import SocVector, eig_sym, psd_distance, reflect, soc_distance, upper_triangle
from .errors import (
    DimensionMismatchError,
    ProblemFormatError,
    ReconstructionError,
)
from .model import ConicProgram, apply_jacobian_adjoint, evaluate
from .reduction import eigen_gap, reduced_view

CONE_SLACK = 1e-9
ALPHA_SLACK = -1e-12
M_CAP = 1e8
GROWTH_FACTOR = 10.0

_F = "%.17g"


@dataclass(frozen=True)
class AkktRecord:
    k: int
    x: np.ndarray
    lam: np.ndarray
    mu: dict  # block name -> (m,) array for soc, (m, m) symmetric for psd
    alpha: dict  # block name -> float


@dataclass(frozen=True)
class AkktTrace:
    records: tuple

    def __len__(self):
        return len(self.records)


def _mu_norm(arr):
    return float(np.linalg.norm(np.asarray(arr)))


def build_trace(prog: ConicProgram, records) -> AkktTrace:
    """Validate record invariants and freeze them into a trace."""
    records = tuple(records)
    prev_k = None
    for rec in records:
        if prev_k is not None and rec.k <= prev_k:
            raise ProblemFormatError("record indices must increase (k=%d)" % rec.k)
        prev_k = rec.k
        if rec.x.size != prog.n:
            raise DimensionMismatchError(
                "record x has %d entries, expected %d" % (rec.x.size, prog.n)
            )
        if rec.lam.size != prog.p:
            raise DimensionMismatchError(
                "record lambda has %d entries, expected %d" % (rec.lam.size, prog.p)
            )
        for name, arr in rec.mu.items():
            j = prog.block_index(name)
            blk = prog.blocks[j]
            arr = np.asarray(arr, dtype=float)
            if blk.kind == "soc":
                if arr.shape != (blk.dim,):
                    raise DimensionMismatchError(
                        "multiplier for %r has shape %r, expected (%d,)"
                        % (name, arr.shape, blk.dim)
                    )
                dist = soc_distance(SocVector(float(arr[0]), arr[1:]))
            else:
                if arr.shape != (blk.dim, blk.dim):
                    raise DimensionMismatchError(
                        "multiplier for %r has shape %r, expected (%d, %d)"
                        % (name, arr.shape, blk.dim, blk.dim)
                    )
                dist = psd_distance(arr)
            if dist > CONE_SLACK * max(1.0, _mu_norm(arr)):
                raise ProblemFormatError(
                    "multiplier for %r is %g away from its cone" % (name, dist)
                )
        for name, a in rec.alpha.items():
            prog.block_index(name)
            if a < ALPHA_SLACK:
                raise ProblemFormatError(
                    "coefficient for %r is negative (%g)" % (name, a)
                )
    return AkktTrace(records)


def dumps_trace(trace: AkktTrace) -> str:
    lines = []
    for rec in trace.records:
        lines.append("k %d" % rec.k)
        lines.append("x " + " ".join(_F % v for v in rec.x))
        if rec.lam.size:
            lines.append("lambda " + " ".join(_F % v for v in rec.lam))
        for name in sorted(rec.mu):
            arr = np.asarray(rec.mu[name], dtype=float)
            vals = arr if arr.ndim == 1 else arr[upper_triangle(arr.shape[0])]
            lines.append("mu %s " % name + " ".join(_F % v for v in vals))
        for name in sorted(rec.alpha):
            lines.append("alpha %s " % name + _F % rec.alpha[name])
    return "\n".join(lines) + "\n"


def dump_trace(trace: AkktTrace, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps_trace(trace))


def loads_trace(prog: ConicProgram, text: str) -> AkktTrace:
    records = []
    current = None

    def flush(line_no):
        if current is None:
            return
        if current.get("x") is None:
            raise ProblemFormatError("record without an x line", line=line_no)
        records.append(
            AkktRecord(
                current["k"],
                current["x"],
                current["lam"],
                current["mu"],
                current["alpha"],
            )
        )

    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        tag = tokens[0]
        try:
            if tag == "k":
                if len(tokens) != 2:
                    raise ProblemFormatError("k line needs one integer", line=line_no)
                flush(line_no)
                current = {
                    "k": int(tokens[1]),
                    "x": None,
                    "lam": np.zeros(prog.p),
                    "mu": {},
                    "alpha": {},
                }
            elif current is None:
                raise ProblemFormatError("line before the first record", line=line_no)
            elif tag == "x":
                vals = np.array([float(t) for t in tokens[1:]])
                if vals.size != prog.n:
                    raise ProblemFormatError(
                        "x line has %d values, expected %d" % (vals.size, prog.n),
                        line=line_no,
                    )
                current["x"] = vals
            elif tag == "lambda":
                vals = np.array([float(t) for t in tokens[1:]])
                if vals.size != prog.p:
                    raise ProblemFormatError(
                        "lambda line has %d values, expected %d" % (vals.size, prog.p),
                        line=line_no,
                    )
                current["lam"] = vals
            elif tag == "mu":
                name = tokens[1]
                j = prog.block_index(name)
                blk = prog.blocks[j]
                vals = np.array([float(t) for t in tokens[2:]])
                if name in current["mu"]:
                    raise ProblemFormatError(
                        "duplicate multiplier for %r" % name, line=line_no
                    )
                if blk.kind == "soc":
                    if vals.size != blk.dim:
                        raise ProblemFormatError(
                            "multiplier for %r has %d values, expected %d"
                            % (name, vals.size, blk.dim),
                            line=line_no,
                        )
                    current["mu"][name] = vals
                else:
                    need = blk.dim * (blk.dim + 1) // 2
                    if vals.size != need:
                        raise ProblemFormatError(
                            "multiplier for %r has %d values, expected %d"
                            % (name, vals.size, need),
                            line=line_no,
                        )
                    mat = np.zeros((blk.dim, blk.dim))
                    iu = upper_triangle(blk.dim)
                    mat[iu] = vals
                    mat.T[iu] = vals
                    current["mu"][name] = mat
            elif tag == "alpha":
                if len(tokens) != 3:
                    raise ProblemFormatError(
                        "alpha line needs a block name and one value", line=line_no
                    )
                name = tokens[1]
                prog.block_index(name)
                if name in current["alpha"]:
                    raise ProblemFormatError(
                        "duplicate coefficient for %r" % name, line=line_no
                    )
                current["alpha"][name] = float(tokens[2])
            else:
                raise ProblemFormatError("unknown line tag %r" % tag, line=line_no)
        except (ValueError, KeyError) as exc:
            raise ProblemFormatError(str(exc), line=line_no) from exc
    flush(None)
    return build_trace(prog, records)


def load_trace(prog: ConicProgram, path) -> AkktTrace:
    with open(path, "r", encoding="utf-8") as fh:
        return loads_trace(prog, fh.read())


def _check_record_names(cls, record):
    conic_names = set(cls.names(cls.conic()))
    reduced_names = set(cls.names(cls.reduced()))
    extra_mu = set(record.mu) - conic_names
    if extra_mu:
        raise DimensionMismatchError(
            "cone multipliers for non-irreducible blocks: %s" % sorted(extra_mu)
        )
    extra_alpha = set(record.alpha) - reduced_names
    if extra_alpha:
        raise DimensionMismatchError(
            "reduced coefficients for non-reduced blocks: %s" % sorted(extra_alpha)
        )


def _stationarity(prog, cls, record):
    """Residual vector of a record with index sets frozen at the reference.

    Returns the vector together with the list of blocks whose eigen-gap
    collapsed at the record's point (their gradient is still used).
    """
    ptk = evaluate(prog, record.x)
    _check_record_names(cls, record)
    vec = ptk.grad_f.copy()
    if prog.p:
        vec = vec + ptk.jac_h.T @ record.lam
    names = cls.block_names
    for j in cls.conic():
        mu = record.mu.get(names[j])
        if mu is None:
            continue
        vec = vec - apply_jacobian_adjoint(ptk, j, mu)
    flags = []
    view = reduced_view(ptk, cls, strict=False)
    for entry in view.entries:
        a = float(record.alpha.get(names[entry.block], 0.0))
        vec = vec - a * entry.gradient
        if entry.label == "eigen-min":
            gap, scale = eigen_gap(ptk, entry.block)
            if gap <= cls.tol_gap * scale:
                flags.append(names[entry.block])
    return vec, flags


def akkt_residual(prog, cls, record) -> float:
    """Euclidean norm of the frozen-set stationarity expression at a record."""
    vec, _ = _stationarity(prog, cls, record)
    return float(np.linalg.norm(vec))


@dataclass(frozen=True)
class CertifyOutcome:
    certified: bool
    reason: str | None = None
    offending_k: int | None = None
    detail: dict = field(default_factory=dict)


def certify_akkt(prog, x_star, trace, tol=1e-6, tol_act=TOL_ACT, tol_gap=TOL_GAP) -> CertifyOutcome:
    """Check that a trace witnesses approximate stationarity at x_star.

    Clauses, in order: the trace has a usable tail (length at least two);
    tail iterates stay within tol of x_star without drifting away; tail
    stationarity residuals stay within tol; and for every irreducible
    semidefinite block, multiplier eigenvalues matched (greedily, by
    absolute eigenvector inner product) to strictly positive eigenvalues of
    the block at x_star stay within tol of zero.

    The tail is the final quarter of the records (at least one), so the
    verdict rests on where the sequence settles rather than how it starts.
    """
    x_star = np.asarray(x_star, dtype=float).reshape(-1)
    records = trace.records
    if len(records) < 2:
        return CertifyOutcome(False, "insufficient tail", records[-1].k if records else None)
    pt_star = evaluate(prog, x_star)
    cls = classify(pt_star, tol_act, tol_gap)
    tail = records[-max(1, len(records) // 4) :]
    detail = {"tail_start_k": tail[0].k, "tail_length": len(tail)}

    dists = [float(np.linalg.norm(rec.x - x_star)) for rec in tail]
    detail["max_tail_distance"] = max(dists)
    for rec, dist in zip(tail, dists):
        if dist > tol:
            return CertifyOutcome(False, "iterates do not reach the reference point", rec.k, detail)
    if dists[-1] > dists[0] + 1e-12 * max(1.0, dists[0]):
        detail["first_tail_distance"] = dists[0]
        detail["last_tail_distance"] = dists[-1]
        return CertifyOutcome(False, "iterate distances increase over the tail", tail[-1].k, detail)

    flags = []
    residuals = []
    for rec in tail:
        vec, rec_flags = _stationarity(prog, cls, rec)
        flags.extend(rec_flags)
        res = float(np.linalg.norm(vec))
        residuals.append(res)
        if res > tol:
            detail["residual"] = res
            return CertifyOutcome(False, "stationarity residual does not vanish", rec.k, detail)
    detail["max_tail_residual"] = max(residuals)
    if flags:
        detail["eigen_gap_flags"] = tuple(sorted(set(flags)))

    names = cls.block_names
    for j in cls.psd_multiple:
        blk_star = pt_star.blocks[j]
        scale = max(1.0, blk_star.value.norm())
        g_vals = blk_star.spectral.eigenvalues
        g_vecs = blk_star.spectral.eigenvectors
        positive = [i for i in range(g_vals.size) if g_vals[i] > tol_act * scale]
        if not positive:
            continue
        for rec in tail:
            mu = rec.mu.get(names[j])
            if mu is None:
                continue
            spec_mu = eig_sym(np.asarray(mu, dtype=float))
            scores = np.abs(spec_mu.eigenvectors.T @ g_vecs)
            m = g_vals.size
            match = {}
            used_rows = set()
            used_cols = set()
            for _ in range(m):
                best = (-1.0, None, None)
                for a in range(m):
                    if a in used_rows:
                        continue
                    for b in range(m):
                        if b in used_cols:
                            continue
                        if scores[a, b] > best[0]:
                            best = (scores[a, b], a, b)
                _, a, b = best
                used_rows.add(a)
                used_cols.add(b)
                match[b] = a
            for b in positive:
                sigma = float(spec_mu.eigenvalues[match[b]])
                if abs(sigma) > tol:
                    detail["block"] = names[j]
                    detail["matched_eigenvalue"] = sigma
                    detail["reference_eigenvalue"] = float(g_vals[b])
                    return CertifyOutcome(
                        False,
                        "multiplier keeps mass on a positive eigenvalue direction",
                        rec.k,
                        detail,
                    )
    return CertifyOutcome(True, None, None, detail)


def verify_kkt(pt, lam, mu_by_name, tol):
    """Independent first-order optimality check at an evaluated point.

    Recomputes stationarity, cone membership, and per-block complementarity
    directly from the supplied multipliers.
    """
    stat = pt.grad_f.copy()
    if pt.program.p:
        stat = stat + pt.jac_h.T @ np.asarray(lam, dtype=float)
    cone_worst = 0.0
    comp_worst = 0.0
    for j, blk in enumerate(pt.program.blocks):
        mu = mu_by_name.get(blk.name)
        if mu is None:
            continue
        mu = np.asarray(mu, dtype=float)
        bv = pt.blocks[j]
        if blk.kind == "soc":
            stat = stat - bv.jac.T @ mu
            cone = soc_distance(SocVector(float(mu[0]), mu[1:]))
            gval = bv.value.as_array()
            comp = abs(float(mu @ gval))
            gnorm = float(np.linalg.norm(gval))
        else:
            stat = stat - np.tensordot(bv.partials, mu, axes=([1, 2], [0, 1]))
            cone = psd_distance(mu)
            comp = abs(float(np.sum(mu * bv.value.mat)))
            gnorm = bv.value.norm()
        cone_worst = max(cone_worst, cone)
        comp_worst = max(comp_worst, comp / (max(1.0, _mu_norm(mu)) * max(1.0, gnorm)))
    stat_norm = float(np.linalg.norm(stat))
    ok = stat_norm <= tol and cone_worst <= tol and comp_worst <= tol
    return ok, {
        "stationarity": stat_norm,
        "cone_distance": cone_worst,
        "complementarity": comp_worst,
    }


@dataclass(frozen=True)
class RecoveryOutcome:
    verdict: str  # "kkt" | "unbounded" | "inconclusive"
    multipliers: dict | None = None
    residual: float | None = None
    equality_basis: tuple = ()
    modal_subset: tuple = ()
    modal_frequency: int = 0
    m_values: tuple = ()
    certificate: Certificate | None = None
    detail: dict = field(default_factory=dict)


def recover_kkt(
    prog,
    x_star,
    trace,
    tol=1e-6,
    tol_act=TOL_ACT,
    tol_gap=TOL_GAP,
    tol_rank=TOL_RANK,
    tol_cert=TOL_CERT,
    m_cap=M_CAP,
) -> RecoveryOutcome:
    """Extract limiting multipliers from a trace, or a divergence witness.

    Per tail record the equality term is re-expressed on a fixed gradient
    basis and the reduced-gradient terms are thinned to an independent
    subfamily; the most frequent surviving subset is followed.  Bounded
    coefficient magnitudes yield candidate multipliers (independently
    verified); magnitudes growing past the cap yield a normalized witness
    of cone-coefficient degeneracy at x_star, verified by substitution.
    """
    x_star = np.asarray(x_star, dtype=float).reshape(-1)
    records = trace.records
    if not records:
        return RecoveryOutcome("inconclusive", detail={"reason": "empty trace"})
    pt_star = evaluate(prog, x_star)
    cls = classify(pt_star, tol_act, tol_gap)
    names = cls.block_names
    reduced = cls.reduced()

    eq_rows_star = [pt_star.jac_h[i] for i in range(prog.p)]
    if eq_rows_star:
        _, basis_i = numerical_rank(eq_rows_star, tol_rank)
    else:
        basis_i = ()
    basis_names = tuple(prog.eq_names[i] for i in basis_i)

    tail = records[len(records) // 2 :]
    subrecords = []
    reexpress_worst = 0.0
    for rec in tail:
        ptk = evaluate(prog, rec.x)
        fixed = [ptk.jac_h[i] for i in basis_i]
        if basis_i:
            amat = np.column_stack(fixed)
            bvec = ptk.jac_h.T @ rec.lam if prog.p else np.zeros(prog.n)
            lam_hat, *_ = np.linalg.lstsq(amat, bvec, rcond=None)
            reexpress_worst = max(
                reexpress_worst, float(np.linalg.norm(amat @ lam_hat - bvec))
            )
        else:
            lam_hat = np.zeros(0)
            bvec = np.zeros(prog.n)
        view = reduced_view(ptk, cls, strict=False)
        coned = [
            (entry.gradient, float(rec.alpha.get(names[entry.block], 0.0)))
            for entry in view.entries
        ]
        target = bvec.copy()
        for vec, beta in coned:
            target = target + beta * vec
        try:
            result = caratheodory_reduce(fixed, coned, target, tol_rank)
        except ReconstructionError as exc:
            return RecoveryOutcome(
                "inconclusive",
                equality_basis=basis_names,
                detail={
                    "reason": "combination could not be reconstructed",
                    "residual": exc.residual,
                    "k": rec.k,
                },
            )
        subset = tuple(reduced[i] for i in result.kept)
        alpha_hat = {reduced[i]: float(c) for i, c in zip(result.kept, result.coeffs)}
        mvals = [float(np.max(np.abs(result.fixed_coeffs), initial=0.0))]
        mvals.append(float(np.max(np.abs(result.coeffs), initial=0.0)))
        for j in cls.conic():
            mu = rec.mu.get(names[j])
            if mu is not None:
                mvals.append(_mu_norm(mu))
        subrecords.append(
            {
                "rec": rec,
                "subset": subset,
                "lam": result.fixed_coeffs,
                "alpha": alpha_hat,
                "m": max(mvals),
            }
        )

    counts = {}
    for sr in subrecords:
        counts[sr["subset"]] = counts.get(sr["subset"], 0) + 1
    modal = sorted(counts.items(), key=lambda item: (-item[1], item[0]))[0][0]
    chain = [sr for sr in subrecords if sr["subset"] == modal]
    m_values = tuple(sr["m"] for sr in chain)
    modal_names = tuple(names[j] for j in modal)
    frequency = counts[modal]
    base_detail = {
        "tail_length": len(tail),
        "reexpression_residual": reexpress_worst,
        "subset_counts": tuple(
            (tuple(names[j] for j in sub), cnt) for sub, cnt in sorted(counts.items())
        ),
    }

    last = chain[-1]
    if max(m_values) <= m_cap:
        lam_full = np.zeros(prog.p)
        for pos, i in enumerate(basis_i):
            lam_full[i] = last["lam"][pos]
        mu_map = {}
        for j, blk in enumerate(prog.blocks):
            name = blk.name
            if j in cls.conic():
                mu = last["rec"].mu.get(name)
                if mu is None:
                    mu = np.zeros(blk.dim) if blk.kind == "soc" else np.zeros((blk.dim, blk.dim))
                mu_map[name] = np.asarray(mu, dtype=float)
            elif j in reduced:
                a = float(last["alpha"].get(j, 0.0))
                if j in cls.soc_boundary:
                    mu_map[name] = a * reflect(pt_star.blocks[j].value).as_array()
                elif j in cls.soc_scalar_active:
                    mu_map[name] = np.array([a])
                else:
                    v = pt_star.blocks[j].spectral.eigenvectors[:, 0]
                    mu_map[name] = a * np.outer(v, v)
            else:
                mu_map[name] = (
                    np.zeros(blk.dim) if blk.kind == "soc" else np.zeros((blk.dim, blk.dim))
                )
        ok, vdetail = verify_kkt(pt_star, lam_full, mu_map, 10.0 * tol)
        base_detail.update(vdetail)
        if ok:
            return RecoveryOutcome(
                "kkt",
                multipliers={"lambda": lam_full, "mu": mu_map},
                residual=vdetail["stationarity"],
                equality_basis=basis_names,
                modal_subset=modal_names,
                modal_frequency=frequency,
                m_values=m_values,
                detail=base_detail,
            )
        base_detail["reason"] = "bounded multipliers fail first-order verification"
        return RecoveryOutcome(
            "inconclusive",
            equality_basis=basis_names,
            modal_subset=modal_names,
            modal_frequency=frequency,
            m_values=m_values,
            detail=base_detail,
        )

    if m_values[-1] >= GROWTH_FACTOR * max(m_values[0], 1.0):
        m_last = max(m_values[-1], 1.0)
        eq_basis = [pt_star.jac_h[i] for i in basis_i]
        socs = [pt_star.blocks[j].jac for j in cls.soc_vertex_multi]
        psds = [pt_star.blocks[j].partials for j in cls.psd_multiple]
        view_star = reduced_view(pt_star, cls, strict=False)
        rays = [view_star[j].gradient for j in modal]
        lam_w = -np.asarray(last["lam"], dtype=float) / m_last
        soc_w = []
        for j in cls.soc_vertex_multi:
            mu = last["rec"].mu.get(names[j])
            soc_w.append(
                np.asarray(mu, dtype=float) / m_last if mu is not None else np.zeros(prog.blocks[j].dim)
            )
        psd_w = []
        for j in cls.psd_multiple:
            mu = last["rec"].mu.get(names[j])
            psd_w.append(
                np.asarray(mu, dtype=float) / m_last
                if mu is not None
                else np.zeros((prog.blocks[j].dim, prog.blocks[j].dim))
            )
        alpha_w = np.array([last["alpha"].get(j, 0.0) / m_last for j in modal])
        normalization = (
            sum(float(mu[0]) for mu in soc_w)
            + sum(float(np.trace(mat)) for mat in psd_w)
            + float(np.sum(alpha_w))
        )
        if normalization <= 1e-12:
            base_detail["reason"] = "diverging coefficients carry no cone mass"
            return RecoveryOutcome(
                "inconclusive",
                equality_basis=basis_names,
                modal_subset=modal_names,
                modal_frequency=frequency,
                m_values=m_values,
                detail=base_detail,
            )
        witness = DependenceWitness(
            lam_w / normalization,
            tuple(mu / normalization for mu in soc_w),
            tuple(mat / normalization for mat in psd_w),
            alpha_w / normalization,
        )
        ok, residual, cone_gap, norm_value = verify_dependence(
            eq_basis, socs, psds, rays, witness, tol_cert
        )
        base_detail["witness_residual"] = residual
        base_detail["witness_cone_gap"] = cone_gap
        if ok:
            cert = Certificate(
                "dependent",
                witness=witness,
                residual=residual,
                normalization=norm_value,
                iterations=0,
                detail={"source": "diverging multiplier trace", "cone_gap": cone_gap},
            )
            return RecoveryOutcome(
                "unbounded",
                equality_basis=basis_names,
                modal_subset=modal_names,
                modal_frequency=frequency,
                m_values=m_values,
                certificate=cert,
                detail=base_detail,
            )
        base_detail["reason"] = "divergence witness failed substitution"
        return RecoveryOutcome(
            "inconclusive",
            equality_basis=basis_names,
            modal_subset=modal_names,
            modal_frequency=frequency,
            m_values=m_values,
            detail=base_detail,
        )

    base_detail["reason"] = "coefficients exceed the cap without sustained growth"
    return RecoveryOutcome(
        "inconclusive",
        equality_basis=basis_names,
        modal_subset=modal_names,
        modal_frequency=frequency,
        m_values=m_values,
        detail=base_detail,
    )
