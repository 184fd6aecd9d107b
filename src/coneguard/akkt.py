"""Approximate-KKT traces: residual evaluation, certification, recovery.

A trace is an ordered list of iterate records (point, equality multipliers,
cone multipliers for the irreducible blocks, scalar coefficients for the
reduced blocks).  The stationarity residual of a record keeps the index
sets frozen at a reference point while evaluating all gradients at the
record's own point.

Trace text format, as dumps_trace writes it and loads_trace reads it ('#'
starts a comment, 17 significant digits; the module opens no file):

    k <integer>
    x <n values>
    lambda <p values>            (omitted when there are no equalities)
    mu <block-name> <values...>  (cone multiplier; second-order blocks list
                                  m values, semidefinite blocks list the
                                  m(m+1)/2 upper-triangle entries row-major)
    alpha <block-name> <value>   (reduced-block coefficient)

Records start at their `k` line; a record has one `x` line, at most one
`lambda` line, and at most one `mu` or `alpha` line per block.  Missing
multipliers default to zero.  ``trace_from_iterates`` builds a trace from
a solver's iterates.
"""

from __future__ import annotations

import functools
from typing import NamedTuple

import numpy as np

from .certificates import (
    TOL_CERT,
    TOL_RANK,
    Certificate,
    DependenceWitness,
    caratheodory_reduce,
    factored,
    verify_dependence,
)
from .classify import TOL_ACT, TOL_GAP, classify, eigen_gap, kernel_basis
from .cones import listed, psd_distance, soc_distance, svec_dim, sym_from_upper
from .errors import (
    DimensionMismatchError,
    DomainError,
    InfeasiblePointError,
    ProblemFormatError,
    ReconstructionError,
)
from .model import ConicProgram, evaluate, lagrangian_gradient
from .reduction import conic_base, dependence_system, equality_basis, reduced_view

CONE_SLACK = 1e-9
ALPHA_SLACK = -1e-12
M_CAP = 1e8
TOL_KKT = 1e-6
GROWTH_FACTOR = 10.0

_F = "%.17g"


class AkktRecord(NamedTuple):
    k: int
    x: np.ndarray
    lam: np.ndarray
    mu: dict  # block name -> (m,) array for soc, (m, m) symmetric for psd
    alpha: dict  # block name -> float


class AkktTrace(NamedTuple):
    records: tuple

    def __len__(self):
        return len(self.records)


def _finite(rec, what, values):
    if not np.isfinite(values).all():
        raise ProblemFormatError("record k=%d: %s has a non-finite entry" % (rec.k, what))


def _named_block(prog, rec, name):
    """The block that a record's mu or alpha entry names."""
    try:
        return prog.blocks[prog.block_index(name)]
    except KeyError:
        raise ProblemFormatError("record k=%d: unknown block %r" % (rec.k, name)) from None


def build_trace(prog: ConicProgram, records) -> AkktTrace:
    """Validate record invariants and freeze them into a trace.

    Every x, lambda, mu and alpha entry must be finite.
    """
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
        _finite(rec, "x", rec.x)
        _finite(rec, "lambda", rec.lam)
        for name, arr in rec.mu.items():
            blk = _named_block(prog, rec, name)
            arr = np.asarray(arr, dtype=float)
            _finite(rec, "mu for %r" % name, arr)
            expected = (blk.dim,) if blk.kind == "soc" else (blk.dim, blk.dim)
            if arr.shape != expected:
                raise DimensionMismatchError(
                    "multiplier for %r has shape %r, expected %r" % (name, arr.shape, expected)
                )
            dist = soc_distance(arr) if blk.kind == "soc" else psd_distance(arr)
            if dist > CONE_SLACK * max(1.0, float(np.linalg.norm(arr))):
                raise ProblemFormatError(
                    "multiplier for %r is %g away from its cone" % (name, dist)
                )
        for name, a in rec.alpha.items():
            _named_block(prog, rec, name)
            _finite(rec, "alpha for %r" % name, a)
            if a < ALPHA_SLACK:
                raise ProblemFormatError(
                    "coefficient for %r is negative (%g)" % (name, a)
                )
    return AkktTrace(records)


def trace_from_iterates(prog: ConicProgram, iterates) -> AkktTrace:
    """The trace of a solver's iterates, each (k, evaluated point, lambda,
    one cone multiplier per block), split under the last point's classification.

    A last point outside the cones is classified at 1.5 times its residual.
    Irreducible blocks keep their nonzero multipliers; each reduced block
    keeps its multiplier's coefficient along the block's axis.
    """
    last = iterates[-1][1]
    try:
        cls = classify(last)
    except InfeasiblePointError:
        cls = classify(last, max(last.residual * 1.5, TOL_ACT))
    names = cls.block_names
    records = []
    for k, pt, lam, mus in iterates:
        mu = {names[j]: mus[j] for j in cls.conic() if float(np.linalg.norm(mus[j])) > 0.0}
        alpha = {names[e.block]: e.coefficient(mus[e.block]) for e in reduced_view(pt, cls, strict=False).entries}
        records.append(AkktRecord(k, pt.x.copy(), np.array(lam, dtype=float), mu, alpha))
    return build_trace(prog, records)


def dumps_trace(trace: AkktTrace) -> str:
    lines = []
    for rec in trace.records:
        lines.append("k %d" % rec.k)
        lines.append("x " + " ".join(_F % v for v in rec.x))
        if rec.lam.size:
            lines.append("lambda " + " ".join(_F % v for v in rec.lam))
        for name in sorted(rec.mu):
            lines.append("mu %s " % name + " ".join(_F % v for v in listed(rec.mu[name])))
        for name in sorted(rec.alpha):
            lines.append("alpha %s " % name + _F % rec.alpha[name])
    return "\n".join(lines) + "\n"


def _values(tokens, size, what, line_no):
    """The floats of a trace line, which must number size."""
    vals = np.array([float(t) for t in tokens])
    if vals.size != size:
        raise ProblemFormatError("%s has %d values, expected %d" % (what, vals.size, size), line=line_no)
    return vals


def loads_trace(prog: ConicProgram, text: str) -> AkktTrace:
    records = []
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
                if records and records[-1].x is None:
                    raise ProblemFormatError("record without an x line", line=line_no)
                records.append(AkktRecord(int(tokens[1]), None, np.zeros(prog.p), {}, {}))
                seen = set()  # the x and lambda lines of this record
            elif not records:
                raise ProblemFormatError("line before the first record", line=line_no)
            elif tag in ("x", "lambda"):
                if tag in seen:
                    raise ProblemFormatError("duplicate %s line" % tag, line=line_no)
                seen.add(tag)
                if tag == "x":
                    records[-1] = records[-1]._replace(x=_values(tokens[1:], prog.n, "x line", line_no))
                else:
                    records[-1] = records[-1]._replace(lam=_values(tokens[1:], prog.p, "lambda line", line_no))
            elif tag == "mu":
                if len(tokens) < 2:
                    raise ProblemFormatError("mu line needs a block name and values", line=line_no)
                name, mu = tokens[1], records[-1].mu
                blk = prog.blocks[prog.block_index(name)]
                if name in mu:
                    raise ProblemFormatError("duplicate multiplier for %r" % name, line=line_no)
                what = "multiplier for %r" % name
                if blk.kind == "soc":
                    mu[name] = _values(tokens[2:], blk.dim, what, line_no)
                else:
                    vals = _values(tokens[2:], svec_dim(blk.dim), what, line_no)
                    mu[name] = sym_from_upper(vals, blk.dim)
            elif tag == "alpha":
                if len(tokens) != 3:
                    raise ProblemFormatError("alpha line needs a block name and one value", line=line_no)
                name, alpha = tokens[1], records[-1].alpha
                prog.block_index(name)
                if name in alpha:
                    raise ProblemFormatError("duplicate coefficient for %r" % name, line=line_no)
                alpha[name] = float(tokens[2])
            else:
                raise ProblemFormatError("unknown line tag %r" % tag, line=line_no)
        except ValueError as exc:
            raise ProblemFormatError(str(exc), line=line_no) from exc
        except KeyError as exc:
            raise ProblemFormatError("unknown block %r" % exc.args[0], line=line_no) from exc
    if records and records[-1].x is None:
        raise ProblemFormatError("record without an x line")
    return build_trace(prog, records)


def _record_point(prog, cls, record):
    """The evaluated point of a record, for certify and recover alike.

    A DomainError names the record; a mu or alpha on a block that takes none
    under the reference classification cls is a DimensionMismatchError.
    """
    try:
        ptk = evaluate(prog, record.x)
    except DomainError as exc:
        raise DomainError("record k=%d: %s" % (record.k, exc)) from exc
    for given, allowed, what in (
        (record.mu, cls.conic(), "cone multipliers for non-irreducible"),
        (record.alpha, cls.reduced(), "reduced coefficients for non-reduced"),
    ):
        extra = set(given) - set(cls.names(allowed))
        if extra:
            raise DimensionMismatchError("%s blocks: %s" % (what, sorted(extra)))
    return ptk


def _stationarity(prog, cls, record):
    """Residual vector of a record with index sets frozen at the reference.

    Returns the vector together with the list of blocks whose eigen-gap
    collapsed at the record's point (their gradient is still used).
    """
    ptk = _record_point(prog, cls, record)
    names = cls.block_names
    vec = lagrangian_gradient(ptk, record.lam, [record.mu.get(name) for name in names])
    flags = []
    view = reduced_view(ptk, cls, strict=False)
    for entry in view.entries:
        a = float(record.alpha.get(names[entry.block], 0.0))
        vec = vec - a * entry.gradient
        if entry.label == "kernel-simple":
            gap, scale = eigen_gap(ptk, entry.block)
            if gap <= cls.tol_gap * scale:
                flags.append(names[entry.block])
    return vec, flags


def akkt_residual(prog, cls, record) -> float:
    """Euclidean norm of the frozen-set stationarity expression at a record."""
    vec, _ = _stationarity(prog, cls, record)
    return float(np.linalg.norm(vec))


class CertifyOutcome:
    __slots__ = ("certified", "reason", "offending_k", "detail")

    def __init__(self, certified, reason=None, offending_k=None, detail=None):
        self.certified = certified
        self.reason = reason
        self.offending_k = offending_k
        self.detail = {} if detail is None else detail


def certify_akkt(pt_star, trace, tol=TOL_KKT, tol_act=TOL_ACT, tol_gap=TOL_GAP) -> CertifyOutcome:
    """Check that a trace witnesses approximate stationarity at x_star = pt_star.x.

    pt_star is the reference point as ``model.evaluate`` returns it.

    Clauses, in order: the trace has a usable tail (length at least two);
    tail iterates stay within tol of x_star without drifting away; tail
    stationarity residuals stay within tol; and for every irreducible
    semidefinite block, the multiplier's Rayleigh quotient g^T mu g along
    each eigenvector g of the block at x_star outside its zero-eigenvalue
    cluster (``classify.kernel_basis``) stays within tol of zero, so the
    multiplier lives on the cluster's face.

    The tail is the final quarter of the records (at least one), so the
    verdict rests on where the sequence settles rather than how it starts.
    """
    prog, x_star = pt_star.program, pt_star.x
    records = trace.records
    if len(records) < 2:
        return CertifyOutcome(False, "insufficient tail", records[-1].k if records else None)
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
        spectral = pt_star.blocks[j].spectral
        first = kernel_basis(pt_star, j, cls).shape[1]  # eigenvalues ascend: the rest are positive
        positive = list(zip(spectral.eigenvectors.T[first:], spectral.eigenvalues[first:]))
        for rec in tail:
            mu = rec.mu.get(names[j])
            if mu is None:
                continue
            for g, sigma in positive:
                along = float(g @ mu @ g)
                if abs(along) > tol:
                    detail["block"] = names[j]
                    detail["matched_eigenvalue"] = along
                    detail["reference_eigenvalue"] = float(sigma)
                    return CertifyOutcome(
                        False,
                        "multiplier keeps mass on a positive eigenvalue direction",
                        rec.k,
                        detail,
                    )
    return CertifyOutcome(True, None, None, detail)


def verify_kkt(pt, lam, mu_by_name, tol):
    """First-order optimality check at an evaluated point.

    Computes stationarity (``model.lagrangian_gradient``), cone membership,
    and per-block complementarity from the supplied multipliers.
    """
    blocks = pt.program.blocks
    stat = lagrangian_gradient(pt, lam, [mu_by_name.get(blk.name) for blk in blocks])
    cone_worst = 0.0
    comp_worst = 0.0
    for blk, bv in zip(blocks, pt.blocks):
        mu = mu_by_name.get(blk.name)
        if mu is None:
            continue
        mu = np.asarray(mu, dtype=float)
        if blk.kind == "soc":
            cone = soc_distance(mu)
            comp = abs(float(mu @ bv.value))
        else:
            cone = psd_distance(mu)
            comp = abs(float(np.sum(mu * bv.value)))
        gnorm = float(np.linalg.norm(bv.value))
        cone_worst = max(cone_worst, cone)
        comp_worst = max(comp_worst, comp / (max(1.0, float(np.linalg.norm(mu))) * max(1.0, gnorm)))
    stat_norm = float(np.linalg.norm(stat))
    ok = stat_norm <= tol and cone_worst <= tol and comp_worst <= tol
    return ok, {
        "stationarity": stat_norm,
        "cone_distance": cone_worst,
        "complementarity": comp_worst,
    }


class RecoveryOutcome:
    """Recovered multipliers or a divergence witness; witness_names label the
    witness rows (lambda, soc mu, psd mu, alpha) when a certificate is set."""

    __slots__ = (
        "verdict", "multipliers", "residual", "equality_basis", "modal_subset", "modal_frequency", "m_values",
        "certificate", "detail", "witness_names",
    )

    def __init__(
        self,
        verdict,
        multipliers=None,
        residual=None,
        equality_basis=(),
        modal_subset=(),
        modal_frequency=0,
        m_values=(),
        certificate=None,
        detail=None,
        witness_names=((), (), (), ()),
    ):
        self.verdict = verdict  # "kkt" | "unbounded" | "inconclusive"
        self.multipliers = multipliers
        self.residual = residual
        self.equality_basis = equality_basis
        self.modal_subset = modal_subset
        self.modal_frequency = modal_frequency
        self.m_values = m_values
        self.certificate = certificate
        self.detail = {} if detail is None else detail
        self.witness_names = witness_names


def recover_kkt(
    pt_star,
    trace,
    tol=TOL_KKT,
    tol_act=TOL_ACT,
    tol_gap=TOL_GAP,
    tol_rank=TOL_RANK,
    tol_cert=TOL_CERT,
    m_cap=M_CAP,
) -> RecoveryOutcome:
    """Extract limiting multipliers at x_star = pt_star.x from a trace, or a
    divergence witness; pt_star is the point as ``model.evaluate`` returns it.

    Per tail record the equality term is re-expressed on a fixed gradient
    basis and the reduced-gradient terms are thinned to an independent
    subfamily; the most frequent surviving subset is followed.  Bounded
    coefficient magnitudes yield candidate multipliers (independently
    verified); magnitudes growing past the cap yield a normalized witness
    of cone-coefficient degeneracy at x_star, verified by substitution.
    """
    prog = pt_star.program
    records = trace.records
    if not records:
        return RecoveryOutcome("inconclusive", detail={"reason": "empty trace"})
    cls = classify(pt_star, tol_act, tol_gap)
    names = cls.block_names
    reduced = cls.reduced()

    eq_rows_star, _, basis_i = equality_basis(pt_star, tol_rank)
    basis_names = tuple(prog.eq_names[i] for i in basis_i)

    tail = records[len(records) // 2 :]
    chains = {}  # kept subset -> (record, equality coefficients, alpha by block, m) in tail order
    reexpress_worst = 0.0
    for rec in tail:
        ptk = _record_point(prog, cls, rec)
        fixed = [ptk.jac_h[i] for i in basis_i]
        bvec = ptk.jac_h.T @ rec.lam if basis_i else np.zeros(prog.n)
        if basis_i:
            amat = np.column_stack(fixed)
            lam_hat, *_ = factored(np.linalg.lstsq(amat, bvec, rcond=None))
            reexpress_worst = max(
                reexpress_worst, float(np.linalg.norm(amat @ lam_hat - bvec))
            )
        view = reduced_view(ptk, cls, strict=False)
        coned = [
            (entry.gradient, max(0.0, float(rec.alpha.get(names[entry.block], 0.0))))
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
        except DimensionMismatchError:
            return RecoveryOutcome(
                "inconclusive",
                equality_basis=basis_names,
                detail={"reason": "equality basis is dependent at a tail record", "k": rec.k},
            )
        alpha_hat = {reduced[i]: float(c) for i, c in zip(result.kept, result.coeffs)}
        mvals = [float(np.max(np.abs(result.fixed_coeffs), initial=0.0))]
        mvals.append(float(np.max(np.abs(result.coeffs), initial=0.0)))
        mvals.extend(float(np.linalg.norm(rec.mu[names[j]])) for j in cls.conic() if names[j] in rec.mu)
        subset = tuple(reduced[i] for i in result.kept)
        chains.setdefault(subset, []).append((rec, result.fixed_coeffs, alpha_hat, max(mvals)))

    modal = min(chains, key=lambda sub: (-len(chains[sub]), sub))
    chain = chains[modal]
    m_values = tuple(m for *_, m in chain)
    base_detail = {
        "tail_length": len(tail),
        "reexpression_residual": reexpress_worst,
        "subset_counts": tuple((cls.names(sub), len(chains[sub])) for sub in sorted(chains)),
    }
    outcome = functools.partial(
        RecoveryOutcome,
        equality_basis=basis_names,
        modal_subset=cls.names(modal),
        modal_frequency=len(chain),
        m_values=m_values,
        detail=base_detail,
    )

    last_rec, last_lam, last_alpha, _ = chain[-1]
    last_mu = last_rec.mu
    view_star = reduced_view(pt_star, cls, strict=False)
    if max(m_values) <= m_cap:
        lam_full = np.zeros(prog.p)
        lam_full[list(basis_i)] = last_lam
        mu_map = {name: np.zeros_like(bv.value) for name, bv in zip(names, pt_star.blocks)}
        for j in cls.conic():
            mu_map[names[j]] = np.asarray(last_mu.get(names[j], mu_map[names[j]]), dtype=float)
        for entry in view_star.entries:
            mu_map[names[entry.block]] = entry.multiplier(float(last_alpha.get(entry.block, 0.0)))
        ok, vdetail = verify_kkt(pt_star, lam_full, mu_map, 10.0 * tol)
        base_detail.update(vdetail)
        if ok:
            return outcome(
                "kkt",
                multipliers={"lambda": lam_full, "mu": mu_map},
                residual=vdetail["stationarity"],
            )
        base_detail["reason"] = "bounded multipliers fail first-order verification"
        return outcome("inconclusive")

    if m_values[-1] >= GROWTH_FACTOR * max(m_values[0], 1.0):
        m_last = max(m_values[-1], 1.0)
        eq = [(prog.eq_names[i], eq_rows_star[i]) for i in basis_i]
        rays = [(names[j], view_star[j].gradient) for j in modal]
        system, witness_names = dependence_system(cls, eq, conic_base(pt_star, cls), rays)
        lam_w = -np.asarray(last_lam, dtype=float) / m_last

        def scaled(j):
            return np.asarray(last_mu.get(names[j], np.zeros_like(pt_star.blocks[j].value)), dtype=float) / m_last

        soc_w = [scaled(j) for j in cls.soc_vertex_multi]
        psd_w = [scaled(j) for j in cls.psd_multiple]
        alpha_w = np.array([last_alpha.get(j, 0.0) / m_last for j in modal])
        normalization = DependenceWitness(lam_w, soc_w, psd_w, alpha_w).mass()
        if normalization <= 1e-12:
            base_detail["reason"] = "diverging coefficients carry no cone mass"
            return outcome("inconclusive")
        witness = DependenceWitness(
            lam_w / normalization,
            tuple(mu / normalization for mu in soc_w),
            tuple(mat / normalization for mat in psd_w),
            alpha_w / normalization,
        )
        ok, residual, cone_gap, norm_value = verify_dependence(*system, witness, tol_cert)
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
            return outcome("unbounded", certificate=cert, witness_names=witness_names)
        base_detail["reason"] = "divergence witness failed substitution"
        return outcome("inconclusive")

    base_detail["reason"] = "coefficients exceed the cap without sustained growth"
    return outcome("inconclusive")
