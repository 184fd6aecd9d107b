"""Constraint-qualification verdicts at a feasible point.

Four checks are provided: nondegeneracy (a rank test on the active
gradient rows), a dual-form regularity check with cone-constrained
multipliers restricted to the complementary face of each block, and two
constant-rank conditions (rcpld, crsc) whose neighborhood clauses are
verified by seeded sampling; both read one cached neighbourhood, whose
samples are drawn and evaluated once.  Every Fails verdict carries a
concrete witness; Holds verdicts for the sampled checks state explicitly
that no counterexample was found among the samples.
"""

from __future__ import annotations

import functools
from itertools import combinations
from typing import NamedTuple

import numpy as np

from .certificates import (
    DEFAULT_BUDGET,
    TOL_CERT,
    TOL_RANK,
    cone_membership,
    conic_dependence,
    extend_basis,
    null_combination,
    numerical_rank,
)
from .classify import IndexClassification
from .cones import svec, svec_dim
from .errors import DomainError, NonSimpleEigenvalueError
from .model import EvaluatedPoint, evaluate
from .reduction import conic_base, reduced_view

DELTA = 1e-3
SAMPLES = 20
SEED = 42
SUBSET_CAP = 2 ** 16

SAMPLING_NOTE = "no violation found in %d samples of radius %g"
_NO_SAMPLE = "no usable sample point"
_NON_SIMPLE = "smallest eigenvalue not simple at a sample point"
_NO_NAMES = ((), (), (), ())


class CqReport:
    """A check's verdict; witness_names label the certificate's witness rows
    (lambda, soc mu, psd mu, alpha), in the order of the system it solved."""

    __slots__ = ("name", "verdict", "detail", "certificate", "witness_names")

    def __init__(self, name, verdict, detail=None, certificate=None, witness_names=_NO_NAMES):
        self.name = name
        self.verdict = verdict  # "Holds" | "Fails" | "Undecided"
        self.detail = {} if detail is None else detail
        self.certificate = certificate
        self.witness_names = witness_names


def _kernel_basis(pt: EvaluatedPoint, j: int, tol_act: float, tol_gap: float):
    """Eigenvectors spanning the zero-eigenvalue cluster of an active psd block."""
    blk = pt.blocks[j]
    spectral = blk.spectral
    sigma = spectral.eigenvalues
    scale = max(1.0, float(np.linalg.norm(blk.value)))
    cutoff = max(tol_act * scale, float(sigma[0]) + tol_gap * scale)
    r = int(np.count_nonzero(sigma <= cutoff))
    return spectral.eigenvectors[:, :r]


def _reduced_partials(pt: EvaluatedPoint, j: int, basis: np.ndarray):
    """Partial derivatives of the block compressed onto the kernel basis: (n, r, r)."""
    return np.einsum("ar,iab,bs->irs", basis, pt.blocks[j].partials, basis)


class _Sample(NamedTuple):
    x: np.ndarray
    eq_rows: np.ndarray  # (p, n) equality gradients
    grads: dict  # reduced block -> gradient; None where an eigen-min is not simple
    gap: float  # that eigenvalue gap, when grads is None


@functools.lru_cache(maxsize=1)
def _neighbourhood(prog, x_bytes, cls, delta, count, seed):
    """Seeded samples of the delta-ball around x, and how many were skipped.

    A point outside an expression domain is retried at half the radius a
    few times, then skipped.  Each sample is evaluated once, and keeps only
    what rcpld and crsc read of it.
    """
    x = np.frombuffer(x_bytes)
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        z = rng.standard_normal(x.size)
        nz = float(np.linalg.norm(z))
        u = z / nz if nz > 0 else np.zeros(x.size)
        radius = delta * float(rng.uniform(0.0, 1.0)) ** (1.0 / x.size)
        for _ in range(8):
            try:
                sp = evaluate(prog, x + radius * u)
                break
            except DomainError:
                radius *= 0.5
        else:  # every radius left a domain: the point is skipped
            continue
        sp.x.flags.writeable = False  # reports print it, and the cache shares it
        try:
            grads = {entry.block: entry.gradient for entry in reduced_view(sp, cls).entries}
            out.append(_Sample(sp.x, sp.jac_h, grads, None))
        except NonSimpleEigenvalueError as exc:
            out.append(_Sample(sp.x, sp.jac_h, None, exc.gap))
    return tuple(out), count - len(out)


def check_nondegeneracy(pt: EvaluatedPoint, cls: IndexClassification, *, tol_rank=TOL_RANK) -> CqReport:
    """Full row rank of all equality and active-block gradient rows.

    Rows collected: every equality gradient; every Jacobian row of a soc
    block active at the vertex; the boundary-reduction gradient of each soc
    block on the cone boundary; and, for each active psd block, one row per
    coordinate of its kernel-compressed derivative (the adjoint of
    d -> E^T Jg(d) E, which must be surjective onto the small symmetric space).
    """
    rows = []
    labels = []
    for i, name in enumerate(pt.program.eq_names):
        rows.append(pt.jac_h[i])
        labels.append("eq:" + name)
    names = cls.block_names
    for j in cls.soc_vertex:
        jac = pt.blocks[j].jac
        for r in range(jac.shape[0]):
            rows.append(jac[r])
            labels.append("%s[%d]" % (names[j], r))
    view = reduced_view(pt, cls)
    for entry in view.entries:
        if entry.label == "soc-boundary":
            rows.append(entry.gradient)
            labels.append(names[entry.block] + ":boundary")
    for j in sorted(cls.psd_simple + cls.psd_multiple):
        basis = _kernel_basis(pt, j, cls.tol_act, cls.tol_gap)
        red = _reduced_partials(pt, j, basis)
        coords = svec(red)
        for t in range(svec_dim(basis.shape[1])):
            rows.append(coords[:, t])
            labels.append("%s:kernel[%d]" % (names[j], t))
    if not rows:
        return CqReport("nondegeneracy", "Holds", {"rows": 0, "rank": 0, "note": "no active rows"})
    rank, basis_idx = numerical_rank(rows, tol_rank)
    detail = {"rows": len(rows), "rank": rank, "row_labels": tuple(labels), "tol_rank": tol_rank}
    if rank == len(rows):
        return CqReport("nondegeneracy", "Holds", detail)
    coeffs, resid = null_combination(rows, tol_rank)
    detail["witness_combination"] = coeffs
    detail["witness_residual"] = resid
    detail["basis"] = basis_idx
    return CqReport("nondegeneracy", "Fails", detail)


def _face_system(pt: EvaluatedPoint, cls: IndexClassification):
    """Cone blocks and rays of the dual regularity system at the point.

    Multipliers are restricted to the complementary face of each active
    block: full cones for vertex soc blocks and fully-degenerate psd
    kernels, single rays for boundary / scalar / simple-eigenvalue blocks.
    """
    socs = conic_base(pt, cls)[0]
    psds = []
    psd_indices = []
    for j in cls.psd_multiple:
        basis = _kernel_basis(pt, j, cls.tol_act, cls.tol_gap)
        psds.append(_reduced_partials(pt, j, basis))
        psd_indices.append(j)
    view = reduced_view(pt, cls)
    rays = [entry.gradient for entry in view.entries]
    ray_indices = [entry.block for entry in view.entries]
    return socs, list(cls.soc_vertex_multi), psds, psd_indices, rays, ray_indices


def _decide(cert, detail):
    """The verdict of a dependence certificate; its margin, residual or
    search residuals go into detail."""
    if cert.verdict == "independent":
        detail["margin"] = cert.margin
        return "Holds"
    if cert.verdict == "dependent":
        detail["residual"] = cert.residual
        return "Fails"
    detail.update(cert.detail)
    return "Undecided"


def check_robinson(
    pt: EvaluatedPoint,
    cls: IndexClassification,
    *,
    tol_rank=TOL_RANK,
    tol_cert=TOL_CERT,
    budget=DEFAULT_BUDGET,
) -> CqReport:
    """Only the zero multiplier solves the homogeneous dual system.

    The system pairs free coefficients on all equality gradients with
    cone-constrained multipliers on the complementary faces of the active
    blocks.  A rank-deficient equality Jacobian fails outright; otherwise a
    dependence certificate decides.
    """
    names = cls.block_names
    if pt.program.p:
        eq_rows = [pt.jac_h[i] for i in range(pt.program.p)]
        rank, _ = numerical_rank(eq_rows, tol_rank)
        if rank < pt.program.p:
            coeffs, resid = null_combination(eq_rows, tol_rank)
            return CqReport(
                "robinson",
                "Fails",
                {
                    "reason": "equality gradients are linearly dependent",
                    "witness_combination": coeffs,
                    "witness_residual": resid,
                },
            )
    else:
        eq_rows = []
    socs, soc_idx, psds, psd_idx, rays, ray_idx = _face_system(pt, cls)
    cert = conic_dependence(eq_rows, socs, psds, rays, budget=budget, tol_cert=tol_cert)
    detail = {
        "soc_blocks": tuple(names[j] for j in soc_idx),
        "psd_blocks": tuple(names[j] for j in psd_idx),
        "rays": tuple(names[j] for j in ray_idx),
    }
    labels = (pt.program.eq_names, detail["soc_blocks"], detail["psd_blocks"], detail["rays"])
    verdict = _decide(cert, detail)
    if verdict == "Fails":
        detail["normalization"] = cert.normalization
    return CqReport("robinson", verdict, detail, cert, labels)


def check_rcpld(
    pt: EvaluatedPoint,
    cls: IndexClassification,
    *,
    delta=DELTA,
    samples=SAMPLES,
    seed=SEED,
    tol_rank=TOL_RANK,
    tol_cert=TOL_CERT,
    budget=DEFAULT_BUDGET,
    subset_cap=SUBSET_CAP,
) -> CqReport:
    """Cone dependence at the point must persist as linear dependence nearby.

    Clause one: the equality gradients keep a constant numerical rank over
    seeded samples.  Clause two, per subset J of the reduced indices: when
    the system (basis equality gradients free, irreducible blocks conic,
    reduced gradients over J as rays) has a nonzero solution, the family
    {equality basis, reduced gradients over J} must be linearly dependent
    at every sample.  Holds is a sampled claim, recorded as such.
    """
    names = cls.block_names
    ground = cls.reduced()
    detail = {
        "delta": delta,
        "samples": samples,
        "seed": seed,
        "ground_set": tuple(names[j] for j in ground),
    }
    if len(ground) > 0 and 2 ** len(ground) > subset_cap:
        detail["reason"] = "subset enumeration exceeds cap"
        detail["subset_count"] = 2 ** len(ground)
        detail["subset_cap"] = subset_cap
        return CqReport("rcpld", "Undecided", detail)

    eq_rows = [pt.jac_h[i] for i in range(pt.program.p)]
    sampled, skipped = _neighbourhood(pt.program, pt.x.tobytes(), cls, delta, samples, seed)
    detail["samples_skipped"] = skipped
    if not sampled:
        return CqReport("rcpld", "Undecided", dict(detail, reason=_NO_SAMPLE))
    if pt.program.p:
        rank_star, basis_i = numerical_rank(eq_rows, tol_rank)
        for t, sp in enumerate(sampled):
            rank_s, _ = numerical_rank(sp.eq_rows, tol_rank)
            if rank_s != rank_star:
                detail.update(reason="equality gradient rank is not locally constant")
                detail.update(rank_at_point=rank_star, rank_at_sample=rank_s, sample_index=t, sample_point=sp.x)
                return CqReport("rcpld", "Fails", detail)
    else:
        rank_star, basis_i = 0, ()
    detail["equality_basis"] = tuple(pt.program.eq_names[i] for i in basis_i)
    basis_rows = [eq_rows[i] for i in basis_i]

    socs, psds = conic_base(pt, cls)
    conic_names = (cls.names(cls.soc_vertex_multi), cls.names(cls.psd_multiple))
    grads_star = {entry.block: entry.gradient for entry in reduced_view(pt, cls).entries}
    for sp in sampled:
        if sp.grads is None:
            detail.update(reason=_NON_SIMPLE, gap=sp.gap)
            return CqReport("rcpld", "Undecided", detail)

    # Only minimal dependent subsets need a query: a superset of a dependent
    # subset is dependent (zero coefficients on the added rays), and its
    # family stays linearly dependent at a sample wherever the subset's does.
    # Subsets go by size, and within a size in the order of their bit codes.
    subset_log = []
    undecided = None
    dependent = []  # bit codes of subsets found dependent (and persisting)
    for size in range(len(ground) + 1):
        codes = sorted(sum(1 << i for i in c) for c in combinations(range(len(ground)), size))
        for code in codes:
            if any(code & d == d for d in dependent):
                continue
            subset = [ground[i] for i in range(len(ground)) if code >> i & 1]
            rays = [grads_star[j] for j in subset]
            cert = conic_dependence(basis_rows, socs, psds, rays, budget=budget, tol_cert=tol_cert)
            entry = {"subset": tuple(names[j] for j in subset), "system": cert.verdict}
            subset_log.append(entry)
            if cert.verdict == "undecided":
                entry.update(cert.detail)
                undecided = undecided or entry
            if cert.verdict != "dependent":
                continue
            for t, sp in enumerate(sampled):
                family = [sp.eq_rows[i] for i in basis_i] + [sp.grads[j] for j in subset]
                if not family:
                    detail["reason"] = "nonzero solution with an empty comparison family"
                elif numerical_rank(family, tol_rank)[0] == len(family):
                    detail["reason"] = "dependent system but gradients independent at a sample"
                    detail["sample_point"] = sp.x
                else:
                    continue
                detail.update(subset=entry["subset"], sample_index=t, subset_log=tuple(subset_log))
                labels = (detail["equality_basis"], conic_names[0], conic_names[1], entry["subset"])
                return CqReport("rcpld", "Fails", detail, cert, labels)
            entry["persisted"] = True
            dependent.append(code)
    detail["subset_log"] = tuple(subset_log)
    if undecided is not None:
        detail["reason"] = "a dependence query was undecided"
        detail["undecided_subset"] = undecided["subset"]
        return CqReport("rcpld", "Undecided", detail)
    detail["note"] = SAMPLING_NOTE % (len(sampled), delta)
    return CqReport("rcpld", "Holds", detail)


def check_crsc(
    pt: EvaluatedPoint,
    cls: IndexClassification,
    *,
    delta=DELTA,
    samples=SAMPLES,
    seed=SEED,
    tol_rank=TOL_RANK,
    tol_cert=TOL_CERT,
    budget=DEFAULT_BUDGET,
) -> CqReport:
    """Constant rank of the subspace component of the reduced gradients.

    The subspace component collects reduced indices whose negated gradient
    already lies in span(equality gradients) + cone(reduced gradients);
    those behave like equalities locally.  The check verifies constant rank
    of that family over samples, then requires the remaining system (basis
    coefficients free, irreducible blocks conic, the other reduced
    gradients as rays) to admit only the zero solution.
    """
    names = cls.block_names
    ground = cls.reduced()
    detail = {"delta": delta, "samples": samples, "seed": seed}
    eq_rows = [pt.jac_h[i] for i in range(pt.program.p)]
    grads_star = {entry.block: entry.gradient for entry in reduced_view(pt, cls).entries}
    all_grads = [grads_star[j] for j in ground]

    j_minus = []
    for j0 in ground:
        member = cone_membership(-grads_star[j0], eq_rows, all_grads, tol=tol_cert)
        if member.member:
            j_minus.append(j0)
    j_plus = [j for j in ground if j not in j_minus]
    detail["j_minus"] = tuple(names[j] for j in j_minus)
    detail["j_plus"] = tuple(names[j] for j in j_plus)

    if pt.program.p:
        _, basis_i = numerical_rank(eq_rows, tol_rank)
    else:
        basis_i = ()
    basis_rows = [eq_rows[i] for i in basis_i]
    picked = extend_basis(basis_rows, [grads_star[j] for j in j_minus], tol_rank)
    j_basis = [j_minus[i] for i in picked]
    detail["equality_basis"] = tuple(pt.program.eq_names[i] for i in basis_i)
    detail["gradient_basis"] = tuple(names[j] for j in j_basis)

    family_star = eq_rows + [grads_star[j] for j in j_minus]
    rank_star = numerical_rank(family_star, tol_rank)[0] if family_star else 0
    sampled, skipped = _neighbourhood(pt.program, pt.x.tobytes(), cls, delta, samples, seed)
    detail["samples_skipped"] = skipped
    if not sampled:
        return CqReport("crsc", "Undecided", dict(detail, reason=_NO_SAMPLE))
    for t, sp in enumerate(sampled):
        if sp.grads is None:
            detail.update(reason=_NON_SIMPLE, gap=sp.gap)
            return CqReport("crsc", "Undecided", detail)
        family = list(sp.eq_rows) + [sp.grads[j] for j in j_minus]
        rank_s = numerical_rank(family, tol_rank)[0] if family else 0
        if rank_s != rank_star:
            detail.update(reason="subspace-component rank is not locally constant")
            detail.update(rank_at_point=rank_star, rank_at_sample=rank_s, sample_index=t, sample_point=sp.x)
            return CqReport("crsc", "Fails", detail)

    socs, psds = conic_base(pt, cls)
    eq_basis = basis_rows + [grads_star[j] for j in j_basis]
    rays = [grads_star[j] for j in j_plus]
    cert = conic_dependence(eq_basis, socs, psds, rays, budget=budget, tol_cert=tol_cert)
    detail["system"] = cert.verdict
    labels = (
        detail["equality_basis"] + detail["gradient_basis"],
        cls.names(cls.soc_vertex_multi),
        cls.names(cls.psd_multiple),
        detail["j_plus"],
    )
    verdict = _decide(cert, detail)
    if verdict == "Holds":
        detail["note"] = SAMPLING_NOTE % (len(sampled), delta)
    elif verdict == "Fails":
        detail["reason"] = "nonzero solution of the subspace-complement system"
    return CqReport("crsc", verdict, detail, cert, labels)
