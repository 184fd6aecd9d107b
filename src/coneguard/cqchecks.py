"""Constraint-qualification verdicts at a feasible point.

Four checks are provided: a dual-form regularity check (robinson) with
cone-constrained multipliers restricted to the complementary face of each
block, nondegeneracy (a rank test on the rows of that system), and two
constant-rank conditions (rcpld, crsc) whose neighborhood clauses are
verified by seeded sampling; both read one cached neighbourhood, whose
samples are drawn and evaluated once and kept as stacked arrays, so each
rank clause ranks every sample in one SVD call.  Every Fails verdict carries a
concrete witness; Holds verdicts for the sampled checks state explicitly
that no counterexample was found among the samples.
"""

from __future__ import annotations

import functools

import numpy as np

from .certificates import (
    DEFAULT_BUDGET,
    TOL_CERT,
    TOL_RANK,
    cone_membership,
    conic_dependence,
    numerical_rank,
    numerical_ranks,
)
from .classify import IndexClassification, kernel_basis
from .cones import svec
from .errors import DomainError, NonSimpleEigenvalueError
from .model import EvaluatedPoint, evaluate
from .reduction import conic_base, dependence_system, equality_basis, reduced_view

DELTA = 1e-3
SAMPLES = 20
SAMPLE_CAP = 2 ** 12  # --samples' bound: the neighbourhood keeps every sample's gradients
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


def _kernel_partials(pt: EvaluatedPoint, j: int, cls: IndexClassification):
    """Partial derivatives of active psd block j compressed onto the
    eigenvectors of its zero-eigenvalue cluster: (n, r, r), each slice
    exactly symmetric (the compression alone is only symmetric to roundoff)."""
    basis = kernel_basis(pt, j, cls)
    compressed = np.einsum("ar,iab,bs->irs", basis, pt.blocks[j].partials, basis)
    return 0.5 * (compressed + compressed.transpose(0, 2, 1))


@functools.lru_cache(maxsize=1)
def _neighbourhood(prog, x_bytes, cls, delta, count, seed):
    """Seeded samples of the delta-ball around x, as read-only stacks.

    Returns the sample points (S, n), their equality gradients (S, p, n),
    the reduced gradients in cls.reduced() order (S0, k, n) of the S0
    samples before the first whose smallest eigenvalue is not simple, that
    sample's eigenvalue gap (None when there is none), and how many samples
    were skipped: a point outside an expression domain is retried at half
    the radius a few times, then skipped.  Each sample is evaluated once.
    """
    x = np.frombuffer(x_bytes)
    rng = np.random.default_rng(seed)
    points, jacs, grads, gap = [], [], [], None
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
        points.append(sp.x)
        jacs.append(sp.jac_h)
        if gap is None:
            try:
                grads.append([entry.gradient for entry in reduced_view(sp, cls).entries])
            except NonSimpleEigenvalueError as exc:
                gap = exc.gap
    shapes = ((), (prog.p,), (len(cls.reduced()),))
    stacks = [np.reshape(a, (len(a), *shape, x.size)) for a, shape in zip((points, jacs, grads), shapes)]
    for a in stacks:
        a.flags.writeable = False  # reports print the points, and the cache shares them
    return (*stacks, gap, count - len(points))


_RAY_SUFFIX = {"boundary": ":boundary", "vertex-scalar": "[0]", "kernel-simple": ":kernel[0]"}


def check_nondegeneracy(pt: EvaluatedPoint, cls: IndexClassification, *, tol_rank=TOL_RANK) -> CqReport:
    """Full row rank of the rows of robinson's system, in ``_face_system``'s
    order: equality gradients; Jacobian rows of vertex soc blocks of
    dimension >= 2; reduced gradients, in cls.reduced() order; the svec
    coordinates of each kernel-multiple psd block's compressed derivative
    (the adjoint of d -> E^T Jg(d) E, onto the small symmetric space).  Rows
    of full rank admit no nonzero annihilating multiplier, so a Holds here
    is a Holds of robinson.
    """
    socs, soc_idx, psds, psd_idx, rays, ray_idx = _face_system(pt, cls)
    names = cls.block_names
    rows = list(pt.jac_h)
    labels = ["eq:" + name for name in pt.program.eq_names]
    for j, jac in zip(soc_idx, socs):
        rows += list(jac)
        labels += ["%s[%d]" % (names[j], r) for r in range(len(jac))]
    rows += rays
    labels += [names[j] + _RAY_SUFFIX[cls.labels[j]] for j in ray_idx]
    for j, partials in zip(psd_idx, psds):
        coords = svec(partials)
        rows += list(coords.T)
        labels += ["%s:kernel[%d]" % (names[j], t) for t in range(coords.shape[1])]
    if not rows:
        return CqReport("nondegeneracy", "Holds", {"rows": 0, "rank": 0, "note": "no active rows"})
    rank, basis_idx, coeffs, resid = numerical_rank(rows, tol_rank)
    detail = {"rows": len(rows), "rank": rank, "row_labels": tuple(labels), "tol_rank": tol_rank}
    if rank == len(rows):
        return CqReport("nondegeneracy", "Holds", detail)
    detail["witness_combination"] = coeffs
    detail["witness_residual"] = resid
    detail["basis"] = basis_idx
    return CqReport("nondegeneracy", "Fails", detail)


def _face_system(pt: EvaluatedPoint, cls: IndexClassification):
    """Cone blocks and rays of the dual regularity system at the point.

    Multipliers are restricted to the complementary face of each active
    block: full cones for vertex soc blocks and fully-degenerate psd
    kernels, single rays for boundary / scalar / simple-eigenvalue blocks.
    Robinson asks whether a nonzero multiplier annihilates these rows, and
    nondegeneracy whether they have full row rank.
    """
    socs = conic_base(pt, cls)[0]
    psds = [_kernel_partials(pt, j, cls) for j in cls.psd_multiple]
    rays = [entry.gradient for entry in reduced_view(pt, cls).entries]  # in cls.reduced() order
    return socs, cls.soc_vertex_multi, psds, cls.psd_multiple, rays, cls.reduced()


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
    eq_rows, rank, _, coeffs, resid = equality_basis(pt, tol_rank)
    if rank < pt.program.p:
        reason = "equality gradients are linearly dependent"
        detail = {"reason": reason, "witness_combination": coeffs, "witness_residual": resid}
        return CqReport("robinson", "Fails", detail)
    socs, _, psds, _, rays, ray_idx = _face_system(pt, cls)
    eq = zip(pt.program.eq_names, eq_rows)
    system, names = dependence_system(cls, eq, (socs, psds), zip(cls.names(ray_idx), rays))
    cert = conic_dependence(*system, budget=budget, tol_cert=tol_cert, tol_rank=tol_rank)
    detail = {"soc_blocks": names[1], "psd_blocks": names[2], "rays": names[3]}
    verdict = _decide(cert, detail)
    if verdict == "Fails":
        detail["normalization"] = cert.normalization
    return CqReport("robinson", verdict, detail, cert, names)


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
    at every sample.  Holds is a sampled claim, recorded as such.  Beyond
    subset_cap subsets only J = every reduced index is asked.
    """
    names = cls.block_names
    ground = cls.reduced()
    detail = {
        "delta": delta,
        "samples": samples,
        "seed": seed,
        "ground_set": tuple(names[j] for j in ground),
    }
    points, jacs, grads, gap, skipped = _neighbourhood(pt.program, pt.x.tobytes(), cls, delta, samples, seed)
    detail["samples_skipped"] = skipped
    if not len(points):
        return CqReport("rcpld", "Undecided", dict(detail, reason=_NO_SAMPLE))
    eq_rows, rank_star, basis_i, *_ = equality_basis(pt, tol_rank)
    ranks = numerical_ranks(jacs, tol_rank)
    changed = np.flatnonzero(ranks != rank_star)
    if changed.size:
        t = int(changed[0])
        detail.update(reason="equality gradient rank is not locally constant")
        detail.update(rank_at_point=rank_star, rank_at_sample=int(ranks[t]), sample_index=t, sample_point=points[t])
        return CqReport("rcpld", "Fails", detail)

    eq = [(pt.program.eq_names[i], eq_rows[i]) for i in basis_i]
    query = functools.partial(dependence_system, cls, eq, conic_base(pt, cls))
    rays_star = {entry.block: (names[entry.block], entry.gradient) for entry in reduced_view(pt, cls).entries}
    ground_system, ground_names = query([rays_star[j] for j in ground])
    detail["equality_basis"] = ground_names[0]
    if gap is not None:
        detail.update(reason=_NON_SIMPLE, gap=gap)
        return CqReport("rcpld", "Undecided", detail)

    # Subsets go by size, and within a size in the order of their bit codes.
    # Only minimal dependent subsets need a query: a superset of a dependent
    # subset is dependent (zero coefficients on the added rays), and its
    # family stays linearly dependent at a sample wherever the subset's does.
    # An independent full set decides every subset (a subset's dependence,
    # padded with zeros, is one of the full set), so it is asked first for a
    # rays-only, linearly independent family, and alone beyond the cap.
    full = (1 << len(ground)) - 1
    capped = len(ground) > 0 and 2 ** len(ground) > subset_cap
    if capped:
        codes = [full]
    else:
        codes = sorted(range(full + 1), key=lambda c: (c.bit_count(), c))
        eq_vectors, socs, psds, ground_rays = ground_system
        if not socs and not psds and numerical_rank(eq_vectors + ground_rays, tol_rank)[0] == rank_star + len(ground):
            codes.insert(0, codes.pop())
    subset_log = []
    undecided = None
    dependent = []  # bit codes of subsets found dependent (and persisting)
    for code in codes:
        if any(code & d == d for d in dependent):
            continue
        subset = [i for i in range(len(ground)) if code >> i & 1]  # positions in ground
        system, witness_names = query([rays_star[ground[i]] for i in subset])
        cert = conic_dependence(*system, budget=budget, tol_cert=tol_cert, tol_rank=tol_rank)
        entry = {"subset": witness_names[3], "system": cert.verdict}
        subset_log.append(entry)
        if cert.verdict == "independent" and code == full:
            break
        if cert.verdict == "undecided":
            entry.update(cert.detail)
            undecided = undecided or dict(cert.detail, undecided_subset=entry["subset"])
        if cert.verdict != "dependent":
            continue
        family = np.concatenate([jacs[:, list(basis_i)], grads[:, subset]], axis=1)
        independent = np.flatnonzero(numerical_ranks(family, tol_rank) == family.shape[1])
        if not independent.size:
            entry["persisted"] = True
            dependent.append(code)
            continue
        t = int(independent[0])  # 0 for an empty family, which every sample calls independent
        if family.shape[1]:
            detail.update(reason="dependent system but gradients independent at a sample", sample_point=points[t])
        else:
            detail["reason"] = "nonzero solution with an empty comparison family"
        detail.update(subset=entry["subset"], sample_index=t, subset_log=tuple(subset_log))
        return CqReport("rcpld", "Fails", detail, cert, witness_names)
    detail["subset_log"] = tuple(subset_log)
    if capped and cert.verdict != "independent":
        detail.update(reason="subset enumeration exceeds cap", subset_count=2 ** len(ground), subset_cap=subset_cap)
        detail["system"] = cert.verdict
        _decide(cert, detail)  # the query's residual or best margin, as robinson reports them
        return CqReport("rcpld", "Undecided", detail, cert, witness_names)
    if undecided is not None:
        detail.update(undecided, reason="a dependence query was undecided")
        return CqReport("rcpld", "Undecided", detail)
    detail["note"] = SAMPLING_NOTE % (len(points), delta)
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
    already lies in span(equality basis) + cone(reduced gradients);
    those behave like equalities locally.  The check verifies constant rank
    of that family over samples, then requires the remaining system (basis
    coefficients free, irreducible blocks conic, the other reduced
    gradients as rays) to admit only the zero solution.
    """
    names = cls.block_names
    ground = cls.reduced()
    detail = {"delta": delta, "samples": samples, "seed": seed}
    eq_rows, _, basis_i, *_ = equality_basis(pt, tol_rank)
    eq_basis = [eq_rows[i] for i in basis_i]  # the one equality span: J- and the gradient basis read it
    grads_star = {entry.block: entry.gradient for entry in reduced_view(pt, cls).entries}
    all_grads = [grads_star[j] for j in ground]

    minus = [i for i, g in enumerate(all_grads) if cone_membership(-g, eq_basis, all_grads, tol=tol_cert).member]
    j_minus = [ground[i] for i in minus]
    j_plus = [j for j in ground if j not in j_minus]
    detail["j_minus"] = tuple(names[j] for j in j_minus)
    detail["j_plus"] = tuple(names[j] for j in j_plus)

    # in J- order, each gradient that raises the rank at the whole family's scale
    family_star = eq_rows + [grads_star[j] for j in j_minus]
    rank_star = numerical_rank(family_star, tol_rank)[0] if family_star else 0
    scale = float(np.linalg.norm(np.vstack(family_star), 2)) if j_minus else 0.0
    rows, j_basis = list(eq_basis), []
    rank = numerical_ranks(np.array(rows), tol_rank, scale) if rows and j_minus else 0
    for j in j_minus:
        if numerical_ranks(np.array(rows + [grads_star[j]]), tol_rank, scale) > rank:
            rows.append(grads_star[j])
            j_basis.append(j)
            rank += 1  # one more row raises the rank by at most one
    detail["equality_basis"] = tuple(pt.program.eq_names[i] for i in basis_i)
    detail["gradient_basis"] = tuple(names[j] for j in j_basis)

    points, jacs, grads, gap, skipped = _neighbourhood(pt.program, pt.x.tobytes(), cls, delta, samples, seed)
    detail["samples_skipped"] = skipped
    if not len(points):
        return CqReport("crsc", "Undecided", dict(detail, reason=_NO_SAMPLE))
    # the samples before the first non-simple one; a rank change among them comes first
    ranks = numerical_ranks(np.concatenate([jacs[: len(grads)], grads[:, minus]], axis=1), tol_rank)
    changed = np.flatnonzero(ranks != rank_star)
    if changed.size:
        t = int(changed[0])
        detail.update(reason="subspace-component rank is not locally constant")
        detail.update(rank_at_point=rank_star, rank_at_sample=int(ranks[t]), sample_index=t, sample_point=points[t])
        return CqReport("crsc", "Fails", detail)
    if gap is not None:
        detail.update(reason=_NON_SIMPLE, gap=gap)
        return CqReport("crsc", "Undecided", detail)

    eq = [(pt.program.eq_names[i], eq_rows[i]) for i in basis_i] + [(names[j], grads_star[j]) for j in j_basis]
    rays = [(names[j], grads_star[j]) for j in j_plus]
    system, witness_names = dependence_system(cls, eq, conic_base(pt, cls), rays)
    cert = conic_dependence(*system, budget=budget, tol_cert=tol_cert, tol_rank=tol_rank)
    detail["system"] = cert.verdict
    verdict = _decide(cert, detail)
    if verdict == "Holds":
        detail["note"] = SAMPLING_NOTE % (len(points), delta)
    elif verdict == "Fails":
        detail["reason"] = "nonzero solution of the subspace-complement system"
    return CqReport("crsc", verdict, detail, cert, witness_names)
