"""Linear-algebra certificates over cone-constrained coefficient systems.

The central question answered here: given independent "equality" vectors
e_i, cone-blocked Jacobians, and nonnegative rays, does

    sum_i lambda_i e_i + sum_j J_j^T mu_j + sum_k alpha_k r_k = 0

admit a solution with every mu_j in its cone, alpha >= 0, and (mu, alpha)
not all zero?  A positive answer is a Dependent certificate carrying the
witness; a negative one is certified by a strictly feasible primal
direction whose smallest slack bounds every normalized combination away
from zero.  When neither side certifies within budget the answer is
Undecided, reported honestly with both residuals.
"""

from __future__ import annotations

import functools
from typing import NamedTuple

import numpy as np

from .cones import (
    eig_sym,
    project_psd,
    project_soc,
    psd_distance,
    smat,
    soc_distance,
    svec,
)
from .errors import BudgetExhaustedError, DimensionMismatchError, ReconstructionError

TOL_RANK = 1e-8
TOL_CERT = 1e-7
DEFAULT_BUDGET = 20000


def numerical_rank(vectors, tol_rank=TOL_RANK):
    """Rank of a vector family and a greedily pivoted basis index set.

    Rank counts singular values above tol_rank times the largest one (zero
    families have rank 0).  The basis is chosen by repeated pivoting on the
    largest remaining residual norm, which is deterministic.
    """
    vecs = [np.asarray(v, dtype=float).reshape(-1) for v in vectors]
    if not vecs:
        return 0, ()
    a = np.vstack(vecs)
    svals = np.linalg.svd(a, compute_uv=False)
    smax = float(svals[0]) if svals.size else 0.0
    if smax <= 0.0:
        return 0, ()
    rank = int(np.count_nonzero(svals > tol_rank * smax))
    r = a.copy()
    chosen = []
    for _ in range(rank):
        norms = np.linalg.norm(r, axis=1)
        for j in chosen:
            norms[j] = -1.0
        j = int(np.argmax(norms))
        q = r[j] / norms[j]
        chosen.append(j)
        r = r - np.outer(r @ q, q)
    return rank, tuple(sorted(chosen))


def extend_basis(base, candidates, tol_rank=TOL_RANK):
    """Indices of candidates that enlarge the span of base, greedily in order."""
    rows = [np.asarray(v, dtype=float).reshape(-1) for v in base]
    cands = [np.asarray(v, dtype=float).reshape(-1) for v in candidates]
    stacked = rows + cands
    if not stacked:
        return ()
    svals = np.linalg.svd(np.vstack(stacked), compute_uv=False)
    smax = float(svals[0]) if svals.size else 0.0
    if smax <= 0.0:
        return ()
    qs = []
    picked = []
    for idx, v in enumerate(stacked, start=-len(rows)):  # base rows have idx < 0
        res = v.copy()
        for q in qs:
            res = res - (res @ q) * q
        nn = float(np.linalg.norm(res))
        if nn > tol_rank * smax:
            if idx >= 0:
                picked.append(idx)
            qs.append(res / nn)
    return tuple(picked)


def null_combination(vectors, tol_rank=TOL_RANK):
    """Coefficients of a (near-)vanishing combination of the given vectors."""
    a = np.vstack([np.asarray(v, dtype=float).reshape(-1) for v in vectors])
    u, svals, _ = np.linalg.svd(a, full_matrices=True)
    coeffs = u[:, -1]
    residual = float(np.linalg.norm(coeffs @ a))
    return coeffs, residual


def nnls(a, b):
    """Nonnegative least squares by the classic active-set iteration.

    Solves min ||a x - b|| subject to x >= 0.  Returns (x, residual norm).
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float).reshape(-1)
    m, k = a.shape
    if k == 0:
        return np.zeros(0), float(np.linalg.norm(b))
    max_iter = 10 * k + 50
    x = np.zeros(k)
    passive = np.zeros(k, dtype=bool)
    w = a.T @ (b - a @ x)
    tol = 10.0 * np.finfo(float).eps * max(m, k) * max(1.0, float(np.max(np.abs(w))))
    iters = 0
    while not passive.all() and float(np.max(w[~passive])) > tol:
        iters += 1
        if iters > max_iter:
            raise BudgetExhaustedError(
                "active-set iteration budget exhausted", float(np.linalg.norm(b - a @ x))
            )
        free = np.where(~passive)[0]
        passive[free[int(np.argmax(w[free]))]] = True
        while True:
            cols = np.where(passive)[0]
            z, *_ = np.linalg.lstsq(a[:, cols], b, rcond=None)
            if z.size == 0 or float(np.min(z)) > 0.0:
                x[:] = 0.0
                x[cols] = z
                break
            mask = z <= 0.0
            ratios = x[cols[mask]] / (x[cols[mask]] - z[mask])
            theta = float(np.min(ratios))
            x[cols] = x[cols] + theta * (z - x[cols])
            passive[x <= 1e-14 * max(1.0, float(np.max(np.abs(x))))] = False
            x[~passive] = 0.0
        w = a.T @ (b - a @ x)
    return x, float(np.linalg.norm(b - a @ x))


class CaratheodoryResult(NamedTuple):
    kept: tuple  # indices into the coned list
    coeffs: np.ndarray  # positive coefficients for kept, aligned with kept
    fixed_coeffs: np.ndarray
    residual: float


def caratheodory_reduce(fixed, coned, target, tol_rank=TOL_RANK):
    """Thin a conic combination until the participating vectors are independent.

    fixed vectors (a linearly independent family) are always kept, possibly
    with new coefficients; coned entries are (vector, beta >= 0) pairs.  The
    target must equal the supplied combination.  Returns a subset of coned
    indices together with refreshed coefficients that reproduce the target
    exactly, keep the family independent, and preserve strict positivity.
    """
    fixed = [np.asarray(v, dtype=float).reshape(-1) for v in fixed]
    vecs = [np.asarray(v, dtype=float).reshape(-1) for (v, _) in coned]
    betas = np.array([float(b) for (_, b) in coned])
    if np.any(betas < 0):
        raise ReconstructionError(float(np.min(betas)), 0.0)
    target = np.asarray(target, dtype=float).reshape(-1)
    n = target.size
    p = len(fixed)
    if p:
        rank_f, _ = numerical_rank(fixed, tol_rank)
        if rank_f < p:
            raise DimensionMismatchError("fixed vectors are not linearly independent")
    scale = max(1.0, float(np.linalg.norm(target)))
    for v, b in zip(vecs, betas):
        scale = max(scale, abs(b) * float(np.linalg.norm(v)))

    kept = [j for j in range(len(vecs)) if betas[j] > 0.0 and np.linalg.norm(vecs[j]) > 0.0]
    beta = {j: betas[j] for j in kept}
    rest = target - sum((beta[j] * vecs[j] for j in kept), np.zeros(n))
    if p:
        fmat = np.column_stack(fixed)
        lam, *_ = np.linalg.lstsq(fmat, rest, rcond=None)
        recon = float(np.linalg.norm(fmat @ lam - rest))
    else:
        fmat = np.zeros((n, 0))
        lam = np.zeros(0)
        recon = float(np.linalg.norm(rest))
    if recon > 1e-8 * scale:
        raise ReconstructionError(recon, 1e-8 * scale)

    while kept:
        cols = fixed + [vecs[j] for j in kept]
        rank, _ = numerical_rank(cols, tol_rank)
        if rank == len(cols):
            break
        gamma, _ = null_combination(cols, tol_rank)
        g_kept = gamma[p:]
        top = float(np.max(np.abs(gamma)))
        if float(np.max(np.abs(g_kept))) <= 1e-10 * top:
            raise DimensionMismatchError("fixed vectors are not linearly independent")
        tiny = 1e-14 * top
        pos = [(beta[j] / g_kept[i], j) for i, j in enumerate(kept) if g_kept[i] > tiny]
        if pos:
            t = min(r for r, _ in pos)
        else:
            neg = [(beta[j] / g_kept[i], j) for i, j in enumerate(kept) if g_kept[i] < -tiny]
            t = max(r for r, _ in neg)
        lam = lam - t * gamma[:p]
        for i, j in enumerate(kept):
            beta[j] = beta[j] - t * g_kept[i]
        drop = 1e-11 * max(1.0, max(beta.values()))
        kept = [j for j in kept if beta[j] > drop]

    cols = fixed + [vecs[j] for j in kept]
    if cols:
        mat = np.column_stack(cols)
        sol, *_ = np.linalg.lstsq(mat, target, rcond=None)
        if kept and sol[p:].size and float(np.min(sol[p:])) <= 0.0:
            sol = np.concatenate([lam, [beta[j] for j in kept]])
        residual = float(np.linalg.norm(mat @ sol - target))
        lam_out = sol[:p]
        coeffs = sol[p:]
    else:
        residual = float(np.linalg.norm(target))
        lam_out = np.zeros(0)
        coeffs = np.zeros(0)
    if residual > 1e-10 * scale:
        raise ReconstructionError(residual, 1e-10 * scale)
    return CaratheodoryResult(tuple(kept), coeffs, lam_out, residual)


def _span_projector(rows):
    """v -> v minus its projection onto span(rows); the identity without rows."""
    if not rows:
        return lambda v: v
    _, svals, vt = np.linalg.svd(np.vstack(rows), full_matrices=False)
    rank = int(np.count_nonzero(svals > 1e-12 * (svals[0] if svals.size else 0.0)))
    q = vt[:rank]
    return lambda v: v - q.T @ (q @ v)


class ConeMembership(NamedTuple):
    member: bool
    free_coeffs: np.ndarray
    cone_coeffs: np.ndarray
    residual: float


def cone_membership(target, free, coned, tol=TOL_RANK):
    """Decide target in span(free) + cone(coned) by nonnegative least squares.

    The free span is removed by orthogonal projection, the remaining
    nonnegative fit runs through nnls, and the verdict compares the joint
    residual against tol * max(1, ||target||).
    """
    target = np.asarray(target, dtype=float).reshape(-1)
    n = target.size
    free = [np.asarray(v, dtype=float).reshape(-1) for v in free]
    coned = [np.asarray(v, dtype=float).reshape(-1) for v in coned]
    strip = _span_projector(free)
    pt = strip(target)
    if coned:
        cmat = np.column_stack(coned)
        pc = np.column_stack([strip(c) for c in coned])
        alpha, residual = nnls(pc, pt)
    else:
        cmat = np.zeros((n, 0))
        alpha = np.zeros(0)
        residual = float(np.linalg.norm(pt))
    if free:
        lam, *_ = np.linalg.lstsq(np.vstack(free).T, target - cmat @ alpha, rcond=None)
    else:
        lam = np.zeros(0)
    member = residual <= tol * max(1.0, float(np.linalg.norm(target)))
    return ConeMembership(bool(member), lam, alpha, residual)


class DependenceWitness(NamedTuple):
    lam: np.ndarray
    soc: tuple  # per soc block, arrays of shape (m,)
    psd: tuple  # per psd block, symmetric arrays (m, m)
    alpha: np.ndarray


class Certificate:
    __slots__ = ("verdict", "margin", "witness", "residual", "normalization", "iterations", "detail")

    def __init__(
        self, verdict, margin=None, witness=None, residual=None, normalization=None, iterations=0, detail=None
    ):
        self.verdict = verdict  # "dependent" | "independent" | "undecided"
        self.margin = margin
        self.witness = witness
        self.residual = residual
        self.normalization = normalization
        self.iterations = iterations
        self.detail = {} if detail is None else detail


class _System:
    """Flat coefficient-space view of one dependence query."""

    def __init__(self, n, eq_basis, soc_blocks, psd_blocks, rays):
        self.n = n
        self.eq = [np.asarray(v, dtype=float).reshape(-1) for v in eq_basis]
        self.socs = [np.asarray(j, dtype=float) for j in soc_blocks]
        self.psds = [np.asarray(p, dtype=float) for p in psd_blocks]
        self.rays = [np.asarray(r, dtype=float).reshape(-1) for r in rays]
        col_blocks, norm_blocks = [], []

        def add(cols, norm):  # the next coefficients: their columns and normalization weights
            start = sum(b.size for b in norm_blocks)
            col_blocks.append(cols)
            norm_blocks.append(norm)
            return slice(start, start + norm.size)

        self.eq_slice = add(np.reshape(self.eq, (len(self.eq), n)).T, np.zeros(len(self.eq)))
        self.soc_slices = [add(jmat.T, np.eye(1, jmat.shape[0])[0]) for jmat in self.socs]
        self.psd_slices = [(add(svec(pt), svec(np.eye(pt.shape[1]))), pt.shape[1]) for pt in self.psds]
        self.ray_slice = add(np.reshape(self.rays, (len(self.rays), n)).T, np.ones(len(self.rays)))
        # C order: BLAS rounds products with the F-ordered stack differently
        self.smat_cols = np.ascontiguousarray(np.hstack(col_blocks))
        self.norm_row = np.concatenate(norm_blocks)
        self.dim = self.norm_row.size
        self.cone_dim = self.dim - len(self.eq)

    def project_cones(self, v):
        w = v.copy()
        for sl in self.soc_slices:
            w[sl] = project_soc(w[sl])
        for sl, m in self.psd_slices:
            mat = smat(w[sl], m)
            w[sl] = svec(project_psd(mat))
        rs = self.ray_slice
        w[rs] = np.clip(w[rs], 0.0, None)
        return w

    def center(self):
        v = np.zeros(self.dim)
        pieces = len(self.soc_slices) + len(self.psd_slices) + len(self.rays)
        if pieces == 0:
            return v
        mass = 1.0 / pieces
        for sl in self.soc_slices:
            v[sl.start] = mass
        for sl, m in self.psd_slices:
            v[sl] = svec((mass / m) * np.eye(m))
        v[self.ray_slice] = mass
        return v

    def split(self, v):
        lam = v[self.eq_slice].copy()
        soc = tuple(v[sl].copy() for sl in self.soc_slices)
        psd = tuple(smat(v[sl], m) for sl, m in self.psd_slices)
        alpha = v[self.ray_slice].copy()
        return DependenceWitness(lam, soc, psd, alpha)


def combination(eq_basis, soc_blocks, psd_blocks, rays, witness):
    """Re-evaluate the linear combination named by a witness, element by element."""
    terms = []
    for lam_i, v in zip(witness.lam, eq_basis):
        terms.append(lam_i * np.asarray(v, dtype=float))
    for mu, jmat in zip(witness.soc, soc_blocks):
        terms.append(np.asarray(jmat, dtype=float).T @ np.asarray(mu, dtype=float))
    for mat, partials in zip(witness.psd, psd_blocks):
        terms.append(
            np.tensordot(np.asarray(partials, dtype=float), np.asarray(mat, dtype=float), axes=([1, 2], [0, 1]))
        )
    for a_k, r in zip(witness.alpha, rays):
        terms.append(a_k * np.asarray(r, dtype=float))
    if not terms:
        size = len(np.asarray(eq_basis[0])) if eq_basis else 0
        return np.zeros(size)
    return np.sum(terms, axis=0)


def verify_dependence(eq_basis, soc_blocks, psd_blocks, rays, witness, tol_cert=TOL_CERT):
    """Substitute a Dependent witness and check every clause from scratch."""
    combo = combination(eq_basis, soc_blocks, psd_blocks, rays, witness)
    residual = float(np.linalg.norm(combo))
    cone_gap = 0.0
    for mu in witness.soc:
        cone_gap = max(cone_gap, soc_distance(mu))
    for mat in witness.psd:
        cone_gap = max(cone_gap, psd_distance(0.5 * (mat + mat.T)))
    if witness.alpha.size:
        cone_gap = max(cone_gap, float(np.max(-witness.alpha, initial=0.0)))
    normalization = float(
        sum(mu[0] for mu in witness.soc)
        + sum(np.trace(mat) for mat in witness.psd)
        + float(np.sum(witness.alpha))
    )
    ok = residual <= tol_cert and cone_gap <= tol_cert and normalization >= 0.5
    return ok, residual, cone_gap, normalization


def _soc_supergradient(jmat, z):
    """A supergradient in d of z0 - ||zbar|| at z = jmat @ d."""
    nz = float(np.linalg.norm(z[1:]))
    if nz <= 1e-15:
        return jmat[0]
    return jmat[0] - (z[1:] / nz) @ jmat[1:]


def _margin_terms(system, d):
    """(slack, supergradient maker) of every cone block and ray along direction d."""
    out = []
    for jmat in system.socs:
        z = jmat @ d
        out.append((float(z[0] - np.linalg.norm(z[1:])), functools.partial(_soc_supergradient, jmat, z)))
    for pt in system.psds:
        mmat = np.tensordot(d, pt, axes=(0, 0))
        mmat = 0.5 * (mmat + mmat.T)
        sd = eig_sym(mmat)
        vmin = sd.eigenvectors[:, 0]
        out.append((float(sd.eigenvalues[0]), functools.partial(np.einsum, "iab,a,b->i", pt, vmin, vmin)))
    for r in system.rays:
        out.append((float(r @ d), r.copy))
    return out


def _margin_search(system, proj_eq, iters, tol_cert, start=None):
    """Projected supergradient ascent on the minimum cone slack."""
    n = system.n
    if start is not None:
        d = start.copy()
    else:
        d = np.zeros(n)
        for jmat in system.socs:
            d = d + jmat[0]
        for pt in system.psds:
            d = d + np.array([np.trace(pt[i]) for i in range(n)]) / pt.shape[1]
        for r in system.rays:
            d = d + r
        d = proj_eq(d)
        if float(np.linalg.norm(d)) < 1e-12:
            for i in range(n):
                cand = np.zeros(n)
                cand[i] = 1.0
                cand = proj_eq(cand)
                if float(np.linalg.norm(cand)) > 1e-12:
                    d = cand
                    break
    nd = float(np.linalg.norm(d))
    if nd > 1.0:
        d = d / nd
    best = -np.inf
    best_d = d.copy()
    used = 0
    for t in range(iters):
        used = t + 1
        terms = _margin_terms(system, d)
        i_min = int(np.argmin([slack for slack, _ in terms]))
        current, supergradient = terms[i_min]
        if current > best:
            best = current
            best_d = d.copy()
        if best > tol_cert:
            return best, best_d, used
        grad = proj_eq(supergradient())
        gn = float(np.linalg.norm(grad))
        if gn < 1e-15:
            break
        d = proj_eq(d + (0.5 / np.sqrt(t + 1.0)) * grad / gn)
        nd = float(np.linalg.norm(d))
        if nd > 1.0:
            d = d / nd
    return best, best_d, used


def conic_dependence(
    eq_basis,
    soc_blocks,
    psd_blocks,
    rays,
    budget=DEFAULT_BUDGET,
    tol_cert=TOL_CERT,
):
    """Decide whether the homogeneous cone-coefficient system is degenerate.

    eq_basis: linearly independent vectors with free coefficients.
    soc_blocks: Jacobians (m, n); the coefficient mu_j ranges over K_m.
    psd_blocks: partial stacks (n, m, m); mu_j ranges over the psd cone.
    rays: vectors with scalar coefficients alpha_k >= 0.

    Dependent answers carry a witness normalized so the first components /
    traces / ray coefficients sum to one; they are re-verified by direct
    substitution before being returned.  Independent answers carry the
    certified slack (margin) of a strictly feasible primal direction d:
    every normalized solution candidate has combination norm at least the
    margin, because pairing with d bounds it below.  Neither finding within
    budget yields Undecided with both search residuals.
    """
    sizes = (
        [np.asarray(v).size for v in eq_basis]
        + [np.asarray(j).shape[1] for j in soc_blocks]
        + [np.asarray(p).shape[0] for p in psd_blocks]
        + [np.asarray(r).size for r in rays]
    )
    if not sizes:
        return Certificate("independent", margin=float("inf"), iterations=0,
                           detail={"note": "no constraints supplied"})
    n = sizes[0]

    system = _System(n, eq_basis, soc_blocks, psd_blocks, rays)
    if system.eq:
        rank_e, _ = numerical_rank(system.eq)
        if rank_e < len(system.eq):
            raise DimensionMismatchError("eq_basis is not linearly independent")
    if system.cone_dim == 0:
        return Certificate(
            "independent",
            margin=float("inf"),
            iterations=0,
            detail={"note": "no cone blocks or rays; independence is vacuous"},
        )

    proj_eq = _span_projector(system.eq)

    iterations = 0
    best_margin = -np.inf
    best_d = None

    phase1 = max(50, min(500, budget // 8))
    margin, d_found, used = _margin_search(system, proj_eq, phase1, tol_cert)
    iterations += used
    best_margin = margin
    best_d = d_found
    if margin > tol_cert:
        return Certificate(
            "independent",
            margin=float(margin),
            iterations=iterations,
            detail={"certified_direction": d_found},
        )

    a = np.vstack([system.smat_cols, system.norm_row])
    b = np.zeros(n + 1)
    b[-1] = 1.0
    pinv_a = np.linalg.pinv(a)
    v = system.center()
    best_sres = np.inf
    window = 200
    window_best = np.inf
    phase2 = max(200, budget // 2)
    for sweep in range(phase2):
        iterations += 1
        v = v - pinv_a @ (a @ v - b)
        w = system.project_cones(v)
        sres = float(np.linalg.norm(system.smat_cols @ w))
        nval = float(system.norm_row @ w)
        if sres < best_sres:
            best_sres = sres
        if sres <= tol_cert and nval >= 0.5:
            witness = system.split(w)
            ok, residual, cone_gap, normalization = verify_dependence(
                system.eq, system.socs, system.psds, system.rays, witness, tol_cert
            )
            if ok:
                return Certificate(
                    "dependent",
                    witness=witness,
                    residual=residual,
                    normalization=normalization,
                    iterations=iterations,
                    detail={"cone_gap": cone_gap},
                )
        if (sweep + 1) % window == 0:
            if best_sres > 0.99 * window_best and best_sres > 100.0 * tol_cert:
                break
            window_best = best_sres
        v = w

    remaining = max(200, budget - iterations)
    margin, d_found, used = _margin_search(system, proj_eq, remaining, tol_cert, start=best_d)
    iterations += used
    if margin > best_margin:
        best_margin = margin
        best_d = d_found
    if best_margin > tol_cert:
        return Certificate(
            "independent",
            margin=float(best_margin),
            iterations=iterations,
            detail={"certified_direction": best_d},
        )
    return Certificate(
        "undecided",
        iterations=iterations,
        detail={
            "best_combination_residual": float(best_sres),
            "best_margin": float(best_margin),
        },
    )
