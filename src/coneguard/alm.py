"""Safeguarded augmented Lagrangian solver emitting iterate traces.

The augmented Lagrangian of a program at penalty rho with multiplier
estimates (lam_hat, mu_hat) is

    L(x) = f(x) + lam_hat . h(x) + (rho/2) ||h(x)||^2
         + (1/(2 rho)) sum_j ( ||P_j(mu_hat_j - rho g_j(x))||^2 - ||mu_hat_j||^2 )

with P_j the projection onto block j's cone.  Its gradient uses the
Moreau identity grad(1/2 ||P(z)||^2) = P(z):

    grad L(x) = grad f(x) + J_h(x)^T (lam_hat + rho h(x))
              - sum_j J_{g_j}(x)^T P_j(mu_hat_j - rho g_j(x)).

Each outer iteration minimizes L by gradient descent with an Armijo line
search to a scheduled inner tolerance, then updates multipliers with the
same projected quantities, so the outer stationarity norm equals the inner
gradient norm at acceptance.  Multiplier estimates are clamped
componentwise before the next round (the safeguard).  Every outer iterate
is appended to a trace whose cone coefficients are split, at the final
classification, into irreducible-block multipliers and reduced-block
scalars.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass

import numpy as np

from .akkt import AkktRecord, AkktTrace, build_trace
from .classify import TOL_ACT, TOL_GAP, classify
from .cones import SocVector, project_psd, project_soc, reflect
from .errors import DomainError, InfeasiblePointError
from .model import ConicProgram, evaluate

UNBOUNDED_OBJECTIVE = -1e12


@dataclass(frozen=True)
class AlmConfig:
    rho0: float = 1.0
    gamma: float = 4.0
    cap: float = 1e6
    outer_max: int = 60
    inner_max: int = 5000
    eps0: float = 0.1
    eps_decay: float = 0.5
    eps_floor: float = 1e-10
    tol_stat: float = 1e-8
    tol_feas: float = 1e-8

    def __post_init__(self):
        if self.rho0 <= 0:
            raise ValueError("rho0 must be positive")
        if self.gamma <= 1:
            raise ValueError("gamma must exceed 1")
        if not 0 < self.eps_decay < 1:
            raise ValueError("eps_decay must lie in (0, 1)")
        if self.eps_floor <= 0 or self.eps0 <= self.eps_floor:
            raise ValueError("inner tolerances must decrease to a positive floor")

    def eps(self, k):
        return max(self.eps0 * self.eps_decay**k, self.eps_floor)


def _penalty_terms(pt, lam_hat, mu_hats, rho):
    """Value, gradient, and per-block projections of the augmented Lagrangian."""
    val = pt.f
    grad = pt.grad_f.copy()
    if pt.program.p:
        val += float(lam_hat @ pt.h) + 0.5 * rho * float(pt.h @ pt.h)
        grad = grad + pt.jac_h.T @ (lam_hat + rho * pt.h)
    projections = []
    for j, blk in enumerate(pt.program.blocks):
        bv = pt.blocks[j]
        if blk.kind == "soc":
            z = mu_hats[j] - rho * bv.value.as_array()
            proj = project_soc(SocVector(float(z[0]), z[1:])).as_array()
            val += (float(proj @ proj) - float(mu_hats[j] @ mu_hats[j])) / (2.0 * rho)
            grad = grad - bv.jac.T @ proj
        else:
            z = mu_hats[j] - rho * bv.value.mat
            proj = project_psd(z).mat
            val += (float(np.sum(proj * proj)) - float(np.sum(mu_hats[j] * mu_hats[j]))) / (
                2.0 * rho
            )
            grad = grad - np.tensordot(bv.partials, proj, axes=([1, 2], [0, 1]))
        projections.append(proj)
    return val, grad, projections


def _inner_minimize(prog, x, lam_hat, mu_hats, rho, eps, inner_max):
    """Gradient descent with Armijo backtracking down to gradient norm eps.

    Returns (point, value, gradient, projections, status) where status is
    "ok", "stalled", or "unbounded".
    """
    pt = evaluate(prog, x)
    val, grad, projections = _penalty_terms(pt, lam_hat, mu_hats, rho)
    for _ in range(inner_max):
        gn = float(np.linalg.norm(grad))
        if gn <= eps:
            return pt, val, grad, projections, "ok"
        if val <= UNBOUNDED_OBJECTIVE or pt.f <= UNBOUNDED_OBJECTIVE:
            return pt, val, grad, projections, "unbounded"
        t = 1.0
        accepted = False
        while t >= 1e-18:
            trial = pt.x - t * grad
            try:
                pt_t = evaluate(prog, trial)
            except DomainError:
                t *= 0.5
                continue
            val_t, grad_t, proj_t = _penalty_terms(pt_t, lam_hat, mu_hats, rho)
            if val_t <= val - 1e-4 * t * gn * gn:
                pt, val, grad, projections = pt_t, val_t, grad_t, proj_t
                accepted = True
                break
            t *= 0.5
        if not accepted:
            return pt, val, grad, projections, "stalled"
    return pt, val, grad, projections, "stalled"


def _split_record(prog, k, x, lam, mu_full, cls):
    """Express one raw iterate in trace form under a fixed classification."""
    pt = evaluate(prog, x)
    names = cls.block_names
    mu = {}
    alpha = {}
    for j, blk in enumerate(prog.blocks):
        if j in cls.conic():
            arr = np.asarray(mu_full[j], dtype=float)
            if float(np.linalg.norm(arr)) > 0.0:
                mu[names[j]] = arr
        elif j in cls.soc_boundary:
            w = reflect(pt.blocks[j].value).as_array()
            denom = max(float(w @ w), 1e-30)
            alpha[names[j]] = max(0.0, float(mu_full[j] @ w) / denom)
        elif j in cls.soc_scalar_active:
            alpha[names[j]] = max(0.0, float(mu_full[j][0]))
        elif j in cls.psd_simple:
            v = pt.blocks[j].spectral.eigenvectors[:, 0]
            alpha[names[j]] = max(0.0, float(v @ mu_full[j] @ v))
    return AkktRecord(k, np.asarray(x, dtype=float).copy(), np.asarray(lam, dtype=float).copy(), mu, alpha)


def solve(prog: ConicProgram, x0, cfg: AlmConfig | None = None, log=None):
    """Run the safeguarded augmented Lagrangian method from x0.

    Returns (trace, status) with status one of "converged", "stalled",
    "unbounded", or "iteration-limit".  The trace records the starting
    point and every outer iterate.  Progress goes to the log stream
    (standard error by default).
    """
    if cfg is None:
        cfg = AlmConfig()
    if log is None:
        log = sys.stderr
    x = np.asarray(x0, dtype=float).reshape(-1)
    if x.size != prog.n:
        raise ValueError("starting point has %d entries, expected %d" % (x.size, prog.n))
    lam_hat = np.zeros(prog.p)
    mu_hats = [
        np.zeros(blk.dim) if blk.kind == "soc" else np.zeros((blk.dim, blk.dim))
        for blk in prog.blocks
    ]
    pt = evaluate(prog, x)
    feas_prev = pt.residual
    rho = cfg.rho0
    raw = [(0, x.copy(), lam_hat.copy(), [m.copy() for m in mu_hats])]
    status = "iteration-limit"
    for k in range(cfg.outer_max):
        eps = cfg.eps(k)
        pt, val, grad, projections, inner_status = _inner_minimize(
            prog, x, lam_hat, mu_hats, rho, eps, cfg.inner_max
        )
        x = pt.x
        lam_new = lam_hat + rho * pt.h if prog.p else np.zeros(0)
        mu_new = projections
        raw.append((k + 1, x.copy(), lam_new.copy(), [np.asarray(m, dtype=float).copy() for m in mu_new]))
        stat = float(np.linalg.norm(grad))
        feas = pt.residual
        print(
            "outer %d: f=%.6g feas=%.3g stat=%.3g rho=%.3g inner=%s"
            % (k, pt.f, feas, stat, rho, inner_status),
            file=log,
        )
        if inner_status == "unbounded" or pt.f <= UNBOUNDED_OBJECTIVE:
            status = "unbounded"
            break
        if stat <= cfg.tol_stat and feas <= cfg.tol_feas:
            status = "converged"
            break
        if inner_status == "stalled":
            status = "stalled"
            break
        if feas > 0.5 * feas_prev:
            rho *= cfg.gamma
        feas_prev = feas
        lam_hat = np.clip(lam_new, -cfg.cap, cfg.cap)
        mu_hats = [np.clip(m, -cfg.cap, cfg.cap) for m in mu_new]

    final_pt = evaluate(prog, raw[-1][1])
    tol_act = TOL_ACT
    try:
        cls = classify(final_pt, tol_act, TOL_GAP)
    except InfeasiblePointError:
        tol_act = max(final_pt.residual * 1.01, TOL_ACT)
        cls = classify(final_pt, tol_act, TOL_GAP)
    records = [_split_record(prog, k, x_k, lam_k, mus_k, cls) for k, x_k, lam_k, mus_k in raw]
    return build_trace(prog, records), status
