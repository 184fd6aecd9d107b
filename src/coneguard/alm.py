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
gradient norm at acceptance.  The safeguard then clips lam_hat
componentwise and scales each mu_hat radially into the ball of radius
cap.  ``akkt.trace_from_iterates`` turns the starting point and every
outer iterate into the returned trace.
"""

from __future__ import annotations

import math
import sys

import numpy as np

from .akkt import trace_from_iterates
from .cones import project_psd, project_soc
from .errors import DomainError
from .model import ConicProgram, evaluate, lagrangian_gradient

UNBOUNDED_OBJECTIVE = -1e12
# inner tolerance of outer iteration k: max(EPS0 * EPS_DECAY**k, EPS_FLOOR)
EPS0 = 0.1
EPS_DECAY = 0.5
EPS_FLOOR = 1e-10


class AlmConfig:
    __slots__ = ("rho0", "gamma", "cap", "outer_max", "inner_max", "tol_stat", "tol_feas")

    def __init__(self, rho0=1.0, gamma=4.0, cap=1e6, outer_max=60, inner_max=5000, tol_stat=1e-8, tol_feas=1e-8):
        self.rho0, self.gamma, self.cap = rho0, gamma, cap
        self.outer_max, self.inner_max = outer_max, inner_max
        self.tol_stat, self.tol_feas = tol_stat, tol_feas
        for name, low in dict(rho0=0, gamma=1, cap=0, tol_stat=0, tol_feas=0).items():
            if not low < getattr(self, name) < math.inf:  # a NaN fails too
                raise ValueError("%s must be a finite number > %d" % (name, low))
        if not (outer_max >= 1 and inner_max >= 1):
            raise ValueError("outer_max and inner_max must be at least 1")


def inner_tolerance(k):
    """Gradient-norm tolerance of the inner minimization in outer iteration k."""
    return max(EPS0 * EPS_DECAY**k, EPS_FLOOR)


def _penalty_terms(pt, lam_hat, mu_hats, rho):
    """Value, gradient, and per-block projections of the augmented Lagrangian."""
    val = pt.f
    if pt.program.p:
        val += float(lam_hat @ pt.h) + 0.5 * rho * float(pt.h @ pt.h)
    projections = []
    for j, blk in enumerate(pt.program.blocks):
        bv = pt.blocks[j]
        if blk.kind == "soc":
            proj = project_soc(mu_hats[j] - rho * bv.value)
            val += (float(proj @ proj) - float(mu_hats[j] @ mu_hats[j])) / (2.0 * rho)
        else:
            proj = project_psd(mu_hats[j] - rho * bv.value)
            val += (float(np.sum(proj * proj)) - float(np.sum(mu_hats[j] * mu_hats[j]))) / (
                2.0 * rho
            )
        projections.append(proj)
    return val, lagrangian_gradient(pt, lam_hat + rho * pt.h, projections), projections


def _cap_radially(mu, cap):
    """mu scaled into the ball of radius cap, so it stays in its cone."""
    norm = float(np.linalg.norm(mu))
    return mu if norm <= cap else mu * (cap / norm)


def _inner_minimize(prog, pt, lam_hat, mu_hats, rho, eps, inner_max):
    """Gradient descent from the evaluated point pt with Armijo backtracking
    down to gradient norm eps.

    Returns (point, value, gradient, projections, status) where status is
    "ok", "stalled", or "unbounded".
    """
    val, grad, projections = _penalty_terms(pt, lam_hat, mu_hats, rho)
    for _ in range(inner_max):
        gn = float(np.linalg.norm(grad))
        if gn <= eps:
            return pt, val, grad, projections, "ok"
        if val <= UNBOUNDED_OBJECTIVE or pt.f <= UNBOUNDED_OBJECTIVE:
            return pt, val, grad, projections, "unbounded"
        t = 1.0
        while t >= 1e-18:
            try:
                pt_t = evaluate(prog, pt.x - t * grad)
                val_t, grad_t, proj_t = _penalty_terms(pt_t, lam_hat, mu_hats, rho)
            except (DomainError, FloatingPointError):  # outside a domain, or overflowing under np.errstate
                t *= 0.5
                continue
            if val_t <= val - 1e-4 * t * gn * gn:
                pt, val, grad, projections = pt_t, val_t, grad_t, proj_t
                break
            t *= 0.5
        else:
            return pt, val, grad, projections, "stalled"
    return pt, val, grad, projections, "stalled"


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
    pt = evaluate(prog, x)
    mu_hats = [np.zeros_like(bv.value) for bv in pt.blocks]
    feas_prev = pt.residual
    rho = cfg.rho0
    raw = [(0, pt, lam_hat, mu_hats)]  # multiplier arrays are replaced, never changed in place
    status = "iteration-limit"
    for k in range(cfg.outer_max):
        pt, val, grad, projections, inner_status = _inner_minimize(
            prog, pt, lam_hat, mu_hats, rho, inner_tolerance(k), cfg.inner_max
        )
        lam_new = lam_hat + rho * pt.h if prog.p else np.zeros(0)
        raw.append((k + 1, pt, lam_new, projections))
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
        mu_hats = [_cap_radially(m, cfg.cap) for m in projections]

    return trace_from_iterates(prog, raw), status
