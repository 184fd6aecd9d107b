"""Scalar reductions of active cone blocks, and the full-cone blocks.

A boundary second-order-cone block is summarized by
phi(x) = (g0(x)^2 - ||gbar(x)||^2) / 2, whose gradient is
J_g(x)^T R g(x) with R = diag(1, -1, ..., -1).  An active
scalar block keeps its own value.  An active semidefinite block with a
simple smallest eigenvalue is summarized by that eigenvalue, whose
gradient has entries v^T (d_i G) v for the corresponding unit eigenvector.

A reduced entry owns the map between a coefficient a and its cone
multiplier a R g, a e0 or a v v^T, both ways.  The other active blocks
(vertex blocks of dimension > 1, semidefinite blocks with a repeated
smallest eigenvalue) keep full cones; ``conic_base`` collects them.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .classify import TOL_GAP, eigen_gap
from .errors import DimensionMismatchError, NonSimpleEigenvalueError

_ENTRY_LABELS = {"boundary": "soc-boundary", "vertex-scalar": "scalar", "kernel-simple": "eigen-min"}


class ReducedEntry(NamedTuple):
    block: int
    label: str  # "soc-boundary" | "scalar" | "eigen-min"
    value: float
    gradient: np.ndarray
    axis: np.ndarray  # R g, e0, or the unit eigenvector v

    def multiplier(self, a):
        """Cone multiplier of coefficient a: a R g, a e0, or a v v^T."""
        if self.label == "eigen-min":
            return a * np.outer(self.axis, self.axis)
        return a * self.axis

    def coefficient(self, mu):
        """Nonnegative coefficient of the cone multiplier mu along the axis."""
        if self.label == "eigen-min":
            return max(0.0, float(self.axis @ mu @ self.axis))
        w = self.axis
        return max(0.0, float(mu @ w) / max(float(w @ w), 1e-30))


class ReducedGradients:
    __slots__ = ("entries",)

    def __init__(self, entries):
        self.entries = entries

    def __getitem__(self, block):
        for entry in self.entries:
            if entry.block == block:
                return entry
        raise KeyError(block)

    def blocks(self):
        return tuple(entry.block for entry in self.entries)


def _phi_soc(bv):
    z0, zbar = float(bv.value[0]), bv.value[1:]
    axis = np.concatenate(([z0], -zbar))  # R g
    return 0.5 * (z0**2 - float(zbar @ zbar)), bv.jac.T @ axis, axis


def phi_soc(pt, j):
    """Boundary reduction of a second-order-cone block: value and gradient."""
    blk = pt.program.blocks[j]
    if blk.kind != "soc" or blk.dim <= 1:
        raise DimensionMismatchError(
            "block %r is not a second-order-cone block of dimension > 1" % blk.name
        )
    return _phi_soc(pt.blocks[j])[:2]


def _eigen_min(pt, j, tol_gap, enforce_simple):
    if enforce_simple:
        gap, scale = eigen_gap(pt, j)
        if gap <= tol_gap * scale:
            raise NonSimpleEigenvalueError(gap, tol_gap * scale)
    bv = pt.blocks[j]
    v = bv.spectral.eigenvectors[:, 0]
    return float(bv.spectral.eigenvalues[0]), np.einsum("iab,a,b->i", bv.partials, v, v), v


def sigma_min_grad(pt, j, tol_gap=TOL_GAP, enforce_simple=True):
    """Smallest eigenvalue of a semidefinite block and its gradient.

    The gradient formula is only exact when the eigenvalue is simple; with
    enforce_simple the spectral gap is checked against tol_gap first.
    """
    blk = pt.program.blocks[j]
    if blk.kind != "psd":
        raise DimensionMismatchError("block %r is not a semidefinite block" % blk.name)
    return _eigen_min(pt, j, tol_gap, enforce_simple)[:2]


def reduced_view(pt, cls, strict=True):
    """Reduction values, gradients and axes for every reduced block of cls.

    Classification labels are taken as given, so this can be evaluated at
    points near the one that was classified.  With strict, an eigen-min
    entry whose smallest eigenvalue is no longer simple raises; otherwise
    the gradient is computed from the eigenpair regardless of the gap.
    """
    entries = []
    for j in cls.reduced():
        label = cls.labels[j]
        bv = pt.blocks[j]
        if label == "boundary":
            value, gradient, axis = _phi_soc(bv)
        elif label == "vertex-scalar":
            value, gradient, axis = bv.value[0], bv.jac[0].copy(), np.ones(1)
        else:
            value, gradient, axis = _eigen_min(pt, j, cls.tol_gap, strict)
        entries.append(
            ReducedEntry(j, _ENTRY_LABELS[label], float(value), np.asarray(gradient, float), axis)
        )
    return ReducedGradients(tuple(entries))


def conic_base(pt, cls):
    """SOC Jacobians and PSD partials of the full-cone blocks of cls."""
    socs = [pt.blocks[j].jac for j in cls.soc_vertex_multi]
    psds = [pt.blocks[j].partials for j in cls.psd_multiple]
    return socs, psds
