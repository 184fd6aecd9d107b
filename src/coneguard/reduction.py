"""Scalar reductions of active cone blocks.

A boundary second-order-cone block is summarized by
phi(x) = (g0(x)^2 - ||gbar(x)||^2) / 2, whose gradient is
J_g(x)^T R g(x) with R the reflection diag(1, -1, ..., -1).  An active
scalar block keeps its own value.  An active semidefinite block with a
simple smallest eigenvalue is summarized by that eigenvalue, whose
gradient has entries v^T (d_i G) v for the corresponding unit eigenvector.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .classify import TOL_GAP
from .cones import reflect
from .errors import DimensionMismatchError, NonSimpleEigenvalueError


@dataclass(frozen=True)
class ReducedEntry:
    block: int
    label: str  # "soc-boundary" | "scalar" | "eigen-min"
    value: float
    gradient: np.ndarray


@dataclass(frozen=True)
class ReducedGradients:
    entries: tuple

    def __getitem__(self, block):
        for entry in self.entries:
            if entry.block == block:
                return entry
        raise KeyError(block)

    def blocks(self):
        return tuple(entry.block for entry in self.entries)


def phi_soc(pt, j):
    """Boundary reduction of a second-order-cone block: value and gradient."""
    blk = pt.program.blocks[j]
    if blk.kind != "soc" or blk.dim <= 1:
        raise DimensionMismatchError(
            "block %r is not a second-order-cone block of dimension > 1" % blk.name
        )
    bv = pt.blocks[j]
    z = bv.value
    value = 0.5 * (z.z0**2 - float(z.zbar @ z.zbar))
    gradient = bv.jac.T @ reflect(z).as_array()
    return value, gradient


def _eigen_min(pt, j):
    bv = pt.blocks[j]
    vals = bv.spectral.eigenvalues
    vecs = bv.spectral.eigenvectors
    v = vecs[:, 0]
    value = float(vals[0])
    gap = float(vals[1] - vals[0]) if vals.size > 1 else float("inf")
    gradient = np.einsum("iab,a,b->i", bv.partials, v, v)
    return value, gradient, gap, max(1.0, bv.value.norm())


def sigma_min_grad(pt, j, tol_gap=TOL_GAP, enforce_simple=True):
    """Smallest eigenvalue of a semidefinite block and its gradient.

    The gradient formula is only exact when the eigenvalue is simple; with
    enforce_simple the spectral gap is checked against tol_gap first.
    """
    blk = pt.program.blocks[j]
    if blk.kind != "psd":
        raise DimensionMismatchError("block %r is not a semidefinite block" % blk.name)
    value, gradient, gap, scale = _eigen_min(pt, j)
    if enforce_simple and gap <= tol_gap * scale:
        raise NonSimpleEigenvalueError(gap, tol_gap * scale)
    return value, gradient


def eigen_gap(pt, j):
    """Spectral gap above the smallest eigenvalue, relative scale included."""
    _, _, gap, scale = _eigen_min(pt, j)
    return gap, scale


def reduced_view(pt, cls, strict=True):
    """Reduction values and gradients for every reduced block of cls.

    Classification labels are taken as given, so this can be evaluated at
    points near the one that was classified.  With strict, an eigen-min
    entry whose smallest eigenvalue is no longer simple raises; otherwise
    the gradient is computed from the eigenpair regardless of the gap.
    """
    entries = []
    for j in sorted(cls.soc_boundary + cls.soc_scalar_active + cls.psd_simple):
        if j in cls.soc_boundary:
            value, gradient = phi_soc(pt, j)
            label = "soc-boundary"
        elif j in cls.soc_scalar_active:
            bv = pt.blocks[j]
            value = bv.value.z0
            gradient = bv.jac[0].copy()
            label = "scalar"
        else:
            value, gradient = sigma_min_grad(pt, j, cls.tol_gap, enforce_simple=strict)
            label = "eigen-min"
        entries.append(ReducedEntry(j, label, float(value), np.asarray(gradient, float)))
    return ReducedGradients(tuple(entries))
