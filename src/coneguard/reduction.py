"""Scalar reductions of active cone blocks, and the full-cone blocks.

``reduced_view`` is the one way to a block's reduction.  A boundary
second-order-cone block is summarized by
phi(x) = (g0(x)^2 - ||gbar(x)||^2) / 2, whose gradient is
J_g(x)^T R g(x) with R = diag(1, -1, ..., -1).  An active
scalar block keeps its own value.  An active semidefinite block with a
simple smallest eigenvalue is summarized by that eigenvalue, whose
gradient has entries v^T (d_i G) v for the corresponding unit eigenvector.

A reduced entry carries its block's classification label ("boundary",
"vertex-scalar" or "kernel-simple") and owns the map between a
coefficient a and its cone multiplier a R g, a e0 or a v v^T, both ways.
The other active blocks (vertex blocks of dimension > 1, semidefinite
blocks with a repeated smallest eigenvalue) keep full cones;
``conic_base`` collects them.  ``dependence_system`` assembles one
dependence query from an equality basis (``equality_basis``), those cone
blocks and reduced gradients as rays, with the names of its witness rows.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .certificates import numerical_rank
from .classify import eigen_gap
from .cones import adjoint
from .errors import NonSimpleEigenvalueError


class ReducedEntry(NamedTuple):
    block: int
    label: str  # "boundary" | "vertex-scalar" | "kernel-simple"
    value: float
    gradient: np.ndarray
    axis: np.ndarray  # R g, e0, or the unit eigenvector v

    def multiplier(self, a):
        """Cone multiplier of coefficient a: a R g, a e0, or a v v^T."""
        if self.label == "kernel-simple":
            return a * np.outer(self.axis, self.axis)
        return a * self.axis

    def coefficient(self, mu):
        """Nonnegative coefficient of the cone multiplier mu along the axis."""
        if self.label == "kernel-simple":
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


def reduced_view(pt, cls, strict=True):
    """Reduction values, gradients and axes for every reduced block of cls.

    Classification labels are taken as given, so this can be evaluated at
    points near the one that was classified.  With strict, a kernel-simple
    entry whose smallest eigenvalue is no longer simple raises; otherwise
    the gradient is computed from the eigenpair regardless of the gap.
    """
    entries = []
    for j in cls.reduced():
        label = cls.labels[j]
        bv = pt.blocks[j]
        if label == "boundary":
            z0, zbar = float(bv.value[0]), bv.value[1:]
            axis = np.concatenate(([z0], -zbar))  # R g
            value, gradient = 0.5 * (z0**2 - float(zbar @ zbar)), adjoint(bv.jac, axis)
        elif label == "vertex-scalar":
            value, gradient, axis = bv.value[0], bv.jac[0].copy(), np.ones(1)
        else:
            if strict:
                gap, scale = eigen_gap(pt, j)
                if gap <= cls.tol_gap * scale:
                    raise NonSimpleEigenvalueError(gap, cls.tol_gap * scale)
            axis = bv.spectral.eigenvectors[:, 0]
            value = bv.spectral.eigenvalues[0]
            gradient = np.einsum("iab,a,b->i", bv.partials, axis, axis)
        entries.append(ReducedEntry(j, label, float(value), np.asarray(gradient, float), axis))
    return ReducedGradients(tuple(entries))


def conic_base(pt, cls):
    """SOC Jacobians and PSD partials of the full-cone blocks of cls."""
    socs = [pt.blocks[j].jac for j in cls.soc_vertex_multi]
    psds = [pt.blocks[j].partials for j in cls.psd_multiple]
    return socs, psds


def equality_basis(pt, tol_rank):
    """Equality gradient rows at pt and numerical_rank's four values for them
    (rank, pivoted basis, vanishing combination, its residual); the rank is
    computed only when there are equalities."""
    rows = list(pt.jac_h)
    return (rows, *numerical_rank(rows, tol_rank)) if rows else (rows, 0, (), np.zeros(0), 0.0)


def dependence_system(cls, eq, cones, rays):
    """One dependence query and the names of its witness rows.

    eq (free coefficients) and rays (nonnegative ones) are (name, vector)
    pairs; cones holds the SOC and PSD lists of cls's full-cone blocks, as
    ``conic_base`` gives them or compressed to their kernel faces.  Returns
    the system (eq vectors, socs, psds, ray vectors) and its witness names
    (eq names, SOC names, PSD names, ray names).
    """
    eq, rays = tuple(eq), tuple(rays)
    system = ([v for _, v in eq], *cones, [v for _, v in rays])
    blocks = (cls.names(cls.soc_vertex_multi), cls.names(cls.psd_multiple))
    return system, (tuple(n for n, _ in eq), *blocks, tuple(n for n, _ in rays))
