"""Index classification of constraint blocks at a feasible point.

Each block gets one label, the one reports print: a second-order-cone
block is "interior", "boundary", "vertex-scalar" (an active block of
dimension 1) or "vertex"; a semidefinite block is "inactive",
"kernel-simple" (active with a simple smallest eigenvalue) or
"kernel-multiple".  Every index set is read from the labels, so each
block lies in exactly one of the seven leaf sets.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .cones import SocRegion, classify_soc
from .errors import InfeasiblePointError
from .model import block_distances

TOL_ACT = 1e-8
TOL_GAP = 1e-6


class IndexClassification(NamedTuple):
    labels: tuple  # one label per block
    tol_act: float
    tol_gap: float
    block_names: tuple

    def _having(self, *labels):
        return tuple(j for j, label in enumerate(self.labels) if label in labels)

    soc_interior = property(lambda self: self._having("interior"))
    soc_boundary = property(lambda self: self._having("boundary"))
    soc_vertex = property(lambda self: self._having("vertex-scalar", "vertex"))  # any dimension
    soc_scalar_active = property(lambda self: self._having("vertex-scalar"))
    soc_vertex_multi = property(lambda self: self._having("vertex"))
    psd_inactive = property(lambda self: self._having("inactive"))
    psd_simple = property(lambda self: self._having("kernel-simple"))
    psd_multiple = property(lambda self: self._having("kernel-multiple"))

    def reduced(self):
        """Blocks that contribute a single reduction gradient."""
        return self._having("boundary", "vertex-scalar", "kernel-simple")

    def conic(self):
        """Blocks whose multiplier stays a full cone element."""
        return self._having("vertex", "kernel-multiple")

    def names(self, indices):
        return tuple(self.block_names[j] for j in indices)


def eigen_gap(pt, j):
    """Spectral gap above the smallest eigenvalue of semidefinite block j,
    and the scale max(1, ||G||_F) it is compared at."""
    bv = pt.blocks[j]
    vals = bv.spectral.eigenvalues
    gap = float(vals[1] - vals[0]) if vals.size > 1 else float("inf")
    return gap, max(1.0, float(np.linalg.norm(bv.value)))


def _label(pt, j, tol_act, tol_gap):
    blk = pt.program.blocks[j]
    bv = pt.blocks[j]
    if blk.kind == "soc":
        region = classify_soc(bv.value, tol_act)
        if region is SocRegion.INFEASIBLE:
            raise InfeasiblePointError(pt.residual, block_distances(pt))
        if region is SocRegion.VERTEX:
            return "vertex-scalar" if blk.dim == 1 else "vertex"
        return region.value
    if bv.spectral.eigenvalues[0] > tol_act:
        return "inactive"
    gap, scale = eigen_gap(pt, j)
    return "kernel-simple" if gap > tol_gap * scale else "kernel-multiple"


def classify(pt, tol_act=TOL_ACT, tol_gap=TOL_GAP):
    """Label every block of an evaluated point by its activity structure.

    The point must be feasible within tol_act; infeasibility is an error,
    never a classification.
    """
    if pt.residual > tol_act:
        raise InfeasiblePointError(pt.residual, block_distances(pt))
    blocks = pt.program.blocks
    return IndexClassification(
        tuple(_label(pt, j, tol_act, tol_gap) for j in range(len(blocks))),
        tol_act,
        tol_gap,
        tuple(blk.name for blk in blocks),
    )
