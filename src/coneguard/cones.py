"""Second-order cone and semidefinite cone primitives.

Second-order cone vectors are split as z = (z0, zbar) with
K_m = {z : z0 >= ||zbar||} and K_1 the nonnegative reals.  Symmetric
matrices are decomposed by LAPACK (numpy's ``eigh``), with eigenvector
signs fixed so that repeated calls agree bitwise.
"""

from __future__ import annotations

import enum
import functools
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError, SymmetryError

SYMMETRY_TOL = 1e-12


@dataclass(eq=False)
class SocVector:
    z0: float
    zbar: np.ndarray

    def __post_init__(self):
        self.z0 = float(self.z0)
        self.zbar = np.asarray(self.zbar, dtype=float).reshape(-1)

    @property
    def m(self):
        return 1 + self.zbar.size

    def as_array(self):
        return np.concatenate(([self.z0], self.zbar))

    def norm(self):
        return float(np.sqrt(self.z0**2 + self.zbar @ self.zbar))


def reflect(z):
    """Multiply by the reflection diag(1, -1, ..., -1)."""
    return SocVector(z.z0, -z.zbar)


class SocRegion(enum.Enum):
    INTERIOR = "interior"
    BOUNDARY = "boundary"
    VERTEX = "vertex"
    INFEASIBLE = "infeasible"


def classify_soc(z, tol_act=1e-8):
    """Locate z relative to K_m: interior, nonzero boundary, vertex, or outside."""
    nrm = float(np.linalg.norm(z.zbar))
    total = z.norm()
    if total <= tol_act:
        return SocRegion.VERTEX
    if z.m == 1:
        return SocRegion.INTERIOR if z.z0 > tol_act else SocRegion.INFEASIBLE
    if abs(z.z0 - nrm) <= tol_act * max(1.0, total):
        return SocRegion.BOUNDARY
    if z.z0 > nrm:
        return SocRegion.INTERIOR
    return SocRegion.INFEASIBLE


def project_soc(z):
    """Euclidean projection onto K_m."""
    nrm = float(np.linalg.norm(z.zbar))
    if z.z0 >= nrm:
        return SocVector(z.z0, z.zbar.copy())
    if z.z0 <= -nrm:
        return SocVector(0.0, np.zeros_like(z.zbar))
    t = 0.5 * (z.z0 + nrm)
    return SocVector(t, (t / nrm) * z.zbar)


def soc_distance(z):
    return float(np.linalg.norm(z.as_array() - project_soc(z).as_array()))


@dataclass(eq=False)
class SymMatrix:
    mat: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.mat, dtype=float)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise DimensionMismatchError("expected a square matrix, got shape %r" % (a.shape,))
        scale = float(np.linalg.norm(a, "fro"))
        skew = float(np.max(np.abs(a - a.T))) if a.size else 0.0
        if skew > SYMMETRY_TOL * max(1.0, scale):
            raise SymmetryError(
                "matrix is not symmetric: max asymmetry %.3e exceeds %.3e"
                % (skew, SYMMETRY_TOL * max(1.0, scale))
            )
        self.mat = 0.5 * (a + a.T)

    @property
    def dim(self):
        return self.mat.shape[0]

    def norm(self):
        return float(np.linalg.norm(self.mat, "fro"))


@dataclass(eq=False)
class SpectralData:
    eigenvalues: np.ndarray  # ascending
    eigenvectors: np.ndarray  # orthonormal columns, matching order


def eig_sym(a):
    """Spectral decomposition with ascending eigenvalues.

    Eigenvector signs follow a fixed convention (first component of
    noticeable magnitude is positive) so repeated calls agree bitwise.
    """
    mat = a.mat if isinstance(a, SymMatrix) else SymMatrix(a).mat
    vals, vecs = np.linalg.eigh(mat)  # ascending
    mag = np.abs(vecs)
    lead = np.argmax(mag > 1e-12 * mag.max(axis=0, initial=0.0), axis=0)
    vecs[:, vecs[lead, np.arange(vecs.shape[1])] < 0.0] *= -1.0
    return SpectralData(vals, vecs)


def project_psd(a, spectral=None):
    """Euclidean (Frobenius) projection onto the positive semidefinite cone."""
    mat = a.mat if isinstance(a, SymMatrix) else SymMatrix(a).mat
    sd = spectral if spectral is not None else eig_sym(mat)
    clipped = np.clip(sd.eigenvalues, 0.0, None)
    out = (sd.eigenvectors * clipped) @ sd.eigenvectors.T
    return SymMatrix(0.5 * (out + out.T))


def psd_distance(a, spectral=None):
    mat = a.mat if isinstance(a, SymMatrix) else SymMatrix(a).mat
    sd = spectral if spectral is not None else eig_sym(mat)
    neg = np.clip(sd.eigenvalues, None, 0.0)
    return float(np.linalg.norm(neg))


def svec_dim(m):
    return m * (m + 1) // 2


@functools.cache
def upper_triangle(m):
    """Read-only (rows, cols) of the upper triangle of order m, row-major.

    The one definition of the entry order used by the problem format,
    traces, svec/smat and the reports.
    """
    rows, cols = np.triu_indices(m)
    rows.flags.writeable = cols.flags.writeable = False
    return rows, cols


_SQRT2 = float(np.sqrt(2.0))


def svec(mat):
    """Row-major upper-triangle vectorization with sqrt(2)-scaled off-diagonals.

    Chosen so the Euclidean inner product of two svec images equals the
    Frobenius inner product of the matrices.
    """
    i, j = upper_triangle(mat.shape[0])
    w = np.where(i == j, 1.0, _SQRT2)
    return mat[i, j] * w


def smat(vec, m):
    i, j = upper_triangle(m)
    w = np.where(i == j, 1.0, _SQRT2)
    out = np.zeros((m, m))
    out[i, j] = vec / w
    out = out + np.triu(out, 1).T
    return out
