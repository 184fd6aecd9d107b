"""Second-order cone and semidefinite cone primitives.

Second-order cone values are 1-D arrays z = (z0, zbar), z0 first, with
K_m = {z : z0 >= ||zbar||} and K_1 the nonnegative reals.  Semidefinite
values are (m, m) symmetric arrays; ``eig_sym`` checks them and
decomposes them by LAPACK (numpy's ``eigh``), with eigenvector signs
fixed so that repeated calls agree bitwise.
"""

from __future__ import annotations

import enum
import functools
from typing import NamedTuple

import numpy as np

from .errors import DimensionMismatchError, SymmetryError

SYMMETRY_TOL = 1e-12


class SocRegion(enum.Enum):
    INTERIOR = "interior"
    BOUNDARY = "boundary"
    VERTEX = "vertex"
    INFEASIBLE = "infeasible"


def _split(z):
    z = np.asarray(z, dtype=float).reshape(-1)
    return z, float(z[0]), z[1:]


def classify_soc(z, tol_act=1e-8):
    """Locate z relative to K_m: interior, nonzero boundary, vertex, or outside."""
    z, z0, zbar = _split(z)
    nrm = float(np.linalg.norm(zbar))
    total = float(np.sqrt(z0**2 + zbar @ zbar))
    if total <= tol_act:
        return SocRegion.VERTEX
    if z.size == 1:
        return SocRegion.INTERIOR if z0 > tol_act else SocRegion.INFEASIBLE
    if abs(z0 - nrm) <= tol_act * max(1.0, total):
        return SocRegion.BOUNDARY
    if z0 > nrm:
        return SocRegion.INTERIOR
    return SocRegion.INFEASIBLE


def project_soc(z):
    """Euclidean projection onto K_m, as a new array."""
    z, z0, zbar = _split(z)
    nrm = float(np.linalg.norm(zbar))
    if z0 >= nrm:
        return z.copy()
    if z0 <= -nrm:
        return np.zeros_like(z)
    t = 0.5 * (z0 + nrm)
    return np.concatenate(([t], (t / nrm) * zbar))


def soc_distance(z):
    z = np.asarray(z, dtype=float).reshape(-1)
    return float(np.linalg.norm(z - project_soc(z)))


class SpectralData(NamedTuple):
    eigenvalues: np.ndarray  # ascending
    eigenvectors: np.ndarray  # orthonormal columns, matching order


def eig_sym(a):
    """Spectral decomposition of the symmetric part of a square matrix, with
    ascending eigenvalues.

    The one check of a symmetric matrix: a non-square matrix, or one whose
    asymmetry exceeds SYMMETRY_TOL * max(1, ||a||_F), is rejected.
    Eigenvector signs follow a fixed convention (first component of
    noticeable magnitude is positive) so repeated calls agree bitwise.
    """
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionMismatchError("expected a square matrix, got shape %r" % (a.shape,))
    limit = SYMMETRY_TOL * max(1.0, float(np.linalg.norm(a, "fro")))
    skew = float(np.max(np.abs(a - a.T))) if a.size else 0.0
    if skew > limit:
        raise SymmetryError("matrix is not symmetric: max asymmetry %.3e exceeds %.3e" % (skew, limit))
    vals, vecs = np.linalg.eigh(0.5 * (a + a.T))  # ascending
    mag = np.abs(vecs)
    lead = np.argmax(mag > 1e-12 * mag.max(axis=0, initial=0.0), axis=0)
    vecs[:, vecs[lead, np.arange(vecs.shape[1])] < 0.0] *= -1.0
    return SpectralData(vals, vecs)


def project_psd(a):
    """Euclidean (Frobenius) projection onto the positive semidefinite cone,
    as a new symmetric array."""
    sd = eig_sym(a)
    clipped = np.clip(sd.eigenvalues, 0.0, None)
    out = (sd.eigenvectors * clipped) @ sd.eigenvectors.T
    return 0.5 * (out + out.T)


def psd_distance(a, spectral=None):
    """Frobenius distance of a to the semidefinite cone; spectral, when given,
    is ``eig_sym(a)``."""
    sd = spectral if spectral is not None else eig_sym(a)
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


def sym_from_upper(vals, m):
    """The symmetric matrix of order m whose upper triangle, row-major, is vals."""
    rows, cols = upper_triangle(m)
    mat = np.zeros((m, m))
    mat[rows, cols] = vals
    mat[cols, rows] = vals
    return mat


def listed(value):
    """The entries a file or report lists for a block value: a second-order
    cone vector as it is, a symmetric matrix's upper triangle, row-major."""
    value = np.asarray(value, dtype=float)
    return value if value.ndim == 1 else value[upper_triangle(value.shape[0])]


_SQRT2 = float(np.sqrt(2.0))


def svec(mat):
    """Row-major upper-triangle vectorization with sqrt(2)-scaled off-diagonals,
    of a matrix or of each matrix in a stack (..., m, m).

    Chosen so the Euclidean inner product of two svec images equals the
    Frobenius inner product of the matrices.
    """
    i, j = upper_triangle(mat.shape[-1])
    w = np.where(i == j, 1.0, _SQRT2)
    return mat[..., i, j] * w


def smat(vec, m):
    i, j = upper_triangle(m)
    w = np.where(i == j, 1.0, _SQRT2)
    out = np.zeros((m, m))
    out[i, j] = vec / w
    out = out + np.triu(out, 1).T
    return out
