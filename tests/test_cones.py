"""Cone primitives: projections, spectral code, svec."""

import numpy as np
import pytest

from coneguard.cones import (
    SocRegion,
    SocVector,
    SymMatrix,
    classify_soc,
    eig_sym,
    project_psd,
    project_soc,
    psd_distance,
    reflect,
    smat,
    soc_distance,
    svec,
    svec_dim,
)
from coneguard.errors import DimensionMismatchError, SymmetryError


def random_soc(rng, m):
    v = rng.uniform(-2.0, 2.0, size=m)
    return SocVector(v[0], v[1:])


def random_sym(rng, m):
    a = rng.uniform(-2.0, 2.0, size=(m, m))
    return 0.5 * (a + a.T)


# ---------------------------------------------------------------------------
# Moreau decompositions (both cones are self-dual)


def test_soc_moreau_decomposition():
    rng = np.random.default_rng(9)
    for _ in range(1000):
        m = int(rng.integers(1, 7))
        z = random_soc(rng, m)
        plus = project_soc(z)
        minus = project_soc(SocVector(-z.z0, -z.zbar))
        recon = plus.as_array() - minus.as_array()
        assert np.all(np.abs(recon - z.as_array()) <= 1e-10)
        assert abs(float(plus.as_array() @ minus.as_array())) <= 1e-10
        # both parts are feasible and projection is idempotent
        assert soc_distance(plus) <= 1e-12
        again = project_soc(plus)
        assert np.all(np.abs(again.as_array() - plus.as_array()) <= 1e-12)


def test_psd_moreau_decomposition():
    rng = np.random.default_rng(10)
    for _ in range(300):
        m = int(rng.integers(1, 6))
        a = random_sym(rng, m)
        plus = project_psd(a).mat
        minus = project_psd(-a).mat
        assert np.all(np.abs((plus - minus) - a) <= 1e-10)
        assert abs(float(np.sum(plus * minus))) <= 1e-10
        assert psd_distance(plus) <= 1e-10
        again = project_psd(plus).mat
        assert np.all(np.abs(again - plus) <= 1e-10)


def test_projection_optimality_conditions():
    rng = np.random.default_rng(11)
    for _ in range(200):
        m = int(rng.integers(2, 6))
        z = random_soc(rng, m)
        p = project_soc(z)
        # for projection onto a closed convex cone: <z - p, p> = 0
        gap = float((z.as_array() - p.as_array()) @ p.as_array())
        assert abs(gap) <= 1e-10


# ---------------------------------------------------------------------------
# classification and distances against closed forms


def test_classify_soc_regions():
    assert classify_soc(SocVector(5.0, [3.0, 4.0])) is SocRegion.BOUNDARY
    assert classify_soc(SocVector(5.1, [3.0, 4.0])) is SocRegion.INTERIOR
    assert classify_soc(SocVector(4.9, [3.0, 4.0])) is SocRegion.INFEASIBLE
    assert classify_soc(SocVector(0.0, [0.0, 0.0])) is SocRegion.VERTEX
    assert classify_soc(SocVector(1e-12, [1e-12])) is SocRegion.VERTEX
    # one-dimensional blocks never classify as boundary
    assert classify_soc(SocVector(2.0, [])) is SocRegion.INTERIOR
    assert classify_soc(SocVector(0.0, [])) is SocRegion.VERTEX
    assert classify_soc(SocVector(-1.0, [])) is SocRegion.INFEASIBLE


def test_scalar_blocks_never_boundary_randomized():
    rng = np.random.default_rng(12)
    for _ in range(200):
        z = SocVector(float(rng.uniform(-3, 3)), [])
        assert classify_soc(z) is not SocRegion.BOUNDARY


def test_soc_distance_closed_form():
    rng = np.random.default_rng(13)
    for _ in range(500):
        m = int(rng.integers(2, 7))
        z = random_soc(rng, m)
        nrm = float(np.linalg.norm(z.zbar))
        if z.z0 >= nrm:
            expect = 0.0
        elif z.z0 <= -nrm:
            expect = z.norm()
        else:
            expect = (nrm - z.z0) / np.sqrt(2.0)
        assert abs(soc_distance(z) - expect) <= 1e-12 * max(1.0, z.norm())


def test_psd_distance_matches_dense_oracle():
    rng = np.random.default_rng(14)
    for _ in range(300):
        m = int(rng.integers(1, 7))
        a = random_sym(rng, m)
        expect = float(np.linalg.norm(np.clip(np.linalg.eigvalsh(a), None, 0.0)))
        assert abs(psd_distance(a) - expect) <= 1e-10 * max(1.0, np.linalg.norm(a))


def test_reflect():
    z = SocVector(2.0, [1.0, -3.0])
    r = reflect(z)
    assert r.z0 == 2.0
    assert np.array_equal(r.zbar, [-1.0, 3.0])


# ---------------------------------------------------------------------------
# spectral code against the dense oracle


def test_eig_sym_against_dense_oracle():
    rng = np.random.default_rng(15)
    for _ in range(300):
        m = int(rng.integers(1, 7))
        a = random_sym(rng, m)
        sd = eig_sym(a)
        scale = max(1.0, float(np.linalg.norm(a)))
        expect = np.sort(np.linalg.eigvalsh(a))
        assert np.all(np.abs(sd.eigenvalues - expect) <= 1e-10 * scale)
        assert np.all(np.diff(sd.eigenvalues) >= -1e-12 * scale)
        v = sd.eigenvectors
        assert np.all(np.abs(v.T @ v - np.eye(m)) <= 1e-12)
        resid = a @ v - v * sd.eigenvalues
        assert np.all(np.abs(resid) <= 1e-10 * scale)


def test_eig_sym_deterministic_and_sign_fixed():
    rng = np.random.default_rng(16)
    a = random_sym(rng, 5)
    s1 = eig_sym(a)
    s2 = eig_sym(a.copy())
    assert np.array_equal(s1.eigenvalues, s2.eigenvalues)
    assert np.array_equal(s1.eigenvectors, s2.eigenvectors)
    for j in range(5):
        col = s1.eigenvectors[:, j]
        top = float(np.max(np.abs(col)))
        lead = next(c for c in col if abs(c) > 1e-12 * top)
        assert lead > 0.0


def test_sym_matrix_enforces_symmetry():
    with pytest.raises(SymmetryError):
        SymMatrix(np.array([[1.0, 2.0], [0.0, 1.0]]))
    with pytest.raises(DimensionMismatchError):
        SymMatrix(np.ones((2, 3)))


# ---------------------------------------------------------------------------
# svec / smat


def test_svec_preserves_inner_products_and_inverts():
    rng = np.random.default_rng(17)
    for _ in range(300):
        m = int(rng.integers(1, 7))
        a, b = random_sym(rng, m), random_sym(rng, m)
        va, vb = svec(a), svec(b)
        assert va.size == svec_dim(m)
        lhs = float(va @ vb)
        rhs = float(np.sum(a * b))
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(rhs))
        back = smat(va, m)
        assert np.all(np.abs(back - a) <= 1e-14)


def test_svec_layout_is_row_major_upper_triangle():
    a = np.array([[1.0, 2.0, 3.0], [2.0, 4.0, 5.0], [3.0, 5.0, 6.0]])
    s2 = np.sqrt(2.0)
    expect = np.array([1.0, 2 * s2, 3 * s2, 4.0, 5 * s2, 6.0])
    assert np.all(np.abs(svec(a) - expect) <= 1e-15)
