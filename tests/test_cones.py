"""Cone primitives: projections, spectral code, svec."""

import numpy as np
import pytest

from coneguard.cones import (
    SYMMETRY_TOL,
    SocRegion,
    classify_soc,
    eig_sym,
    listed,
    project_psd,
    project_soc,
    psd_distance,
    smat,
    soc_distance,
    svec,
    svec_dim,
    sym_from_upper,
)
from coneguard.errors import DimensionMismatchError, SymmetryError
from coneguard.model import SocBlockValue
from coneguard.reduction import _phi_soc


def random_soc(rng, m):
    return rng.uniform(-2.0, 2.0, size=m)


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
        minus = project_soc(-z)
        recon = plus - minus
        assert np.all(np.abs(recon - z) <= 1e-10)
        assert abs(float(plus @ minus)) <= 1e-10
        # both parts are feasible and projection is idempotent
        assert soc_distance(plus) <= 1e-12
        again = project_soc(plus)
        assert np.all(np.abs(again - plus) <= 1e-12)


def test_psd_moreau_decomposition():
    rng = np.random.default_rng(10)
    for _ in range(300):
        m = int(rng.integers(1, 6))
        a = random_sym(rng, m)
        plus = project_psd(a)
        minus = project_psd(-a)
        assert np.all(np.abs((plus - minus) - a) <= 1e-10)
        assert abs(float(np.sum(plus * minus))) <= 1e-10
        assert psd_distance(plus) <= 1e-10
        again = project_psd(plus)
        assert np.all(np.abs(again - plus) <= 1e-10)


def test_projection_optimality_conditions():
    rng = np.random.default_rng(11)
    for _ in range(200):
        m = int(rng.integers(2, 6))
        z = random_soc(rng, m)
        p = project_soc(z)
        # for projection onto a closed convex cone: <z - p, p> = 0
        gap = float((z - p) @ p)
        assert abs(gap) <= 1e-10


# ---------------------------------------------------------------------------
# classification and distances against closed forms


def test_classify_soc_regions():
    assert classify_soc(np.array([5.0, 3.0, 4.0])) is SocRegion.BOUNDARY
    assert classify_soc(np.array([5.1, 3.0, 4.0])) is SocRegion.INTERIOR
    assert classify_soc(np.array([4.9, 3.0, 4.0])) is SocRegion.INFEASIBLE
    assert classify_soc(np.array([0.0, 0.0, 0.0])) is SocRegion.VERTEX
    assert classify_soc(np.array([1e-12, 1e-12])) is SocRegion.VERTEX
    # one-dimensional blocks never classify as boundary
    assert classify_soc(np.array([2.0])) is SocRegion.INTERIOR
    assert classify_soc(np.array([0.0])) is SocRegion.VERTEX
    assert classify_soc(np.array([-1.0])) is SocRegion.INFEASIBLE


def test_soc_functions_accept_lists():
    assert classify_soc([5.0, 3.0, 4]) is SocRegion.BOUNDARY
    projected = project_soc([0.0, 3.0, 4.0])
    assert isinstance(projected, np.ndarray)
    assert np.array_equal(projected, [2.5, 1.5, 2.0])
    assert np.array_equal(project_soc([1.0]), [1.0])
    assert soc_distance([0.0, 3.0, 4.0]) == soc_distance(np.array([0.0, 3.0, 4.0]))
    assert soc_distance([-2]) == 2.0


def test_scalar_blocks_never_boundary_randomized():
    rng = np.random.default_rng(12)
    for _ in range(200):
        z = np.array([rng.uniform(-3, 3)])
        assert classify_soc(z) is not SocRegion.BOUNDARY


def test_soc_distance_closed_form():
    rng = np.random.default_rng(13)
    for _ in range(500):
        m = int(rng.integers(2, 7))
        z = random_soc(rng, m)
        nrm = float(np.linalg.norm(z[1:]))
        if z[0] >= nrm:
            expect = 0.0
        elif z[0] <= -nrm:
            expect = np.linalg.norm(z)
        else:
            expect = (nrm - z[0]) / np.sqrt(2.0)
        assert abs(soc_distance(z) - expect) <= 1e-12 * max(1.0, np.linalg.norm(z))


def test_psd_distance_matches_dense_oracle():
    rng = np.random.default_rng(14)
    for _ in range(300):
        m = int(rng.integers(1, 7))
        a = random_sym(rng, m)
        expect = float(np.linalg.norm(np.clip(np.linalg.eigvalsh(a), None, 0.0)))
        assert abs(psd_distance(a) - expect) <= 1e-10 * max(1.0, np.linalg.norm(a))


def test_reflect():
    # the SOC boundary reduction's axis is R z, R = diag(1, -1, ..., -1)
    z = np.array([2.0, 1.0, -3.0])
    value, gradient, axis = _phi_soc(SocBlockValue(z, np.eye(3)))
    assert np.array_equal(axis, [2.0, -1.0, 3.0])
    assert np.array_equal(gradient, axis)
    assert value == 0.5 * (4.0 - 10.0)
    assert np.array_equal(z, [2.0, 1.0, -3.0])


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


@pytest.mark.parametrize("check", [eig_sym, project_psd, psd_distance], ids=lambda f: f.__name__)
def test_psd_input_must_be_square_and_symmetric(check):
    with pytest.raises(SymmetryError, match=r"^matrix is not symmetric: max asymmetry 2\.000e\+00 exceeds 2\.449e-12$"):
        check(np.array([[1.0, 2.0], [0.0, 1.0]]))
    with pytest.raises(DimensionMismatchError, match=r"^expected a square matrix, got shape \(2, 3\)$"):
        check(np.ones((2, 3)))


def test_sym_matrix_enforces_symmetry():
    # the allowed asymmetry is SYMMETRY_TOL * max(1, ||a||_F); within it, the
    # symmetric part is decomposed
    a = np.diag([3.0, 4.0])  # ||a||_F = 5
    a[0, 1] = 4.0 * SYMMETRY_TOL
    assert eig_sym(a).eigenvalues == pytest.approx([3.0, 4.0])
    a[0, 1] = 6.0 * SYMMETRY_TOL
    with pytest.raises(SymmetryError):
        eig_sym(a)


def test_project_psd_returns_a_symmetric_array():
    rng = np.random.default_rng(18)
    for m in range(1, 6):
        out = project_psd(random_sym(rng, m))
        assert type(out) is np.ndarray and out.shape == (m, m)
        assert np.array_equal(out, out.T)


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
    # a stack of matrices maps to the stack of their images
    assert np.array_equal(svec(np.stack([a, -a])), np.stack([expect, -expect]))


def test_listed_entries_are_the_vector_or_the_upper_triangle():
    assert listed([1.0, -2.0]).tolist() == [1.0, -2.0]
    a = np.array([[1.0, 2.0, 3.0], [2.0, 4.0, 5.0], [3.0, 5.0, 6.0]])
    assert listed(a).tolist() == [1.0, 2.0, 3.0, 4.0, 5.0, 6.0]
    assert np.array_equal(sym_from_upper(listed(a), 3), a)
