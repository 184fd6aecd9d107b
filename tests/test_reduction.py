"""Tests for the scalar reductions of active cone blocks."""

import numpy as np
import pytest

from coneguard.classify import classify
from coneguard.errors import DimensionMismatchError, NonSimpleEigenvalueError
from coneguard.model import apply_jacobian_adjoint, evaluate, loads
from coneguard.reduction import (
    TOL_GAP,
    conic_base,
    eigen_gap,
    phi_soc,
    reduced_view,
    sigma_min_grad,
)

from conftest import fd_gradient, fd_tolerance, random_feasible_program


SEVEN_BLOCKS = (
    "vars 2\nobjective x1 + x2\n"
    "soc a 2\n2\n1\n"
    "soc b 2\n1\n1\n"
    "soc c 1\nx1\n"
    "soc d 2\nx1\nx1\n"
    "psd e 1\n1\n"
    "psd f 2\nx1\n0\n1\n"
    "psd g 2\nx1\n0\nx2\n"
)


def eval_at(prog, x):
    return evaluate(prog, np.asarray(x, dtype=float))


class TestPhiSoc:
    def test_identically_zero_on_the_diagonal_ray(self, soc_line_program):
        # g(x) = (x1, x1) gives phi = (x1^2 - x1^2)/2 = 0 with zero gradient
        # everywhere, not just on the feasible set.
        for x in (-2.0, -0.5, 0.0, 1.0, 3.25):
            value, gradient = phi_soc(eval_at(soc_line_program, [x]), 0)
            assert value == 0.0
            assert gradient == pytest.approx([0.0], abs=1e-14)

    def test_closed_form_on_a_two_variable_block(self):
        prog = loads("vars 2\nobjective x1\nsoc g 2\nx1\nx2\n")
        value, gradient = phi_soc(eval_at(prog, [2.0, 1.0]), 0)
        assert value == pytest.approx(1.5, abs=1e-14)
        assert gradient == pytest.approx([2.0, -1.0], abs=1e-14)

    def test_matches_finite_differences_on_affine_corpus(self):
        rng = np.random.default_rng(7)
        checked = 0
        while checked < 100:
            prog, x_star = random_feasible_program(rng, allow_psd=False)
            x = np.asarray(x_star) + rng.integers(-2, 3, size=prog.n) / 8.0
            for j, blk in enumerate(prog.blocks):
                if blk.kind != "soc" or blk.dim <= 1:
                    continue
                value, gradient = phi_soc(eval_at(prog, x), j)

                def phi_value(y, j=j):
                    return phi_soc(eval_at(prog, y), j)[0]

                fd = fd_gradient(phi_value, np.asarray(x, dtype=float))
                scale = max(1.0, abs(value), float(np.max(np.abs(gradient))))
                assert gradient == pytest.approx(fd, abs=fd_tolerance(scale))
                checked += gradient.size
        assert checked >= 100

    def test_matches_finite_differences_on_a_nonlinear_block(self):
        prog = loads("vars 2\nobjective x1\nsoc g 2\nx1^2 + x2\nx1 * x2 - 1\n")
        rng = np.random.default_rng(11)
        for _ in range(10):
            x = rng.integers(-2, 3, size=2) / 4.0
            value, gradient = phi_soc(eval_at(prog, x), 0)

            def phi_value(y):
                return phi_soc(eval_at(prog, y), 0)[0]

            fd = fd_gradient(phi_value, np.asarray(x, dtype=float))
            scale = max(1.0, abs(value), float(np.max(np.abs(gradient))))
            assert gradient == pytest.approx(fd, abs=fd_tolerance(scale))

    def test_rejects_wrong_block_kinds(self, psd_pair_program):
        with pytest.raises(DimensionMismatchError):
            phi_soc(eval_at(psd_pair_program, [0.0]), 0)
        scalar = loads("vars 1\nobjective x1\nsoc s 1\nx1\n")
        with pytest.raises(DimensionMismatchError):
            phi_soc(eval_at(scalar, [1.0]), 0)

    def test_vanishes_at_classified_boundary_points(self):
        rng = np.random.default_rng(23)
        seen = 0
        for _ in range(40):
            prog, x_star = random_feasible_program(rng, allow_psd=False)
            pt = eval_at(prog, x_star)
            cls = classify(pt)
            for j in cls.soc_boundary:
                value, _ = phi_soc(pt, j)
                norm = float(np.linalg.norm(pt.blocks[j].value))
                assert abs(value) <= 2.0 * cls.tol_act * max(1.0, norm)
                seen += 1
        assert seen >= 10

    def test_vanishes_for_noisy_boundary_data(self):
        # a block sitting 1e-9 off the exact boundary still classifies as
        # boundary, and phi stays within the documented slack
        prog = loads("vars 1\nobjective x1\nsoc g 2\nx1 + 1e-9\nx1\n")
        pt = eval_at(prog, [1.0])
        cls = classify(pt)
        assert cls.soc_boundary == (0,)
        value, _ = phi_soc(pt, 0)
        assert 0.0 < abs(value) <= 2.0 * cls.tol_act * float(np.linalg.norm(pt.blocks[0].value))


class TestSigmaMin:
    def test_kernel_pair_example_values(self, psd_pair_program):
        # the two blocks have eigenvalues {x1, 1} and {-x1, 1}, so near 0
        # the reductions are x1 and -x1 with gradients +1 and -1
        for x in (0.0, 0.25, -0.25):
            pt = eval_at(psd_pair_program, [x])
            v1, g1 = sigma_min_grad(pt, 0)
            v2, g2 = sigma_min_grad(pt, 1)
            assert v1 == pytest.approx(x, abs=1e-12)
            assert g1 == pytest.approx([1.0], abs=1e-12)
            assert v2 == pytest.approx(-x, abs=1e-12)
            assert g2 == pytest.approx([-1.0], abs=1e-12)

    def test_matches_eigvalsh_and_finite_differences(self):
        rng = np.random.default_rng(31)
        checked = 0
        while checked < 50:
            prog, x_star = random_feasible_program(rng, allow_soc=False)
            x = np.asarray(x_star) + rng.integers(-2, 3, size=prog.n) / 8.0
            pt = eval_at(prog, x)
            for j, blk in enumerate(prog.blocks):
                if blk.kind != "psd":
                    continue
                gap, scale = eigen_gap(pt, j)
                if gap <= 10.0 * TOL_GAP * scale:
                    continue
                value, gradient = sigma_min_grad(pt, j)
                oracle = float(np.linalg.eigvalsh(pt.blocks[j].value.mat)[0])
                assert value == pytest.approx(oracle, abs=1e-10 * scale)

                def min_eig(y, j=j):
                    return float(np.linalg.eigvalsh(eval_at(prog, y).blocks[j].value.mat)[0])

                fd = fd_gradient(min_eig, np.asarray(x, dtype=float))
                tol = fd_tolerance(max(scale, float(np.max(np.abs(gradient)))))
                assert gradient == pytest.approx(fd, abs=tol)
                checked += gradient.size
        assert checked >= 50

    def test_matches_finite_differences_on_a_nonlinear_block(self):
        prog = loads(
            "vars 2\nobjective x1\npsd p 2\nx1^2 + 2\nx1 * x2\nx2^2 + 3\n"
        )
        rng = np.random.default_rng(5)
        for _ in range(10):
            x = rng.integers(-2, 3, size=2) / 4.0
            pt = eval_at(prog, x)
            gap, scale = eigen_gap(pt, 0)
            if gap <= 10.0 * TOL_GAP * scale:
                continue
            value, gradient = sigma_min_grad(pt, 0)

            def min_eig(y):
                return float(np.linalg.eigvalsh(eval_at(prog, y).blocks[0].value.mat)[0])

            fd = fd_gradient(min_eig, np.asarray(x, dtype=float))
            assert gradient == pytest.approx(fd, abs=fd_tolerance(max(1.0, scale)))

    def test_repeated_eigenvalue_raises_with_gap(self):
        prog = loads("vars 1\nobjective x1\npsd p 2\nx1 + 1\n0\nx1 + 1\n")
        pt = eval_at(prog, [0.0])
        with pytest.raises(NonSimpleEigenvalueError) as err:
            sigma_min_grad(pt, 0)
        assert err.value.gap == pytest.approx(0.0, abs=1e-14)
        assert err.value.tol > 0.0
        # without enforcement the eigen-pair formula is still applied
        value, gradient = sigma_min_grad(pt, 0, enforce_simple=False)
        assert value == pytest.approx(1.0, abs=1e-12)
        assert np.all(np.isfinite(gradient))

    def test_rejects_soc_blocks(self, soc_line_program):
        with pytest.raises(DimensionMismatchError):
            sigma_min_grad(eval_at(soc_line_program, [1.0]), 0)

    def test_eigen_gap_matches_dense_oracle(self):
        prog = loads("vars 1\nobjective x1\npsd p 2\nx1\n0\nx1 + 3\n")
        pt = eval_at(prog, [0.5])
        gap, scale = eigen_gap(pt, 0)
        vals = np.linalg.eigvalsh(pt.blocks[0].value.mat)
        assert gap == pytest.approx(float(vals[1] - vals[0]), abs=1e-12)
        assert scale == max(1.0, float(np.linalg.norm(pt.blocks[0].value.mat, "fro")))


class TestReducedView:
    def test_labels_and_order_cover_all_reduction_rules(self):
        prog = loads(SEVEN_BLOCKS)
        pt = eval_at(prog, [0.0, 0.0])
        cls = classify(pt)
        view = reduced_view(pt, cls)
        assert view.blocks() == (1, 2, 5)
        assert view.blocks() == cls.reduced()
        assert view[1].label == "soc-boundary"
        assert view[2].label == "scalar"
        assert view[5].label == "eigen-min"
        for entry in view.entries:
            assert entry.gradient.shape == (prog.n,)
        with pytest.raises(KeyError):
            view[0]

    def test_scalar_entries_keep_raw_value_and_gradient(self):
        prog = loads("vars 2\nobjective x1 + x2\nsoc s 1\n2 * x1 + x2\n")
        pt = eval_at(prog, [0.0, 0.0])
        view = reduced_view(pt, classify(pt))
        entry = view[0]
        assert entry.label == "scalar"
        assert entry.value == 0.0
        assert entry.gradient == pytest.approx([2.0, 1.0], abs=1e-14)

    def test_boundary_line_gives_single_zero_gradient_entry(self, soc_line_program):
        pt = eval_at(soc_line_program, [1.0])
        view = reduced_view(pt, classify(pt))
        assert len(view.entries) == 1
        assert view[0].label == "soc-boundary"
        assert view[0].value == pytest.approx(0.0, abs=1e-14)
        assert view[0].gradient == pytest.approx([0.0], abs=1e-14)

    def test_kernel_pair_gives_opposite_unit_gradients(self, psd_pair_program):
        pt = eval_at(psd_pair_program, [0.0])
        view = reduced_view(pt, classify(pt))
        assert view.blocks() == (0, 1)
        assert view[0].gradient == pytest.approx([1.0], abs=1e-12)
        assert view[1].gradient == pytest.approx([-1.0], abs=1e-12)

    def test_all_interior_program_reduces_to_nothing(self):
        prog = loads("vars 1\nobjective x1\nsoc s 2\nx1 + 2\n1\npsd p 1\nx1 + 5\n")
        pt = eval_at(prog, [0.0])
        view = reduced_view(pt, classify(pt))
        assert view.entries == ()

    def test_strict_view_rejects_an_eigenvalue_crossing(self):
        prog = loads("vars 1\nobjective x1\npsd p 2\nx1\n0\n1 - x1\n")
        cls = classify(eval_at(prog, [0.0]))
        assert cls.psd_simple == (0,)
        crossing = eval_at(prog, [0.5])
        with pytest.raises(NonSimpleEigenvalueError):
            reduced_view(crossing, cls)
        relaxed = reduced_view(crossing, cls, strict=False)
        assert relaxed[0].value == pytest.approx(0.5, abs=1e-12)
        assert np.all(np.isfinite(relaxed[0].gradient))

    def test_view_is_usable_near_the_classified_point(self, psd_pair_program):
        # labels are taken as given, so the view can be evaluated nearby
        cls = classify(eval_at(psd_pair_program, [0.0]))
        view = reduced_view(eval_at(psd_pair_program, [0.01]), cls)
        assert view[0].value == pytest.approx(0.01, abs=1e-12)
        assert view[1].value == pytest.approx(-0.01, abs=1e-12)

    def test_multiplier_map_matches_the_gradient_and_inverts(self):
        rng = np.random.default_rng(20261018)
        labels = set()
        for _ in range(40):
            prog, x_star = random_feasible_program(rng)
            pt = eval_at(prog, x_star)
            for entry in reduced_view(pt, classify(pt)).entries:
                labels.add(entry.label)
                adjoint = apply_jacobian_adjoint(pt, entry.block, entry.multiplier(1.0))
                assert adjoint == pytest.approx(entry.gradient, abs=1e-12)
                for a in (0.0, 0.5, 3.0):
                    assert entry.coefficient(entry.multiplier(a)) == pytest.approx(a, rel=1e-12)
                assert entry.coefficient(-entry.multiplier(1.0)) == 0.0
        assert labels == {"soc-boundary", "scalar", "eigen-min"}


def test_conic_base_collects_the_full_cone_blocks():
    prog = loads(SEVEN_BLOCKS)
    pt = eval_at(prog, [0.0, 0.0])
    socs, psds = conic_base(pt, classify(pt))
    assert len(socs) == 1 and socs[0] is pt.blocks[3].jac
    assert len(psds) == 1 and psds[0] is pt.blocks[6].partials
