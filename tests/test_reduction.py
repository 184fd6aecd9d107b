"""Tests for the scalar reductions of active cone blocks."""

import numpy as np
import pytest

from coneguard.classify import TOL_GAP, classify
from coneguard.errors import NonSimpleEigenvalueError
from coneguard.model import apply_jacobian_adjoint, evaluate, loads
from coneguard.reduction import conic_base, eigen_gap, reduced_view

from conftest import PROBLEMS, fd_gradient, fd_tolerance, labelled, random_feasible_program


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


def entry_at(prog, x, cls, block=0, strict=True):
    """The reduced entry of block at x, with cls fixed where it was classified
    (or given)."""
    return reduced_view(eval_at(prog, x), cls, strict=strict)[block]


def phi_and_fd(prog, x, cls, block=0):
    """The boundary entry of block at x, and central differences of its value."""
    entry = entry_at(prog, x, cls, block)
    fd = fd_gradient(lambda y: entry_at(prog, y, cls, block).value, np.asarray(x, dtype=float))
    scale = max(1.0, abs(entry.value), float(np.max(np.abs(entry.gradient))))
    return entry, fd, scale


def min_eig(prog, y, block):
    """Oracle: the smallest eigenvalue of a semidefinite block at y, by eigvalsh."""
    return float(np.linalg.eigvalsh(eval_at(prog, y).blocks[block].value)[0])


class TestPhiSoc:
    def test_identically_zero_on_the_diagonal_ray(self, soc_line_program):
        # g(x) = (x1, x1) gives phi = (x1^2 - x1^2)/2 = 0 with zero gradient
        # everywhere, not just on the feasible set.
        cls = classify(eval_at(soc_line_program, [1.0]))
        for x in (-2.0, -0.5, 0.0, 1.0, 3.25):
            entry = entry_at(soc_line_program, [x], cls)
            assert entry.value == 0.0
            assert entry.gradient == pytest.approx([0.0], abs=1e-14)

    def test_closed_form_on_a_two_variable_block(self):
        prog = loads("vars 2\nobjective x1\nsoc g 2\nx1\nx2\n")
        cls = classify(eval_at(prog, [1.0, 1.0]))
        entry = entry_at(prog, [2.0, 1.0], cls)
        assert entry.label == "boundary"
        assert entry.value == pytest.approx(1.5, abs=1e-14)
        assert entry.gradient == pytest.approx([2.0, -1.0], abs=1e-14)

    def test_matches_finite_differences_on_affine_corpus(self):
        rng = np.random.default_rng(7)
        checked = 0
        while checked < 100:
            prog, x_star = random_feasible_program(rng, allow_psd=False)
            cls = classify(eval_at(prog, x_star))
            x = np.asarray(x_star) + rng.integers(-2, 3, size=prog.n) / 8.0
            for j in cls.soc_boundary:
                entry, fd, scale = phi_and_fd(prog, x, cls, j)
                assert entry.gradient == pytest.approx(fd, abs=fd_tolerance(scale))
                checked += entry.gradient.size
        assert checked >= 100

    def test_matches_finite_differences_on_a_nonlinear_block(self):
        prog = loads("vars 2\nobjective x1\nsoc g 2\nx1^2 + x2\nx1 * x2 - 1\n")
        cls = classify(eval_at(prog, [0.0, 1.0]))
        assert cls.labels == ("boundary",)
        rng = np.random.default_rng(11)
        for _ in range(10):
            x = rng.integers(-2, 3, size=2) / 4.0
            entry, fd, scale = phi_and_fd(prog, x, cls)
            assert entry.gradient == pytest.approx(fd, abs=fd_tolerance(scale))

    def test_vanishes_at_classified_boundary_points(self):
        rng = np.random.default_rng(23)
        seen = 0
        for _ in range(40):
            prog, x_star = random_feasible_program(rng, allow_psd=False)
            pt = eval_at(prog, x_star)
            cls = classify(pt)
            for entry in reduced_view(pt, cls).entries:
                if entry.label != "boundary":
                    continue
                norm = float(np.linalg.norm(pt.blocks[entry.block].value))
                assert abs(entry.value) <= 2.0 * cls.tol_act * max(1.0, norm)
                seen += 1
        assert seen >= 10

    def test_vanishes_for_noisy_boundary_data(self):
        # a block sitting 1e-9 off the exact boundary still classifies as
        # boundary, and phi stays within the documented slack
        prog = loads("vars 1\nobjective x1\nsoc g 2\nx1 + 1e-9\nx1\n")
        pt = eval_at(prog, [1.0])
        cls = classify(pt)
        assert cls.soc_boundary == (0,)
        value = reduced_view(pt, cls)[0].value
        assert 0.0 < abs(value) <= 2.0 * cls.tol_act * float(np.linalg.norm(pt.blocks[0].value))


class TestSigmaMin:
    def test_kernel_pair_example_values(self, psd_pair_program):
        # the two blocks have eigenvalues {x1, 1} and {-x1, 1}, so near 0
        # the reductions are x1 and -x1 with gradients +1 and -1
        cls = classify(eval_at(psd_pair_program, [0.0]))
        for x in (0.0, 0.25, -0.25):
            view = reduced_view(eval_at(psd_pair_program, [x]), cls)
            assert view[0].value == pytest.approx(x, abs=1e-12)
            assert view[0].gradient == pytest.approx([1.0], abs=1e-12)
            assert view[1].value == pytest.approx(-x, abs=1e-12)
            assert view[1].gradient == pytest.approx([-1.0], abs=1e-12)

    def test_matches_eigvalsh_and_finite_differences(self):
        rng = np.random.default_rng(31)
        checked = 0
        while checked < 50:
            prog, x_star = random_feasible_program(rng, allow_soc=False)
            cls = classify(eval_at(prog, x_star))
            x = np.asarray(x_star) + rng.integers(-2, 3, size=prog.n) / 8.0
            pt = eval_at(prog, x)
            for j in cls.psd_simple:
                gap, scale = eigen_gap(pt, j)
                if gap <= 10.0 * TOL_GAP * scale:
                    continue
                entry = entry_at(prog, x, cls, j, strict=False)
                assert entry.value == pytest.approx(min_eig(prog, x, j), abs=1e-10 * scale)
                fd = fd_gradient(lambda y, j=j: min_eig(prog, y, j), np.asarray(x, dtype=float))
                tol = fd_tolerance(max(scale, float(np.max(np.abs(entry.gradient)))))
                assert entry.gradient == pytest.approx(fd, abs=tol)
                checked += entry.gradient.size
        assert checked >= 50

    def test_matches_finite_differences_on_a_nonlinear_block(self):
        # positive definite everywhere, so no point classifies the block as
        # kernel-simple: the label is given
        prog = loads(
            "vars 2\nobjective x1\npsd p 2\nx1^2 + 2\nx1 * x2\nx2^2 + 3\n"
        )
        cls = labelled(prog, "kernel-simple")
        rng = np.random.default_rng(5)
        for _ in range(10):
            x = rng.integers(-2, 3, size=2) / 4.0
            gap, scale = eigen_gap(eval_at(prog, x), 0)
            if gap <= 10.0 * TOL_GAP * scale:
                continue
            entry = entry_at(prog, x, cls)
            fd = fd_gradient(lambda y: min_eig(prog, y, 0), np.asarray(x, dtype=float))
            assert entry.gradient == pytest.approx(fd, abs=fd_tolerance(max(1.0, scale)))

    def test_repeated_eigenvalue_raises_with_gap(self):
        prog = loads("vars 1\nobjective x1\npsd p 2\nx1 + 1\n0\nx1 + 1\n")
        pt = eval_at(prog, [0.0])
        cls = labelled(prog, "kernel-simple")
        with pytest.raises(NonSimpleEigenvalueError) as err:
            reduced_view(pt, cls)
        assert err.value.gap == pytest.approx(0.0, abs=1e-14)
        assert err.value.tol > 0.0
        # without strict the eigen-pair formula is still applied
        entry = reduced_view(pt, cls, strict=False)[0]
        assert entry.value == pytest.approx(1.0, abs=1e-12)
        assert np.all(np.isfinite(entry.gradient))

    def test_eigen_gap_matches_dense_oracle(self):
        prog = loads("vars 1\nobjective x1\npsd p 2\nx1\n0\nx1 + 3\n")
        pt = eval_at(prog, [0.5])
        gap, scale = eigen_gap(pt, 0)
        vals = np.linalg.eigvalsh(pt.blocks[0].value)
        assert gap == pytest.approx(float(vals[1] - vals[0]), abs=1e-12)
        assert scale == max(1.0, float(np.linalg.norm(pt.blocks[0].value, "fro")))


class TestReducedView:
    def test_labels_and_order_cover_all_reduction_rules(self):
        prog = loads(SEVEN_BLOCKS)
        pt = eval_at(prog, [0.0, 0.0])
        cls = classify(pt)
        view = reduced_view(pt, cls)
        assert tuple(entry.block for entry in view.entries) == (1, 2, 5)
        assert tuple(entry.block for entry in view.entries) == cls.reduced()
        assert view[1].label == "boundary"
        assert view[2].label == "vertex-scalar"
        assert view[5].label == "kernel-simple"
        for entry in view.entries:
            assert entry.gradient.shape == (prog.n,)
        with pytest.raises(KeyError):
            view[0]

    def test_scalar_entries_keep_raw_value_and_gradient(self):
        prog = loads("vars 2\nobjective x1 + x2\nsoc s 1\n2 * x1 + x2\n")
        pt = eval_at(prog, [0.0, 0.0])
        view = reduced_view(pt, classify(pt))
        entry = view[0]
        assert entry.label == "vertex-scalar"
        assert entry.value == 0.0
        assert entry.gradient == pytest.approx([2.0, 1.0], abs=1e-14)

    def test_boundary_line_gives_single_zero_gradient_entry(self, soc_line_program):
        pt = eval_at(soc_line_program, [1.0])
        view = reduced_view(pt, classify(pt))
        assert len(view.entries) == 1
        assert view[0].label == "boundary"
        assert view[0].value == pytest.approx(0.0, abs=1e-14)
        assert view[0].gradient == pytest.approx([0.0], abs=1e-14)

    def test_kernel_pair_gives_opposite_unit_gradients(self, psd_pair_program):
        pt = eval_at(psd_pair_program, [0.0])
        view = reduced_view(pt, classify(pt))
        assert tuple(entry.block for entry in view.entries) == (0, 1)
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
        assert labels == {"boundary", "vertex-scalar", "kernel-simple"}


def test_conic_base_collects_the_full_cone_blocks():
    prog = loads(SEVEN_BLOCKS)
    pt = eval_at(prog, [0.0, 0.0])
    socs, psds = conic_base(pt, classify(pt))
    assert len(socs) == 1 and socs[0] is pt.blocks[3].jac
    assert len(psds) == 1 and psds[0] is pt.blocks[6].partials


def _classified_views():
    """(classification, reduced view) at the feasible point of 40 seeded
    random programs and of the three problem files."""
    rng = np.random.default_rng(20261018)
    cases = [random_feasible_program(rng) for _ in range(40)]
    for name, x in (("soc_boundary_line", [1.0]), ("psd_pair_line", [0.0]), ("scalar_pair", [0.0, 0.0])):
        cases.append((loads((PROBLEMS / (name + ".txt")).read_text()), x))
    for prog, x in cases:
        pt = eval_at(prog, x)
        cls = classify(pt)
        yield cls, reduced_view(pt, cls)


def test_entries_carry_their_block_label():
    seen = set()
    for cls, view in _classified_views():
        assert tuple(entry.block for entry in view.entries) == cls.reduced()
        for entry in view.entries:
            assert entry.label == cls.labels[entry.block]
            seen.add(entry.label)
    assert seen == {"boundary", "vertex-scalar", "kernel-simple"}
