"""Tests for activity classification of constraint blocks."""

import numpy as np
import pytest

from coneguard.classify import TOL_ACT, TOL_GAP, classify
from coneguard.errors import InfeasiblePointError
from coneguard.model import evaluate, loads

from conftest import random_feasible_program

ALL_LEAVES = (
    "soc_interior",
    "soc_boundary",
    "soc_scalar_active",
    "soc_vertex_multi",
    "psd_inactive",
    "psd_simple",
    "psd_multiple",
)


def leaf_sets(cls):
    return {name: getattr(cls, name) for name in ALL_LEAVES}


def classify_at(prog, x, **kw):
    return classify(evaluate(prog, np.asarray(x, dtype=float)), **kw)


SEVEN_LEAF_TEXT = """
vars 2
objective x1 + x2
soc a 2
2
1
soc b 2
1
1
soc c 1
x1
soc d 2
x1
x1
psd e 1
1
psd f 2
x1
0
1
psd g 2
x1
0
x2
"""


@pytest.fixture(scope="module")
def seven_leaf_program():
    return loads(SEVEN_LEAF_TEXT)


class TestExplicitLabels:
    def test_soc_boundary_on_the_diagonal_ray(self, soc_line_program):
        cls = classify_at(soc_line_program, [1.0])
        assert cls.soc_boundary == (0,)
        assert cls.soc_vertex == ()
        assert cls.reduced() == (0,)
        assert cls.conic() == ()

    def test_soc_vertex_at_the_origin(self, soc_line_program):
        cls = classify_at(soc_line_program, [0.0])
        assert cls.soc_vertex_multi == (0,)
        assert cls.soc_vertex == (0,)
        assert cls.soc_boundary == ()
        assert cls.reduced() == ()
        assert cls.conic() == (0,)

    def test_soc_infeasible_point_is_an_error(self, soc_line_program):
        with pytest.raises(InfeasiblePointError) as err:
            classify_at(soc_line_program, [-1.0])
        assert err.value.residual > TOL_ACT
        assert set(err.value.distances) == {"g"}
        assert err.value.distances["g"] > 0.0

    def test_psd_pair_is_simple_active_at_zero(self, psd_pair_program):
        cls = classify_at(psd_pair_program, [0.0])
        assert cls.psd_simple == (0, 1)
        assert cls.psd_inactive == ()
        assert cls.psd_multiple == ()
        assert cls.reduced() == (0, 1)
        assert cls.conic() == ()

    def test_psd_pair_infeasible_off_the_common_kernel(self, psd_pair_program):
        with pytest.raises(InfeasiblePointError) as err:
            classify_at(psd_pair_program, [0.5])
        assert err.value.distances["g2"] == pytest.approx(0.5, abs=1e-12)

    def test_every_leaf_class_appears_once(self, seven_leaf_program):
        cls = classify_at(seven_leaf_program, [0.0, 0.0])
        assert leaf_sets(cls) == {
            "soc_interior": (0,),
            "soc_boundary": (1,),
            "soc_scalar_active": (2,),
            "soc_vertex_multi": (3,),
            "psd_inactive": (4,),
            "psd_simple": (5,),
            "psd_multiple": (6,),
        }
        assert cls.labels == (
            "interior",
            "boundary",
            "vertex-scalar",
            "vertex",
            "inactive",
            "kernel-simple",
            "kernel-multiple",
        )

    def test_reduced_and_conic_views(self, seven_leaf_program):
        cls = classify_at(seven_leaf_program, [0.0, 0.0])
        assert cls.reduced() == (1, 2, 5)
        assert cls.conic() == (3, 6)
        assert cls.names(cls.reduced()) == ("b", "c", "f")
        assert cls.names(cls.conic()) == ("d", "g")
        assert cls.names(()) == ()

    def test_classification_is_deterministic(self, seven_leaf_program):
        a = classify_at(seven_leaf_program, [0.0, 0.0])
        b = classify_at(seven_leaf_program, [0.0, 0.0])
        assert a == b


class TestTieBreaks:
    def test_vertex_takes_precedence_over_boundary(self):
        # (eps, eps) lies on the cone boundary, but its norm is below the
        # activity tolerance, so the vertex label must win.
        prog = loads("vars 1\nobjective x1\nsoc s 2\nx1\nx1\n")
        cls = classify_at(prog, [1e-10])
        assert cls.soc_vertex_multi == (0,)
        assert cls.soc_boundary == ()

    def test_scalar_blocks_are_never_boundary(self):
        prog = loads("vars 1\nobjective x1\nsoc s 1\nx1\n")
        for value in (0.0, 1e-10, 1e-3, 1.0, 7.5):
            cls = classify_at(prog, [value])
            assert cls.soc_boundary == ()
            assert cls.soc_interior + cls.soc_scalar_active == (0,)

    def test_infeasibility_is_checked_before_any_label(self):
        prog = loads("vars 1\nobjective x1\nsoc s 1\nx1\n")
        # residual 5e-7 sits between the two activity tolerances
        with pytest.raises(InfeasiblePointError):
            classify_at(prog, [-5e-7], tol_act=1e-8)
        cls = classify_at(prog, [-5e-7], tol_act=1e-6)
        assert cls.soc_scalar_active == (0,)

    def test_gap_tolerance_splits_simple_and_multiple(self):
        prog = loads("vars 1\nobjective x1\npsd p 2\nx1\n0\nx1 + 5e-7\n")
        strict = classify_at(prog, [0.0], tol_gap=1e-6)
        loose = classify_at(prog, [0.0], tol_gap=1e-8)
        assert strict.psd_multiple == (0,)
        assert strict.psd_simple == ()
        assert loose.psd_simple == (0,)
        assert loose.psd_multiple == ()


class TestCorpusProperties:
    def test_leaves_partition_the_blocks(self):
        rng = np.random.default_rng(20260814)
        for _ in range(40):
            prog, x_star = random_feasible_program(rng)
            cls = classify_at(prog, x_star)
            leaves = []
            for name in ALL_LEAVES:
                leaves.extend(getattr(cls, name))
            assert sorted(leaves) == list(range(len(prog.blocks)))
            # kind consistency of every label
            for j in cls.soc_interior + cls.soc_boundary + cls.soc_vertex:
                assert prog.blocks[j].kind == "soc"
            for j in cls.psd_inactive + cls.psd_simple + cls.psd_multiple:
                assert prog.blocks[j].kind == "psd"
            for j in cls.soc_boundary:
                assert prog.blocks[j].dim > 1
            assert cls.reduced() == tuple(sorted(cls.reduced()))
            assert cls.conic() == tuple(sorted(cls.conic()))
            assert not set(cls.reduced()) & set(cls.conic())
            assert set(cls.soc_vertex) == set(
                cls.soc_scalar_active + cls.soc_vertex_multi
            )

    def test_activity_tolerance_monotonicity(self):
        # Loosening tol_act can only move blocks toward "more active":
        # interior and inactive sets shrink, vertex/active sets grow.
        rng = np.random.default_rng(99)
        ladder = (1e-10, 1e-8, 1e-6, 1e-4)
        checked = 0
        for _ in range(25):
            prog, x_star = random_feasible_program(rng)
            pt = evaluate(prog, np.asarray(x_star, dtype=float))
            results = [classify(pt, tol_act=t) for t in ladder]
            for prev, curr in zip(results, results[1:]):
                assert set(curr.soc_interior) <= set(prev.soc_interior)
                assert set(curr.psd_inactive) <= set(prev.psd_inactive)
                assert set(prev.soc_vertex) <= set(curr.soc_vertex)
                assert set(prev.psd_simple + prev.psd_multiple) <= set(
                    curr.psd_simple + curr.psd_multiple
                )
                checked += 1
        assert checked == 75

    def test_default_tolerances_are_pinned(self):
        assert TOL_ACT == 1e-8
        assert TOL_GAP == 1e-6
