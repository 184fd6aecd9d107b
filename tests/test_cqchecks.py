"""Tests for the four constraint-qualification checks."""

import numpy as np
import pytest

from coneguard import cqchecks
from coneguard.certificates import TOL_RANK, numerical_rank, verify_dependence
from coneguard.classify import classify
from coneguard.cones import svec
from coneguard.cqchecks import (
    SAMPLING_NOTE,
    check_crsc,
    check_nondegeneracy,
    check_rcpld,
    check_robinson,
)
from coneguard.errors import DomainError, NonSimpleEigenvalueError
from coneguard.model import dumps, embed_block_diagonal, evaluate, loads
from coneguard.reduction import conic_base, reduced_view

from conftest import PSD_PAIR, random_feasible_program, random_irreducible_program


def _point(prog, x):
    pt = evaluate(prog, np.asarray(x, dtype=float))
    return pt, classify(pt)


def _same(a, b):
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return np.array_equal(np.asarray(a), np.asarray(b))
    if isinstance(a, dict):
        return set(a) == set(b) and all(_same(a[k], b[k]) for k in a)
    if isinstance(a, (list, tuple)):
        return len(a) == len(b) and all(_same(x, y) for x, y in zip(a, b))
    return a == b


class TestBoundaryLineExample:
    """minimize (x1-1)^2 with (x1, x1) in K_2: the boundary reduction has a
    vanishing gradient everywhere, so nondegeneracy and the dual regularity
    check fail while both constant-rank conditions hold."""

    def test_nondegeneracy_fails_with_rank_zero(self, soc_line_program):
        pt, cls = _point(soc_line_program, [1.0])
        rep = check_nondegeneracy(pt, cls)
        assert rep.verdict == "Fails"
        assert rep.detail["rows"] == 1
        assert rep.detail["rank"] == 0
        assert rep.detail["row_labels"] == ("g:boundary",)
        assert "witness_combination" in rep.detail

    def test_robinson_fails_with_unit_ray_witness(self, soc_line_program):
        pt, cls = _point(soc_line_program, [1.0])
        rep = check_robinson(pt, cls)
        assert rep.verdict == "Fails"
        assert rep.detail["rays"] == ("g",)
        assert rep.certificate is not None
        assert rep.certificate.witness.alpha == pytest.approx([1.0], abs=1e-6)
        assert rep.detail["normalization"] >= 0.5

    def test_rcpld_holds_with_persistent_dependence(self, soc_line_program):
        pt, cls = _point(soc_line_program, [1.0])
        rep = check_rcpld(pt, cls)
        assert rep.verdict == "Holds"
        assert rep.detail["ground_set"] == ("g",)
        assert rep.detail["note"] == SAMPLING_NOTE % (20, 1e-3)
        log = {entry["subset"]: entry for entry in rep.detail["subset_log"]}
        assert log[()]["system"] == "independent"
        assert log[("g",)]["system"] == "dependent"
        assert log[("g",)]["persisted"] is True

    def test_crsc_holds_with_the_ray_in_the_subspace_component(self, soc_line_program):
        pt, cls = _point(soc_line_program, [1.0])
        rep = check_crsc(pt, cls)
        assert rep.verdict == "Holds"
        assert rep.detail["j_minus"] == ("g",)
        assert rep.detail["j_plus"] == ()
        assert rep.detail["gradient_basis"] == ()
        assert rep.detail["system"] == "independent"


class TestKernelPairExample:
    """minimize x1 with two 2x2 semidefinite blocks whose smallest eigenvalues
    are x1 and -x1: opposite reduced gradients make the dual system
    degenerate, yet the constant-rank conditions hold."""

    def test_nondegeneracy_fails_two_rows_one_variable(self, psd_pair_program):
        pt, cls = _point(psd_pair_program, [0.0])
        rep = check_nondegeneracy(pt, cls)
        assert rep.verdict == "Fails"
        assert rep.detail["rows"] == 2
        assert rep.detail["rank"] == 1

    def test_robinson_fails_with_balanced_rank_one_multipliers(self, psd_pair_program):
        pt, cls = _point(psd_pair_program, [0.0])
        rep = check_robinson(pt, cls)
        assert rep.verdict == "Fails"
        alphas = rep.certificate.witness.alpha
        assert alphas == pytest.approx([0.5, 0.5], abs=1e-6)
        # reconstruct the matrix multipliers mu_j = alpha_j v v^T and verify
        # first-order cancellation through the block derivatives directly
        total = np.zeros(pt.x.size)
        for alpha, j in zip(alphas, (0, 1)):
            v = pt.blocks[j].spectral.eigenvectors[:, 0]
            mu = alpha * np.outer(v, v)
            assert np.linalg.eigvalsh(mu)[0] >= -1e-12
            total += np.tensordot(pt.blocks[j].partials, mu, axes=([1, 2], [0, 1]))
        assert np.linalg.norm(total) <= 1e-7

    def test_rcpld_holds_across_all_subsets(self, psd_pair_program):
        pt, cls = _point(psd_pair_program, [0.0])
        rep = check_rcpld(pt, cls)
        assert rep.verdict == "Holds"
        assert rep.detail["ground_set"] == ("g1", "g2")
        assert len(rep.detail["subset_log"]) == 4
        pair = [e for e in rep.detail["subset_log"] if e["subset"] == ("g1", "g2")]
        assert pair[0]["system"] == "dependent"
        assert pair[0]["persisted"] is True

    def test_crsc_holds_with_both_blocks_in_j_minus(self, psd_pair_program):
        pt, cls = _point(psd_pair_program, [0.0])
        rep = check_crsc(pt, cls)
        assert rep.verdict == "Holds"
        assert rep.detail["j_minus"] == ("g1", "g2")
        assert rep.detail["j_plus"] == ()
        assert len(rep.detail["gradient_basis"]) == 1

    def test_subset_cap_produces_an_honest_undecided(self, psd_pair_program):
        pt, cls = _point(psd_pair_program, [0.0])
        rep = check_rcpld(pt, cls, subset_cap=2)
        assert rep.verdict == "Undecided"
        assert rep.detail["reason"] == "subset enumeration exceeds cap"
        assert rep.detail["subset_count"] == 4
        assert rep.detail["subset_cap"] == 2


class TestMinimalSubsets:
    @staticmethod
    def _rcpld_queries(monkeypatch, lines, x, **options):
        """check_rcpld's report, and the ray count of each dependence query it asks."""
        pt, cls = _point(loads("\n".join(lines) + "\n"), x)
        queries = []
        original = cqchecks.conic_dependence

        def counting(*args, **kwargs):
            queries.append(len(args[3]))
            return original(*args, **kwargs)

        monkeypatch.setattr(cqchecks, "conic_dependence", counting)
        return check_rcpld(pt, cls, **options), queries

    def test_kernel_chain_queries_only_minimal_dependent_subsets(self, monkeypatch):
        # six 2x2 blocks whose smallest eigenvalues alternate between x1 and
        # -x1: every opposite pair is a minimal dependent subset
        lines = ["vars 1", "objective x1"]
        for b in range(6):
            lines.append("psd g%d 2" % (b + 1))
            if b % 2 == 0:
                lines += ["(x1 + 1) / 2", "(x1 - 1) / 2", "(x1 + 1) / 2"]
            else:
                lines += ["(1 - x1) / 2", "(-x1 - 1) / 2", "(1 - x1) / 2"]
        rep, queries = self._rcpld_queries(monkeypatch, lines, [0.0])
        assert rep.verdict == "Holds"
        log = rep.detail["subset_log"]
        assert len(queries) == len(log) < 64
        assert queries == [len(entry["subset"]) for entry in log]
        dependent = []
        for entry in log:
            subset = set(entry["subset"])
            assert not any(d <= subset for d in dependent), entry["subset"]
            if entry["system"] == "dependent":
                dependent.append(subset)
        assert len(dependent) == 9

    # a boundary SOC block, a kernel-simple PSD block and a scalar block whose
    # reduced gradients at the origin are e1, e2 and e3
    RAYS_ONLY = ["vars 3", "objective x1 + x2 + x3", "soc s 3", "1 + x1", "1", "x3",
                 "psd p 2", "x2", "0", "1", "psd c 1", "x3"]

    def test_independent_rays_only_family_is_decided_by_one_query(self, monkeypatch):
        rep, queries = self._rcpld_queries(monkeypatch, self.RAYS_ONLY, [0.0, 0.0, 0.0])
        assert rep.verdict == "Holds"
        assert rep.detail["ground_set"] == ("s", "p", "c")
        assert queries == [3]
        assert rep.detail["subset_log"] == ({"subset": ("s", "p", "c"), "system": "independent"},)
        assert rep.detail["note"] == SAMPLING_NOTE % (20, 1e-3)

    # 17 scalar blocks x_i >= 0 at the origin: 2**17 subsets exceed the cap,
    # and the ground-set query decides without enumerating them
    SEVENTEEN = ["vars 17", "objective x1"] + [line for i in range(1, 18) for line in ("psd a%d 1" % i, "x%d" % i)]

    def test_subset_cap_leaves_the_ground_set_query_alone(self, monkeypatch):
        rep, queries = self._rcpld_queries(monkeypatch, self.SEVENTEEN, np.zeros(17))
        assert 2**17 > cqchecks.SUBSET_CAP
        assert rep.verdict == "Holds"
        assert queries == [17]
        pt, cls = _point(loads("\n".join(self.SEVENTEEN) + "\n"), np.zeros(17))
        assert check_robinson(pt, cls).verdict == check_crsc(pt, cls).verdict == "Holds"

    def test_full_cone_block_still_queries_every_subset(self, monkeypatch):
        vertex = ["soc v 3", "x1", "x2", "x3"]
        rep, queries = self._rcpld_queries(monkeypatch, self.RAYS_ONLY + vertex, [0.0, 0.0, 0.0])
        assert rep.verdict == "Holds"
        assert rep.detail["ground_set"] == ("s", "p", "c")
        assert queries == [0, 1, 1, 1, 2, 2, 2, 3]
        assert queries == [len(entry["subset"]) for entry in rep.detail["subset_log"]]

    def test_subset_cap_asks_the_ground_query_before_giving_up(self, monkeypatch):
        # 2**3 subsets exceed a cap of 4; the vertex block rules out the
        # rays-only shortcut, but the ground query is independent and decides
        vertex = ["soc v 3", "x1", "x2", "x3"]
        rep, queries = self._rcpld_queries(monkeypatch, self.RAYS_ONLY + vertex, [0.0, 0.0, 0.0], subset_cap=4)
        assert rep.verdict == "Holds"
        assert queries == [3]
        assert rep.detail["subset_log"] == ({"subset": ("s", "p", "c"), "system": "independent"},)
        # psd_pair's ground query is dependent and persists, so the cap leaves
        # it Undecided, with the query's verdict and witness in the report
        rep, queries = self._rcpld_queries(monkeypatch, PSD_PAIR.read_text().splitlines(), [0.0], subset_cap=2)
        assert rep.verdict == "Undecided"
        assert rep.detail["reason"] == "subset enumeration exceeds cap"
        assert queries == [2]
        assert rep.detail["system"] == "dependent"
        assert rep.witness_names == ((), (), (), ("g1", "g2"))
        pt, cls = _point(loads(PSD_PAIR.read_text()), [0.0])
        grads = {cls.block_names[e.block]: e.gradient for e in reduced_view(pt, cls).entries}
        rays = [grads[name] for name in rep.witness_names[3]]
        ok, residual, _, _ = verify_dependence([], [], [], rays, rep.certificate.witness)
        assert ok and residual == rep.detail["residual"]

    # x1 >= 0 and -x1 + x2^2 >= 0 at the origin: the pair is dependent there,
    # and its gradients e1 and -e1 + 2 x2 e2 are independent wherever x2 != 0
    OPPOSITE = ["vars 2", "objective x1", "psd a 1", "x1", "psd b 1", "-x1 + x2^2"]

    def test_subset_cap_keeps_the_ground_query_persistence_test(self, monkeypatch):
        uncapped, _ = self._rcpld_queries(monkeypatch, self.OPPOSITE, [0.0, 0.0])
        rep, queries = self._rcpld_queries(monkeypatch, self.OPPOSITE, [0.0, 0.0], subset_cap=2)
        assert rep.verdict == uncapped.verdict == "Fails"
        assert queries == [2]
        assert rep.detail["subset"] == uncapped.detail["subset"] == ("a", "b")
        assert rep.detail["reason"] == "dependent system but gradients independent at a sample"
        assert rep.detail["sample_index"] == uncapped.detail["sample_index"]
        assert rep.witness_names == uncapped.witness_names
        assert _same(rep.certificate.witness.alpha, uncapped.certificate.witness.alpha)


class TestNoUsableSample:
    @pytest.mark.parametrize("check", [check_rcpld, check_crsc])
    def test_zero_samples_are_undecided(self, soc_line_program, check):
        pt, cls = _point(soc_line_program, [1.0])
        rep = check(pt, cls, samples=0)
        assert rep.verdict == "Undecided"
        assert rep.detail["reason"] == "no usable sample point"


class TestSampleEdges:
    """Samples that leave an expression domain, or whose smallest eigenvalue
    is no longer simple."""

    SQRT = "vars 1\nobjective x1\nsoc g 2\nsqrt(x1) + 1\n1\n"

    @staticmethod
    def _count_domain_errors(monkeypatch):
        misses = []

        def counting(prog, x):
            try:
                return evaluate(prog, x)
            except DomainError:
                misses.append(x)
                raise

        cqchecks._neighbourhood.cache_clear()
        monkeypatch.setattr(cqchecks, "evaluate", counting)
        return misses

    @pytest.mark.parametrize("check", [check_rcpld, check_crsc])
    def test_samples_left_of_the_domain_edge_are_skipped(self, monkeypatch, check):
        misses = self._count_domain_errors(monkeypatch)
        pt, cls = _point(loads(self.SQRT), [1e-12])
        rep = check(pt, cls)
        # every radius of the 7 samples pointing to x1 < 0 stays outside
        assert rep.verdict == "Holds"
        assert rep.detail["samples_skipped"] == 7
        assert rep.detail["note"] == SAMPLING_NOTE % (13, 1e-3)
        assert len(misses) == 7 * 8

    def test_halving_the_radius_brings_a_sample_back(self, monkeypatch):
        misses = self._count_domain_errors(monkeypatch)
        pt, cls = _point(loads(self.SQRT), [1e-5])
        rep = check_rcpld(pt, cls)
        assert rep.verdict == "Holds"
        assert rep.detail["samples_skipped"] == 0
        assert 0 < len(misses) < 7 * 8

    @pytest.mark.parametrize("check", [check_rcpld, check_crsc])
    def test_a_non_simple_sample_is_undecided(self, check):
        # diag(x1, 2e-6 - x1) at 0: samples within 2e-6 come close to x1 = 1e-6
        pt, cls = _point(loads("vars 1\nobjective x1\npsd P 2\nx1\n0\n2e-6 - x1\n"), [0.0])
        assert cls.psd_simple == (0,)
        assert check_robinson(pt, cls).verdict == "Holds"
        cqchecks._neighbourhood.cache_clear()
        rep = check(pt, cls, delta=2e-6)
        assert rep.verdict == "Undecided"
        assert rep.detail["reason"] == "smallest eigenvalue not simple at a sample point"
        assert 0.0 <= rep.detail["gap"] <= cls.tol_gap


class TestSampleOrder:
    """Which sample decides when a rank changes and a sample is not simple.

    The gradient of x1 * x2 vanishes at the origin and nowhere near it, so
    every sample changes the equality rank; P is kernel-simple there."""

    PROGRAM = "vars 2\nobjective x1\neq h x1 * x2\npsd P 2\nx1\n0\n1\n"
    GAP = 3e-9

    def _checks(self, monkeypatch, non_simple):
        pt, cls = _point(loads(self.PROGRAM), [0.0, 0.0])
        assert cls.psd_simple == (0,)
        samples = []

        def view(sp, cls):  # the smallest eigenvalue is not simple at sample non_simple
            if sp is not pt:
                samples.append(sp)
                if len(samples) == non_simple + 1:
                    raise NonSimpleEigenvalueError(self.GAP, cls.tol_gap)
            return reduced_view(sp, cls)

        monkeypatch.setattr(cqchecks, "reduced_view", view)
        reports = []
        for check in (check_rcpld, check_crsc):
            cqchecks._neighbourhood.cache_clear()
            samples.clear()
            reports.append(check(pt, cls))
        cqchecks._neighbourhood.cache_clear()
        return reports

    def test_a_rank_change_before_the_non_simple_sample_fails_both(self, monkeypatch):
        rcpld, crsc = self._checks(monkeypatch, non_simple=1)
        assert rcpld.verdict == crsc.verdict == "Fails"
        assert rcpld.detail["reason"] == "equality gradient rank is not locally constant"
        assert crsc.detail["reason"] == "subspace-component rank is not locally constant"
        for rep in (rcpld, crsc):
            assert rep.detail["sample_index"] == 0
            assert (rep.detail["rank_at_point"], rep.detail["rank_at_sample"]) == (0, 1)

    def test_a_non_simple_first_sample_leaves_crsc_undecided_and_rcpld_failing(self, monkeypatch):
        rcpld, crsc = self._checks(monkeypatch, non_simple=0)
        assert crsc.verdict == "Undecided"
        assert crsc.detail["reason"] == "smallest eigenvalue not simple at a sample point"
        assert crsc.detail["gap"] == self.GAP
        assert "sample_index" not in crsc.detail
        # rcpld ranks the equalities at every sample before it looks at eigenvalues
        assert rcpld.verdict == "Fails"
        assert rcpld.detail["reason"] == "equality gradient rank is not locally constant"
        assert rcpld.detail["sample_index"] == 0


class TestVertexBlocks:
    def test_nondegeneracy_takes_every_row_of_a_vertex_block(self):
        pt, cls = _point(loads("vars 2\nobjective x1\nsoc g 2\nx1\nx2\n"), [0.0, 0.0])
        assert cls.soc_vertex_multi == (0,)
        rep = check_nondegeneracy(pt, cls)
        assert rep.verdict == "Holds"
        assert rep.detail["row_labels"] == ("g[0]", "g[1]")
        assert rep.detail["rank"] == 2

    def test_opposite_vertex_blocks_fail_nondegeneracy_and_crsc(self):
        # (x1, 0) and (-x1, 0) in K_2 at 0: mu_a = mu_b = (1/2, 0) cancel
        pt, cls = _point(loads("vars 1\nobjective x1\nsoc a 2\nx1\n0\nsoc b 2\n-x1\n0\n"), [0.0])
        assert cls.soc_vertex_multi == (0, 1)
        nondeg = check_nondegeneracy(pt, cls)
        assert nondeg.verdict == "Fails"
        assert nondeg.detail["row_labels"] == ("a[0]", "a[1]", "b[0]", "b[1]")
        assert nondeg.detail["rank"] == 1
        rep = check_crsc(pt, cls)
        assert rep.verdict == "Fails"
        assert rep.detail["reason"] == "nonzero solution of the subspace-complement system"
        assert rep.detail["j_plus"] == ()
        assert rep.witness_names == ((), ("a", "b"), (), ())
        socs, psds = conic_base(pt, cls)
        ok, residual, cone_gap, normalization = verify_dependence([], socs, psds, [], rep.certificate.witness)
        assert ok and residual == rep.detail["residual"]


# one block of each kind at the origin, in an order that robinson's system
# changes: vertex v, kernel-multiple M, boundary g, kernel-simple S and
# vertex-scalar a, after an equality h
EVERY_ROW = (
    "vars 3\nobjective x1\neq h x1\nsoc v 2\nx2\nx3\npsd M 2\nx1\n0\nx2\n"
    "soc g 2\n1 + x1\n1 + x2\npsd S 2\nx3\n0\n1\nsoc a 1\nx1 + x2\n"
)


class TestNondegeneracyRows:
    """nondegeneracy ranks the rows of robinson's face system, in its order."""

    def test_rows_are_the_face_system_in_its_order(self):
        pt, cls = _point(loads(EVERY_ROW), [0.0, 0.0, 0.0])
        assert cls.labels == ("vertex", "kernel-multiple", "boundary", "kernel-simple", "vertex-scalar")
        rep = check_nondegeneracy(pt, cls)
        kernel = ("M:kernel[0]", "M:kernel[1]", "M:kernel[2]")
        assert rep.detail["row_labels"] == ("eq:h", "v[0]", "v[1]", "g:boundary", "S:kernel[0]", "a[0]", *kernel)
        socs, _, psds, _, rays, _ = cqchecks._face_system(pt, cls)
        rows = [*pt.jac_h, *(r for jac in socs for r in jac), *rays, *(c for p in psds for c in svec(p).T)]
        assert rep.detail["rows"] == len(rows) == 9
        assert rep.verdict == "Fails"
        assert rep.detail["rank"] == 3
        combination = rep.detail["witness_combination"]
        assert np.linalg.norm(combination) == pytest.approx(1.0)
        assert np.linalg.norm(combination @ np.vstack(rows)) <= rep.detail["witness_residual"] + 1e-15


# g_b = -g_a + 1.7e-8 e2 is parallel to g_a at the default tol_rank
NEAR3 = "vars 2\nobjective x1 + x2\npsd a 1\nx1\npsd b 1\n-x1 + 1.7e-8 * x2\npsd c 1\nx2\n"


def _affine(coeffs):
    return " ".join(["0"] + ["+ %d * x%d" % (c, i + 1) for i, c in enumerate(coeffs)])


def _opposite_blocks(rng):
    """Integer equalities, and 1x1 psd blocks in pairs g, -g in shuffled
    order, at the origin: every block's negated gradient is its partner's,
    so J- is every block."""
    n = int(rng.integers(2, 6))
    eqs = [rng.integers(-2, 3, size=n) for _ in range(int(rng.integers(0, 3)))]
    grads = [rng.integers(-2, 3, size=n) for _ in range(int(rng.integers(1, 4)))]
    grads = [grads[i // 2] * (-1) ** i for i in rng.permutation(2 * len(grads))]
    lines = ["vars %d" % n, "objective x1"]
    lines += ["eq h%d %s" % (i, _affine(g)) for i, g in enumerate(eqs)]
    for i, g in enumerate(grads):
        lines += ["psd b%d 1" % i, _affine(g)]
    return loads("\n".join(lines) + "\n"), np.zeros(n)


# a 1e-9 equality row (or J- pair) ahead of x2, -x2: at the scale of the
# whole family the tiny rows are rank 0, so the x2 gradient joins the basis;
# with the SOC (x2, 0) the verdict depends on it
TINY = "vars 2\nobjective x1\n%spsd a 1\nx2\npsd b 1\n-x2\nsoc s 2\nx2\n%s\n"
TINY_PAIR = "psd p 1\n1e-9 * x1\npsd q 1\n-1e-9 * x1\n"


class TestGradientBasis:
    """crsc's gradient basis is, in J- order, each gradient that raises the
    numerical rank of the rows kept so far, starting from the equality basis;
    every rank is measured at the largest singular value of the equality
    rows and J- gradients."""

    @staticmethod
    def _spans(pt, rep):
        """The kept rows span the family of equality rows and J- gradients:
        at the family's largest singular value they have the family's rank.
        Returns the family and the kept rows."""
        view = reduced_view(pt, classify(pt))
        grad = lambda b: view[pt.program.block_index(b)].gradient
        family = list(pt.jac_h) + [grad(b) for b in rep.detail["j_minus"]]
        kept = [pt.jac_h[pt.program.eq_names.index(h)] for h in rep.detail["equality_basis"]]
        kept += [grad(b) for b in rep.detail["gradient_basis"]]
        svals = np.linalg.svd(np.stack(family), compute_uv=False)
        cut = TOL_RANK * svals[0]
        kept_svals = np.linalg.svd(np.stack(kept), compute_uv=False) if kept else np.zeros(0)
        assert np.count_nonzero(kept_svals > cut) == np.count_nonzero(svals > cut)
        return family, kept

    def _rank_identity(self, pt, rep):
        family, kept = self._spans(pt, rep)
        assert len(kept) == numerical_rank(family)[0]

    def test_nearly_parallel_gradients_keep_one_and_hold(self):
        prog = loads(NEAR3)
        pt, cls = _point(prog, [0.0, 0.0])
        rep = check_crsc(pt, cls)
        assert rep.detail["j_minus"] == ("a", "b")
        assert rep.detail["gradient_basis"] == ("a",)
        assert rep.verdict == "Holds"
        assert rep.detail["margin"] == 1.0
        self._rank_identity(pt, rep)

    @pytest.mark.parametrize("tiny", ["eq h 1e-9 * x1\n", TINY_PAIR], ids=["equality", "pair"])
    @pytest.mark.parametrize("s1", ["x2", "0"], ids=["soc-x2-x2", "soc-x2-0"])
    def test_tiny_rows_do_not_mask_a_gradient(self, tiny, s1):
        prog = loads(TINY % (tiny, s1))
        pt, cls = _point(prog, [0.0, 0.0])
        rep = check_crsc(pt, cls)
        assert rep.detail["gradient_basis"] == ("a",)
        assert rep.verdict == "Fails"
        self._spans(pt, rep)

    def test_basis_is_the_in_order_rank_raising_subset(self):
        rng = np.random.default_rng(29)
        for _ in range(25):
            prog, x = _opposite_blocks(rng)
            pt, cls = _point(prog, x)
            rep = check_crsc(pt, cls, samples=4)
            blocks = tuple(blk.name for blk in prog.blocks)
            assert rep.verdict == "Holds"
            assert rep.detail["j_minus"] == blocks
            running = [pt.jac_h[prog.eq_names.index(name)] for name in rep.detail["equality_basis"]]
            expect = []
            for j, name in enumerate(blocks):
                g = prog.blocks[j].affine.jac[0]
                before = np.linalg.matrix_rank(np.stack(running)) if running else 0
                if np.linalg.matrix_rank(np.stack(running + [g])) > before:
                    expect.append(name)
                    running.append(g)
            assert rep.detail["gradient_basis"] == tuple(expect)
            self._rank_identity(pt, rep)


# x2 >= 0 and x1^2 - x2 >= 0 with a free x3: at (0, 0, t) rcpld and crsc fail
# at the first sample, and their reports print that sample's point
CPLD3 = "vars 3\nobjective x1\nsoc a 1\nx2\nsoc b 1\nx1 * x1 - x2\n"
BOUNDARY = "vars 1\nobjective (x1 - 1) * (x1 - 1)\nsoc g 2\nx1\nx1\n"


class TestSharedNeighbourhood:
    """rcpld and crsc share one cached sample set; it answers only for its own
    program, point, classification, radius, count and seed."""

    def _alone(self, check, pt, cls):
        cqchecks._neighbourhood.cache_clear()
        return check(pt, cls)

    @staticmethod
    def _same_report(a, b):
        return a.verdict == b.verdict and _same(a.detail, b.detail)

    def test_either_order_gives_the_reports_of_each_check_alone(self):
        pt, cls = _point(loads(CPLD3), [0.0, 0.0, 0.0])
        alone = {check: self._alone(check, pt, cls) for check in (check_rcpld, check_crsc)}
        for order in ((check_rcpld, check_crsc), (check_crsc, check_rcpld)):
            cqchecks._neighbourhood.cache_clear()
            for check in order:
                assert self._same_report(check(pt, cls), alone[check])

    @pytest.mark.parametrize(
        "text, x, other",
        [
            (CPLD3, [0.0, 0.0, 0.0], {"seed": 7}),
            (CPLD3, [0.0, 0.0, 0.0], {"delta": 1e-2}),
            (CPLD3, [0.0, 0.0, 0.0], {"x": [0.0, 0.0, 5.0]}),
            (BOUNDARY, [1.0], {"samples": 3}),
        ],
        ids=["seed", "radius", "point", "count"],
    )
    def test_a_check_under_another_key_leaves_no_answer_behind(self, text, x, other):
        prog = loads(text)
        pt, cls = _point(prog, x)
        other = dict(other)
        other_pt, other_cls = _point(prog, other.pop("x")) if "x" in other else (pt, cls)
        checks = (check_rcpld, check_crsc)
        alone = {check: self._alone(check, pt, cls) for check in checks}
        for earlier in checks:
            for check in checks:
                cqchecks._neighbourhood.cache_clear()
                assert not self._same_report(earlier(other_pt, other_cls, **other), alone[earlier])
                assert self._same_report(check(pt, cls), alone[check])


class TestScalarPairExample:
    """x1 >= 0, x2 >= 0 as separate scalar blocks is nondegenerate at the
    origin; merging the blocks into one diagonal matrix destroys that."""

    def test_separate_blocks_pass_everything(self, scalar_pair_program):
        pt, cls = _point(scalar_pair_program, [0.0, 0.0])
        assert check_nondegeneracy(pt, cls).verdict == "Holds"
        rep = check_robinson(pt, cls)
        assert rep.verdict == "Holds"
        assert rep.detail["margin"] > 1e-7
        assert check_rcpld(pt, cls).verdict == "Holds"
        crsc = check_crsc(pt, cls)
        assert crsc.verdict == "Holds"
        assert crsc.detail["j_minus"] == ()
        assert crsc.detail["j_plus"] == ("a", "b")

    def test_merged_diagonal_block_is_degenerate(self, scalar_pair_program):
        merged = embed_block_diagonal(scalar_pair_program)
        pt, cls = _point(merged, [0.0, 0.0])
        assert cls.psd_multiple == (0,)
        rep = check_nondegeneracy(pt, cls)
        assert rep.verdict == "Fails"
        assert rep.detail["rows"] == 3  # svec dimension of the 2x2 kernel
        assert rep.detail["rank"] == 2

    def test_merged_kernel_pair_is_degenerate_too(self, psd_pair_program):
        merged = embed_block_diagonal(psd_pair_program)
        pt, cls = _point(merged, [0.0])
        rep = check_nondegeneracy(pt, cls)
        assert rep.verdict == "Fails"


class TestFurtherExamples:
    def test_interior_block_makes_robinson_vacuous(self):
        prog = loads("vars 1\nobjective x1\nsoc g 2\nx1\n0\n")
        pt, cls = _point(prog, [1.0])
        assert cls.soc_interior == (0,)
        rep = check_robinson(pt, cls)
        assert rep.verdict == "Holds"
        nd = check_nondegeneracy(pt, cls)
        assert nd.verdict == "Holds"
        assert nd.detail.get("note") == "no active rows"

    def test_boundary_block_with_nonzero_gradient_passes_robinson(self):
        prog = loads("vars 1\nobjective x1\nsoc g 2\nx1\nx1 - 2\n")
        pt, cls = _point(prog, [1.0])
        assert cls.soc_boundary == (0,)
        rep = check_robinson(pt, cls)
        assert rep.verdict == "Holds"
        assert rep.detail["margin"] > 1e-7

    def test_single_positive_ray_holds_crsc(self):
        prog = loads("vars 2\nobjective x1 + x2\npsd a 1\nx1\n")
        pt, cls = _point(prog, [0.0, 1.0])
        rep = check_crsc(pt, cls)
        assert rep.verdict == "Holds"
        assert rep.detail["j_minus"] == ()
        assert rep.detail["j_plus"] == ("a",)

    def test_squared_equality_breaks_rank_constancy(self):
        prog = loads("vars 1\nobjective x1\neq h x1^2\n")
        pt, cls = _point(prog, [0.0])
        nd = check_nondegeneracy(pt, cls)
        assert nd.verdict == "Fails"
        rob = check_robinson(pt, cls)
        assert rob.verdict == "Fails"
        assert rob.detail["reason"] == "equality gradients are linearly dependent"
        rcpld = check_rcpld(pt, cls)
        assert rcpld.verdict == "Fails"
        assert rcpld.detail["reason"] == "equality gradient rank is not locally constant"
        assert rcpld.detail["rank_at_point"] == 0
        assert rcpld.detail["rank_at_sample"] == 1
        assert "sample_point" in rcpld.detail
        crsc = check_crsc(pt, cls)
        assert crsc.verdict == "Fails"
        assert crsc.detail["reason"] == "subspace-component rank is not locally constant"

    def test_sound_equality_keeps_rank_constant(self):
        prog = loads("vars 2\nobjective x1\neq h x1 - x2\npsd a 1\nx1\n")
        pt, cls = _point(prog, [0.0, 0.0])
        rep = check_rcpld(pt, cls)
        assert rep.verdict == "Holds"
        assert rep.detail["equality_basis"] == ("h",)

    def test_kernel_partials_at_scale_reach_the_margin_search_symmetric(self):
        # the partials are about 1e11 and the direction that certifies Holds
        # cancels them down to 1e5 * I on the kernel face; the compression's
        # roundoff asymmetry must not make the margin matrix fail eig_sym
        prog = loads(
            "vars 2\nobjective x1 + x2\npsd g 3\n"
            "1 + 1e11 * (x1 - x2) + 1e5 * x2\n1 + 2e11 * (x1 - x2)\n1 - 3e11 * (x1 - x2)\n"
            "1 + 2e11 * (x1 - x2) + 1e5 * x2\n1\n1 + 1e5 * x2\n"
        )
        pt, cls = _point(prog, [0.0, 0.0])
        assert cls.psd_multiple == (0,)
        partials = cqchecks._kernel_partials(pt, 0, cls)
        assert np.array_equal(partials, partials.transpose(0, 2, 1))
        rep = check_robinson(pt, cls)
        assert rep.verdict == "Holds"
        assert rep.detail["margin"] > 0.1


class TestCorpusProperties:
    def test_hierarchy_on_random_programs(self):
        rng = np.random.default_rng(20260814)
        robinson_holds = nondegenerate = 0
        for _ in range(50):
            prog, x_star = random_feasible_program(rng)
            pt, cls = _point(prog, x_star)
            rob = check_robinson(pt, cls, budget=4000)
            if check_nondegeneracy(pt, cls).verdict == "Holds":
                nondegenerate += 1
                assert rob.verdict == "Holds", (prog.eq_names, x_star)
            if rob.verdict != "Holds":
                continue
            robinson_holds += 1
            rcpld = check_rcpld(pt, cls, samples=10, budget=4000)
            crsc = check_crsc(pt, cls, samples=10, budget=4000)
            assert rcpld.verdict != "Fails", (prog.eq_names, x_star)
            assert crsc.verdict != "Fails", (prog.eq_names, x_star)
        assert robinson_holds >= 5
        assert nondegenerate >= 20

    def test_rcpld_collapses_to_robinson_without_reducible_blocks(self):
        rng = np.random.default_rng(31415)
        for _ in range(20):
            prog, x_star = random_irreducible_program(rng)
            pt, cls = _point(prog, x_star)
            assert cls.reduced() == ()
            rob = check_robinson(pt, cls, budget=4000)
            rcpld = check_rcpld(pt, cls, samples=10, budget=4000)
            translate = {"Holds": "Holds", "Fails": "Fails", "Undecided": "Undecided"}
            assert rcpld.verdict == translate[rob.verdict]

    def test_reports_are_deterministic(self, psd_pair_program):
        pt, cls = _point(psd_pair_program, [0.0])
        for fn in (check_nondegeneracy, check_robinson, check_rcpld, check_crsc):
            a = fn(pt, cls)
            b = fn(pt, cls)
            assert a.verdict == b.verdict
            assert _same(a.detail, b.detail)

    def test_seed_changes_are_visible_but_stable(self, soc_line_program):
        pt, cls = _point(soc_line_program, [1.0])
        a = check_rcpld(pt, cls, seed=1)
        b = check_rcpld(pt, cls, seed=1)
        c = check_rcpld(pt, cls, seed=2)
        assert _same(a.detail, b.detail)
        assert a.detail["seed"] == 1 and c.detail["seed"] == 2
        assert a.verdict == c.verdict == "Holds"


def _linear_blocks(rows):
    """1x1 psd blocks g_i(x) = rows[i] . x at the origin, one per row."""
    n = len(rows[0])
    lines = ["vars %d" % n, "objective x1"]
    for i, r in enumerate(rows):
        lines += ["psd b%d 1" % i, " + ".join("%r * x%d" % (float(c), j + 1) for j, c in enumerate(r))]
    return _point(loads("\n".join(lines) + "\n"), np.zeros(n))


def _near_opposite_families():
    """The pair x1, -x1 + e * x2 at 25 values of e from 1e-9 to 1e-3, then 40
    seeded families of up to n - 1 random rays in R^n (n = 2..4) and the
    planted ray -r0 + e * w, with log10 e uniform in [-9, -4]."""
    for e in np.logspace(-9, -3, 25):
        yield [np.array([1.0, 0.0]), np.array([-1.0, e])]
    rng = np.random.default_rng(20261020)
    for _ in range(40):
        n = int(rng.integers(2, 5))
        rays = list(rng.standard_normal((int(rng.integers(1, n)), n)))
        e = 10.0 ** rng.uniform(-9.0, -4.0)
        yield rays + [-rays[0] + e * rng.standard_normal(n)]


def _redundant_linear_program(rng):
    """Affine equalities and 1x1 psd blocks active at an integer point x*,
    with redundant rows: an equality e next to 2e, and beside the active
    rows g an opposite row -g, a positive multiple c g and a sum of two
    active rows; one block is inactive.  Returns the program and x*."""
    n = int(rng.integers(2, 5))

    def row():
        while True:
            r = rng.integers(-2, 3, size=n)
            if r.any():
                return r.astype(float)

    x_star = rng.integers(-2, 3, size=n).astype(float)
    eqs = [row() for _ in range(int(rng.integers(0, 3)))]
    eqs += [2.0 * eqs[0]] if eqs else []
    active = [row() for _ in range(int(rng.integers(1, 4)))]
    pick = lambda: active[int(rng.integers(len(active)))]
    active += [-pick(), float(rng.choice([0.5, 2.0, 3.0])) * pick()]
    total = pick() + pick()
    active += [total] if total.any() else []
    rows = [(r, 0.0) for r in active] + [(row(), 1.0)]

    def affine(r, offset):
        terms = ["%r * x%d" % (float(c), j + 1) for j, c in enumerate(r)]
        return " + ".join(["%r" % (offset - float(r @ x_star))] + terms)

    lines = ["vars %d" % n, "objective x1"]
    lines += ["eq h%d %s" % (i, affine(e, 0.0)) for i, e in enumerate(eqs)]
    for i in rng.permutation(len(rows)):
        lines += ["psd b%d 1" % i, affine(*rows[i])]
    return loads("\n".join(lines) + "\n"), x_star


class TestLinearFamilies:
    """Linear constraints have constant gradients, so rcpld and crsc hold for
    every family of them, however nearly parallel, and every check decides
    one with numerical_rank's rule: a family that nondegeneracy calls
    independent passes robinson too."""

    def test_near_opposite_linear_rays_are_decided_consistently(self):
        for rays in _near_opposite_families():
            pt, cls = _linear_blocks(rays)
            checks = (check_nondegeneracy, check_robinson, check_rcpld, check_crsc)
            verdicts = [check(pt, cls).verdict for check in checks]
            assert "Undecided" not in verdicts, (rays, verdicts)
            assert verdicts[2:] == ["Holds", "Holds"], (rays, verdicts)
            assert verdicts[0] == "Fails" or verdicts[1] == "Holds", (rays, verdicts)

    def test_redundant_linear_constraints_keep_the_constant_rank_conditions(self):
        # the paper's point: the constant-rank conditions cover linear and
        # redundant constraints, which robinson fails on every opposite pair
        rng = np.random.default_rng(2008_07894)
        for _ in range(40):
            prog, x_star = _redundant_linear_program(rng)
            pt, cls = _point(prog, x_star)
            assert len(cls.reduced()) == len(prog.blocks) - 1
            assert check_robinson(pt, cls).verdict == "Fails"
            for check in (check_rcpld, check_crsc):
                assert check(pt, cls, samples=4).verdict == "Holds", (check.__name__, dumps(prog))
