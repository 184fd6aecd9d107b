"""Tests for the rank / Caratheodory / cone-membership / dependence kernel."""

import itertools

import numpy as np
import pytest

from coneguard.certificates import (
    TOL_RANK,
    DependenceWitness,
    caratheodory_reduce,
    combination,
    cone_membership,
    conic_dependence,
    nnls,
    numerical_rank,
    numerical_ranks,
    verify_dependence,
)
from coneguard import certificates
from coneguard.classify import classify
from coneguard.cqchecks import check_nondegeneracy, check_robinson
from coneguard.errors import BudgetExhaustedError, DimensionMismatchError, ReconstructionError
from coneguard.model import evaluate, loads

from conftest import (
    brute_force_cone_membership,
    grid_dependence_oracle,
    make_planted_dependent,
    make_planted_independent,
    same_bits,
)


def _random_rank_family(rng, n, rank, count):
    """count vectors in R^n spanning exactly a rank-dimensional subspace."""
    while True:
        basis = rng.integers(-3, 4, size=(rank, n)).astype(float)
        if np.linalg.matrix_rank(basis) == rank:
            break
    vecs = [basis[i] for i in range(rank)]
    while len(vecs) < count:
        w = rng.integers(-2, 3, size=rank).astype(float)
        vecs.append(w @ basis)
    order = rng.permutation(count)
    return [vecs[i] for i in order]


class TestNumericalRank:
    def test_zero_family_has_rank_zero(self):
        rank, basis, coeffs, residual = numerical_rank([np.zeros(1)])
        assert rank == 0
        assert basis == ()
        assert coeffs.tolist() == [1.0] and residual == 0.0
        rank, basis, coeffs, residual = numerical_rank([])
        assert (rank, basis, coeffs.shape, residual) == (0, (), (0,), 0.0)

    def test_simple_dependent_family(self):
        rank, basis, *_ = numerical_rank([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        assert rank == 2
        assert len(basis) == 2

    def test_generic_vectors_fill_the_space(self):
        rng = np.random.default_rng(3)
        vecs = [rng.standard_normal(3) for _ in range(50)]
        rank, basis, *_ = numerical_rank(vecs)
        assert rank == 3
        # Gram-determinant oracle: some 3-subset must be solidly independent
        assert any(
            abs(np.linalg.det(np.stack([vecs[i] for i in sub]))) > 1e-6
            for sub in itertools.combinations(range(50), 3)
        )
        assert np.linalg.matrix_rank(np.stack([vecs[i] for i in basis])) == 3

    def test_rank_matches_oracle_on_constructed_families(self):
        rng = np.random.default_rng(17)
        for _ in range(40):
            n = int(rng.integers(2, 6))
            r = int(rng.integers(0, n + 1))
            count = int(rng.integers(max(1, r), r + 4))
            vecs = (
                _random_rank_family(rng, n, r, count)
                if r
                else [np.zeros(n) for _ in range(count)]
            )
            rank, basis, *_ = numerical_rank(vecs)
            assert rank == np.linalg.matrix_rank(np.stack(vecs)) == r
            assert len(basis) == rank
            if rank:
                chosen = np.stack([vecs[i] for i in basis])
                assert np.linalg.matrix_rank(chosen) == rank

    def test_basis_selection_is_deterministic(self):
        rng = np.random.default_rng(8)
        vecs = [rng.standard_normal(4) for _ in range(9)]
        first, again = numerical_rank(vecs), numerical_rank(vecs)
        assert first[:2] == again[:2]
        assert same_bits(first[2], again[2]) and same_bits(first[3], again[3])


class TestNumericalRanks:
    """One SVD call ranks a stack by numerical_rank's rule, matrix by matrix."""

    @staticmethod
    def _stack(seed, count=12, m=4, n=5):
        # rank i % 5 for matrix i, the last one with a singular value below tol_rank
        rng = np.random.default_rng(seed)
        stack = np.zeros((count, m, n))
        for i in range(count):
            r = i % 5
            stack[i] = rng.standard_normal((m, r)) @ rng.standard_normal((r, n))
        u, _, vt = np.linalg.svd(rng.standard_normal((m, n)), full_matrices=False)
        stack[-1] = u @ np.diag([1.0, 0.5, 1e-9, 1e-12]) @ vt
        return stack

    @pytest.mark.parametrize("seed", [35, 36, 37])
    def test_each_rank_is_the_rank_of_its_matrix(self, seed):
        stack = self._stack(seed)
        ranks = numerical_ranks(stack)
        assert ranks.shape == (len(stack),)
        assert list(ranks) == [numerical_rank(a)[0] for a in stack]
        assert ranks[-1] == 2 and ranks[0] == 0
        assert {int(r) for r in ranks[:-1]} == {0, 1, 2, 3, 4}

    @pytest.mark.parametrize("seed", [35, 36, 37])
    def test_stacked_singular_values_are_the_per_matrix_ones_bit_for_bit(self, seed):
        stack = self._stack(seed)
        stacked = np.linalg.svd(stack, compute_uv=False)
        for a, svals in zip(stack, stacked):
            assert same_bits(svals, np.linalg.svd(a, compute_uv=False))

    def test_zero_matrices_and_zero_rows_have_rank_zero(self):
        assert list(numerical_ranks(np.zeros((3, 2, 4)))) == [0, 0, 0]
        assert list(numerical_ranks(np.zeros((3, 0, 4)))) == [0, 0, 0]
        assert numerical_ranks(np.zeros((0, 2, 4))).shape == (0,)

    @pytest.mark.parametrize("scale", [0.0, 1e-3, 1.0, 1e3])
    def test_an_explicit_scale_counts_at_that_scale(self, scale):
        stack = self._stack(38)
        at_scale = [
            int(np.count_nonzero(np.linalg.svd(a, compute_uv=False) > TOL_RANK * scale)) if scale > 0 else 0
            for a in stack
        ]
        assert list(numerical_ranks(stack, TOL_RANK, scale)) == at_scale
        assert [int(numerical_ranks(a, TOL_RANK, scale)) for a in stack] == at_scale


class TestVanishingCombination:
    """numerical_rank's combination and residual: the family's most nearly
    vanishing unit combination, from the SVD that ranks it."""

    def test_recovers_a_planted_dependency(self):
        v1 = np.array([1.0, 2.0, 0.0])
        v2 = np.array([0.0, 1.0, 1.0])
        rank, _, coeffs, residual = numerical_rank([v1, v2, v1 + v2])
        assert rank == 2
        assert residual <= 1e-12
        assert np.linalg.norm(coeffs) == pytest.approx(1.0, abs=1e-12)
        assert abs(coeffs[2]) > 0.1

    def test_residual_reported_for_independent_family(self):
        rank, _, _, residual = numerical_rank([[1.0, 0.0], [0.0, 1.0]])
        assert rank == 2
        assert residual == pytest.approx(1.0, abs=1e-12)


def _counted(monkeypatch, module, name):
    """The list that records each call of module.name from now on."""
    calls = []
    real = getattr(module, name)

    def counting(*args, **kwargs):
        calls.append(name)
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, counting)
    return calls


class TestOneSvdPerFamily:
    """A family is decomposed once for its rank and its vanishing combination."""

    def test_each_thinning_step_of_caratheodory_takes_one_svd(self, monkeypatch):
        rng = np.random.default_rng(37)
        fixed = [np.array([1.0, 0.0, 0.0])]
        vecs = [rng.standard_normal(3) for _ in range(6)]
        target = 0.5 * fixed[0] + np.sum(vecs, axis=0)
        svds = _counted(monkeypatch, np.linalg, "svd")
        ranks = _counted(monkeypatch, certificates, "numerical_rank")
        out = caratheodory_reduce(fixed, [(v, 1.0) for v in vecs], target)
        assert len(out.kept) <= 2
        # the fixed family's rank, one per thinning step, and the final independent family's
        assert len(ranks) >= 3
        assert len(svds) == len(ranks)

    def test_a_nondegeneracy_fails_takes_one_svd(self, monkeypatch, psd_pair_program):
        pt = evaluate(psd_pair_program, np.array([0.0]))
        cls = classify(pt)
        svds = _counted(monkeypatch, np.linalg, "svd")
        rep = check_nondegeneracy(pt, cls)
        assert rep.verdict == "Fails"
        assert rep.detail["witness_residual"] <= 1e-12
        assert len(svds) == 1

    def test_robinson_on_dependent_equalities_takes_one_svd(self, monkeypatch):
        pt = evaluate(loads("vars 1\nobjective x1\neq h1 x1\neq h2 2 * x1\n"), np.array([0.0]))
        cls = classify(pt)
        svds = _counted(monkeypatch, np.linalg, "svd")
        rep = check_robinson(pt, cls)
        assert rep.verdict == "Fails"
        assert rep.detail["witness_residual"] <= 1e-12
        assert len(svds) == 1


class TestNnls:
    def test_known_fit(self):
        a = np.array([[1.0, 0.0], [0.0, 1.0]])
        x, res = nnls(a, np.array([2.0, 3.0]))
        assert x == pytest.approx([2.0, 3.0], abs=1e-12)
        assert res <= 1e-12

    def test_negative_directions_are_clamped(self):
        a = np.array([[1.0], [0.0]])
        x, res = nnls(a, np.array([-1.0, 0.0]))
        assert x == pytest.approx([0.0], abs=1e-14)
        assert res == pytest.approx(1.0, abs=1e-12)

    def test_no_columns_fit_nothing(self):
        x, res = nnls(np.zeros((2, 0)), np.array([3.0, 4.0]))
        assert x.shape == (0,)
        assert res == 5.0

    def test_cycling_active_set_exhausts_the_budget(self, monkeypatch):
        # the active-set loop ends in exact arithmetic; the budget guards
        # against cycling under roundoff, which a least-squares step that is
        # never positive stands in for: its column enters and leaves forever
        real = certificates.factored
        monkeypatch.setattr(certificates, "factored", lambda result: (-1.0 - np.abs(real(result)[0]),))
        with pytest.raises(BudgetExhaustedError) as info:
            nnls(np.eye(2), np.array([3.0, 4.0]))
        assert info.value.best_residual == 5.0

    def test_matches_subset_enumeration_oracle(self):
        rng = np.random.default_rng(41)
        for _ in range(60):
            m = int(rng.integers(2, 6))
            k = int(rng.integers(1, 6))
            a = rng.integers(-2, 3, size=(m, k)).astype(float)
            b = rng.integers(-3, 4, size=m).astype(float)
            x, res = nnls(a, b)
            assert np.all(x >= 0.0)
            best = np.linalg.norm(b)
            for size in range(1, k + 1):
                for sub in itertools.combinations(range(k), size):
                    z, *_ = np.linalg.lstsq(a[:, sub], b, rcond=None)
                    if np.all(z >= -1e-12):
                        best = min(best, float(np.linalg.norm(a[:, sub] @ z - b)))
            assert res == pytest.approx(best, abs=1e-8)


class TestCaratheodory:
    def test_redundant_square_is_thinned(self):
        coned = [
            (np.array([1.0, 0.0]), 1.0),
            (np.array([0.0, 1.0]), 1.0),
            (np.array([1.0, 1.0]), 1.0),
        ]
        target = np.array([2.0, 2.0])
        out = caratheodory_reduce([], coned, target)
        assert len(out.kept) == 2
        assert np.all(out.coeffs > 0.0)
        recon = sum(
            c * coned[j][0] for c, j in zip(out.coeffs, out.kept)
        )
        assert recon == pytest.approx(target, abs=1e-10)

    def test_already_independent_input_is_unchanged(self):
        out = caratheodory_reduce([], [(np.array([1.0, 0.0]), 1.0)], np.array([1.0, 0.0]))
        assert out.kept == (0,)
        assert out.coeffs == pytest.approx([1.0], abs=1e-12)

    def test_zero_vectors_are_never_kept(self):
        coned = [
            (np.zeros(2), 1.0),
            (np.array([1.0, 0.0]), 2.0),
        ]
        out = caratheodory_reduce([], coned, np.array([2.0, 0.0]))
        assert 0 not in out.kept

    def test_negative_coefficient_is_rejected(self):
        with pytest.raises(ReconstructionError):
            caratheodory_reduce([], [(np.array([1.0]), -0.5)], np.array([-0.5]))

    def test_dependent_fixed_vectors_are_rejected(self):
        fixed = [np.array([1.0, 0.0]), np.array([2.0, 0.0])]
        with pytest.raises(DimensionMismatchError):
            caratheodory_reduce(fixed, [], np.array([1.0, 0.0]))

    def test_fixed_vectors_dependent_only_beside_a_coned_vector_are_rejected(self):
        # e1 and e1 + 1e-11 e2 pass the entry rank test at tol_rank 1e-12; with
        # e2 beside them the null combination lies on the fixed vectors alone
        fixed = [np.array([1.0, 0.0]), np.array([1.0, 1e-11])]
        coned = [(np.array([0.0, 1.0]), 1.0)]
        with pytest.raises(DimensionMismatchError):
            caratheodory_reduce(fixed, coned, np.array([0.0, 1.0]), tol_rank=1e-12)

    def test_inconsistent_target_is_rejected(self):
        with pytest.raises(ReconstructionError):
            caratheodory_reduce([], [(np.array([1.0, 0.0]), 1.0)], np.array([0.0, 5.0]))

    def test_target_off_the_span_by_more_than_the_final_tolerance_is_rejected(self):
        # 1e-9 off span(fixed) passes the 1e-8 entry check, not the 1e-10 exit check
        with pytest.raises(ReconstructionError) as info:
            caratheodory_reduce([np.array([1.0, 0.0])], [], np.array([1.0, 1e-9]))
        assert info.value.residual == pytest.approx(1e-9, rel=1e-12)

    @staticmethod
    def _reexpression_case(off):
        # target = 3 f + the coned terms + off * w, with w orthogonal to f
        fixed = [np.array([1.0, 1.0, 0.0])]
        coned = [(np.array([0.0, 1.0, 1.0]), 0.5), (np.array([1.0, 0.0, 2.0]), 2.0)]
        coned_sum = sum(b * v for v, b in coned)
        target = 3.0 * fixed[0] + off * np.array([1.0, -1.0, 1.0]) / np.sqrt(3.0) + coned_sum
        fmat, rest = np.column_stack(fixed), target - coned_sum
        fit, *_ = np.linalg.lstsq(fmat, rest, rcond=None)
        return fixed, coned, target, float(np.linalg.norm(fmat @ fit - rest))

    def test_reexpression_is_the_residual_of_the_fixed_fit(self):
        fixed, coned, target, expected = self._reexpression_case(1e-9)
        out = caratheodory_reduce(fixed, coned, target)
        assert expected == pytest.approx(1e-9, rel=1e-6)
        assert out.reexpression == pytest.approx(expected, rel=1e-9)

    def test_reexpression_above_the_gate_is_the_error_residual(self):
        fixed, coned, target, expected = self._reexpression_case(1e-7)
        with pytest.raises(ReconstructionError) as info:
            caratheodory_reduce(fixed, coned, target)
        assert info.value.residual == pytest.approx(expected, rel=1e-9)
        assert info.value.tol == pytest.approx(1e-8 * np.linalg.norm(target), rel=1e-12)

    def test_non_positive_refit_keeps_the_positive_coefficients(self):
        # the refit of target -1e-12 on the kept ray is negative; the given
        # coefficient 1e-13 reproduces the target within 1e-10 and stays
        out = caratheodory_reduce([], [(np.array([1.0, 0.0]), 1e-13)], np.array([-1e-12, 0.0]))
        assert out.kept == (0,)
        assert out.coeffs.tolist() == [1e-13]
        assert out.residual == pytest.approx(1.1e-12, rel=1e-9)

    def test_lemma_clauses_hold_on_500_random_instances(self):
        rng = np.random.default_rng(20260814)
        for trial in range(500):
            n = int(rng.integers(1, 7))
            p = int(rng.integers(0, min(3, n) + 1))
            fixed = []
            if p:
                while True:
                    cand = rng.integers(-2, 3, size=(p, n)).astype(float) / 2.0
                    if np.linalg.matrix_rank(cand) == p:
                        fixed = [cand[i] for i in range(p)]
                        break
            q = int(rng.integers(1, 9))
            vecs = []
            for _ in range(q):
                kind = rng.integers(0, 4)
                if kind == 0:
                    vecs.append(np.zeros(n))
                elif kind == 1 and vecs:
                    vecs.append(vecs[int(rng.integers(0, len(vecs)))].copy())
                else:
                    vecs.append(rng.integers(-2, 3, size=n).astype(float) / 2.0)
            betas = rng.integers(0, 5, size=q).astype(float) / 2.0
            lam0 = rng.integers(-2, 3, size=p).astype(float) / 2.0
            target = np.zeros(n)
            for c, v in zip(lam0, fixed):
                target += c * v
            for b, v in zip(betas, vecs):
                target += b * v
            out = caratheodory_reduce(fixed, list(zip(vecs, betas)), target)
            scale = max(1.0, float(np.linalg.norm(target)))
            # clause 1: exact reconstruction
            recon = np.zeros(n)
            for c, v in zip(out.fixed_coeffs, fixed):
                recon += c * v
            for c, j in zip(out.coeffs, out.kept):
                recon += c * vecs[j]
            assert np.linalg.norm(recon - target) <= 1e-9 * scale, trial
            # clause 2: kept family plus the fixed part is independent
            family = fixed + [vecs[j] for j in out.kept]
            if family:
                assert np.linalg.matrix_rank(np.stack(family)) == len(family), trial
            # clause 3: kept coefficients stay strictly positive
            assert np.all(out.coeffs > 0.0), trial
            assert out.kept == tuple(sorted(out.kept)), trial
            assert len(out.fixed_coeffs) == p, trial


class TestConeMembership:
    def test_simple_member(self):
        out = cone_membership(np.array([1.0, 1.0]), [], [np.array([1.0, 0.0]), np.array([0.0, 1.0])])
        assert out.member
        assert out.cone_coeffs == pytest.approx([1.0, 1.0], abs=1e-10)

    def test_simple_non_member(self):
        out = cone_membership(np.array([-1.0, 0.0]), [], [np.array([1.0, 0.0])])
        assert not out.member
        assert out.residual == pytest.approx(1.0, abs=1e-10)

    def test_zero_target_is_always_a_member(self):
        out = cone_membership(np.zeros(3), [np.array([1.0, 0.0, 0.0])], [np.array([0.0, 1.0, 0.0])])
        assert out.member
        assert out.residual <= 1e-12

    def test_without_cone_vectors_membership_is_the_free_span(self):
        free = [np.array([1.0, 0.0])]
        inside = cone_membership(np.array([2.0, 0.0]), free, [])
        assert inside.member and inside.cone_coeffs.shape == (0,)
        assert inside.free_coeffs == pytest.approx([2.0], abs=1e-12)
        outside = cone_membership(np.array([2.0, 1.0]), free, [])
        assert not outside.member and outside.residual == pytest.approx(1.0, abs=1e-12)

    def test_free_span_is_eliminated_exactly(self):
        # target = free part + cone part; the cone fit must ignore the span
        free = [np.array([1.0, 1.0, 0.0])]
        coned = [np.array([0.0, 0.0, 1.0])]
        target = -3.0 * free[0] + 2.0 * coned[0]
        out = cone_membership(target, free, coned)
        assert out.member
        assert out.cone_coeffs == pytest.approx([2.0], abs=1e-10)
        assert out.free_coeffs == pytest.approx([-3.0], abs=1e-10)

    def test_agrees_with_exhaustive_enumeration(self):
        rng = np.random.default_rng(97)
        agree = members = 0
        for trial in range(120):
            n = int(rng.integers(2, 5))
            n_free = int(rng.integers(0, 3))
            n_cone = int(rng.integers(1, 7))
            free = [rng.integers(-2, 3, size=n).astype(float) for _ in range(n_free)]
            coned = [rng.integers(-2, 3, size=n).astype(float) for _ in range(n_cone)]
            if trial % 2 == 0:
                lam = rng.integers(-2, 3, size=n_free).astype(float)
                alpha = rng.integers(0, 3, size=n_cone).astype(float)
                target = np.zeros(n)
                for c, v in zip(lam, free):
                    target += c * v
                for c, v in zip(alpha, coned):
                    target += c * v
            else:
                target = rng.integers(-4, 5, size=n).astype(float)
            out = cone_membership(target, free, coned)
            oracle = brute_force_cone_membership(target, free, coned)
            assert out.member == oracle, trial
            agree += 1
            if out.member:
                members += 1
                fit = np.zeros(n)
                for c, v in zip(out.free_coeffs, free):
                    fit += c * v
                for c, v in zip(out.cone_coeffs, coned):
                    fit += c * v
                scale = max(1.0, float(np.linalg.norm(target)))
                assert np.linalg.norm(fit - target) <= 1e-7 * scale
                assert np.all(out.cone_coeffs >= 0.0)
        assert agree == 120
        assert 0 < members < 120


def _recompute_margin(eq_basis, soc_blocks, psd_blocks, rays, d):
    slacks = []
    for jac in soc_blocks:
        z = np.asarray(jac, dtype=float) @ d
        if z.size == 1:
            slacks.append(float(z[0]))
        else:
            slacks.append(float(z[0] - np.linalg.norm(z[1:])))
    for partials in psd_blocks:
        mat = np.tensordot(d, np.asarray(partials, dtype=float), axes=(0, 0))
        slacks.append(float(np.linalg.eigvalsh(0.5 * (mat + mat.T))[0]))
    for r in rays:
        slacks.append(float(np.asarray(r, dtype=float) @ d))
    return min(slacks)


# (soc dims, psd dims, ray count) of the planted instances in the oracle tests
_ORACLE_SHAPES = [
    ([2], [], 1),
    ([2], [], 2),
    ([3], [], 1),
    ([], [2], 1),
    ([], [], 4),
    ([4], [], 0),
    ([], [2], 0),
    ([2, 2], [], 0),
]


class TestConicDependence:
    def test_zero_ray_alone_is_dependent(self):
        cert = conic_dependence([], [], [], [np.zeros(1)])
        assert cert.verdict == "dependent"
        assert cert.witness.alpha == pytest.approx([1.0], abs=1e-9)
        assert cert.residual <= 1e-7

    def test_opposite_rays_are_dependent(self):
        cert = conic_dependence([], [], [], [np.array([1.0, 0.0]), np.array([-1.0, 0.0])])
        assert cert.verdict == "dependent"
        ok, residual, cone_gap, normalization = verify_dependence(
            [], [], [], [np.array([1.0, 0.0]), np.array([-1.0, 0.0])], cert.witness
        )
        assert ok
        assert normalization >= 0.5

    def test_kernel_pair_blocks_are_dependent(self, psd_pair_program):
        pt = evaluate(psd_pair_program, np.array([0.0]))
        psd_blocks = [pt.blocks[0].partials, pt.blocks[1].partials]
        cert = conic_dependence([], [], psd_blocks, [])
        assert cert.verdict == "dependent"
        for mat in cert.witness.psd:
            assert np.linalg.eigvalsh(mat)[0] >= -1e-7
        combo = combination([], [], psd_blocks, [], cert.witness)
        assert np.linalg.norm(combo) <= 1e-7
        assert cert.normalization == pytest.approx(1.0, abs=1e-6)

    def test_injective_adjoint_is_independent(self):
        cert = conic_dependence([], [np.eye(2)], [], [])
        assert cert.verdict == "independent"
        assert cert.margin > 1e-7

    def test_no_constraints_is_vacuously_independent(self):
        cert = conic_dependence([], [], [], [])
        assert cert.verdict == "independent"
        assert cert.margin == float("inf")

    def test_equalities_alone_are_vacuously_independent(self):
        cert = conic_dependence([np.array([1.0, 0.0])], [], [], [])
        assert cert.verdict == "independent"
        assert cert.margin == float("inf")

    def test_dependent_equality_family_gives_its_sub_basis_verdict(self):
        e1, e2 = np.array([1.0, 0.0]), np.array([0.0, 1.0])
        for rays, verdict in (([e2], "independent"), ([e1], "dependent"), ([e2, -e2], "dependent")):
            family = conic_dependence([e1, 2.0 * e1], [], [], rays)
            assert family.verdict == conic_dependence([e1], [], [], rays).verdict == verdict
            if verdict == "dependent":
                assert verify_dependence([e1, 2.0 * e1], [], [], rays, family.witness)[0]

    def test_results_are_deterministic(self):
        rng = np.random.default_rng(4)
        eq, soc, psd, rays = make_planted_independent(rng, 3, [2], [], 1)
        a = conic_dependence(eq, soc, psd, rays)
        b = conic_dependence(eq, soc, psd, rays)
        assert a.verdict == b.verdict
        assert a.margin == b.margin
        assert np.array_equal(a.detail["certified_direction"], b.detail["certified_direction"])

    def test_independent_margin_certifies_a_separating_direction(self):
        rng = np.random.default_rng(12)
        for shape in ([2], [3]):
            eq, soc, psd, rays = make_planted_independent(rng, 3, shape, [], 1, n_eq=1)
            cert = conic_dependence(eq, soc, psd, rays)
            assert cert.verdict == "independent"
            d = cert.detail["certified_direction"]
            assert np.linalg.norm(d) <= 1.0 + 1e-9
            for v in eq:
                assert abs(float(np.asarray(v) @ d)) <= 1e-9
            assert _recompute_margin(eq, soc, psd, rays, d) == pytest.approx(
                cert.margin, abs=1e-10
            )

    def test_dependent_witnesses_survive_substitution(self):
        rng = np.random.default_rng(15)
        for shape in (([2], [], 1), ([], [2], 1), ([], [], 4)):
            soc_dims, psd_dims, n_rays = shape
            eq, soc, psd, rays = make_planted_dependent(rng, 3, soc_dims, psd_dims, n_rays)
            cert = conic_dependence(eq, soc, psd, rays)
            assert cert.verdict == "dependent", shape
            ok, residual, cone_gap, normalization = verify_dependence(
                eq, soc, psd, rays, cert.witness
            )
            assert ok
            assert residual <= 1e-7
            assert cone_gap <= 1e-7
            assert normalization >= 0.5

    def test_agreement_with_grid_oracle_on_small_instances(self):
        rng = np.random.default_rng(77)
        undecided = 0
        for trial in range(24):
            soc_dims, psd_dims, n_rays = _ORACLE_SHAPES[trial % len(_ORACLE_SHAPES)]
            n = int(rng.integers(2, 4))
            if trial % 2 == 0:
                eq, soc, psd, rays = make_planted_dependent(
                    rng, n, soc_dims, psd_dims, n_rays
                )
            else:
                eq, soc, psd, rays = make_planted_independent(
                    rng, n, soc_dims, psd_dims, n_rays
                )
            cert = conic_dependence(eq, soc, psd, rays)
            oracle_dep, best = grid_dependence_oracle(eq, soc, psd, rays)
            if cert.verdict == "undecided":
                undecided += 1
                continue
            assert cert.verdict == ("dependent" if oracle_dep else "independent"), (
                trial,
                best,
            )
        assert undecided <= 2


class TestOneLoop:
    """Each iteration is one margin step and, unless it certifies, one sweep."""

    @pytest.mark.parametrize("shape", _ORACLE_SHAPES)
    def test_planted_dependence_is_found_within_five_iterations(self, shape):
        rng = np.random.default_rng(31)
        for n in (2, 3):
            eq, soc, psd, rays = make_planted_dependent(rng, n, *shape)
            cert = conic_dependence(eq, soc, psd, rays)
            assert cert.verdict == "dependent", (shape, n)
            assert cert.iterations <= 5, (shape, n, cert.iterations)

    def test_small_budget_bounds_an_undecided_query(self):
        # four rays in R^2, three nearly opposite the fourth: independent, but
        # the least-squares start has a negative slack and the search needs 13 steps
        pairs = ((-0.9896, -0.1453), (-0.9919, -0.1273), (0.9926, 0.1213), (-0.9828, -0.1987))
        rays = [np.array(r) for r in pairs]
        # the threshold is numerical_rank's rule: tol_rank * sigma_max / sqrt(k), at most tol_cert
        threshold = min(1e-7, 1e-8 * np.linalg.norm(np.column_stack(rays), 2) / 2.0)
        for budget in (1, 3, 5):
            cert = conic_dependence([], [], [], rays, budget=budget)
            assert cert.verdict == "undecided"
            assert cert.iterations <= budget
            assert np.isfinite(cert.detail["best_combination_residual"])
            assert cert.detail["best_margin"] <= 1e-7
            assert cert.detail["margin_threshold"] == pytest.approx(threshold, rel=1e-12)
            assert cert.detail["best_margin"] <= cert.detail["margin_threshold"]
        loose = conic_dependence([], [], [], rays, budget=1, tol_rank=1e-3, tol_cert=1e-2)
        assert loose.detail["margin_threshold"] == pytest.approx(threshold * 1e5, rel=1e-12)
        assert conic_dependence([], [], [], rays).verdict == "independent"

    def test_linearly_independent_rays_certify_at_the_first_step(self):
        # the least-squares start solves r.d = 1 and E d = 0 at once, and the
        # threshold scales with the rays, so no unit of the data matters
        rng = np.random.default_rng(29)
        for _ in range(30):
            n = int(rng.integers(2, 5))
            family = rng.standard_normal((int(rng.integers(1, n + 1)), n))
            split = int(rng.integers(0, family.shape[0]))
            eq, rays = list(family[:split]), list(family[split:])
            for scale in (1e-6, 1.0, 1e6):
                cert = conic_dependence(eq, [], [], [scale * r for r in rays])
                assert (cert.verdict, cert.iterations) == ("independent", 1), (family, split, scale)

    def test_first_margin_step_certificate_makes_no_sweep(self, monkeypatch):
        from coneguard import certificates

        calls = []
        project = certificates._System.project_cones
        monkeypatch.setattr(
            certificates._System, "project_cones", lambda self, v: calls.append(1) or project(self, v)
        )
        cert = conic_dependence([], [np.eye(2)], [], [])
        assert cert.verdict == "independent" and cert.iterations == 1
        assert calls == []
        assert conic_dependence([], [], [], [np.zeros(1)]).verdict == "dependent"
        assert calls == [1]


class TestVerifyDependence:
    def test_clause_violations_are_caught(self):
        rays = [np.array([1.0, 0.0]), np.array([-1.0, 0.0])]
        good = DependenceWitness(np.zeros(0), (), (), np.array([0.5, 0.5]))
        ok, residual, cone_gap, normalization = verify_dependence([], [], [], rays, good)
        assert ok and residual <= 1e-12 and cone_gap == 0.0 and normalization == 1.0

        bad_combo = DependenceWitness(np.zeros(0), (), (), np.array([1.0, 0.0]))
        ok, residual, *_ = verify_dependence([], [], [], rays, bad_combo)
        assert not ok and residual == pytest.approx(1.0, abs=1e-12)

        negative = DependenceWitness(np.zeros(0), (), (), np.array([1.5, -0.5]))
        ok, _, cone_gap, _ = verify_dependence(
            [], [], [], [np.array([1.0, 0.0]), np.array([3.0, 0.0])], negative
        )
        assert not ok and cone_gap == pytest.approx(0.5, abs=1e-12)

        trivial = DependenceWitness(np.zeros(0), (), (), np.array([0.0, 0.0]))
        ok, _, _, normalization = verify_dependence([], [], [], rays, trivial)
        assert not ok and normalization == 0.0

    def test_empty_system_combines_to_nothing_and_is_not_a_witness(self):
        empty = DependenceWitness(np.zeros(0), (), (), np.zeros(0))
        assert combination([], [], [], [], empty).shape == (0,)
        assert verify_dependence([], [], [], [], empty) == (False, 0.0, 0.0, 0.0)

    def test_soc_witness_must_live_in_its_cone(self):
        jac = np.array([[0.0, 0.0], [1.0, 0.0]])
        outside = DependenceWitness(np.zeros(0), (np.array([0.5, 1.0]),), (), np.zeros(0))
        ok, residual, cone_gap, _ = verify_dependence([], [jac], [], [], outside)
        assert not ok
        assert cone_gap > 0.1
