"""Tests for trace handling, stationarity residuals, certification, recovery."""

import io
from pathlib import Path

import numpy as np
import pytest

from coneguard import akkt
from coneguard.akkt import (
    AkktRecord,
    AkktTrace,
    akkt_residual,
    build_trace,
    certify_akkt,
    dumps_trace,
    loads_trace,
    recover_kkt,
    verify_kkt,
)
from coneguard.alm import solve
from coneguard.classify import classify, kernel_basis
from coneguard.cqchecks import check_crsc, check_rcpld, check_robinson
from coneguard.errors import (
    DimensionMismatchError,
    InfeasiblePointError,
    ProblemFormatError,
)
from coneguard.model import evaluate, loads
from conftest import affine_entry_text, build_program_text

PROBLEMS = Path(__file__).resolve().parents[1] / "problems"


def record(prog, k, x, lam=None, mu=None, alpha=None):
    return AkktRecord(
        k,
        np.asarray(x, dtype=float),
        np.zeros(prog.p) if lam is None else np.asarray(lam, dtype=float),
        {} if mu is None else {k2: np.asarray(v, dtype=float) for k2, v in mu.items()},
        {} if alpha is None else dict(alpha),
    )


@pytest.fixture(scope="module")
def mixed_program():
    # one vertex soc block and one fully degenerate psd block at x = 0,
    # plus an interior scalar block (never a multiplier carrier)
    return loads(
        "vars 1\nobjective x1\n"
        "soc G 2\nx1\nx1\n"
        "psd P 2\nx1\n0\nx1\n"
        "soc s 1\nx1 + 1\n"
    )


class TestTraceValidation:
    def test_round_trip_through_text_is_bitwise(self, mixed_program):
        prog = mixed_program
        rng = np.random.default_rng(2)
        records = []
        for k in range(4):
            mu_soc = np.array([2.0 + rng.uniform(0, 1), rng.uniform(-1, 1)])
            diag = rng.uniform(0.5, 2.0, size=2)
            mu_psd = np.diag(diag) + 0.1 * np.ones((2, 2))
            records.append(
                record(
                    prog,
                    k,
                    [rng.uniform(-1, 1)],
                    mu={"G": mu_soc, "P": mu_psd},
                    alpha={"s": float(rng.uniform(0, 2))},
                )
            )
        trace = build_trace(prog, records)
        text = dumps_trace(trace)
        back = loads_trace(prog, text)
        assert len(back) == len(trace)
        for a, b in zip(trace.records, back.records):
            assert a.k == b.k
            assert np.array_equal(a.x, b.x)
            assert np.array_equal(a.lam, b.lam)
            assert set(a.mu) == set(b.mu)
            for name in a.mu:
                assert np.array_equal(a.mu[name], b.mu[name])
            assert a.alpha == b.alpha
        assert dumps_trace(back) == text

    def test_records_without_multipliers_round_trip_through_text(self, mixed_program):
        prog = mixed_program
        trace = build_trace(
            prog, [record(prog, 0, [0.5], mu={"G": [1.0, 0.5]}), record(prog, 1, [0.25])]
        )
        text = dumps_trace(trace)
        assert text == "k 0\nx 0.5\nmu G 1 0.5\nk 1\nx 0.25\n"
        back = loads_trace(prog, text)
        assert [rec.mu.keys() for rec in back.records] == [{"G"}, set()]
        assert dumps_trace(back) == text

    def test_record_indices_must_increase(self, mixed_program):
        prog = mixed_program
        records = [record(prog, 3, [0.0]), record(prog, 3, [0.0])]
        with pytest.raises(ProblemFormatError):
            build_trace(prog, records)

    def test_shape_mismatches_are_rejected(self, mixed_program):
        prog = mixed_program
        with pytest.raises(DimensionMismatchError, match=r"^record x has 2 entries, expected 1$"):
            build_trace(prog, [record(prog, 0, [0.0, 1.0])])
        with pytest.raises(DimensionMismatchError, match=r"^record lambda has 2 entries, expected 0$"):
            build_trace(prog, [AkktRecord(0, np.zeros(1), np.ones(2), {}, {})])
        with pytest.raises(DimensionMismatchError, match=r"^multiplier for 'G' has shape \(3,\), expected \(2,\)$"):
            build_trace(prog, [record(prog, 0, [0.0], mu={"G": [1.0, 0.0, 0.0]})])
        with pytest.raises(DimensionMismatchError, match=r"^multiplier for 'P' has shape \(3,\), expected \(2, 2\)$"):
            build_trace(prog, [record(prog, 0, [0.0], mu={"P": np.ones(3)})])

    @pytest.mark.parametrize("mu, alpha", [({"Q": np.zeros(2)}, {}), ({}, {"Q": 0.5})], ids=["mu", "alpha"])
    def test_unknown_block_is_a_format_error(self, mu, alpha):
        prog = loads((PROBLEMS / "soc_boundary_line.txt").read_text())
        bad = AkktRecord(1, np.zeros(1), np.zeros(0), mu, alpha)
        with pytest.raises(ProblemFormatError, match=r"^record k=1: unknown block 'Q'$"):
            build_trace(prog, [bad])

    def test_cone_slack_is_relative(self, mixed_program):
        prog = mixed_program
        # large multiplier a hair outside the cone: accepted by relative slack
        big = record(prog, 0, [0.0], mu={"G": [1e6, 1e6 + 5e-4]})
        build_trace(prog, [big])
        # small multiplier the same absolute distance outside: rejected
        tiny = record(prog, 0, [0.0], mu={"G": [0.0, 2e-9]})
        with pytest.raises(ProblemFormatError):
            build_trace(prog, [tiny])

    def test_psd_multiplier_must_be_semidefinite(self, mixed_program):
        prog = mixed_program
        bad = record(prog, 0, [0.0], mu={"P": np.diag([1.0, -0.5])})
        with pytest.raises(ProblemFormatError):
            build_trace(prog, [bad])

    @pytest.mark.parametrize(
        "field, what",
        [
            ({"x": [np.nan]}, "x"),
            ({"lam": [np.inf]}, "lambda"),
            ({"mu": {"G": [np.nan, 0.0]}}, "mu for 'G'"),
            ({"mu": {"P": np.array([[1.0, np.nan], [np.nan, 1.0]])}}, "mu for 'P'"),
            ({"alpha": {"s": np.nan}}, "alpha for 's'"),
        ],
    )
    def test_non_finite_entries_are_rejected(self, field, what):
        prog = loads("vars 1\nobjective x1\neq e x1\nsoc G 2\nx1\nx1\npsd P 2\nx1\n0\nx1\nsoc s 1\nx1 + 1\n")
        rec = record(prog, 3, **{"x": [0.0], **field})
        with pytest.raises(ProblemFormatError, match="^record k=3: %s has a non-finite entry$" % what):
            build_trace(prog, [rec])

    def test_alpha_sign_slack(self, mixed_program):
        prog = mixed_program
        build_trace(prog, [record(prog, 0, [0.0], alpha={"s": -1e-13})])
        with pytest.raises(ProblemFormatError):
            build_trace(prog, [record(prog, 0, [0.0], alpha={"s": -1e-6})])

    # each malformed trace text -> (line, message) of its ProblemFormatError
    MALFORMED = {
        "x 0.0\n": (1, "line before the first record"),
        "k 1\nk 2\nx 0.0\n": (2, "record without an x line"),
        "k 1\nx 0.0 0.0\n": (2, "x line has 2 values, expected 1"),
        "k 1\nx 0.0\nlambda 1.0\n": (3, "lambda line has 1 values, expected 0"),  # no equalities
        "k 1\nx 5.0\nx 3.0\n": (3, "duplicate x line"),
        "k 1\nlambda\nx 0.0\nlambda\n": (4, "duplicate lambda line"),
        "k 1\nx 0.0\nmu G 1.0\n": (3, "multiplier for 'G' has 1 values, expected 2"),
        "k 1\nx 0.0\nmu P 1.0 0.0\n": (3, "multiplier for 'P' has 2 values, expected 3"),
        "k 1\nx 0.0\nmu Q 1.0 0.0\n": (3, "unknown block 'Q'"),
        "k 1\nx 0.0\nalpha Q 0.1\n": (3, "unknown block 'Q'"),
        "k 1\nx 0.0\nmu\n": (3, "mu line needs a block name and values"),
        "k 1\nx 0.0\nmu G 1.0 0.0\nmu G 1.0 0.0\n": (4, "duplicate multiplier for 'G'"),
        "k 1\nx 0.0\nalpha s\n": (3, "alpha line needs a block name and one value"),
        "k 1\nx 0.0\nalpha s 0.1\nalpha s 0.1\n": (4, "duplicate coefficient for 's'"),
        "k 1\nx zero\n": (2, "could not convert string to float: 'zero'"),
        "k 1 2\nx 0.0\n": (1, "k line needs one integer"),
        "k one\nx 0.0\n": (1, "invalid literal for int() with base 10: 'one'"),
        "q 1\n": (1, "line before the first record"),
        "k 1\nx 0.0\nq 1\n": (3, "unknown line tag 'q'"),
    }

    @pytest.mark.parametrize("text", list(MALFORMED))
    def test_malformed_trace_text(self, mixed_program, text):
        line, message = self.MALFORMED[text]
        with pytest.raises(ProblemFormatError) as err:
            loads_trace(mixed_program, text)
        assert err.value.line == line
        assert str(err.value) == "line %d: %s" % (line, message)

    def test_last_record_without_x_has_no_line(self, mixed_program):
        with pytest.raises(ProblemFormatError) as err:
            loads_trace(mixed_program, "k 1\nx 0.0\nk 2\nalpha s 0.1\n")
        assert err.value.line is None
        assert str(err.value) == "record without an x line"

    def test_comments_and_blank_lines_are_ignored(self, mixed_program):
        text = "# header\n\nk 1\n  x 0.5  # point\nmu G 1.0 0.5\n\n"
        trace = loads_trace(mixed_program, text)
        assert len(trace) == 1
        assert trace.records[0].x == pytest.approx([0.5])
        assert trace.records[0].mu["G"] == pytest.approx([1.0, 0.5])


class TestStationarityResidual:
    def test_exact_kkt_record_has_zero_residual(self, scalar_pair_program):
        prog = scalar_pair_program
        pt = evaluate(prog, np.zeros(2))
        cls = classify(pt)
        rec = record(prog, 0, [0.0, 0.0], alpha={"a": 1.0, "b": 1.0})
        assert akkt_residual(prog, cls, rec) <= 1e-12

    def test_equality_multiplier_enters_the_residual_and_the_text(self):
        # grad f + J_h^T lambda = 2 x1 + lambda vanishes at x1 = 1, lambda = -2
        prog = loads("vars 1\nobjective x1^2\neq e x1 - 1\n")
        cls = classify(evaluate(prog, np.array([1.0])))
        assert akkt_residual(prog, cls, record(prog, 0, [1.0], lam=[-2.0])) == 0.0
        assert akkt_residual(prog, cls, record(prog, 0, [1.0], lam=[0.0])) == 2.0
        trace = build_trace(prog, [record(prog, 0, [1.0], lam=[-2.0]), record(prog, 1, [1.0], lam=[0.1])])
        text = dumps_trace(trace)
        assert text == "k 0\nx 1\nlambda -2\nk 1\nx 1\nlambda 0.10000000000000001\n"
        back = loads_trace(prog, text)
        assert [r.lam.tolist() for r in back.records] == [[-2.0], [0.1]]
        assert dumps_trace(back) == text

    def test_boundary_line_residual_matches_hand_computation(self, soc_line_program):
        prog = soc_line_program
        cls = classify(evaluate(prog, np.array([1.0])))
        for k in (1, 2, 4, 8):
            rec = record(prog, k, [1.0 + 1.0 / k], alpha={"g": 0.0})
            assert akkt_residual(prog, cls, rec) == pytest.approx(2.0 / k, abs=1e-14)

    def test_multiplier_on_reduced_block_is_rejected(self, soc_line_program):
        prog = soc_line_program
        cls = classify(evaluate(prog, np.array([1.0])))
        rec = record(prog, 0, [1.0], mu={"g": [1.0, 0.0]})
        with pytest.raises(DimensionMismatchError):
            akkt_residual(prog, cls, rec)

    def test_alpha_on_conic_block_is_rejected(self, soc_line_program):
        prog = soc_line_program
        cls = classify(evaluate(prog, np.array([0.0])))
        rec = record(prog, 0, [0.0], alpha={"g": 1.0})
        with pytest.raises(DimensionMismatchError):
            akkt_residual(prog, cls, rec)

    def test_residual_is_lipschitz_in_the_multiplier(self, mixed_program):
        prog = mixed_program
        pt0 = evaluate(prog, np.zeros(1))
        cls = classify(pt0)
        jac = pt0.blocks[0].jac
        lip = float(np.linalg.svd(jac, compute_uv=False)[0])
        rng = np.random.default_rng(6)
        base_mu = np.array([1.0, 0.2])
        base = akkt_residual(prog, cls, record(prog, 0, [0.0], mu={"G": base_mu}))
        for _ in range(20):
            d = rng.uniform(-0.05, 0.05, size=2)
            shifted = base_mu + d
            if shifted[0] < abs(shifted[1]):
                continue
            res = akkt_residual(prog, cls, record(prog, 0, [0.0], mu={"G": shifted}))
            assert abs(res - base) <= lip * float(np.linalg.norm(d)) + 1e-12


class TestCertify:
    def _converging_trace(self, prog, alpha_name=None):
        records = []
        for k in range(12):
            x = [1.0 + 10.0 ** (-k)]
            alpha = {alpha_name: 0.0} if alpha_name else None
            records.append(record(prog, k, x, alpha=alpha))
        return build_trace(prog, records)

    def test_converging_trace_is_certified(self, soc_line_program):
        prog = soc_line_program
        trace = self._converging_trace(prog, "g")
        out = certify_akkt(evaluate(prog, np.array([1.0])), trace)
        assert out.certified
        assert out.reason is None
        assert out.detail["tail_length"] == 3
        assert out.detail["max_tail_residual"] <= 1e-6

    def test_single_record_is_insufficient(self, soc_line_program):
        prog = soc_line_program
        trace = build_trace(prog, [record(prog, 0, [1.0])])
        out = certify_akkt(evaluate(prog, np.array([1.0])), trace)
        assert not out.certified
        assert out.reason == "insufficient tail"

    def test_far_iterates_are_rejected(self, soc_line_program):
        prog = soc_line_program
        trace = build_trace(prog, [record(prog, k, [1.1]) for k in range(8)])
        out = certify_akkt(evaluate(prog, np.array([1.0])), trace)
        assert not out.certified
        assert out.reason == "iterates do not reach the reference point"

    def test_drifting_tail_is_rejected(self, soc_line_program):
        prog = soc_line_program
        records = [record(prog, k, [1.0]) for k in range(7)]
        records.append(record(prog, 7, [1.0 + 1e-7]))
        trace = build_trace(prog, records)
        out = certify_akkt(evaluate(prog, np.array([1.0])), trace)
        assert not out.certified
        assert out.reason == "iterate distances increase over the tail"
        assert out.offending_k == 7

    def test_nonstationary_constant_trace_is_rejected(self, soc_line_program):
        prog = soc_line_program
        trace = build_trace(prog, [record(prog, k, [0.5]) for k in range(4)])
        out = certify_akkt(evaluate(prog, np.array([0.5])), trace)
        assert not out.certified
        assert out.reason == "stationarity residual does not vanish"
        assert out.detail["residual"] == pytest.approx(1.0, abs=1e-12)

    def test_infeasible_reference_point_raises(self, soc_line_program):
        prog = soc_line_program
        trace = build_trace(prog, [record(prog, k, [1.0]) for k in range(4)])
        with pytest.raises(InfeasiblePointError):
            certify_akkt(evaluate(prog, np.array([-1.0])), trace)

    def test_mass_on_positive_eigenvalue_direction_is_rejected(self):
        prog = loads("vars 2\nobjective 0\npsd q 3\nx1\n0\n0\nx2\n0\n1\n")
        x_star = np.zeros(2)
        mu = np.zeros((3, 3))
        mu[2, 2] = 0.3
        trace = build_trace(
            prog, [record(prog, k, [0.0, 0.0], mu={"q": mu}) for k in range(4)]
        )
        out = certify_akkt(evaluate(prog, x_star), trace)
        assert not out.certified
        assert out.reason == "multiplier keeps mass on a positive eigenvalue direction"
        assert out.detail["block"] == "q"
        assert out.detail["matched_eigenvalue"] == pytest.approx(0.3, abs=1e-12)

    def test_mass_on_kernel_directions_is_accepted(self):
        prog = loads("vars 2\nobjective 0.3 * x1\npsd q 3\nx1\n0\n0\nx2\n0\n1\n")
        mu = np.zeros((3, 3))
        mu[0, 0] = 0.3
        trace = build_trace(
            prog, [record(prog, k, [0.0, 0.0], mu={"q": mu}) for k in range(4)]
        )
        out = certify_akkt(evaluate(prog, np.zeros(2)), trace)
        assert out.certified

    def test_tail_records_without_a_multiplier_are_certified(self):
        # a kernel-multiple block whose records carry no mu has no mass to
        # place off the kernel: the Rayleigh-quotient clause skips them
        prog = loads("vars 2\nobjective 0\npsd q 3\nx1\n0\n0\nx2\n0\n1\n")
        pt = evaluate(prog, np.zeros(2))
        assert classify(pt).psd_multiple == (0,)
        trace = build_trace(prog, [record(prog, k, [0.0, 0.0]) for k in range(4)])
        out = certify_akkt(pt, trace)
        assert out.certified
        assert out.detail["max_tail_residual"] == 0.0

    def test_mass_on_a_rotated_positive_direction_is_rejected(self):
        # mu = u u^T for u = (cos 0.6, 0, sin 0.6) keeps a third of its mass on
        # e3, the positive direction: e3^T mu e3 = sin(0.6)^2
        prog = loads("vars 2\nobjective 0.68117887723833681 * x1\npsd q 3\nx1\n0\n0\nx2\n0\n1\n")
        u = np.array([np.cos(0.6), 0.0, np.sin(0.6)])
        trace = build_trace(prog, [record(prog, k, [0.0, 0.0], mu={"q": np.outer(u, u)}) for k in range(4)])
        pt = evaluate(prog, np.zeros(2))
        out = certify_akkt(pt, trace)
        assert not out.certified
        assert out.reason == "multiplier keeps mass on a positive eigenvalue direction"
        assert out.detail["matched_eigenvalue"] == pytest.approx(np.sin(0.6) ** 2, abs=1e-12)
        assert out.detail["reference_eigenvalue"] == pytest.approx(1.0, abs=1e-12)
        assert not verify_kkt(pt, [], {"q": np.outer(u, u)}, 10 * akkt.TOL_KKT)[0]

    def test_mass_inside_the_zero_cluster_is_accepted(self):
        # 5e-7 lies within tol_gap of the zero eigenvalues: the whole cone is
        # the face, as for the checks, and the multiplier is complementary
        prog = loads("vars 2\nobjective 0\npsd q 3\nx1\n0\n0\nx2\n0\n5e-7\n")
        mu = np.zeros((3, 3))
        mu[2, 2] = 0.3
        trace = build_trace(prog, [record(prog, k, [0.0, 0.0], mu={"q": mu}) for k in range(4)])
        pt = evaluate(prog, np.zeros(2))
        assert kernel_basis(pt, 0, classify(pt)).shape == (3, 3)
        assert certify_akkt(pt, trace).certified
        assert verify_kkt(pt, [], {"q": mu}, 10 * akkt.TOL_KKT)[0]

    def test_certified_multipliers_pass_first_order_verification(self):
        # G(x) = Q diag(x_1 .. x_k, c) Q^T for a random rotation Q, at x = 0; the
        # objective makes a constant trace with multiplier mu exactly stationary
        for seed in range(60):
            rng = np.random.default_rng(seed)
            m = int(rng.integers(3, 6))
            k = int(rng.integers(2, m))
            q = np.linalg.qr(rng.standard_normal((m, m)))[0]
            c = rng.uniform(0.5, 2.0, size=m - k)
            block = ["psd q %d" % m]
            block += [affine_entry_text(q[a, :k] * q[b, :k], q[a, k:] * q[b, k:] @ c) for a, b in zip(*np.triu_indices(m))]
            w, v = rng.standard_normal((m, k)), rng.standard_normal((k, k))  # mu of rank k or less
            kernel_mu = q[:, :k] @ v @ v.T @ q[:, :k].T
            for mu in (w @ w.T, kernel_mu):
                objective = affine_entry_text(np.einsum("ai,ab,bi->i", q[:, :k], mu, q[:, :k]), 0.0)
                prog = loads(build_program_text(k, objective, blocks=[block]))
                pt = evaluate(prog, np.zeros(k))
                trace = build_trace(prog, [record(prog, t, np.zeros(k), mu={"q": mu}) for t in range(4)])
                certified = certify_akkt(pt, trace).certified
                if certified:
                    assert verify_kkt(pt, [], {"q": mu}, 10 * akkt.TOL_KKT)[0], seed
                assert certified or mu is not kernel_mu, seed


class TestEvaluatedReference:
    """certify_akkt and recover_kkt take the reference point evaluated; they
    evaluate only trace records, and exit early before classifying it."""

    def test_only_trace_records_are_evaluated(self, soc_line_program, monkeypatch):
        prog = soc_line_program
        trace = TestCertify()._converging_trace(prog, "g")
        pt = evaluate(prog, np.array([1.0]))
        seen = []

        def recording(prog, x):
            seen.append(x)
            return evaluate(prog, x)

        monkeypatch.setattr(akkt, "evaluate", recording)
        assert certify_akkt(pt, trace).certified
        assert recover_kkt(pt, trace).verdict == "kkt"
        xs = [rec.x for rec in trace.records]
        assert seen and all(any(x is y for y in xs) for x in seen)

    def test_early_exits_come_before_classification(self, soc_line_program):
        prog = soc_line_program
        pt = evaluate(prog, np.array([-1.0]))  # infeasible: classify would raise
        one = build_trace(prog, [record(prog, 0, [1.0])])
        assert certify_akkt(pt, one).reason == "insufficient tail"
        assert recover_kkt(pt, AkktTrace(())).detail["reason"] == "empty trace"
        with pytest.raises(InfeasiblePointError):
            recover_kkt(pt, one)


class TestVerifyKkt:
    def test_exact_multipliers_pass(self, scalar_pair_program):
        pt = evaluate(scalar_pair_program, np.zeros(2))
        ok, detail = verify_kkt(pt, np.zeros(0), {"a": [[1.0]], "b": [[1.0]]}, 1e-8)
        assert ok
        assert detail["stationarity"] <= 1e-14
        assert detail["cone_distance"] == 0.0
        assert detail["complementarity"] == 0.0

    def test_block_without_a_multiplier_contributes_nothing(self):
        prog = loads("vars 1\nobjective x1\npsd a 1\nx1\nsoc s 1\nx1 + 1\n")
        pt = evaluate(prog, np.zeros(1))
        given = verify_kkt(pt, [], {"a": [[1.0]]}, 1e-8)
        assert given == verify_kkt(pt, [], {"a": [[1.0]], "s": [0.0]}, 1e-8)
        assert given[0]

    def test_stationarity_violation_is_reported(self, scalar_pair_program):
        pt = evaluate(scalar_pair_program, np.zeros(2))
        ok, detail = verify_kkt(pt, np.zeros(0), {"a": [[2.0]], "b": [[1.0]]}, 1e-8)
        assert not ok
        assert detail["stationarity"] == pytest.approx(1.0, abs=1e-12)

    def test_complementarity_violation_is_reported(self, scalar_pair_program):
        pt = evaluate(scalar_pair_program, np.array([1.0, 0.0]))
        ok, detail = verify_kkt(pt, np.zeros(0), {"a": [[1.0]], "b": [[1.0]]}, 1e-8)
        assert not ok
        assert detail["complementarity"] == pytest.approx(1.0, abs=1e-12)

    def test_cone_violation_is_reported(self, scalar_pair_program):
        pt = evaluate(scalar_pair_program, np.zeros(2))
        ok, detail = verify_kkt(pt, np.zeros(0), {"a": [[-1.0]], "b": [[1.0]]}, 1e-8)
        assert not ok
        assert detail["cone_distance"] == pytest.approx(1.0, abs=1e-12)


class TestRecover:
    def test_boundary_line_recovers_the_zero_multiplier(self, soc_line_program):
        prog = soc_line_program
        records = [
            record(prog, k, [1.0 + 10.0 ** (-k)], alpha={"g": 1.0 / (k + 1)})
            for k in range(10)
        ]
        trace = build_trace(prog, records)
        out = recover_kkt(evaluate(prog, np.array([1.0])), trace)
        assert out.verdict == "kkt"
        assert out.residual <= 1e-8
        assert out.modal_subset == ()
        assert out.multipliers["mu"]["g"] == pytest.approx([0.0, 0.0], abs=1e-12)
        pt = evaluate(prog, np.array([1.0]))
        ok, _ = verify_kkt(pt, out.multipliers["lambda"], out.multipliers["mu"], 1e-5)
        assert ok

    def test_kernel_pair_recovers_rank_one_multiplier(self, psd_pair_program):
        prog = psd_pair_program
        records = [
            record(
                prog,
                k,
                [0.0],
                alpha={"g1": 1.0 + 1.0 / (k + 1), "g2": 1.0 / (k + 1)},
            )
            for k in range(8)
        ]
        trace = build_trace(prog, records)
        out = recover_kkt(evaluate(prog, np.array([0.0])), trace)
        assert out.verdict == "kkt"
        assert out.modal_subset == ("g1",)
        mu1 = out.multipliers["mu"]["g1"]
        assert mu1 == pytest.approx(0.5 * np.ones((2, 2)), abs=1e-9)
        assert out.multipliers["mu"]["g2"] == pytest.approx(np.zeros((2, 2)), abs=1e-12)
        pt = evaluate(prog, np.array([0.0]))
        ok, detail = verify_kkt(pt, out.multipliers["lambda"], out.multipliers["mu"], 1e-5)
        assert ok, detail

    def test_equality_multiplier_is_recovered(self):
        prog = loads("vars 1\nobjective x1\neq h x1\n")
        records = [record(prog, k, [0.0], lam=[-1.0 + 10.0 ** (-k - 6)]) for k in range(6)]
        trace = build_trace(prog, records)
        out = recover_kkt(evaluate(prog, np.array([0.0])), trace)
        assert out.verdict == "kkt"
        assert out.equality_basis == ("h",)
        assert out.multipliers["lambda"] == pytest.approx([-1.0], abs=1e-5)

    def test_geometric_multiplier_growth_yields_a_divergence_witness(self):
        prog = loads("vars 1\nobjective x1\nsoc G 2\nx1\nx1\n")
        records = []
        for k in range(10):
            t = 10.0**k
            records.append(record(prog, k, [0.0], mu={"G": [t + 0.5, 0.5 - t]}))
        trace = build_trace(prog, records)
        out = recover_kkt(evaluate(prog, np.zeros(1)), trace)
        assert out.verdict == "unbounded"
        assert out.certificate is not None
        assert out.certificate.verdict == "dependent"
        w = out.certificate.witness.soc[0]
        # the normalized witness is the balanced opposite pair direction
        assert w[0] + w[1] == pytest.approx(0.0, abs=1e-8)
        assert w[0] > 0.1
        assert out.detail["witness_residual"] <= 1e-7
        assert out.m_values[-1] >= 10.0 * max(out.m_values[0], 1.0)

    def test_linear_growth_past_the_cap_is_inconclusive(self):
        prog = loads("vars 1\nobjective x1\nsoc G 2\nx1\nx1\n")
        records = []
        for k in range(10):
            t = (k + 1) * 2e7
            records.append(record(prog, k, [0.0], mu={"G": [t + 0.5, 0.5 - t]}))
        trace = build_trace(prog, records)
        out = recover_kkt(evaluate(prog, np.zeros(1)), trace)
        assert out.verdict == "inconclusive"
        assert out.detail["reason"] == "coefficients exceed the cap without sustained growth"

    def test_diverging_equality_multipliers_carry_no_cone_mass(self):
        prog = loads("vars 1\nobjective x1\neq h x1\n")
        records = [record(prog, k, [0.0], lam=[10.0**k]) for k in range(10)]
        trace = build_trace(prog, records)
        out = recover_kkt(evaluate(prog, np.zeros(1)), trace)
        assert out.verdict == "inconclusive"
        assert out.detail["reason"] == "diverging coefficients carry no cone mass"

    def test_failed_witness_substitution_is_reported(self):
        prog = loads("vars 1\nobjective x1\nsoc G 2\nx1\nx1\n")
        records = [
            record(prog, k, [0.0], mu={"G": [10.0**k, 0.0]}) for k in range(10)
        ]
        trace = build_trace(prog, records)
        out = recover_kkt(evaluate(prog, np.zeros(1)), trace)
        assert out.verdict == "inconclusive"
        assert out.detail["reason"] == "divergence witness failed substitution"
        assert out.detail["witness_residual"] > 1e-7

    def test_bounded_but_wrong_multipliers_are_inconclusive(self, psd_pair_program):
        prog = psd_pair_program
        records = [record(prog, k, [0.0]) for k in range(6)]
        trace = build_trace(prog, records)
        out = recover_kkt(evaluate(prog, np.array([0.0])), trace)
        assert out.verdict == "inconclusive"
        assert out.detail["reason"] == "bounded multipliers fail first-order verification"

    def test_empty_trace_is_inconclusive(self, soc_line_program):
        out = recover_kkt(evaluate(soc_line_program, np.array([1.0])), AkktTrace(()))
        assert out.verdict == "inconclusive"
        assert out.detail["reason"] == "empty trace"

    def test_thinning_preserves_the_stationarity_residual(self, psd_pair_program):
        prog = psd_pair_program
        pt = evaluate(prog, np.zeros(1))
        cls = classify(pt)
        redundant = record(prog, 0, [0.0], alpha={"g1": 1.25, "g2": 0.25})
        before = akkt_residual(prog, cls, redundant)
        trace = build_trace(prog, [record(prog, 0, [0.0], alpha={"g1": 1.25, "g2": 0.25}),
                                   record(prog, 1, [0.0], alpha={"g1": 1.25, "g2": 0.25})])
        out = recover_kkt(evaluate(prog, np.zeros(1)), trace)
        assert out.verdict == "kkt"
        thinned = record(
            prog,
            0,
            [0.0],
            alpha={"g1": float(np.trace(out.multipliers["mu"]["g1"]))},
        )
        after = akkt_residual(prog, cls, thinned)
        assert abs(after - before) <= 1e-9


@pytest.mark.parametrize(
    "name, x0",
    [
        ("soc_boundary_line", [3.0]),
        ("soc_boundary_line", [-2.0]),
        ("psd_pair_line", [0.5]),
        ("psd_pair_line", [-0.5]),
        ("scalar_pair", [1.0, 2.0]),
        ("scalar_pair", [3.0, 0.5]),
    ],
)
def test_constant_rank_cq_and_a_certified_trace_give_bounded_multipliers(name, x0):
    # the sequential argument of the paper: when rcpld or crsc holds at the
    # limit of a certified AKKT trace, the thinned multipliers stay bounded,
    # so recover must not answer with a divergence witness
    prog = loads((PROBLEMS / (name + ".txt")).read_text())
    trace, status = solve(prog, np.array(x0), log=io.StringIO())
    assert status == "converged"
    pt = evaluate(prog, trace.records[-1].x)
    cls = classify(pt)
    verdicts = {check.__name__: check(pt, cls).verdict for check in (check_robinson, check_rcpld, check_crsc)}
    assert certify_akkt(pt, trace).certified
    assert verdicts["check_rcpld"] == verdicts["check_crsc"] == "Holds"
    assert recover_kkt(pt, trace).verdict == "kkt"
    # the motivating case: multipliers exist although Robinson's CQ fails
    assert verdicts["check_robinson"] == ("Holds" if name == "scalar_pair" else "Fails")
