"""Tests for the safeguarded augmented Lagrangian solver."""

import contextlib
import io

import numpy as np
import pytest

from coneguard import alm
from coneguard.akkt import certify_akkt, dumps_trace, recover_kkt, verify_kkt
from coneguard.alm import EPS0, EPS_DECAY, EPS_FLOOR, AlmConfig, _cap_radially, _penalty_terms, inner_tolerance, solve
from coneguard.cli import REPORT_BEGIN, main, parse_report
from coneguard.errors import DomainError
from coneguard.model import evaluate, loads


def run(text, x0, **kw):
    prog = loads(text)
    cfg = AlmConfig(**kw) if kw else None
    trace, status = solve(prog, np.asarray(x0, dtype=float), cfg)
    return prog, trace, status


class TestConfig:
    def test_defaults_are_valid(self):
        cfg = AlmConfig()
        assert cfg.rho0 == 1.0
        assert cfg.gamma == 4.0

    @pytest.mark.parametrize(
        "kw",
        [
            {"rho0": 0.0},
            {"rho0": -1.0},
            {"gamma": 1.0},
            {"gamma": 0.5},
            # every field rejects what the CLI's argparse types reject
            {"rho0": float("inf")},
            {"gamma": float("nan")},
            {"cap": -1.0},
            {"outer_max": 0},
            {"inner_max": 0},
            {"tol_stat": float("nan")},
            {"tol_feas": 0.0},
        ],
    )
    def test_invalid_configs_are_rejected(self, kw):
        with pytest.raises(ValueError, match=next(iter(kw))):
            AlmConfig(**kw)

    def test_inner_tolerance_schedule(self):
        assert 0 < EPS_FLOOR < EPS0 and 0 < EPS_DECAY < 1
        assert inner_tolerance(0) == EPS0
        assert inner_tolerance(2) == EPS0 * EPS_DECAY**2
        assert inner_tolerance(50) == EPS_FLOOR
        assert [inner_tolerance(k) for k in range(4)] == [0.1, 0.05, 0.025, 0.0125]

    def test_wrong_start_dimension_is_rejected(self):
        prog = loads("vars 2\nobjective x1 + x2\n")
        with pytest.raises(ValueError):
            solve(prog, np.zeros(3))


class TestLineSearch:
    def test_step_halves_outside_a_domain(self, monkeypatch):
        # the first trial steps from x1 = 2 land at x1 <= 0, outside log's domain
        misses = []

        def counting(prog, x):
            try:
                return evaluate(prog, x)
            except DomainError:
                misses.append(float(x[0]))
                raise

        monkeypatch.setattr(alm, "evaluate", counting)
        prog, trace, status = run("vars 1\nobjective x1^2 - log(x1)\n", [2.0])
        assert status == "converged"
        assert misses and all(x <= 0.0 for x in misses)
        assert trace.records[-1].x == pytest.approx([np.sqrt(0.5)], abs=1e-7)

    def test_step_halves_when_a_trial_point_overflows(self, monkeypatch):
        # the penalty terms at the first trial point raise as np.errstate(over="raise")
        # makes an overflow raise; the step halves as it does outside a domain
        points = []

        def overflowing_once(pt, *args):
            points.append(float(pt.x[0]))
            if len(points) == 2:
                raise FloatingPointError("overflow encountered in multiply")
            return _penalty_terms(pt, *args)

        monkeypatch.setattr(alm, "_penalty_terms", overflowing_once)
        prog, trace, status = run("vars 1\nobjective (x1 - 1)^2\n", [3.0])
        assert status == "converged"
        assert points[:3] == [3.0, -1.0, 1.0]  # start, the raising trial at t = 1, then t = 1/2
        assert trace.records[-1].x == pytest.approx([1.0], abs=1e-7)


class TestStatuses:
    def test_boundary_quadratic_converges(self):
        prog, trace, status = run(
            "vars 1\nobjective (x1 - 1) * (x1 - 1)\nsoc g 2\nx1\nx1\n", [3.0]
        )
        assert status == "converged"
        assert trace.records[-1].x == pytest.approx([1.0], abs=1e-7)
        out = certify_akkt(evaluate(prog, trace.records[-1].x), trace)
        assert out.certified

    def test_nonnegative_pair_converges_with_unit_multipliers(self):
        prog, trace, status = run(
            "vars 2\nobjective x1 + x2\npsd a 1\nx1\npsd b 1\nx2\n", [2.0, 1.0]
        )
        assert status == "converged"
        last = trace.records[-1]
        assert last.x == pytest.approx([0.0, 0.0], abs=1e-7)
        assert last.alpha["a"] == pytest.approx(1.0, abs=1e-6)
        assert last.alpha["b"] == pytest.approx(1.0, abs=1e-6)
        assert certify_akkt(evaluate(prog, last.x), trace).certified
        rec = recover_kkt(evaluate(prog, last.x), trace)
        assert rec.verdict == "kkt"
        pt = evaluate(prog, last.x)
        ok, _ = verify_kkt(pt, rec.multipliers["lambda"], rec.multipliers["mu"], 1e-5)
        assert ok

    def test_vertex_minimum_converges_with_cone_multiplier(self):
        prog, trace, status = run(
            "vars 2\nobjective x1\nsoc g 2\nx1\nx2\n", [2.0, 0.5]
        )
        assert status == "converged"
        last = trace.records[-1]
        assert last.x == pytest.approx([0.0, 0.0], abs=1e-7)
        assert last.mu["g"] == pytest.approx([1.0, 0.0], abs=1e-6)
        assert certify_akkt(evaluate(prog, last.x), trace).certified

    def test_equality_multiplier_converges_and_recovers(self):
        prog, trace, status = run("vars 1\nobjective x1\neq h x1 - 1\n", [0.0])
        assert status == "converged"
        last = trace.records[-1]
        assert last.x == pytest.approx([1.0], abs=1e-8)
        assert last.lam == pytest.approx([-1.0], abs=1e-6)
        rec = recover_kkt(evaluate(prog, last.x), trace)
        assert rec.verdict == "kkt"
        assert rec.multipliers["lambda"] == pytest.approx([-1.0], abs=1e-5)

    def test_coercivity_failure_is_reported_unbounded(self):
        _, trace, status = run("vars 1\nobjective 0 - x1 ^ 3\n", [10.0])
        assert status == "unbounded"
        assert len(trace) >= 1

    def test_outer_budget_exhaustion_is_reported(self):
        _, _, status = run("vars 1\nobjective (x1 - 1) ^ 4\n", [1.9], outer_max=1)
        assert status == "iteration-limit"

    def test_inner_budget_exhaustion_is_reported_stalled(self):
        _, trace, status = run("vars 1\nobjective (x1 - 1) ^ 4\n", [1.9], inner_max=1)
        assert status == "stalled"
        # the partial step was still recorded
        assert trace.records[-1].x[0] != pytest.approx(1.9)

    def test_line_search_exhaustion_is_reported_stalled(self):
        # at 1e17 every step of length at most 1 rounds back to x, so no step
        # decreases x1 - 1e17: the halvings run out, not the inner iterations
        prog = loads("vars 1\nobjective x1 - 1e17\n")
        pt = evaluate(prog, np.array([1e17]))
        out = alm._inner_minimize(prog, pt, np.zeros(0), [], 1.0, inner_tolerance(0), 5000)
        assert out[0] is pt
        assert out[-1] == "stalled"

    def test_non_finite_start_is_rejected_before_the_first_outer_iteration(self, capsys):
        # no expression reads x2, so only evaluate's point check can see it
        prog = loads("vars 2\nobjective (x1 - 1)^2\nsoc g 2\nx1\nx1\n")
        with pytest.raises(DomainError, match="point has a non-finite entry"):
            solve(prog, np.array([0.5, np.nan]))
        assert "outer" not in capsys.readouterr().err

    def test_clamped_multiplier_cannot_close_the_gap(self):
        # the true multiplier is -1; a safeguard cap at 0.5 keeps the
        # equality residual bounded away from zero
        _, trace, status = run(
            "vars 1\nobjective x1\neq h x1 - 1\n", [0.0], cap=0.5, outer_max=10
        )
        assert status == "iteration-limit"
        assert abs(trace.records[-1].x[0] - 1.0) > 1e-8


class TestTraceForm:
    def test_indices_and_shapes(self):
        prog, trace, _ = run(
            "vars 2\nobjective x1 + x2\npsd a 1\nx1\npsd b 1\nx2\n", [2.0, 1.0]
        )
        ks = [rec.k for rec in trace.records]
        assert ks == list(range(len(trace)))
        for rec in trace.records:
            assert rec.x.shape == (prog.n,)
            assert rec.lam.shape == (prog.p,)

    def test_starting_point_is_recorded_first(self):
        _, trace, _ = run(
            "vars 1\nobjective (x1 - 1) * (x1 - 1)\nsoc g 2\nx1\nx1\n", [3.0]
        )
        assert trace.records[0].x == pytest.approx([3.0])

    def test_solver_is_deterministic(self):
        text = "vars 2\nobjective x1 + x2\npsd a 1\nx1\npsd b 1\nx2\n"
        _, t1, s1 = run(text, [2.0, 1.0])
        _, t2, s2 = run(text, [2.0, 1.0])
        assert s1 == s2
        assert dumps_trace(t1) == dumps_trace(t2)

    def test_log_reports_outer_progress(self, capsys):
        prog = loads("vars 1\nobjective x1\neq h x1 - 1\n")
        solve(prog, np.zeros(1))
        lines = [ln for ln in capsys.readouterr().err.splitlines() if ln]
        assert lines[0].startswith("outer 0:")
        assert all("rho=" in ln and "feas=" in ln for ln in lines)


class TestPenaltyGradient:
    PROGRAMS = (
        "vars 1\nobjective (x1 - 1) * (x1 - 1)\nsoc g 2\nx1\nx1\n",
        "vars 2\nobjective x1 + x2\nsoc G 2\nx1\nx2\npsd P 2\nx1\n0\nx2 + 1\n",
        "vars 2\nobjective x1 ^ 2 + x2\neq h x1 + x2 - 1\npsd a 1\nx1\n",
    )

    @staticmethod
    def _near_kink(pt, mu_hats, rho):
        for j, blk in enumerate(pt.program.blocks):
            bv = pt.blocks[j]
            if blk.kind == "soc":
                z = mu_hats[j] - rho * bv.value
                scale = max(1.0, float(np.linalg.norm(z)))
                if abs(float(np.linalg.norm(z[1:])) - z[0]) <= 1e-3 * scale:
                    return True
                if float(np.linalg.norm(z)) <= 1e-3:
                    return True
            else:
                z = mu_hats[j] - rho * bv.value
                scale = max(1.0, float(np.linalg.norm(z)))
                if np.min(np.abs(np.linalg.eigvalsh(z))) <= 1e-3 * scale:
                    return True
        return False

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(11)
        checked = 0
        for text in self.PROGRAMS:
            prog = loads(text)
            for _ in range(60):
                x = rng.uniform(-1.5, 1.5, size=prog.n)
                lam = rng.uniform(-2.0, 2.0, size=prog.p)
                mus = []
                for blk in prog.blocks:
                    if blk.kind == "soc":
                        mus.append(rng.uniform(-2.0, 2.0, size=blk.dim))
                    else:
                        a = rng.uniform(-2.0, 2.0, size=(blk.dim, blk.dim))
                        mus.append(0.5 * (a + a.T))
                rho = float(rng.choice([0.5, 2.0]))
                pt = evaluate(prog, x)
                if self._near_kink(pt, mus, rho):
                    continue
                _, grad, _ = _penalty_terms(pt, lam, mus, rho)
                h = 1e-6
                fd = np.zeros(prog.n)
                for i in range(prog.n):
                    e = np.zeros(prog.n)
                    e[i] = h
                    up = _penalty_terms(evaluate(prog, x + e), lam, mus, rho)[0]
                    dn = _penalty_terms(evaluate(prog, x - e), lam, mus, rho)[0]
                    fd[i] = (up - dn) / (2.0 * h)
                err = float(np.max(np.abs(fd - grad)))
                assert err <= 1e-5 * max(1.0, float(np.max(np.abs(grad))))
                checked += 1
        assert checked >= 100

    def test_projections_match_multiplier_update(self):
        # the projections returned at acceptance are exactly the next
        # multiplier estimates mu_hat - rho g projected onto the cone
        prog = loads("vars 2\nobjective x1\nsoc g 2\nx1\nx2\n")
        pt = evaluate(prog, np.array([0.3, -0.1]))
        mu = np.array([1.0, 0.4])
        _, _, projections = _penalty_terms(pt, np.zeros(0), [mu], 2.0)
        z = mu - 2.0 * pt.blocks[0].value
        z0, tail = z[0], np.linalg.norm(z[1:])
        if z0 >= tail:
            expect = z
        elif z0 <= -tail:
            expect = np.zeros_like(z)
        else:
            t = 0.5 * (z0 + tail)
            expect = np.concatenate([[t], t * z[1:] / tail])
        assert projections[0] == pytest.approx(expect, abs=1e-14)


def test_verifier_stationarity_equals_the_solver_stat(monkeypatch):
    # the solver's stat is the norm of its penalty gradient; the verifier,
    # given lam_hat + rho h and the iterate's projections, computes the same
    # Lagrangian gradient and so the same float at every outer iterate
    inner, outer = alm._inner_minimize, []

    def spy(prog, pt, lam_hat, mu_hats, rho, eps, inner_max):
        out = inner(prog, pt, lam_hat, mu_hats, rho, eps, inner_max)
        outer.append((out, lam_hat, rho))
        return out

    monkeypatch.setattr(alm, "_inner_minimize", spy)
    prog = loads(
        "vars 3\nobjective x1 + x2 + x3 ^ 2\neq h x3 - 0.5 * x1\n"
        "soc G 3\n1\nx1\nx2\npsd P 2\nx1 + 1\nx3\n1\n"
    )
    log = io.StringIO()
    with contextlib.redirect_stderr(log):
        solve(prog, np.array([-3.0, 2.0, 1.0]), AlmConfig(outer_max=6, inner_max=30))
    lines = log.getvalue().splitlines()
    assert len(outer) == len(lines) >= 2
    names = [blk.name for blk in prog.blocks]
    for ((pt, _, grad, projections, _), lam_hat, rho), line in zip(outer, lines):
        _, detail = verify_kkt(pt, lam_hat + rho * pt.h, dict(zip(names, projections)), 1e-8)
        assert detail["stationarity"] == float(np.linalg.norm(grad))
        assert " stat=%.3g " % detail["stationarity"] in line


class TestSafeguard:
    def test_capped_psd_multiplier_stays_psd(self):
        mu = np.array([[3.0, 2.0], [2.0, 1.5]])
        assert np.linalg.det(np.clip(mu, -2.0, 2.0)) == pytest.approx(-1.0)
        capped = _cap_radially(mu, 2.0)
        assert np.linalg.norm(capped) == pytest.approx(2.0)
        assert np.min(np.linalg.eigvalsh(capped)) >= 0.0
        assert _cap_radially(mu, 10.0) is mu

    def test_capped_soc_multiplier_stays_in_the_cone(self):
        capped = _cap_radially(np.array([6.0, 3.0, -4.0]), 2.0)
        assert capped[0] >= np.linalg.norm(capped[1:])


# the capped final iterate sits just outside the cone, where the boundary
# test of classify_soc sees sqrt(2) times the residual
OUTSIDE_SOC = """vars 2
objective (x1 - 0.19132401064736168)^2 + (x2 - -2.99389297119149)^2
soc s1 3
1.0 + -0.030428320778559136 * x1 + 0.16006868841418953 * x2
0.0 + 0.10184769460218464 * x1 + 0.26440294067504755 * x2
0.0 + -0.8785364472383538 * x1 + 1.3967670545580937 * x2
"""


def test_capped_iterate_just_outside_an_soc_still_reports(tmp_path, capsys):
    problem, trace = tmp_path / "outside.txt", tmp_path / "outside.trace"
    problem.write_text(OUTSIDE_SOC)
    argv = ["solve", "--problem", str(problem), "--x0", "0,0", "--trace", str(trace),
            "--outer-max", "5", "--inner-max", "30"]
    assert main(argv) == 3
    out = capsys.readouterr().out
    assert REPORT_BEGIN in out
    assert ("status", "iteration-limit") in [tuple(r) for r in parse_report(out)]
    assert trace.read_text().strip()
