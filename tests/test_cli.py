"""End-to-end tests for the command-line interface."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from coneguard.akkt import build_trace, dumps_trace, AkktRecord
from coneguard.cli import (
    EXIT_INFEASIBLE,
    EXIT_NEGATIVE,
    EXIT_OK,
    EXIT_UNDECIDED,
    EXIT_USAGE,
    REPORT_BEGIN,
    REPORT_END,
    main,
    Report,
    parse_report,
)
from coneguard.errors import BudgetExhaustedError
from coneguard.model import dumps, loads

ROOT = Path(__file__).resolve().parents[1]
SRC = str(ROOT / "src")
PROBLEMS = ROOT / "problems"

BOUNDARY = "vars 1\nobjective (x1 - 1) * (x1 - 1)\nsoc g 2\nx1\nx1\n"
PAIR = "vars 2\nobjective x1 + x2\npsd a 1\nx1\npsd b 1\nx2\n"
KERNEL = (
    "vars 1\nobjective x1\n"
    "psd g1 2\n0.5 * x1 + 0.5\n0.5 * x1 - 0.5\n0.5 * x1 + 0.5\n"
    "psd g2 2\n0.5 - 0.5 * x1\n0 - 0.5 * x1 - 0.5\n0.5 - 0.5 * x1\n"
)
CUBIC = "vars 1\nobjective 0 - x1 ^ 3\n"
QUARTIC = "vars 1\nobjective (x1 - 1) ^ 4\n"
VERTEX = "vars 1\nobjective x1\nsoc G 2\nx1\nx1\n"


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    d = tmp_path_factory.mktemp("cli")
    paths = {}
    for name, text in [
        ("boundary", BOUNDARY),
        ("pair", PAIR),
        ("kernel", KERNEL),
        ("cubic", CUBIC),
        ("quartic", QUARTIC),
        ("vertex", VERTEX),
    ]:
        p = d / (name + ".txt")
        p.write_text(text)
        paths[name] = str(p)
    paths["dir"] = d
    return paths


def run(argv, capsys):
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    out, err = capsys.readouterr()
    return code, out, err


def rows(out, *head):
    return [r for r in parse_report(out) if r[: len(head)] == head]


def row(out, *head):
    found = rows(out, *head)
    assert len(found) == 1, (head, found)
    return found[0]


class TestUsage:
    def test_no_subcommand_prints_usage(self, capsys):
        code, _, err = run([], capsys)
        assert code == EXIT_USAGE
        assert "usage:" in err

    def test_unknown_subcommand(self, capsys):
        code, _, err = run(["frobnicate"], capsys)
        assert code == EXIT_USAGE

    def test_missing_required_flag(self, files, capsys):
        code, _, _ = run(["classify", "--problem", files["boundary"]], capsys)
        assert code == EXIT_USAGE

    def test_missing_problem_file(self, files, capsys):
        code, _, err = run(
            ["classify", "--problem", str(files["dir"] / "nope.txt"), "--point", "1"],
            capsys,
        )
        assert code == EXIT_USAGE
        assert err.startswith("error:")

    def test_malformed_problem_file(self, files, capsys):
        bad = files["dir"] / "bad.txt"
        bad.write_text("vars 1\nobjective x1 +\n")
        code, _, err = run(["classify", "--problem", str(bad), "--point", "1"], capsys)
        assert code == EXIT_USAGE

    def test_point_arity_mismatch(self, files, capsys):
        code, _, err = run(
            ["classify", "--problem", files["boundary"], "--point", "1, 2"], capsys
        )
        assert code == EXIT_USAGE
        assert "expects 1" in err

    def test_point_must_be_numeric(self, files, capsys):
        code, _, _ = run(
            ["classify", "--problem", files["boundary"], "--point", "one"], capsys
        )
        assert code == EXIT_USAGE

    def test_invalid_seed_override(self, files, capsys, monkeypatch):
        monkeypatch.setenv("CONEGUARD_SEED", "soon")
        code, _, err = run(
            ["check", "--problem", files["pair"], "--point", "0,0", "--cq", "rcpld"],
            capsys,
        )
        assert code == EXIT_USAGE
        assert "CONEGUARD_SEED" in err


class TestClassify:
    def test_boundary_point(self, files, capsys):
        code, out, _ = run(
            ["classify", "--problem", files["boundary"], "--point", "1.0"], capsys
        )
        assert code == EXIT_OK
        assert row(out, "status") == ("status", "feasible")
        assert row(out, "block", "g") == ("block", "g", "soc", "2", "boundary")
        assert row(out, "set", "reduced") == ("set", "reduced", "g")
        assert row(out, "set", "conic") == ("set", "conic")

    def test_infeasible_point_reports_distances(self, files, capsys):
        code, out, _ = run(
            ["classify", "--problem", files["boundary"], "--point", "-1.0"], capsys
        )
        assert code == EXIT_INFEASIBLE
        assert row(out, "status") == ("status", "infeasible")
        dist = row(out, "distance", "g")
        assert float(dist[2]) == pytest.approx(np.sqrt(2.0), rel=1e-12)

    def test_report_round_trips(self, files, capsys):
        _, out, _ = run(
            ["classify", "--problem", files["kernel"], "--point", "0"], capsys
        )
        rep = Report()
        rep.lines = parse_report(out)
        assert rep.render() in out

    def test_fenced_section_is_reproducible(self, files, capsys):
        args = ["classify", "--problem", files["kernel"], "--point", "0"]
        _, out1, _ = run(args, capsys)
        _, out2, _ = run(args, capsys)
        assert parse_report(out1) == parse_report(out2)
        # the timing line sits outside the fenced section
        assert "elapsed" in out1
        assert all(r[0] != "elapsed" for r in parse_report(out1))


class TestCheck:
    def test_failing_check_exits_nonzero(self, files, capsys):
        code, out, _ = run(
            [
                "check", "--problem", files["boundary"], "--point", "1",
                "--cq", "robinson",
            ],
            capsys,
        )
        assert code == EXIT_NEGATIVE
        assert row(out, "verdict") == ("verdict", "robinson", "Fails")
        wit = row(out, "witness", "robinson", "alpha", "g")
        assert float(wit[4]) == pytest.approx(1.0, abs=1e-6)

    def test_holding_check_exits_zero(self, files, capsys):
        code, out, _ = run(
            ["check", "--problem", files["boundary"], "--point", "1", "--cq", "rcpld"],
            capsys,
        )
        assert code == EXIT_OK
        assert row(out, "verdict") == ("verdict", "rcpld", "Holds")

    def test_all_checks_in_order(self, files, capsys):
        code, out, _ = run(
            ["check", "--problem", files["pair"], "--point", "0,0", "--cq", "all"],
            capsys,
        )
        assert code == EXIT_OK
        verdicts = rows(out, "verdict")
        assert [v[1] for v in verdicts] == ["nondegeneracy", "robinson", "rcpld", "crsc"]
        assert all(v[2] == "Holds" for v in verdicts)

    def test_subset_cap_yields_undecided_exit(self, files, capsys):
        code, out, _ = run(
            [
                "check", "--problem", files["kernel"], "--point", "0",
                "--cq", "rcpld", "--subset-cap", "2",
            ],
            capsys,
        )
        assert code == EXIT_UNDECIDED
        assert row(out, "verdict") == ("verdict", "rcpld", "Undecided")
        assert row(out, "detail", "rcpld", "reason") == (
            "detail", "rcpld", "reason", "subset", "enumeration", "exceeds", "cap",
        )

    def test_environment_seed_override(self, files, capsys, monkeypatch):
        monkeypatch.setenv("CONEGUARD_SEED", "7")
        _, out, _ = run(
            ["check", "--problem", files["pair"], "--point", "0,0", "--cq", "rcpld"],
            capsys,
        )
        assert row(out, "seed") == ("seed", "7")
        assert row(out, "detail", "rcpld", "seed") == ("detail", "rcpld", "seed", "7")

    def test_check_is_deterministic(self, files, capsys):
        args = ["check", "--problem", files["kernel"], "--point", "0", "--cq", "all"]
        _, out1, _ = run(args, capsys)
        _, out2, _ = run(args, capsys)
        assert parse_report(out1) == parse_report(out2)


class TestSolveCertifyRecover:
    def test_pipeline_on_nonnegative_pair(self, files, capsys, tmp_path):
        trace = str(tmp_path / "pair.trace")
        code, out, _ = run(
            ["solve", "--problem", files["pair"], "--x0", "2,1", "--trace", trace],
            capsys,
        )
        assert code == EXIT_OK
        assert row(out, "status") == ("status", "converged")
        final = [float(t) for t in row(out, "final-x")[1:]]
        assert final == pytest.approx([0.0, 0.0], abs=1e-7)
        point = "%r,%r" % (final[0], final[1])

        code, out, _ = run(
            [
                "certify", "--problem", files["pair"], "--point", point,
                "--trace", trace,
            ],
            capsys,
        )
        assert code == EXIT_OK
        assert row(out, "certified") == ("certified", "yes")

        code, out, _ = run(
            [
                "recover", "--problem", files["pair"], "--point", point,
                "--trace", trace,
            ],
            capsys,
        )
        assert code == EXIT_OK
        assert row(out, "recovery") == ("recovery", "KKT")
        assert float(row(out, "mu", "a")[2]) == pytest.approx(1.0, abs=1e-5)
        assert float(row(out, "mu", "b")[2]) == pytest.approx(1.0, abs=1e-5)

    def test_unbounded_descent_exit(self, files, capsys, tmp_path):
        trace = str(tmp_path / "cubic.trace")
        code, out, _ = run(
            ["solve", "--problem", files["cubic"], "--x0", "10", "--trace", trace],
            capsys,
        )
        assert code == EXIT_NEGATIVE
        assert row(out, "status") == ("status", "unbounded")

    def test_iteration_limit_exit(self, files, capsys, tmp_path):
        trace = str(tmp_path / "quartic.trace")
        code, out, _ = run(
            [
                "solve", "--problem", files["quartic"], "--x0", "1.9",
                "--trace", trace, "--outer-max", "1",
            ],
            capsys,
        )
        assert code == EXIT_UNDECIDED
        assert row(out, "status") == ("status", "iteration-limit")

    def test_certify_against_wrong_point(self, files, capsys, tmp_path):
        trace = str(tmp_path / "boundary.trace")
        run(
            ["solve", "--problem", files["boundary"], "--x0", "3", "--trace", trace],
            capsys,
        )
        code, out, _ = run(
            [
                "certify", "--problem", files["boundary"], "--point", "0.5",
                "--trace", trace,
            ],
            capsys,
        )
        assert code == EXIT_NEGATIVE
        assert row(out, "certified") == ("certified", "no")
        assert row(out, "reason") == (
            "reason", "iterates", "do", "not", "reach", "the", "reference", "point",
        )

    def test_recover_divergence_witness(self, files, capsys, tmp_path):
        prog = loads(VERTEX)
        records = []
        for k in range(10):
            t = 10.0**k
            records.append(
                AkktRecord(
                    k,
                    np.zeros(1),
                    np.zeros(0),
                    {"G": np.array([t + 0.5, 0.5 - t])},
                    {},
                )
            )
        path = tmp_path / "diverge.trace"
        path.write_text(dumps_trace(build_trace(prog, records)))
        code, out, _ = run(
            [
                "recover", "--problem", files["vertex"], "--point", "0",
                "--trace", str(path),
            ],
            capsys,
        )
        assert code == EXIT_NEGATIVE
        assert row(out, "recovery") == ("recovery", "UnboundedWitness")
        assert len(row(out, "m-values")) == 1 + 5
        wit = row(out, "witness", "recover", "mu", "G")
        vals = [float(t) for t in wit[4:]]
        assert vals[0] + vals[1] == pytest.approx(0.0, abs=1e-8)

    def test_recover_empty_trace_is_inconclusive(self, files, capsys, tmp_path):
        path = tmp_path / "empty.trace"
        path.write_text("# no records\n")
        code, out, _ = run(
            [
                "recover", "--problem", files["vertex"], "--point", "0",
                "--trace", str(path),
            ],
            capsys,
        )
        assert code == EXIT_UNDECIDED
        assert row(out, "recovery") == ("recovery", "Inconclusive")
        assert row(out, "detail", "recover", "reason") == (
            "detail", "recover", "reason", "empty", "trace",
        )

    def test_malformed_trace_file(self, files, capsys, tmp_path):
        path = tmp_path / "garbled.trace"
        path.write_text("x 0.0\n")
        code, _, err = run(
            [
                "certify", "--problem", files["vertex"], "--point", "0",
                "--trace", str(path),
            ],
            capsys,
        )
        assert code == EXIT_USAGE
        assert "line" in err

    def test_missing_trace_file(self, files, capsys, tmp_path):
        code, _, _ = run(
            [
                "certify", "--problem", files["vertex"], "--point", "0",
                "--trace", str(tmp_path / "nope.trace"),
            ],
            capsys,
        )
        assert code == EXIT_USAGE


class TestEmbedDiag:
    def test_merges_psd_blocks(self, files, capsys, tmp_path):
        out_path = str(tmp_path / "merged.txt")
        code, out, _ = run(
            ["embed-diag", "--problem", files["pair"], "--out", out_path], capsys
        )
        assert code == EXIT_OK
        assert row(out, "blocks-merged") == ("blocks-merged", "2")
        assert row(out, "dim") == ("dim", "2")
        with open(out_path, "r", encoding="utf-8") as fh:
            merged = loads(fh.read())
        assert len(merged.blocks) == 1
        assert merged.blocks[0].dim == 2

    def test_soc_blocks_cannot_be_merged(self, files, capsys, tmp_path):
        code, _, err = run(
            [
                "embed-diag", "--problem", files["boundary"],
                "--out", str(tmp_path / "x.txt"),
            ],
            capsys,
        )
        assert code == EXIT_USAGE
        assert "soc" in err


class TestHostileInput:
    def _write(self, tmp_path, text):
        path = tmp_path / "hostile.txt"
        path.write_text(text)
        return str(path)

    def test_long_sum_classifies_and_round_trips(self, tmp_path, capsys):
        text = "vars 1\nobjective %s\nsoc g 2\nx1\nx1\n" % " + ".join(["x1"] * 3000)
        code, out, _ = run(["classify", "--problem", self._write(tmp_path, text), "--point", "1.0"], capsys)
        assert code == EXIT_OK
        assert row(out, "status") == ("status", "feasible")
        assert dumps(loads(text)) == text

    def test_deep_parentheses_are_a_format_error(self, tmp_path, capsys):
        text = "vars 1\nobjective %sx1%s\n" % ("(" * 1200, ")" * 1200)
        code, _, err = run(["classify", "--problem", self._write(tmp_path, text), "--point", "1.0"], capsys)
        assert code == EXIT_USAGE
        assert "nesting deeper than" in err

    def test_overflowing_entry_is_not_feasible(self, tmp_path, capsys):
        text = "vars 1\nobjective x1\nsoc g 2\n1e200 * 1e200\nx1\n"
        code, out, err = run(["classify", "--problem", self._write(tmp_path, text), "--point", "0"], capsys)
        assert code == EXIT_USAGE
        assert "non-finite" in err
        assert "feasible" not in out


class TestInternalFailures:
    def test_budget_exhaustion_is_undecided(self, files, capsys, monkeypatch):
        def exhausted(*args, **kwargs):
            raise BudgetExhaustedError("nnls iteration budget exhausted", 1.0)

        monkeypatch.setattr("coneguard.cqchecks.cone_membership", exhausted)
        code, _, err = run(
            ["check", "--problem", files["pair"], "--point", "0,0", "--cq", "crsc"], capsys
        )
        assert code == EXIT_UNDECIDED
        assert err.startswith("error: nnls iteration budget exhausted")

    def test_eigensolver_failure_is_undecided(self, files, capsys, monkeypatch):
        def diverged(*args, **kwargs):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr("coneguard.model.eig_sym", diverged)
        code, _, err = run(["classify", "--problem", files["kernel"], "--point", "0"], capsys)
        assert code == EXIT_UNDECIDED
        assert err == "error: Eigenvalues did not converge\n"
        assert "Traceback" not in err


def _fenced_under_threads(threads, argv):
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads), OMP_NUM_THREADS=str(threads))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-m", "coneguard.cli", *argv], env=env, capture_output=True, text=True, check=False
    )
    return done.returncode, done.stdout[done.stdout.index(REPORT_BEGIN) : done.stdout.index(REPORT_END)]


def test_check_report_ignores_blas_thread_count():
    argv = ["check", "--problem", str(PROBLEMS / "psd_pair_line.txt"), "--point", "0", "--cq", "all"]
    assert _fenced_under_threads(1, argv) == _fenced_under_threads(4, argv)


def test_solve_report_and_trace_ignore_blas_thread_count(tmp_path):
    argv = ["solve", "--problem", str(PROBLEMS / "soc_boundary_line.txt"), "--x0", "3", "--trace"]
    one = _fenced_under_threads(1, argv + [str(tmp_path / "one.trace")])
    four = _fenced_under_threads(4, argv + [str(tmp_path / "four.trace")])
    assert one == four
    assert (tmp_path / "one.trace").read_bytes() == (tmp_path / "four.trace").read_bytes()
