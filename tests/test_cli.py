"""End-to-end tests for the command-line interface."""

import argparse
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from coneguard import cli, cqchecks
from coneguard.akkt import build_trace, dumps_trace, AkktRecord
from coneguard.alm import AlmConfig
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
from coneguard.classify import classify
from coneguard.cqchecks import check_rcpld, check_robinson
from coneguard.errors import BudgetExhaustedError, ReconstructionError
from coneguard.model import dumps, evaluate, loads

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
# x2 >= 0 and x1^2 - x2 >= 0: at the origin the gradients (0, 1) and (0, -1)
# are dependent, and near it they are independent (constant positive
# linear dependence fails)
CPLD = "vars 2\nobjective x1\nsoc a 1\nx2\nsoc b 1\nx1 * x1 - x2\n"
LOG = "vars 1\nobjective log(x1)\n"
# two equality gradients, (1, 0) and (1, 1e-10): independent at --tol-rank
# 1e-12, dependent at the default
NEAR_PARALLEL = "vars 2\nobjective x1\neq h1 x1\neq h2 x1 + 1e-10 * x2\npsd a 1\nx2\n"
# four linear 1x1 blocks, a and b nearly opposite c and d: every subset is
# independent, and one margin step decides each proper subset but not the
# full set
FOUR_LINES = (
    "vars 2\nobjective x1\n"
    "psd a 1\n-0.539 * x1 + 0.842 * x2\npsd b 1\n-0.53 * x1 + 0.848 * x2\n"
    "psd c 1\n0.591 * x1 + -0.809 * x2\npsd d 1\n0.551 * x1 + -0.835 * x2\n"
)
CIRCLE = "vars 1\nobjective x1\neq h x1^2 - 1\n"
LOG_SOC = "vars 1\nobjective log(x1)\nsoc g 2\nx1\nx1\n"
# x1 >= 0, -x1 >= 0 and a redundant x1 >= 0 as 1x1 semidefinite blocks: at
# the origin the opposite rays break Robinson's CQ, and the constant-rank
# conditions still hold
OPPOSITE = "vars 1\nobjective x1\npsd a 1\nx1\npsd b 1\n-x1\npsd c 1\nx1\n"


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
        ("cpld", CPLD),
        ("log", LOG),
        ("near_parallel", NEAR_PARALLEL),
        ("four_lines", FOUR_LINES),
        ("circle", CIRCLE),
        ("log_soc", LOG_SOC),
        ("opposite", OPPOSITE),
    ]:
        p = d / (name + ".txt")
        p.write_text(text)
        paths[name] = str(p)
    paths["psd_pair"] = str(PROBLEMS / "psd_pair_line.txt")
    paths["scalar_pair"] = str(PROBLEMS / "scalar_pair.txt")
    paths["soc_line"] = str(PROBLEMS / "soc_boundary_line.txt")
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

    def test_block_named_like_an_equality(self, files, capsys):
        bad = files["dir"] / "shared.txt"
        bad.write_text("vars 2\nobjective x1\neq a x2\npsd a 1\nx1\npsd b 1\n-x1\nsoc s 2\nx1\nx2\n")
        code, out, err = run(["check", "--problem", str(bad), "--point", "0,0", "--cq", "crsc"], capsys)
        assert code == EXIT_USAGE
        assert out == ""
        assert "block name 'a' is an equality's name" in err

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

    @pytest.mark.parametrize("value", ["-1e-3", "-.001", "-0.001"])
    def test_point_may_start_with_a_minus_sign(self, capsys, value):
        problem = str(PROBLEMS / "soc_boundary_line.txt")
        code, out, err = run(["classify", "--problem", problem, "--point", value], capsys)
        assert code == EXIT_INFEASIBLE, err
        assert row(out, "point") == ("point", "-0.001")

    @pytest.mark.parametrize("value", ["-0.5,1", "-5e-1,1", "-0.5 1"])
    def test_x0_may_start_with_a_minus_sign(self, capsys, tmp_path, value):
        problem = str(PROBLEMS / "scalar_pair.txt")
        code, out, err = run(
            ["solve", "--problem", problem, "--x0", value, "--trace", str(tmp_path / "T")], capsys
        )
        assert code == EXIT_OK, err
        assert row(out, "x0") == ("x0", "-0.5", "1")

    @pytest.mark.parametrize(
        "value, message",
        [("-1x", "--point must be a comma- or space-separated list of numbers"),
         ("-x", "argument --point: expected one argument")],
    )
    def test_non_numeric_point_with_a_minus_sign_is_rejected(self, capsys, value, message):
        problem = str(PROBLEMS / "soc_boundary_line.txt")
        code, _, err = run(["classify", "--problem", problem, "--point", value], capsys)
        assert code == EXIT_USAGE
        assert message in err

    @pytest.mark.parametrize(
        "argv, flag",
        [(["classify", "--point", "1,nan"], "--point"),
         (["check", "--cq", "all", "--point", "1,inf"], "--point"),
         (["certify", "--point", "-inf 0", "--trace", "T"], "--point"),
         (["solve", "--x0", "0.5,nan", "--trace", "T"], "--x0")],
    )
    def test_non_finite_vector_is_a_usage_error(self, capsys, tmp_path, argv, flag):
        problem = tmp_path / "P"
        problem.write_text("vars 2\nobjective (x1 - 1)^2\nsoc g 2\nx1\nx1\n")
        (tmp_path / "T").write_text("k 0\nx 1 0\nk 1\nx 1 0\n")
        argv = [str(tmp_path / a) if a == "T" else a for a in argv]
        code, out, err = run(argv[:1] + ["--problem", str(problem)] + argv[1:], capsys)
        assert code == EXIT_USAGE
        assert out == ""
        assert "%s has a non-finite entry" % flag in err
        assert (tmp_path / "T").read_text() == "k 0\nx 1 0\nk 1\nx 1 0\n"  # solve wrote no trace

    @pytest.mark.parametrize(
        "problem, argv, env",
        [("soc_line", ["classify", "--point", "1_0"], None),
         ("soc_line", ["classify", "--point", "\u0663"], None),
         ("scalar_pair", ["solve", "--x0", "1_0,0", "--trace", "T"], None),
         ("soc_line", ["check", "--cq", "rcpld", "--point", "1", "--radius", "1_0"], None),
         ("soc_line", ["check", "--cq", "rcpld", "--point", "1", "--samples", "\u0663"], None),
         ("soc_line", ["check", "--cq", "rcpld", "--point", "1"], "1_0")],
    )
    def test_numbers_are_ascii_literals_as_in_problem_files(
        self, files, capsys, monkeypatch, tmp_path, problem, argv, env
    ):
        if env is not None:
            monkeypatch.setenv("CONEGUARD_SEED", env)
        argv = [str(tmp_path / a) if a == "T" else a for a in argv]
        code, out, err = run(argv[:1] + ["--problem", files[problem]] + argv[1:], capsys)
        assert code == EXIT_USAGE, err
        assert REPORT_BEGIN not in out
        assert not (tmp_path / "T").exists()

    @pytest.mark.parametrize("value", ["+1", "-5e-1", "1e0", ".5", "5."])
    def test_signed_and_shortened_literals_are_numbers(self, capsys, value):
        problem = str(PROBLEMS / "soc_boundary_line.txt")
        code, out, err = run(["classify", "--problem", problem, "--point=" + value], capsys)
        assert code != EXIT_USAGE, err
        assert row(out, "point") == ("point", "%.17g" % float(value))

    def test_parser_is_built_once_per_process(self, files, capsys, monkeypatch, tmp_path):
        cli.build_parser.cache_clear()
        built = []
        init = argparse.ArgumentParser.__init__

        def counting_init(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
        assert run(["classify", "--problem", files["boundary"], "--point", "1"], capsys)[0] == EXIT_OK
        assert run(["check", "--problem", files["pair"], "--point", "0,0", "--cq", "robinson"], capsys)[0] == EXIT_OK
        out = str(tmp_path / "embedded.txt")
        assert run(["embed-diag", "--problem", files["pair"], "--out", out], capsys)[0] == EXIT_OK
        assert len(built) == 7  # the top-level parser and one per subcommand
        code, _, err = run(["check", "--problem", files["pair"]], capsys)
        assert code == EXIT_USAGE
        assert "required" in err
        assert len(built) == 7

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

    def test_block_within_tol_act_of_its_cone_is_feasible(self, tmp_path, capsys):
        # (0, 1.2e-8) lies 1.2e-8 / sqrt(2) from K_2: within tol-act 1e-8
        path = tmp_path / "gap.txt"
        path.write_text("vars 2\nobjective x1\nsoc g 2\nx1\nx2\n")
        code, out, _ = run(["classify", "--problem", str(path), "--point=0,1.2e-8"], capsys)
        assert code == EXIT_OK
        assert row(out, "status") == ("status", "feasible")
        assert row(out, "block", "g") == ("block", "g", "soc", "2", "boundary")

    def test_report_round_trips(self, files, capsys):
        _, out, _ = run(
            ["classify", "--problem", files["kernel"], "--point", "0"], capsys
        )
        rep = Report()
        rep.lines = parse_report(out)
        assert rep.render() in out

    @pytest.mark.parametrize(
        "text",
        ["", "status ok\n", REPORT_BEGIN + "\nstatus ok\n", REPORT_END + "\n" + REPORT_BEGIN + "\n"],
        ids=["empty", "no-fence", "no-end", "end-before-begin"],
    )
    def test_text_without_a_closed_fence_has_no_report(self, text):
        with pytest.raises(ValueError, match="no machine-readable report section found"):
            parse_report(text)

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

    def test_infeasible_point_reports_distances_and_no_verdict(self, files, capsys):
        code, out, _ = run(["check", "--problem", files["soc_line"], "--point=-5", "--cq", "all"], capsys)
        assert code == EXIT_INFEASIBLE
        assert row(out, "status") == ("status", "infeasible")
        assert float(row(out, "residual")[1]) > 0.0
        assert float(row(out, "distance", "g")[2]) == pytest.approx(5.0 * np.sqrt(2.0), rel=1e-12)
        assert rows(out, "verdict") == []

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

    def test_subset_cap_does_not_stop_a_ground_set_decision(self, tmp_path, capsys):
        # 17 blocks are 2**17 subsets, above the default cap; one query decides rcpld
        problem = tmp_path / "seventeen.txt"
        problem.write_text("vars 17\nobjective x1\n" + "".join("psd a%d 1\nx%d\n" % (i, i) for i in range(1, 18)))
        code, out, _ = run(["check", "--problem", str(problem), "--point", ",".join(["0"] * 17), "--cq", "all"], capsys)
        assert code == EXIT_OK
        assert [v[2] for v in rows(out, "verdict")] == ["Holds"] * 4

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

    @pytest.mark.parametrize(
        "cq, code, verdict", [("robinson", EXIT_NEGATIVE, "Fails"), ("rcpld", EXIT_OK, "Holds"), ("crsc", EXIT_OK, "Holds")]
    )
    def test_equality_basis_chosen_at_tol_rank_is_accepted(self, files, capsys, cq, code, verdict):
        argv = ["check", "--problem", files["near_parallel"], "--point", "0,0", "--cq", cq, "--tol-rank", "1e-12"]
        got, out, err = run(argv, capsys)
        assert (got, err) == (code, "")
        assert row(out, "verdict") == ("verdict", cq, verdict)
        if cq == "robinson":
            assert [r[3] for r in rows(out, "witness", cq, "lambda")] == ["h1", "h2"]

    @pytest.mark.parametrize(
        "tol_rank, basis, minus, plus",
        [(None, ("h1",), (), ("a",)), ("1e-12", ("h1", "h2"), ("a",), ())],
        ids=["default", "tol-rank-1e-12"],
    )
    def test_crsc_tests_j_minus_against_its_equality_basis(self, files, capsys, tol_rank, basis, minus, plus):
        # -grad a = -e2 lies in span(h1, h2) but not in span(h1): J- follows the
        # equality basis crsc chose at --tol-rank
        argv = ["check", "--problem", files["near_parallel"], "--point", "0,0", "--cq", "crsc"]
        code, out, err = run(argv + (["--tol-rank", tol_rank] if tol_rank else []), capsys)
        assert (code, err) == (EXIT_OK, "")
        assert row(out, "verdict") == ("verdict", "crsc", "Holds")
        keys = ("equality-basis", "gradient-basis", "j-minus", "j-plus")
        got = {key: row(out, "detail", "crsc", key)[3:] for key in keys}
        assert got == {"equality-basis": basis, "gradient-basis": (), "j-minus": minus, "j-plus": plus}

    def test_undecided_subset_query_is_undecided(self, files, capsys):
        argv = ["check", "--problem", files["four_lines"], "--point", "0,0", "--cq", "rcpld"]
        code, out, _ = run(argv + ["--budget", "1"], capsys)
        assert code == EXIT_UNDECIDED
        assert row(out, "verdict") == ("verdict", "rcpld", "Undecided")
        undecided = ("detail", "rcpld", "undecided-subset", "a", "b", "c", "d")
        assert row(out, "detail", "rcpld", "undecided-subset") == undecided
        code, out, _ = run(argv, capsys)
        assert code == EXIT_OK
        assert row(out, "verdict") == ("verdict", "rcpld", "Holds")

    def test_undecided_reports_print_their_margin_threshold(self, files, capsys):
        for cq in ("robinson", "rcpld", "crsc"):
            argv = ["check", "--problem", files["four_lines"], "--point", "0,0", "--cq", cq, "--budget", "1"]
            code, out, _ = run(argv, capsys)
            assert code == EXIT_UNDECIDED
            assert row(out, "verdict", cq) == ("verdict", cq, "Undecided")
            threshold = float(row(out, "detail", cq, "margin-threshold")[3])
            assert 0.0 < threshold <= 1e-7
            assert float(row(out, "detail", cq, "best-margin")[3]) <= threshold

    def test_environment_seed_override(self, files, capsys, monkeypatch):
        monkeypatch.setenv("CONEGUARD_SEED", "7")
        _, out, _ = run(
            ["check", "--problem", files["pair"], "--point", "0,0", "--cq", "rcpld"],
            capsys,
        )
        assert row(out, "seed") == ("seed", "7")
        assert row(out, "detail", "rcpld", "seed") == ("detail", "rcpld", "seed", "7")

    @pytest.mark.parametrize(
        "problem, point, cq, lam, rays",
        [("cpld", "0,0", "rcpld", (), ("a", "b")), ("psd_pair", "0", "robinson", (), ("g1", "g2"))],
    )
    def test_witness_labels_come_from_the_check(self, files, capsys, problem, point, cq, lam, rays):
        prog = loads(Path(files[problem]).read_text())
        pt = evaluate(prog, np.array([float(v) for v in point.split(",")]))
        check = {"rcpld": check_rcpld, "robinson": check_robinson}[cq]
        report = check(pt, classify(pt))
        assert report.verdict == "Fails"
        witness = report.certificate.witness
        labels = report.witness_names
        assert [len(names) for names in labels] == [len(witness.lam), len(witness.soc), len(witness.psd), len(witness.alpha)]
        assert labels == (lam, (), (), rays)
        code, out, _ = run(["check", "--problem", files[problem], "--point", point, "--cq", cq], capsys)
        assert code == EXIT_NEGATIVE
        printed = [(r[2], r[3]) for r in rows(out, "witness", cq)]
        assert printed == [("lambda", n) for n in lam] + [("alpha", n) for n in rays]

    def test_check_is_deterministic(self, files, capsys):
        args = ["check", "--problem", files["kernel"], "--point", "0", "--cq", "all"]
        _, out1, _ = run(args, capsys)
        _, out2, _ = run(args, capsys)
        assert parse_report(out1) == parse_report(out2)

    def test_rcpld_and_crsc_evaluate_each_sample_once(self, files, capsys, monkeypatch):
        points = []
        original = cqchecks.evaluate

        def counting(prog, x):
            points.append(x)
            return original(prog, x)

        monkeypatch.setattr(cqchecks, "evaluate", counting)
        args = ["check", "--problem", files["psd_pair"], "--point", "0", "--cq", "all", "--samples", "7"]
        code, out, _ = run(args, capsys)
        assert code == EXIT_NEGATIVE
        assert [v[2] for v in rows(out, "verdict")] == ["Fails", "Fails", "Holds", "Holds"]
        for name in ("rcpld", "crsc"):
            assert " in 7 samples " in " ".join(row(out, "detail", name, "note"))
        assert len(points) == 7


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

    def test_solve_evaluates_x0_once(self, files, capsys, tmp_path, monkeypatch):
        at_x0 = []

        def counting(module):
            original = module.evaluate

            def evaluate(prog, x):
                at_x0.append(np.array_equal(np.asarray(x, dtype=float), [3.0]))
                return original(prog, x)

            monkeypatch.setattr(module, "evaluate", evaluate)

        counting(cli)
        counting(sys.modules["coneguard.alm"])
        code, _, _ = run(["solve", "--problem", files["boundary"], "--x0", "3", "--trace", str(tmp_path / "t")], capsys)
        assert code == EXIT_OK
        assert sum(at_x0) == 1
        code, out, err = run(["solve", "--problem", files["log"], "--x0", "-1", "--trace", str(tmp_path / "u")], capsys)
        assert code == EXIT_USAGE
        assert err.startswith("error: --x0 leaves an expression domain:")
        assert REPORT_BEGIN not in out

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

    def test_recover_with_dependent_tail_equalities_is_inconclusive(self, files, capsys, tmp_path):
        path = tmp_path / "circle.trace"
        path.write_text("k 0\nx 1\nlambda 0.5\nk 1\nx 0\nlambda 0.5\n")
        code, out, _ = run(["recover", "--problem", files["circle"], "--point", "1", "--trace", str(path)], capsys)
        assert code == EXIT_UNDECIDED
        assert row(out, "recovery") == ("recovery", "Inconclusive")
        assert " ".join(row(out, "detail", "recover", "reason")[3:]) == "equality basis is dependent at a tail record"
        assert row(out, "detail", "recover", "k") == ("detail", "recover", "k", "1")

    @pytest.mark.parametrize("command", ["certify", "recover"])
    def test_infeasible_point_reports_distances(self, files, capsys, tmp_path, command):
        path = tmp_path / "line.trace"
        path.write_text("k 0\nx 1\nk 1\nx 1\n")
        code, out, _ = run([command, "--problem", files["soc_line"], "--point=-5", "--trace", str(path)], capsys)
        assert code == EXIT_INFEASIBLE
        assert row(out, "status") == ("status", "infeasible")
        assert row(out, "residual") == ("residual", "7.0710678118654755")
        assert row(out, "distance", "g") == ("distance", "g", "7.0710678118654755")

    def test_recover_reports_a_combination_it_cannot_reconstruct(self, tmp_path, capsys):
        # at the origin the basis is eq a's gradient (1, 0); eq b's gradient
        # (1, 2 x2) leaves it by 2 x2 at the records
        problem = tmp_path / "recon.txt"
        problem.write_text("vars 2\nobjective x1\neq a x1\neq b x1 + x2^2\n")
        path = tmp_path / "recon.trace"
        path.write_text("".join("k %d\nx 0 %r\nlambda 0 1\n" % (k, 10.0 ** -(k + 1)) for k in range(4)))
        code, out, _ = run(["recover", "--problem", str(problem), "--point=0,0", "--trace", str(path)], capsys)
        assert code == EXIT_UNDECIDED
        assert row(out, "recovery") == ("recovery", "Inconclusive")
        assert " ".join(row(out, "detail", "recover", "reason")[3:]) == "combination could not be reconstructed"
        assert row(out, "detail", "recover", "k") == ("detail", "recover", "k", "2")
        assert row(out, "detail", "recover", "residual") == ("detail", "recover", "residual", "0.002")

    def test_certify_flags_a_collapsed_eigen_gap(self, tmp_path, capsys):
        # diag(x1, x2) at (0, 2e-6) has a simple zero eigenvalue; at the
        # records the gap x2 is below tol-gap
        problem = tmp_path / "gap.txt"
        problem.write_text("vars 2\nobjective x1\npsd G 2\nx1\n0\nx2\n")
        path = tmp_path / "gap.trace"
        path.write_text("".join("k %d\nx 0 %r\nalpha G 1\n" % (k, (5 + k) * 1e-7) for k in range(4)))
        argv = ["certify", "--problem", str(problem), "--point=0,2e-6", "--trace", str(path), "--tol", "1e-5"]
        code, out, _ = run(argv, capsys)
        assert code == EXIT_OK
        assert row(out, "certified") == ("certified", "yes")
        assert row(out, "detail", "certify", "eigen-gap-flags") == ("detail", "certify", "eigen-gap-flags", "G")

    @pytest.mark.parametrize("command", ["certify", "recover"])
    def test_trace_record_outside_a_domain_is_a_usage_error(self, files, capsys, tmp_path, command):
        path = tmp_path / "log.trace"
        path.write_text("k 0\nx 1e-7\nk 1\nx -1e-7\n")
        code, out, err = run([command, "--problem", files["log_soc"], "--point", "1e-7", "--trace", str(path)], capsys)
        assert code == EXIT_USAGE
        assert err == "error: trace file %s: record k=1: objective: log of a non-positive value (node at offset 0)\n" % path
        assert REPORT_BEGIN not in out

    def test_recover_reads_a_slightly_negative_alpha_as_zero(self, capsys, tmp_path):
        path = tmp_path / "alpha.trace"
        problem = str(PROBLEMS / "soc_boundary_line.txt")
        for alpha in ("0", "-1e-13"):
            path.write_text("k 0\nx 1\nalpha g %s\nk 1\nx 1\nalpha g %s\n" % (alpha, alpha))
            code, out, _ = run(["recover", "--problem", problem, "--point", "1", "--trace", str(path)], capsys)
            assert code == EXIT_OK
            assert row(out, "recovery") == ("recovery", "KKT")

    def test_recover_kkt_keeps_a_vertex_block_multiplier(self, files, capsys, tmp_path):
        path = tmp_path / "vertex.trace"
        path.write_text("k 0\nx 0\nmu G 1 0\nk 1\nx 0\nmu G 1 0\n")
        code, out, _ = run(["recover", "--problem", files["vertex"], "--point", "0", "--trace", str(path)], capsys)
        assert code == EXIT_OK
        assert row(out, "recovery") == ("recovery", "KKT")
        assert row(out, "mu", "G") == ("mu", "G", "1", "0")

    def test_recover_kkt_reports_lambda(self, files, capsys, tmp_path):
        path = tmp_path / "circle.trace"
        path.write_text("k 0\nx 1\nlambda -0.5\nk 1\nx 1\nlambda -0.5\n")
        code, out, _ = run(["recover", "--problem", files["circle"], "--point", "1", "--trace", str(path)], capsys)
        assert code == EXIT_OK
        assert row(out, "lambda") == ("lambda", "-0.5")
        assert "lambda: -0.5" in out.splitlines()

    @pytest.mark.parametrize("command", ["certify", "recover"])
    def test_multiplier_on_a_reduced_block_is_a_usage_error(self, files, capsys, tmp_path, command):
        # block a is kernel-simple at the origin: it takes an alpha, not a mu
        path = tmp_path / "mu.trace"
        path.write_text("k 0\nx 0 0\nmu a 1.0\nk 1\nx 0 0\nmu a 1.0\n")
        code, out, err = run([command, "--problem", files["scalar_pair"], "--point=0,0", "--trace", str(path)], capsys)
        assert code == EXIT_USAGE
        assert err == "error: cone multipliers for non-irreducible blocks: ['a']\n"
        assert REPORT_BEGIN not in out

    def test_opposite_rays_keep_bounded_multipliers(self, files, capsys, tmp_path):
        code, out, _ = run(["check", "--problem", files["opposite"], "--point", "0", "--cq", "all"], capsys)
        assert code == EXIT_NEGATIVE
        assert row(out, "verdict", "robinson")[2] == "Fails"
        assert row(out, "verdict", "rcpld")[2] == "Holds"
        assert row(out, "verdict", "crsc")[2] == "Holds"
        # alpha a and alpha b grow along (t + 1, t): their sum stays bounded
        path = tmp_path / "opposite.trace"
        path.write_text("".join("k %d\nx 0\nalpha a %r\nalpha b %r\n" % (k, 10.0**k + 1, 10.0**k) for k in range(8)))
        argv = ["--problem", files["opposite"], "--point", "0", "--trace", str(path)]
        code, out, _ = run(["certify"] + argv, capsys)
        assert code == EXIT_OK
        assert row(out, "certified") == ("certified", "yes")
        code, out, _ = run(["recover"] + argv, capsys)
        assert code == EXIT_OK
        assert row(out, "recovery") == ("recovery", "KKT")
        assert float(row(out, "mu", "a")[2]) == pytest.approx(1.0, abs=1e-9)
        assert row(out, "mu", "b") == ("mu", "b", "0")
        assert row(out, "mu", "c") == ("mu", "c", "0")

    def test_solve_options_follow_the_alm_config_fields(self, files, capsys, tmp_path):
        assert tuple(cli._ALM_OPTIONS) == AlmConfig.__slots__
        argv = ["solve", "--problem", files["boundary"], "--x0", "3", "--trace", str(tmp_path / "t.trace")]
        _, out, _ = run(argv + ["--outer-max", "2", "--tol-feas", "1e-5"], capsys)
        echoed = [r[0] for r in parse_report(out)[3:10]]
        assert echoed == ["rho0", "gamma", "cap", "outer-max", "inner-max", "tol-stat", "tol-feas"]
        assert row(out, "outer-max") == ("outer-max", "2")
        assert row(out, "tol-feas") == ("tol-feas", "1.0000000000000001e-05")

    def test_unwritable_trace_is_a_usage_error(self, files, capsys, tmp_path):
        path = tmp_path / "missing" / "t.trace"
        code, out, err = run(["solve", "--problem", files["boundary"], "--x0", "3", "--trace", str(path)], capsys)
        assert code == EXIT_USAGE
        assert "\nerror: cannot write trace file %s: " % path in err
        assert REPORT_BEGIN not in out

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

    def test_unwritable_out_is_a_usage_error(self, files, capsys, tmp_path):
        path = tmp_path / "missing" / "merged.txt"
        code, out, err = run(["embed-diag", "--problem", files["pair"], "--out", str(path)], capsys)
        assert code == EXIT_USAGE
        assert err.startswith("error: cannot write %s: " % path)
        assert REPORT_BEGIN not in out

    def test_soc_blocks_cannot_be_merged(self, files, capsys, tmp_path):
        code, out, err = run(
            [
                "embed-diag", "--problem", files["boundary"],
                "--out", str(tmp_path / "x.txt"),
            ],
            capsys,
        )
        assert code == EXIT_USAGE
        assert err == "error: diagonal embedding needs an all-psd program; block 'g' is soc\n"
        assert out == ""


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

    @pytest.mark.parametrize(
        "entry, message",
        [
            ("objective x%s\n", "variable index out of range"),
            ("objective x1^%s\n", "exponent out of range"),
            ("objective x1\nsoc g 1\n1 + 2 * x%s\n", "line 4: variable index out of range"),
        ],
    )
    def test_integer_literal_past_the_int_digit_limit_is_a_format_error(self, tmp_path, capsys, entry, message):
        text = "vars 1\n" + entry % ("1" * 5000)
        code, _, err = run(["classify", "--problem", self._write(tmp_path, text), "--point", "1.0"], capsys)
        assert code == EXIT_USAGE
        assert message in err
        assert "Traceback" not in err

    def test_leading_zeros_still_parse(self, tmp_path, capsys):
        zeros = "0" * 5000
        text = "vars 1\nobjective x01 + x1^007 + x%s1\nsoc g 1\n1 + 2 * x%s1\n" % (zeros, zeros)
        code, out, _ = run(["classify", "--problem", self._write(tmp_path, text), "--point", "2.0"], capsys)
        assert code == EXIT_OK
        assert row(out, "objective") == ("objective", "132")

    def test_leading_zeros_of_a_count_and_the_seed_are_dropped(self, tmp_path, capsys, monkeypatch):
        zeros = "0" * 5000
        monkeypatch.setenv("CONEGUARD_SEED", zeros + "7")
        problem = self._write(tmp_path, BOUNDARY)
        argv = ["check", "--problem", problem, "--point", "1", "--cq", "rcpld", "--samples", zeros + "3"]
        code, out, err = run(argv, capsys)
        assert code == EXIT_OK, err
        assert (row(out, "samples"), row(out, "seed")) == (("samples", "3"), ("seed", "7"))
        assert " in 3 samples " in " ".join(row(out, "detail", "rcpld", "note"))

    @pytest.mark.parametrize(
        "command, flag, value",
        [
            ("solve", "--rho0", "0"),
            ("solve", "--gamma", "1"),
            ("solve", "--cap", "inf"),
            ("solve", "--outer-max", "0"),
            ("solve", "--inner-max", "0"),
            ("solve", "--tol-stat", "-1e-8"),
            ("check", "--seed", "-1"),
            ("check", "--radius", "nan"),
            ("check", "--radius", "-1"),
            ("check", "--samples", "0"),
            ("check", "--samples", "-3"),
            ("check", "--samples", "4097"),  # the neighbourhood keeps every sample's gradients
            ("check", "--samples", "1" + "0" * 20),
            ("check", "--tol-act", "nan"),
            ("check", "--tol-rank", "nan"),
            ("check", "--budget", "0"),
            ("check", "--subset-cap", "0"),
        ],
    )
    def test_out_of_range_flag_is_a_usage_error(self, tmp_path, capsys, command, flag, value):
        argv = [command, "%s=%s" % (flag, value), "--problem", self._write(tmp_path, BOUNDARY)]
        if command == "solve":
            argv += ["--x0", "3", "--trace", str(tmp_path / "t")]
        else:
            argv += ["--point", "1", "--cq", "all"]
        code, out, err = run(argv, capsys)
        assert code == EXIT_USAGE
        assert "argument %s: %r is not" % (flag, value) in err
        assert "Traceback" not in err
        assert REPORT_BEGIN not in out

    @pytest.mark.parametrize("command", ["certify", "recover"])
    def test_non_finite_trace_value_is_a_usage_error(self, tmp_path, capsys, command):
        trace = tmp_path / "nan.trace"
        trace.write_text("k 0\nx 1\nalpha g nan\nk 1\nx 1\nalpha g nan\n")
        problem = str(PROBLEMS / "soc_boundary_line.txt")
        code, out, err = run([command, "--problem", problem, "--point=1", "--trace", str(trace)], capsys)
        assert code == EXIT_USAGE
        assert err == "error: trace file %s: record k=0: alpha for 'g' has a non-finite entry\n" % trace
        assert REPORT_BEGIN not in out

    @pytest.mark.parametrize("command", ["certify", "recover"])
    def test_bare_mu_trace_line_is_a_usage_error(self, tmp_path, capsys, command):
        trace = tmp_path / "bare.trace"
        trace.write_text("k 0\nx 3\nmu\n")
        problem = str(PROBLEMS / "soc_boundary_line.txt")
        code, out, err = run([command, "--problem", problem, "--point=3", "--trace", str(trace)], capsys)
        assert code == EXIT_USAGE
        assert err == "error: trace file %s: line 3: mu line needs a block name and values\n" % trace
        assert REPORT_BEGIN not in out

    def test_problem_file_that_is_not_utf8_is_a_usage_error(self, tmp_path, capsys):
        problem = tmp_path / "latin1.txt"
        problem.write_bytes(b"vars 1\nobjective x1\xff\n")
        code, out, err = run(["classify", "--problem", str(problem), "--point", "0"], capsys)
        assert code == EXIT_USAGE
        assert err.startswith("error: cannot read problem file %s: 'utf-8' codec can't decode byte 0xff" % problem)
        assert REPORT_BEGIN not in out

    @pytest.mark.parametrize("command", ["certify", "recover"])
    def test_trace_file_that_is_not_utf8_is_a_usage_error(self, tmp_path, capsys, command):
        trace = tmp_path / "latin1.trace"
        trace.write_bytes(b"k 0\nx 1\xfe\n")
        problem = str(PROBLEMS / "soc_boundary_line.txt")
        code, out, err = run([command, "--problem", problem, "--point=1", "--trace", str(trace)], capsys)
        assert code == EXIT_USAGE
        assert err.startswith("error: cannot read trace file %s: 'utf-8' codec can't decode byte 0xfe" % trace)
        assert REPORT_BEGIN not in out

    def test_overflowing_literal_cannot_be_embedded(self, tmp_path, capsys):
        problem = self._write(tmp_path, "vars 1\nobjective x1\npsd a 1\n1e999 + 1 * x1\npsd b 1\nx1\n")
        out_path = tmp_path / "embedded.txt"
        code, out, err = run(["embed-diag", "--problem", problem, "--out", str(out_path)], capsys)
        assert code == EXIT_USAGE
        assert err == "error: problem file %s: cannot print non-finite literal inf\n" % problem
        assert REPORT_BEGIN not in out
        assert not out_path.exists()

    def test_block_dimension_past_the_file_is_a_usage_error(self, tmp_path, capsys):
        problem = self._write(tmp_path, "vars 2\nobjective x1\nsoc g 12345678901\nx1\n")
        code, out, err = run(["classify", "--problem", problem, "--point", "1,1"], capsys)
        assert code == EXIT_USAGE
        assert err == "error: problem file %s: line 3: block 'g' needs 2147483648 entry lines, 1 follow\n" % problem
        assert REPORT_BEGIN not in out

    def test_variable_count_past_int32_is_a_usage_error(self, tmp_path, capsys):
        problem = self._write(tmp_path, "vars 1000000000000\nobjective x1\nsoc g 1\n0 + 1 * x1\n")
        code, out, err = run(["classify", "--problem", problem, "--point", "1"], capsys)
        assert code == EXIT_USAGE
        assert err == "error: problem file %s: line 1: variable count must be at most 2147483647\n" % problem
        assert REPORT_BEGIN not in out

    def test_memory_error_is_a_usage_error(self, tmp_path, capsys, monkeypatch):
        def exhausted(text):
            raise MemoryError

        monkeypatch.setattr(cli, "loads", exhausted)
        code, out, err = run(["classify", "--problem", self._write(tmp_path, BOUNDARY), "--point", "1"], capsys)
        assert code == EXIT_USAGE
        assert err == "error: the input needs more memory than is available\n"
        assert REPORT_BEGIN not in out

    def test_negative_environment_seed_is_a_usage_error(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("CONEGUARD_SEED", "-5")
        problem = self._write(tmp_path, BOUNDARY)
        code, out, err = run(["check", "--problem", problem, "--point", "1", "--cq", "rcpld"], capsys)
        assert code == EXIT_USAGE
        assert "CONEGUARD_SEED" in err
        assert REPORT_BEGIN not in out


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

    def test_unexpected_library_error_is_undecided(self, files, capsys, monkeypatch):
        def failed(*args, **kwargs):
            raise ReconstructionError(1.0, 0.5)

        monkeypatch.setattr(cli, "check_robinson", failed)
        code, out, err = run(["check", "--problem", files["pair"], "--point", "0,0", "--cq", "robinson"], capsys)
        assert code == EXIT_UNDECIDED
        assert err == "error: supplied combination misses the target: residual 1.000e+00 > 5.000e-01\n"
        assert REPORT_BEGIN not in out

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


def test_only_the_cli_opens_files():
    # the library reads and writes text; cli._read and cli._write are the
    # package's only file paths
    package = ROOT / "src" / "coneguard"
    openers = sorted(p.name for p in package.glob("*.py") if re.search(r"\bopen\(", p.read_text()))
    assert openers == ["cli.py"]
