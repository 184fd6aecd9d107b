"""Fault injection and oversized data: no verdict rests on a non-finite number.

Each LAPACK routine the package calls (eigh, svd, lstsq, pinv) is made, in
turn, to fail or to return NaN.  Every command that reaches it must end in
exit 3 (undecided) or 64 (unusable input), never in a verdict or a
traceback.  Block data above ``model.BLOCK_LIMIT`` in magnitude exits 64
before any product of it can overflow; block data just under it that
overflows inside a check exits 3.
"""

import contextlib
import io
import warnings
from pathlib import Path

import numpy as np
import pytest

from coneguard.cli import EXIT_UNDECIDED, EXIT_USAGE, REPORT_BEGIN, main, parse_report

PROBLEMS = Path(__file__).resolve().parents[1] / "problems"
# each problem file with a start from which solve converges
STARTS = {"psd_pair_line": "0.5", "scalar_pair": "1,2", "soc_boundary_line": "3"}
ROUTINES = ("eigh", "svd", "lstsq", "pinv")


def run(argv, capsys):
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    out, err = capsys.readouterr()
    return code, out, err


@pytest.fixture(scope="module")
def solved(tmp_path_factory):
    """Per problem file: its path, its trace file, the start and the converged
    point that solve wrote them from."""
    d = tmp_path_factory.mktemp("faults")
    out = {}
    for name, x0 in STARTS.items():
        problem, trace = str(PROBLEMS / (name + ".txt")), str(d / (name + ".trace"))
        with contextlib.redirect_stdout(io.StringIO()) as stdout:
            assert main(["solve", "--problem", problem, "--x0", x0, "--trace", trace]) == 0
        final = [r for r in parse_report(stdout.getvalue()) if r[0] == "final-x"][0]
        out[name] = (problem, trace, x0, ",".join(final[1:]))
    return out


def _commands(problem, trace, x0, point, scratch):
    yield ["classify", "--problem", problem, "--point", point]
    for cq in ("nondegeneracy", "robinson", "rcpld", "crsc"):
        yield ["check", "--problem", problem, "--point", point, "--cq", cq]
    yield ["solve", "--problem", problem, "--x0", x0, "--trace", str(scratch / "solve.trace")]
    yield ["certify", "--problem", problem, "--point", point, "--trace", trace]
    yield ["recover", "--problem", problem, "--point", point, "--trace", trace]


def _nan(result):
    """result with every float array filled with NaN."""
    if isinstance(result, tuple):
        return tuple(_nan(part) for part in result)
    if isinstance(result, np.ndarray) and result.dtype.kind == "f":
        return np.full_like(result, np.nan)
    return result


@pytest.mark.parametrize("mode", ["raise", "nan"])
@pytest.mark.parametrize("routine", ROUTINES)
def test_a_failed_or_non_finite_factorization_gives_no_verdict(solved, capsys, monkeypatch, tmp_path, routine, mode):
    real = getattr(np.linalg, routine)
    calls = []

    def faulty(*args, **kwargs):
        calls.append(routine)
        if mode == "raise":
            raise np.linalg.LinAlgError("%s did not converge" % routine)
        return _nan(real(*args, **kwargs))

    reached = 0
    for name, (problem, trace, x0, point) in sorted(solved.items()):
        for argv in _commands(problem, trace, x0, point, tmp_path):
            calls.clear()
            with monkeypatch.context() as patch:
                patch.setattr(np.linalg, routine, faulty)
                code, out, err = run(argv, capsys)
            if calls:
                reached += 1
                assert code in (EXIT_UNDECIDED, EXIT_USAGE), (name, argv[0], argv[-1], code, out)
                assert REPORT_BEGIN not in out
                assert err.startswith("error: ")
                if mode == "nan":
                    assert err.endswith(" returned a non-finite value\n"), err
    assert reached  # every routine is reached by some command


def _scaled(tmp_path, scale):
    path = tmp_path / ("scaled_%s.txt" % scale)
    path.write_text("vars 2\nobjective x1 + x2\npsd G 2\n%s * x1\n0\n%s * x2\n" % (scale, scale))
    return str(path)


def _verdicts(argv, capsys):
    code, out, _ = run(argv, capsys)
    return code, [r for r in parse_report(out) if r[0] in ("status", "block", "verdict")]


@pytest.mark.parametrize("unit, scale", [("1", "1e150"), ("-1", "-1e150")])
def test_large_block_data_keeps_the_unit_scale_answers(tmp_path, capsys, unit, scale):
    unit, big = _scaled(tmp_path, unit), _scaled(tmp_path, scale)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for cq in ("nondegeneracy", "robinson", "rcpld", "crsc"):
            args = ["check", "--cq", cq, "--point", "0,0", "--problem"]
            assert _verdicts(args + [big], capsys) == _verdicts(args + [unit], capsys)
        args = ["classify", "--point", "0,0", "--problem"]
        assert _verdicts(args + [big], capsys) == _verdicts(args + [unit], capsys)


def test_oversized_block_data_is_a_usage_error(tmp_path, capsys):
    problem = _scaled(tmp_path, "1e160")
    trace = tmp_path / "t.trace"
    trace.write_text("k 0\nx 0 0\nk 1\nx 0 0\n")
    message = "block 'G' entry 0: value or derivative too large (above 1e+154 in magnitude)\n"
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for argv in [
            ["classify", "--point", "0,0"],
            *(["check", "--point", "0,0", "--cq", cq] for cq in ("nondegeneracy", "robinson", "rcpld", "crsc", "all")),
            ["solve", "--x0", "0,0", "--trace", str(tmp_path / "s.trace")],
            ["certify", "--point", "0,0", "--trace", str(trace)],
            ["recover", "--point", "0,0", "--trace", str(trace)],
        ]:
            code, out, err = run(argv + ["--problem", problem], capsys)
            assert code == EXIT_USAGE, argv
            assert err.startswith("error: --") and err.endswith(message), err
            assert REPORT_BEGIN not in out


def test_block_data_that_overflows_inside_a_check_gives_no_verdict(tmp_path, capsys):
    # every entry passes BLOCK_LIMIT, but norms and products of the 4x4 block's
    # partials overflow: in numerical_rank's pivot loop and in the margin steps
    path = tmp_path / "sum.txt"
    path.write_text("vars 3\nobjective x1 + x2 + x3\npsd G 4\n" + "1e154 * x1 + 1e154 * x2 + 1e154 * x3\n" * 10)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for cq in ("nondegeneracy", "robinson", "rcpld", "crsc"):
            code, out, err = run(["check", "--problem", str(path), "--point", "0,0,0", "--cq", cq], capsys)
            assert code == EXIT_UNDECIDED, (cq, code, out)
            assert REPORT_BEGIN not in out
            assert err.startswith("error: overflow encountered in "), err


def test_crsc_family_scale_is_a_checked_singular_value(tmp_path, capsys, monkeypatch):
    # crsc measures its gradient-basis ranks against the largest singular value
    # of the J- family (here a and b, 2x2); a NaN there must give no verdict,
    # where an unchecked 2-norm answered Holds with an empty gradient basis
    path = tmp_path / "near3.txt"
    path.write_text("vars 2\nobjective x1 + x2\npsd a 1\nx1\npsd b 1\n-x1 + 1.7e-8 * x2\npsd c 1\nx2\n")
    real = np.linalg.svd

    def nan_values(a, *args, **kwargs):
        result = real(a, *args, **kwargs)
        return _nan(result) if kwargs.get("compute_uv") is False and np.shape(a) == (2, 2) else result

    monkeypatch.setattr(np.linalg, "svd", nan_values)
    code, out, err = run(["check", "--cq", "crsc", "--problem", str(path), "--point", "0,0"], capsys)
    assert code == EXIT_UNDECIDED, (code, out)
    assert REPORT_BEGIN not in out
    assert err.startswith("error: ") and err.endswith(" returned a non-finite value\n"), err
