"""Fingerprint every answer coneguard gives on the benchmark corpora.

    python3 scripts/answers.py --seed N [--workload NAME ...]

Runs, in-process, each command that ``perfbench/run.py`` runs on the
seeded corpora (classify, check, solve, certify, recover) once, plus
``embed-diag`` and a ``dumps(loads(text))`` round trip per instance.  Two
fixed, unseeded sets follow: ``equalities``, because no corpus program has
an equality, and ``near-parallel``, because no corpus query sits near the
independence threshold.  Each of their programs gets classify, ``check --cq
all``, certify and recover on its trace when it has one, and the round
trip.  It prints one line per command:

    <workload> <instance> <command> exit=<code> fence=<sha256> file=<sha256>

``fence`` hashes the fenced report, ``file`` the trace written by solve,
the program written by embed-diag, or the dumps text ("-" when there is
none).  The temporary directory's path is replaced by ``<work>`` before
hashing.  Two checkouts give the same answers when the outputs are equal,
e.g. ``diff <(python3 a/scripts/answers.py --seed 11) <(python3
b/scripts/answers.py --seed 11)``.  The corpus and the report reader come
from ``perfbench/corpus.py`` and ``perfbench/checker.py``, which are only
imported.
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS"):
    os.environ[_var] = "1"  # before numpy is imported, so BLAS sums repeat

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import checker  # noqa: E402
import corpus  # noqa: E402
from coneguard import cli  # noqa: E402
from coneguard.model import dumps, loads  # noqa: E402


# (name, program, point, trace or None).  redundant: two parallel equality
# gradients, the paper's redundant linear constraints (robinson Fails, rcpld
# and crsc Hold, recover re-expresses lambda on the basis k).  tiny-equality:
# a 1e-9 equality gradient ahead of a larger one in crsc's gradient basis.
EQUALITIES = (
    ("redundant",
     "vars 2\nobjective (x1 - 1)^2 + (x2 - 2)^2\neq h x1 + x2 - 1\neq k 2 * x1 + 2 * x2 - 2\npsd a 1\nx1\n",
     "0,1",
     "k 0\nx 0 1\nlambda 2 0\nk 1\nx 0 1\nlambda 0 1\nk 2\nx 0 1\nlambda 1 0.5\n"),
    ("tiny-equality",
     "vars 2\nobjective x1\neq h 1e-9 * x1\npsd a 1\nx2\npsd b 1\n-x2\nsoc s 2\nx2\n0\n",
     "0,0",
     None),
)

# (name, program, point, trace or None): two linear constraints x1 >= 0 and
# -x1 + e * x2 >= 0 at the origin, nearly opposite; every check Holds.
NEAR_PARALLEL = tuple(
    ("e-%s" % e, "vars 2\nobjective x1 + x2\npsd a 1\nx1\npsd b 1\n-x1 + %s * x2\n" % e, "0,0", None)
    for e in ("1e-7", "1e-6", "1e-5")
)
FIXED = {"equalities": EQUALITIES, "near-parallel": NEAR_PARALLEL}


def _sha(text):
    return "-" if text is None else hashlib.sha256(text.encode("utf-8")).hexdigest()


def _call(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue()


def _commands(wl, inst, work):
    """Yield (command, exit code, stdout, written file or None) for one instance."""
    problem = str(work / (inst.name + ".txt"))
    point = ",".join(repr(v) for v in inst.point)
    if wl.sequence == "solve+certify+recover":
        trace = work / (inst.name + ".trace")
        argv = ["solve", "--problem", problem, "--x0=" + point, "--trace", str(trace),
                "--outer-max", str(corpus.OUTER_MAX), "--inner-max", str(corpus.INNER_MAX)]
        code, out = _call(argv)
        yield "solve", code, out, trace
        final = checker.first(checker.rows(out), "final-x")
        if final:
            at = "--point=" + ",".join(final)
            for command in ("certify", "recover"):
                yield (command, *_call([command, "--problem", problem, at, "--trace", str(trace)]), None)
    else:
        if wl.sequence == "classify+check":
            yield ("classify", *_call(["classify", "--problem", problem, "--point=" + point]), None)
        yield ("check", *_call(["check", "--problem", problem, "--point=" + point, "--cq", "all"]), None)
    embedded = work / (inst.name + ".embedded")
    yield ("embed-diag", *_call(["embed-diag", "--problem", problem, "--out", str(embedded)]), embedded)


def _fixed_commands(name, point, trace, work):
    """Yield (command, exit code, stdout, None) for one program of a FIXED set."""
    problem = str(work / (name + ".txt"))
    at = "--point=" + point
    yield ("classify", *_call(["classify", "--problem", problem, at]), None)
    yield ("check", *_call(["check", "--problem", problem, at, "--cq", "all"]), None)
    if trace is not None:
        path = work / (name + ".trace")
        path.write_text(trace, encoding="utf-8")
        for command in ("certify", "recover"):
            yield (command, *_call([command, "--problem", problem, at, "--trace", str(path)]), None)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workload", action="append", choices=(*corpus.WORKLOADS, *FIXED))
    args = parser.parse_args(argv)
    names = args.workload or (*corpus.WORKLOADS, *FIXED)
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)

        def norm(text):
            return None if text is None else text.replace(str(work), "<work>")

        def emit(workload, name, program, commands):
            (work / (name + ".txt")).write_text(program, encoding="utf-8")
            for command, code, out, written in commands:
                text = written.read_text(encoding="utf-8") if written and written.exists() else None
                print("%s %s %s exit=%s fence=%s file=%s"
                      % (workload, name, command, code, _sha(norm(checker.fenced(out))), _sha(norm(text))))
            print("%s %s dumps exit=- fence=- file=%s" % (workload, name, _sha(dumps(loads(program)))))

        for workload in names:
            if workload in FIXED:
                for name, program, point, trace in FIXED[workload]:
                    emit(workload, name, program, _fixed_commands(name, point, trace, work))
                continue
            wl = corpus.workload(workload, args.seed)
            for inst in wl.instances:
                emit(workload, inst.name, inst.text, _commands(wl, inst, work))
    return 0


if __name__ == "__main__":
    sys.exit(main())
