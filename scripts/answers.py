"""Fingerprint every answer coneguard gives on the benchmark corpora.

    python3 scripts/answers.py --seed N [--workload NAME ...]

Runs, in-process, each seeded instance's command sequence as
``perfbench/run.py`` runs it (``run.Runner.sequence``), plus ``embed-diag``
and a ``dumps(loads(text))`` round trip per instance.  Fixed, unseeded
sets follow, for what no corpus program has: ``equalities`` (an
equality), ``near-parallel`` (a query near the independence threshold)
and ``many-blocks`` (a ground set beyond rcpld's subset cap).  Each of
their programs gets classify, ``check --cq all``, certify and recover on
its trace when it has one, and the round trip.  One line per command:

    <workload> <instance> <command> exit=<code> fence=<sha256> file=<sha256>

``fence`` hashes the fenced report, ``file`` the trace written by solve,
the program written by embed-diag, or the dumps text ("-" when there is
none).  The temporary directory's path is replaced by ``<work>`` before
hashing.  A command that raises prints ``exit=None`` and makes the script
exit 1 once every line is out.  Two checkouts give the same answers when
the outputs are equal, e.g. ``diff <(python3 a/scripts/answers.py --seed
11) <(python3 b/scripts/answers.py --seed 11)``.  The corpus, the command
sequence, the in-process call, the BLAS thread pinning and the report
reader come from ``perfbench/``, which is only imported.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import run  # noqa: E402  first: it pins BLAS to one thread before numpy is imported

import argparse  # noqa: E402
import hashlib  # noqa: E402
import tempfile  # noqa: E402

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

# (name, program, point, trace or None): ground sets beyond rcpld's cap,
# where its one ground-set query decides.  seventeen-soc: 17 scalar blocks
# x_i >= 0 and a vertex SOC block (x1, x2) at the origin; the query is
# independent (Holds), nondegeneracy Fails.  eighteen-opposite: 17 scalar
# blocks x_i >= 0 and -x1 + x18^2 >= 0 at the origin of R^18; the query is
# dependent, and its gradients are independent at a sample (Fails).
MANY_BLOCKS = (
    ("seventeen-soc",
     "vars 17\nobjective x1\n" + "".join("psd a%d 1\nx%d\n" % (i, i) for i in range(1, 18)) + "soc s 2\nx1\nx2\n",
     ",".join(["0"] * 17),
     None),
    ("eighteen-opposite",
     "vars 18\nobjective x1\n" + "".join("psd a%d 1\nx%d\n" % (i, i) for i in range(1, 18)) + "psd b 1\n-x1 + x18^2\n",
     ",".join(["0"] * 18),
     None),
)
FIXED = {"equalities": EQUALITIES, "near-parallel": NEAR_PARALLEL, "many-blocks": MANY_BLOCKS}


def _sha(text):
    return "-" if text is None else hashlib.sha256(text.encode("utf-8")).hexdigest()


def _commands(runner, inst):
    """Yield (command, (exit code, stdout, error), written file or None) for one instance."""
    for command, result in runner.sequence(inst)[1]:
        yield command, result, runner.work / (inst.name + ".trace") if command == "solve" else None
    embedded = runner.work / (inst.name + ".embedded")
    argv = ["embed-diag", "--problem", str(runner.work / (inst.name + ".txt")), "--out", str(embedded)]
    yield "embed-diag", run._call(cli, argv), embedded


def _fixed_commands(name, point, trace, work):
    """Yield (command, (exit code, stdout, error), None) for one program of a FIXED set."""
    problem = str(work / (name + ".txt"))
    at = "--point=" + point
    yield "classify", run._call(cli, ["classify", "--problem", problem, at]), None
    yield "check", run._call(cli, ["check", "--problem", problem, at, "--cq", "all"]), None
    if trace is not None:
        path = work / (name + ".trace")
        path.write_text(trace, encoding="utf-8")
        for command in ("certify", "recover"):
            yield command, run._call(cli, [command, "--problem", problem, at, "--trace", str(path)]), None


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workload", action="append", choices=(*corpus.WORKLOADS, *FIXED))
    args = parser.parse_args(argv)
    names = args.workload or (*corpus.WORKLOADS, *FIXED)
    raised = []
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)

        def norm(text):
            return None if text is None else text.replace(str(work), "<work>")

        def emit(workload, name, program, commands):
            (work / (name + ".txt")).write_text(program, encoding="utf-8")
            for command, (code, out, error), written in commands:
                text = written.read_text(encoding="utf-8") if written and written.exists() else None
                print("%s %s %s exit=%s fence=%s file=%s"
                      % (workload, name, command, code, _sha(norm(checker.fenced(out))), _sha(norm(text))))
                if error:
                    raised.append("%s %s %s: %s" % (workload, name, command, error))
            print("%s %s dumps exit=- fence=- file=%s" % (workload, name, _sha(dumps(loads(program)))))

        for workload in names:
            if workload in FIXED:
                for name, program, point, trace in FIXED[workload]:
                    emit(workload, name, program, _fixed_commands(name, point, trace, work))
                continue
            runner = run.Runner(corpus.workload(workload, args.seed), work)
            for inst in runner.wl.instances:
                emit(workload, inst.name, inst.text, _commands(runner, inst))
    for line in raised:
        print(line, file=sys.stderr)
    return 1 if raised else 0


if __name__ == "__main__":
    sys.exit(main())
