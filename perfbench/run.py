"""Benchmark: how long a user waits for a coneguard verdict.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

One process and one client in a closed loop: instances run one after
another through ``coneguard.cli.main`` in-process, each as its workload's
full command sequence, in whole passes over the seeded corpus until
``--seconds`` have passed.  There are at least three passes, so every
fenced report is compared with repeats and every instance's time is a
mean over passes.  Every output is checked independently
(``checker.py``); a command fails if it raises, exits outside {0, 1, 2, 3,
64}, repeats with a different fenced report, or is rejected by the checker.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced passes and reports per-layer metrics from spans
recorded around each module's public functions (``tracer.py``), plus the
tracing overhead.  The last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics; a fuller record
with the environment and the instance list is written under
``.perfbench/results/`` in the checkout.
"""

import os

# Pin BLAS/OpenMP to one thread before numpy is imported.
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import collections  # noqa: E402
import contextlib  # noqa: E402
import importlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import checker  # noqa: E402
import corpus  # noqa: E402
import tracer as tracing  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 15
MIN_PASSES = 3

# units of the end-to-end metrics, the gated ones and those only printed
UNITS = {
    "setup_s": "s",
    "verdict_p50_s": "s",
    "verdict_tail_s": "s",
    "instances_per_s": "1/s",
    "failed_ratio": "ratio",
    "undecided_ratio": "ratio",
    "decided_ratio": "ratio",
    "converged_ratio": "ratio",
    "hierarchy_violations": "count",
    "peak_rss_mb": "MB",
}


def _call(cli, argv):
    """Run one command in-process; returns (exit code, stdout, error)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code, error = cli.main(argv), None
        except SystemExit as exc:
            code, error = exc.code, None
        except Exception as exc:  # a raise out of cli.main is a counted failure
            code, error = None, "raised %r" % (exc,)
    return code, out.getvalue(), error


class Runner:
    """Runs instances of one workload and reviews every command's output."""

    def __init__(self, wl, work, tracer=None):
        self.wl = wl
        self.work = work
        self.tracer = tracer
        self.tracing = False
        self.cli = sys.modules["coneguard.cli"]
        self.programs = {}
        self.first_reports = {}  # (instance, step) -> fenced report of the first run
        self.attempted = 0
        self.failures = []  # (instance, command, cause)
        self.cq_verdicts = []
        self.recoveries = []
        self.solves = []
        self.violations = set()

    def sequence(self, inst):
        """Time one instance's command sequence; returns (seconds, steps)."""
        cli = self.cli
        problem = str(self.work / (inst.name + ".txt"))
        point = ",".join(repr(v) for v in inst.point)
        steps = []
        if self.tracing:
            self.tracer.instance = inst.name
            self.tracer.recording = True
        started = time.perf_counter()
        try:
            if self.wl.sequence == "solve+certify+recover":
                trace = str(self.work / (inst.name + ".trace"))
                argv = ["solve", "--problem", problem, "--x0=" + point, "--trace", trace,
                        "--outer-max", str(corpus.OUTER_MAX), "--inner-max", str(corpus.INNER_MAX)]
                steps.append(("solve", _call(cli, argv)))
                final = checker.first(checker.rows(steps[0][1][1]), "final-x")
                if final:
                    at = "--point=" + ",".join(final)
                    steps.append(("certify", _call(cli, ["certify", "--problem", problem, at, "--trace", trace])))
                    steps.append(("recover", _call(cli, ["recover", "--problem", problem, at, "--trace", trace])))
            else:
                if self.wl.sequence == "classify+check":
                    steps.append(("classify", _call(cli, ["classify", "--problem", problem, "--point=" + point])))
                steps.append(("check", _call(cli, ["check", "--problem", problem, "--point=" + point, "--cq", "all"])))
        finally:
            elapsed = time.perf_counter() - started
            if self.tracing:
                self.tracer.recording = False
        return elapsed, steps

    def _program(self, inst):
        if inst.name not in self.programs:
            self.programs[inst.name] = self.cli.loads(inst.text)
        return self.programs[inst.name]

    def review(self, inst, steps):
        """Count, compare with the first run, and check each command's output."""
        for index, (command, (code, out, error)) in enumerate(steps):
            self.attempted += 1
            report = checker.rows(out)
            causes = [error] if error else []
            if code not in checker.ALLOWED_EXIT:
                causes.append("exit code %r" % (code,))
            key = (inst.name, index)
            fenced = checker.fenced(out)
            if fenced is None and code in (0, 1, 3):
                causes.append("no fenced report")
            if key in self.first_reports:
                if fenced != self.first_reports[key]:
                    causes.append("fenced report differs from the first run")
            else:
                self.first_reports[key] = fenced
                if not causes:
                    causes += self._independent(inst, command, code, report)
            if causes:
                self.failures.append((inst.name, command, "; ".join(causes)))
            self._tally(inst, command, code, report)

    def _independent(self, inst, command, code, report):
        if code == 64:
            return ["unusable input: the corpus must produce valid problems"]
        prog = self._program(inst)
        if command == "classify":
            return checker.review_labels(report, inst.labels)
        if command == "check":
            return checker.review_check(prog, inst.point, code, report, inst.verdicts, inst.labels)
        if command == "solve":
            if code == 2:
                return []  # the capped final iterate could not be classified
            trace = (self.work / (inst.name + ".trace")).read_text(encoding="utf-8")
            return checker.review_trace(prog, trace)
        if command == "certify":
            return checker.review_certify(code, report)
        return checker.review_recover(prog, code, report)

    def _tally(self, inst, command, code, report):
        if command == "check":
            found = checker.verdicts(report)
            self.cq_verdicts.extend(found.values())
            if found.get("robinson") == "Holds" and "Fails" in (found.get("rcpld"), found.get("crsc")):
                self.violations.add(inst.name)
        elif command == "recover" and code != 2:
            self.recoveries.append((checker.first(report, "recovery") or ("?",))[0])
        elif command == "solve":
            # exit 2 without a report: the capped final iterate could not be classified
            self.solves.append((checker.first(report, "status") or ("exit-2",))[0])

    def run_pass(self, instances):
        times = []
        for inst in instances:
            seconds, steps = self.sequence(inst)
            times.append(seconds)
            self.review(inst, steps)
        return times


def setup(workload, seed, parent):
    """Import coneguard afresh, generate the corpus and write its files."""
    started = time.perf_counter()
    for name in [m for m in sys.modules if m == "coneguard" or m.startswith("coneguard.")]:
        del sys.modules[name]
    importlib.import_module("coneguard.cli")
    wl = corpus.workload(workload, seed)
    parent.mkdir(parents=True, exist_ok=True)
    work = Path(tempfile.mkdtemp(dir=parent))
    for inst in wl.instances:
        (work / (inst.name + ".txt")).write_text(inst.text, encoding="utf-8")
    return time.perf_counter() - started, wl, work


def tail_percentile(instances):
    """Highest whole percentile of ``instances`` means with ten timed samples beyond it.

    Each mean stands for at least MIN_PASSES timed samples, so the
    instances beyond the percentile must number ceil(10 / MIN_PASSES).
    The percentile depends on the size of the corpus only.
    """
    needed = -(-10 // MIN_PASSES)
    ranks = np.arange(instances, dtype=float)
    for pct in range(99, 0, -1):
        if np.count_nonzero(ranks > np.percentile(ranks, pct)) >= needed:
            return pct
    return 50


def _blas():
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return "%s %s" % (blas.get("name"), blas.get("version"))
    except (TypeError, KeyError):
        return "unknown"


def environment(args, wl):
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas(),
        "nproc": len(os.sched_getaffinity(0)),
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "workload": wl.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "why": wl.why,
        "families": wl.families,
        "instances": [inst.name for inst in wl.instances],
        "solve_caps": {"outer_max": corpus.OUTER_MAX, "inner_max": corpus.INNER_MAX},
    }


def outcome_metrics(runner):
    undecided = runner.cq_verdicts.count("Undecided") + runner.recoveries.count("Inconclusive")
    decisions = len(runner.cq_verdicts) + len(runner.recoveries)
    undecided_ratio = undecided / decisions if decisions else 0.0
    return {
        "failed_ratio": len(runner.failures) / runner.attempted,
        "undecided_ratio": undecided_ratio,
        "decided_ratio": 1.0 - undecided_ratio,
        "converged_ratio": runner.solves.count("converged") / len(runner.solves) if runner.solves else None,
        "hierarchy_violations": len(runner.violations),
    }


def measure(runner, seconds):
    """Untraced passes until `seconds` have passed (at least MIN_PASSES).

    Every pass runs each instance once.  The median and the tail are taken
    over each instance's mean across passes: the host's speed drifts over
    seconds, and a mean weighs every pass where a median of three or four
    picks one of them.  The tail percentile depends on the corpus alone.
    """
    times = []
    passes = 0
    started = time.perf_counter()
    while passes < MIN_PASSES or time.perf_counter() - started < seconds:
        times += runner.run_pass(runner.wl.instances)
        passes += 1
    names = [inst.name for inst in runner.wl.instances]
    per_instance = {name: statistics.mean(times[i :: len(names)]) for i, name in enumerate(names)}
    means = list(per_instance.values())
    pct = tail_percentile(len(means))
    tail_value = float(np.percentile(means, pct))
    metrics = {
        "verdict_p50_s": statistics.median(means),
        "verdict_tail_s": tail_value,
        "instances_per_s": len(times) / sum(times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    metrics.update(outcome_metrics(runner))
    beyond = sum(1 for t in means if t > tail_value)
    shape = {"passes": passes, "samples": len(times), "tail_percentile": pct, "instances_beyond_tail": beyond}
    return metrics, shape, per_instance


def measure_traced(runner, tracer, seconds):
    """Traced passes until `seconds` have passed (at least one).

    Each instance runs untraced and then traced, back to back, so the two
    see the same machine state and their ratio gives the tracing overhead.
    """
    counts = None
    timings = []
    shares = []
    untraced = traced = 0.0
    started = time.perf_counter()
    while counts is None or time.perf_counter() - started < seconds:
        for inst in runner.wl.instances:
            for traced_run in (False, True):
                runner.tracing = traced_run
                elapsed, steps = runner.sequence(inst)
                runner.tracing = False
                runner.review(inst, steps)
                if traced_run:
                    traced += elapsed
                else:
                    untraced += elapsed
        spans = tracer.take()
        pass_counts = tracing.count_metrics(spans)
        if counts is None:
            counts = pass_counts
            first_spans = spans
            calls = tracing.layer_calls(spans)
            silent = [layer for layer in runner.wl.layers if calls[layer] == 0]
            if silent:
                raise SystemExit("self-check failed: no calls recorded for %s" % ", ".join(silent))
        elif pass_counts != counts:
            runner.failures.append(("*", "*", "per-layer counts differ between traced passes"))
        timings.append(tracing.time_metrics(spans))
        shares.append(tracing.self_shares(spans))
    metrics = dict(counts)
    for key in timings[0]:
        metrics[key] = statistics.median(t[key] for t in timings)
    metrics["cqchecks.samples_skipped"] = sum(
        int(row[3])
        for text in runner.first_reports.values()
        for row in checker.rows(text or "")
        if row[0] == "detail" and row[2] == "samples-skipped"
    )
    metrics["bench.trace_overhead"] = traced / untraced - 1.0
    shape = {"passes": len(timings), "untraced_s": untraced, "traced_s": traced, "spans": len(first_spans)}
    self_share = {layer: statistics.median(s.get(layer, 0.0) for s in shares) for layer in shares[0]}
    return metrics, shape, first_spans, self_share


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=corpus.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "coneguard").is_dir() or not corpus.PROBLEMS.is_dir():
        print("error: run from a coneguard checkout (src/coneguard and problems/ are missing)", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    base = ROOT / ".perfbench"
    work_root = base / ("work-%d" % os.getpid())
    try:
        setups = []
        for _ in range(SETUP_REPEATS):
            if setups:
                shutil.rmtree(work)
            seconds, wl, work = setup(args.workload, args.seed, work_root)
            setups.append(seconds)
        tracer = tracing.Tracer() if args.trace else None
        if tracer:
            tracer.install()
        runner = Runner(wl, work, tracer)
        runner.review(wl.instances[0], runner.sequence(wl.instances[0])[1])  # warm-up, untimed
        bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
        if args.trace:
            metrics, shape, spans, self_share = measure_traced(runner, tracer, args.seconds)
            per_instance = {}
            reported = bench["per_layer"]
            units = {m["name"]: m["unit"] for m in reported}
        else:
            metrics, shape, per_instance = measure(runner, args.seconds)
            self_share = {}
            metrics["setup_s"] = statistics.median(setups)
            reported = bench["end_to_end"]
            units = UNITS
    finally:
        shutil.rmtree(work_root, ignore_errors=True)

    outcomes = {
        "cq_verdicts": collections.Counter(runner.cq_verdicts),
        "solve_status": collections.Counter(runner.solves),
        "recover": collections.Counter(runner.recoveries),
        "hierarchy_violations": sorted(runner.violations),
    }
    summary(args, wl, runner, metrics, shape, setups, units, outcomes, self_share)
    record = {
        "environment": environment(args, wl),
        "shape": shape,
        "outcomes": outcomes,
        "setup_repeats_s": setups,
        "metrics": metrics,
        "instance_mean_s": per_instance,
        "self_share": self_share,
        "failures": runner.failures,
    }
    results = base / "results"
    results.mkdir(parents=True, exist_ok=True)
    out = results / ("%s-seed%d-trace%d.json" % (args.workload, args.seed, args.trace))
    out.write_text(json.dumps(record, indent=1, default=str) + "\n", encoding="utf-8")
    if args.trace:
        tracing.write_spans(spans, out.with_name(out.stem + "-spans.tsv.gz"))
    print(json.dumps({
        "correct": not runner.failures,
        "attempted": runner.attempted,
        "failed": len(runner.failures),
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in reported},
    }))
    return 0


def summary(args, wl, runner, metrics, shape, setups, units, outcomes, self_share):
    print("workload %s, seed %d, trace %d: %s" % (wl.name, args.seed, args.trace, wl.why))
    print("shape: %s" % json.dumps(shape))
    for key in sorted(metrics):
        value = metrics[key]
        text = "n/a (no solve runs)" if value is None else "%.6g" % value
        print("  %-52s %s %s" % (key, text, units.get(key, "")))
    if not args.trace:
        print(
            "  verdict_p50_s and verdict_tail_s are taken over %d instance means of %d passes;"
            " the tail is p%d, %d instances beyond it"
            % (len(wl.instances), shape["passes"], shape["tail_percentile"], shape["instances_beyond_tail"])
        )
        print("  setup repeats: %s s" % " ".join("%.4f" % s for s in setups))
    if self_share:
        print("  share of traced time by layer (self time, median over passes):")
        for layer, share in sorted(self_share.items(), key=lambda item: -item[1]):
            print("    %-40s %.3f" % (layer, share))
    if runner.failures:
        print("failures (%d of %d commands):" % (len(runner.failures), runner.attempted))
        for failure in runner.failures:
            print("  %s %s: %s" % failure)
    else:
        print("failures: none of %d commands" % runner.attempted)
    print("outcomes: %s" % json.dumps(outcomes))
    print("environment: %s" % json.dumps(environment(args, wl)))


if __name__ == "__main__":
    sys.exit(main())
