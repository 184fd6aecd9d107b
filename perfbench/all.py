"""Run every workload once and print its metrics side by side.

    python3 perfbench/all.py --seed N --seconds S

Each workload runs as its own untraced ``run.py`` process, one after
another, so peak memory and set-up are measured per workload.  The table
lists every end-to-end metric of each run's record under
``.perfbench/results/``: the gated ones of BENCHMARK.json and those only
printed (failed, undecided and converged ratios, hierarchy violations).
The traced run is ``run.py --trace 1``.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

import corpus
import run

HERE = Path(__file__).resolve().parent


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    args = parser.parse_args(argv)
    results = {}
    records = {}
    for workload in corpus.WORKLOADS:
        argv = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", "0"]
        done = subprocess.run(argv, capture_output=True, text=True, check=False)
        lines = done.stdout.strip().splitlines()
        print("\n".join(line for line in lines[:-1] if not line.startswith("environment")))
        if done.returncode != 0 or not lines:
            print("%s failed (exit %d): %s" % (workload, done.returncode, done.stderr.strip()), file=sys.stderr)
            return 1
        results[workload] = json.loads(lines[-1])
        record = run.ROOT / ".perfbench" / "results" / ("%s-seed%d-trace0.json" % (workload, args.seed))
        records[workload] = json.loads(record.read_text(encoding="utf-8"))["metrics"]
    print()
    print("%-52s %-6s" % ("metric", "unit") + "".join(" %18s" % w for w in corpus.WORKLOADS))
    for name, unit in run.UNITS.items():
        row = "%-52s %-6s" % (name, unit)
        for workload in corpus.WORKLOADS:
            value = records[workload][name]
            row += " %18s" % ("n/a" if value is None else "%.6g" % value)
        print(row)
    for workload in corpus.WORKLOADS:
        res = results[workload]
        print("%s: correct %s, %d commands, %d failed" % (workload, res["correct"], res["attempted"], res["failed"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
