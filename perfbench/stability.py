"""Run-to-run spread of the end-to-end metrics.

    python3 perfbench/stability.py --runs 10 [--workload queries ...] [--first-seed 1]

Runs ``run.py`` once per seed (seeds first-seed, first-seed+1, ...) on
each workload, one run at a time, with ``run_seconds`` from
``BENCHMARK.json``.  For every end-to-end metric it prints the median of
the runs and the distance between the first and third quartiles
(``statistics.quantiles(values, n=4)``) as a share of that median, next
to the metric's bound.  A spread below a third of the bound is steady;
``setup_s`` is compared on medians only, so its spread is informational.
With ``--out FILE`` the raw values are written as JSON as well.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main(argv=None):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", choices=names,
                        help="workload to run (repeatable; default all)")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--out", help="write the raw values to this JSON file")
    args = parser.parse_args(argv)

    values = {}
    ok = True
    for workload in args.workload or names:
        runs = values[workload] = []
        for seed in range(args.first_seed, args.first_seed + args.runs):
            cmd = bench["command"] + ["--workload", workload, "--seed", str(seed),
                                      "--seconds", str(bench["run_seconds"]),
                                      "--trace", "0"]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                                  check=False)
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
            if result is None or not result["correct"]:
                print(f"{workload} seed {seed}: run failed (exit {proc.returncode})\n"
                      f"{proc.stderr}", file=sys.stderr)
                ok = False
                continue
            runs.append({k: v["value"] for k, v in result["metrics"].items()})
        print(f"{workload}: {len(runs)} runs")
        for metric in bench["end_to_end"]:
            series = [r[metric["name"]] for r in runs]
            if len(series) < 2:
                continue
            q1, med, q3 = statistics.quantiles(series, n=4)
            spread = (q3 - q1) / med
            flag = "" if spread < metric["bound"] / 3 else "  <-- not below bound/3"
            print(f"  {metric['name']:16s} median {med:12.6g} {metric['unit']:5s}"
                  f" spread {spread:7.2%} bound {metric['bound']:.0%}{flag}")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(values, fh, indent=1)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
