"""infogeo benchmark: one workload at one seed, end to end or traced.

    python3 perfbench/run.py --workload sweep-qubit --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout: the program is imported from
``src/`` of that checkout.  Each run starts fresh interpreters: a few that
only time the cold start (``setup_s``), and one that runs the workload's
commands in process through ``infogeo.cli.main`` (see ``child.py``).
Every output is checked against closed forms computed here
(``workloads.py``).  End-to-end timings are read on the reference clock
of ``refclock.py``, which corrects for the host's changing speed.
Human-readable lines come first; the last line of stdout is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1``
they are the per-layer ones from ``tracer.py``, plus the tracing
overhead.  The exit code is 1 when an output is wrong, 2 when the run
cannot start.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

import tracer
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK_DIR = os.path.join(ROOT, ".bench_out")
# Cold starts timed per run; the median is reported.  One more start
# before them fills the bytecode cache and is not counted.
SETUP_PROBES = 8
RUN_DEADLINE_S = 170.0


def _child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    env["PYTHONHASHSEED"] = "0"
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def _fail(message):
    print(f"benchmark: {message}", file=sys.stderr)
    raise SystemExit(2)


def _spawn(request, deadline):
    """Run child.py with ``request`` on stdin; return its JSON result."""
    proc = subprocess.Popen([sys.executable, os.path.join(HERE, "child.py")],
                            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                            cwd=ROOT, env=_child_env(), text=True)
    try:
        out, _ = proc.communicate(json.dumps(request),
                                  timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        _fail("workload process ran past the deadline")
    if proc.returncode != 0:
        _fail(f"workload process exited {proc.returncode}")
    result = json.loads(out.strip().splitlines()[-1])
    if not result["module"].startswith(SRC + os.sep):
        _fail(f"infogeo was imported from {result['module']}, not from {SRC}")
    return result


def _end_to_end(result, setups, ops_per_rep):
    """Medians over the repetitions (latency: over the windows) of the run."""
    timings = result["timings"]

    def median(key):
        return statistics.median(p for t in timings for p in t[key])

    wall = statistics.median(t["wall_s"] for t in timings)
    return {
        "setup_s": (statistics.median(setups), "s"),
        "wall_s": (wall, "s"),
        "ops_per_s": (ops_per_rep / wall, "1/s"),
        "latency_p50_ms": (1e3 * median("p50_s"), "ms"),
        "latency_p99_ms": (1e3 * median("p99_s"), "ms"),
        "peak_rss_mb": (result["peak_rss_kb"] / 1024.0, "MB"),
    }


def _layers(result):
    metrics = tracer.layer_metrics(result["trace"])
    plain, traced = result["untraced_wall_s"], result["traced_wall_s"]
    metrics["trace.untraced_wall_s"] = (plain, "s")
    metrics["trace.wall_s"] = (traced, "s")
    metrics["trace.overhead_ratio"] = (traced / plain - 1.0, "ratio")
    metrics["trace.spans"] = (sum(row["calls"] for row in result["trace"]["spans"]),
                              "count")
    return metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="time budget of the measured repetitions")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    deadline = time.monotonic() + RUN_DEADLINE_S
    if not os.path.isfile(os.path.join(SRC, "infogeo", "cli.py")):
        _fail(f"no infogeo sources under {SRC}")
    os.makedirs(WORK_DIR, exist_ok=True)
    plan = workloads.WORKLOADS[args.workload](args.seed)
    out_path = (os.path.join(WORK_DIR, f"{args.workload}-{os.getpid()}.csv")
                if plan.csv else None)
    request = {"mode": "trace" if args.trace else "run", "models": plan.models,
               "commands": plan.commands, "warmup": plan.warmup,
               "op_stream": plan.op_stream, "op_skip": plan.op_skip,
               "latency_window": plan.latency_window,
               "seconds": args.seconds, "out_path": out_path}

    setups = []
    if not args.trace:
        probe = {"mode": "probe", "models": plan.models}
        for i in range(SETUP_PROBES + 1):
            setup = _spawn(probe, deadline)["setup_s"]
            if i:
                setups.append(setup)
    result = _spawn(request, deadline)
    setups.append(result["setup_s"])

    verdict = plan.checker(result["outputs"], out_path)
    if out_path:
        os.remove(out_path)
    reps = result["reps"]
    ops_per_command = verdict.ops // len(plan.commands)
    attempted = verdict.ops * reps
    failed = min(attempted, verdict.failed * reps + result["mismatches"] * ops_per_command)

    if args.trace:
        metrics = _layers(result)
        trace_path = os.path.join(WORK_DIR, f"trace-{args.workload}-seed{args.seed}.json")
        with open(trace_path, "w", encoding="utf-8") as fh:
            json.dump(result["trace"], fh, indent=1)
        print(f"trace aggregates written to {os.path.relpath(trace_path, ROOT)}")
    else:
        metrics = _end_to_end(result, setups, verdict.ops)
        timings = result["timings"]
        windows = sum(len(t["p99_s"]) for t in timings)
        print(f"latency samples: {sum(t['ops'] for t in timings)} operations in"
              f" {reps} repetitions; percentiles are per window of"
              f" {plan.latency_window or verdict.ops} operations, medians"
              f" over the {windows} windows are reported")
        print("repetitions (wall s on the wall clock / on the reference clock,"
              " median p50 ms / p99 ms of its windows on the reference clock): "
              + "  ".join(
                  f"{t['clock_wall_s']:.3f}/{t['wall_s']:.3f}"
                  f"/{1e3 * statistics.median(t['p50_s']):.4g}"
                  f"/{1e3 * statistics.median(t['p99_s']):.4g}" for t in timings))

    print(f"workload {args.workload}, seed {args.seed}"
          + (" (unused: fixed internal seeds)" if args.workload == "verify-all" else ""))
    print(f"fail_ratio {failed / attempted:g} ({failed} of {attempted} operations,"
          f" {verdict.ops} per repetition)")
    if verdict.statuses:
        print("statuses (first repetition): "
              + ", ".join(f"{k} {v}" for k, v in verdict.statuses.items()))
    for name, (value, unit) in metrics.items():
        print(f"  {name:44s} {value:.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
