"""One workload process: runs infogeo commands in process and times them.

``run.py`` starts this script in a fresh interpreter with ``src`` on
``PYTHONPATH`` and writes a JSON plan to its stdin.  The plan lists the
commands of one unit of work (one sweep, one ``verify all``, or one pass
of the query mix), each an argv for ``infogeo.cli.main``.  The result,
one JSON object, is printed on stdout when the process ends; the
commands' own stdout is captured and their stderr dropped, so nothing
else reaches it.

An operation's latency runs from the start of its command to the moment
its output is complete: a sweep row's line on stdout, a verify check's
line on stderr, a query's return from ``main``.  The plan's
``op_stream`` names the stream whose lines are operations (``op_skip``
lines at its start are not), or is null for one operation per command.
In ``probe`` and ``run`` mode every time is read on the reference clock
of ``refclock.py``, which corrects for the host's changing speed;
``trace`` mode reads the wall clock.

Modes:

``probe``  time the cold start only: ``import infogeo.cli`` plus building
           the plan's model handles.
``run``    set up, run the unit repeatedly for about ``seconds`` seconds
           and report each repetition's time and the latency percentiles
           of its windows (``latency_window`` operations each, or the
           whole repetition).  Outputs of the first repetition are returned (or
           left in ``out_path`` for CSV sweeps); later repetitions are
           compared with them.
``trace``  one untraced repetition, then one with the tracer installed;
           reports span aggregates and work counts of the traced one.
"""

from __future__ import annotations

import array
import hashlib
import io
import json
import math
import os
import resource
import sys
import time

import refclock


class Discard:
    """Text stream that drops what is written to it."""

    def write(self, text):
        return len(text)

    def flush(self):
        pass


class LineClock:
    """Text stream that records the time at which each line is complete."""

    def __init__(self, target):
        self.target = target
        self.times = array.array("d")

    def write(self, text):
        n = self.target.write(text)
        if text.endswith("\n"):
            self.times.append(time.perf_counter())
        return n

    def flush(self):
        self.target.flush()


def _setup(models, clock):
    start = time.perf_counter()
    import infogeo.cli
    from infogeo.registry import get_model
    for name in models:
        get_model(name)
    end = time.perf_counter()
    if clock is None:
        return end - start, infogeo.cli
    clock.sample()
    return clock.span(start, end), infogeo.cli


def _run_command(main, argv, out, err):
    """(exit code or error text, start, end) of one ``main(argv)`` call."""
    saved_out, saved_err = sys.stdout, sys.stderr
    sys.stdout, sys.stderr = out, err
    start = time.perf_counter()
    try:
        code = main(argv)
    except (Exception, SystemExit) as exc:
        code = f"raised {type(exc).__name__}: {exc}"
    finally:
        end = time.perf_counter()
        sys.stdout, sys.stderr = saved_out, saved_err
    return code, start, end


def _percentile(sorted_values, q):
    """Nearest-rank percentile."""
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def _run_unit(main, plan, path, clock=None, reference=None):
    """Run every command of the plan once.

    Returns (timing, outputs, mismatches).  With ``path`` set the
    commands write to that file and each output is [code, sha256 of the
    file]; otherwise it is [code, captured stdout].  Given ``reference``
    (the outputs of an earlier repetition), outputs are compared with it
    as they come and only the number that differ is returned, so later
    repetitions hold no more memory than the first.  Times are read on
    ``clock`` (a ``RefClock``), or on the wall when it is None.
    """
    import numpy as np

    def on_clock(times):
        return np.asarray(times, dtype=float) if clock is None else clock.convert(times)

    stream, skip = plan.get("op_stream"), plan.get("op_skip", 0)
    bounds, lines = array.array("d"), []
    outputs, mismatches = [], 0
    fh = open(path, "w", encoding="utf-8") if path else None
    try:
        for i, argv in enumerate(plan["commands"]):
            out = LineClock(fh) if fh else io.StringIO()
            err = LineClock(Discard())
            line_clock = out if stream == "stdout" else err
            code, start, end = _run_command(main, argv, out, err)
            bounds.extend((start, end))
            if stream is not None:
                lines.append(line_clock.times[skip:])
            if fh:
                outputs.append([code, None])
            elif reference is None:
                outputs.append([code, out.getvalue()])
            else:
                mismatches += [code, out.getvalue()] != reference[i]
    finally:
        if fh:
            fh.close()
    if fh:
        digest = _file_digest(path)
        for output in outputs:
            output[1] = digest
        if reference is not None:
            mismatches = sum(a != b for a, b in zip(outputs, reference))
    if clock is not None:
        clock.sample()
    ends = on_clock(bounds)
    starts, ends = ends[0::2], ends[1::2]
    wall = float(np.sum(ends - starts))
    if stream is None:
        ops = ends - starts
    else:
        ops = np.concatenate([on_clock(times) - start
                              for times, start in zip(lines, starts)])
    # Percentiles per window of consecutive operations (the whole
    # repetition when the plan sets no window).
    window = plan.get("latency_window") or len(ops)
    windows = [np.sort(ops[i:i + window]).tolist()
               for i in range(0, len(ops) - window + 1, window)] if len(ops) else []
    raw = np.asarray(bounds, dtype=float)
    timing = {"wall_s": wall, "clock_wall_s": float(np.sum(raw[1::2] - raw[0::2])),
              "ops": len(ops),
              "p50_s": [_percentile(w, 0.5) for w in windows] or [wall],
              "p99_s": [_percentile(w, 0.99) for w in windows] or [wall]}
    return timing, (outputs if reference is None else None), mismatches


def _file_digest(path):
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def _remove(path):
    if path and os.path.exists(path):
        os.remove(path)


def _measure(cli, plan, clock):
    out_path = plan.get("out_path")
    repeat_path = out_path + ".repeat" if out_path else None
    sink = io.StringIO()
    for argv in plan["commands"][:plan.get("warmup", 0)]:
        _run_command(cli.main, argv, sink, Discard())

    if plan["mode"] == "trace":
        import tracer as tracing
        plain, outputs, _ = _run_unit(cli.main, plan, out_path)
        tracer = tracing.Tracer()
        traced_main = tracer.install()
        traced, _, mismatches = _run_unit(traced_main, plan, repeat_path,
                                          reference=outputs)
        _remove(repeat_path)
        return {"untraced_wall_s": plain["wall_s"], "traced_wall_s": traced["wall_s"],
                "outputs": outputs, "reps": 2, "mismatches": mismatches,
                "trace": tracer.dump()}

    seconds = float(plan["seconds"])
    timings, outputs, mismatches = [], None, 0
    start = time.perf_counter()
    while True:
        timing, first, differ = _run_unit(
            cli.main, plan, out_path if outputs is None else repeat_path,
            clock=clock, reference=outputs)
        timings.append(timing)
        outputs = outputs or first
        mismatches += differ
        elapsed = time.perf_counter() - start
        # Stop before a repetition that would end past the time budget.
        if elapsed * (len(timings) + 1) / len(timings) > seconds:
            break
    _remove(repeat_path)
    return {"timings": timings, "outputs": outputs, "reps": len(timings),
            "mismatches": mismatches}


def main():
    plan = json.load(sys.stdin)
    clock = None if plan["mode"] == "trace" else refclock.RefClock()
    if clock is not None:
        clock.start()
    try:
        setup_s, cli = _setup(plan["models"], clock)
        result = {"setup_s": setup_s, "module": os.path.abspath(cli.__file__)}
        if plan["mode"] != "probe":
            result.update(_measure(cli, plan, clock))
    finally:
        if clock is not None:
            clock.stop()
    if plan["mode"] != "probe":
        # Linux reports kilobytes.
        result["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
