"""A clock that runs at the machine's speed, not the wall's.

On a shared host a vCPU changes speed on its own: a pure-Python loop
pinned to one vCPU runs at speeds up to 2.5x apart, in phases from a
fraction of a second to minutes, and the two vCPUs change
independently (CPU time inflates with wall time, so it is not a fix).
A wall-clock timing then measures the host as much as the program.

``RefClock`` samples the machine's speed in the measured process itself:
a ``SIGALRM`` timer fires every ``PERIOD_S`` seconds, and its handler
times a fixed chunk of pure-Python work (each of its two parts the fastest
of three runs, summed).  ``convert`` maps
``time.perf_counter`` readings to reference seconds: between two samples
time runs at ``REFERENCE_CHUNK_S / d``, where ``d`` is the mean chunk
time of the two samples, and it stands still while a sample runs, so the
sampling itself is not counted.  One reference second is one second of
the program at the speed where the chunk takes ``REFERENCE_CHUNK_S``,
about the fast phase of the machine the baseline was taken on.  A change
to the program moves reference seconds as it moves wall seconds; a change
of the host's speed moves both the program and the chunk, and cancels.

The chunk is pure Python and imports nothing, so the clock can run
during the cold start it times (``import infogeo.cli`` and numpy).
"""

from __future__ import annotations

import array
import signal
import time

# How many times a sample runs each part of the chunk; the fastest is
# kept, which drops a run that was preempted.
CHUNKS_PER_SAMPLE = 3
# Chunk time at the reference speed (about the fast phase of a 2-vCPU Xeon
# VM under Python 3.11); a fixed constant, so reference seconds from
# different runs and commits are comparable.
REFERENCE_CHUNK_S = 100e-6
# Time between samples; phases of the host last a second or more.
PERIOD_S = 0.025


def _lcg(n, modulus, state=12345):
    out = []
    for _ in range(n):
        state = (state * 1103515245 + 12345) % (1 << 31)
        out.append(state % modulus)
    return out


class _Cell:
    def __init__(self):
        self.value = 1.0


def _call(a, b):
    return a * b + 1.0


# The first part of the chunk mixes what the program's interpreter-bound
# code does: calls, attribute reads, list appends, and scattered reads
# from a 1 MiB buffer and an 8192-entry dict.  Of the single chunks tried,
# this one followed the speed of the sweeps and of ``verify`` most closely
# (a bare arithmetic loop slows down less than they do in a slow phase).
_BUFFER = bytearray(range(256)) * 4096
_BUFFER_READS = _lcg(400, len(_BUFFER))
_TABLE = {i: i * 0.5 for i in range(8192)}
_TABLE_READS = _lcg(400, len(_TABLE), state=54321)


def _data_part():
    cell, total, seen = _Cell(), 0.0, []
    for i in range(150):
        total += _call(cell.value, i)
        seen.append(total)
    for i in _BUFFER_READS:
        total += _BUFFER[i]
    for k in _TABLE_READS:
        total += _TABLE[k]
    return total + len(seen)


# The second part calls 300 distinct small functions, so that the chunk,
# like the program, runs more code than the fastest caches hold.  With it
# the chunk followed the program better than the first part alone, on the
# machine of the baseline: the variation of reference time over repeated
# passes of ``verify`` suites fell from 11% to 8%, and over 300-command
# slices of the query mix from 8.5% to 7.4%.
_SOURCE = "".join(
    f"def f{i}(a, b):\n    c = a + {i}\n    if c > b:\n        return c - b\n"
    f"    return (c * 3 + b) // 2\n" for i in range(300))
_NAMESPACE = {}
exec(compile(_SOURCE, "<refclock>", "exec"), _NAMESPACE)
_FUNCTIONS = [_NAMESPACE[f"f{i}"] for i in range(300)]


def _code_part():
    value = 0
    for f in _FUNCTIONS:
        value = f(value & 1023, 17)
    return value


_PARTS = (_data_part, _code_part)


class RefClock:
    """Speed-sampling clock for one process; ``start`` before, ``stop`` after."""

    def __init__(self):
        self.starts = array.array("d")
        self.ends = array.array("d")
        self.chunks = array.array("d")
        self._busy = False
        self._saved = None

    def sample(self):
        """Time the reference chunk now; the handler and start/stop call this."""
        if self._busy:
            return
        self._busy = True
        start = time.perf_counter()
        chunk = 0.0
        for part in _PARTS:
            best = float("inf")
            for _ in range(CHUNKS_PER_SAMPLE):
                t0 = time.perf_counter()
                part()
                best = min(best, time.perf_counter() - t0)
            chunk += best
        self.starts.append(start)
        self.ends.append(time.perf_counter())
        self.chunks.append(chunk)
        self._busy = False

    def _on_alarm(self, signum, frame):
        self.sample()

    def start(self):
        self._saved = signal.signal(signal.SIGALRM, self._on_alarm)
        self.sample()
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._saved)
        self.sample()

    def convert(self, times):
        """Reference-clock readings (s) of ``perf_counter`` readings.

        ``times`` must lie between the first and the last sample; take a
        sample (or ``stop``) after the last reading before converting.
        """
        import numpy as np

        # Copies of the complete samples: a view would pin the arrays, and
        # the handler may append between the copies (``chunks`` is
        # appended last, so its length counts complete samples).
        n = len(self.chunks)
        starts = np.array(self.starts[:n], dtype=float)
        ends = np.array(self.ends[:n], dtype=float)
        chunks = np.array(self.chunks[:n], dtype=float)
        # Breakpoints s0 e0 s1 e1 ...: flat over a sample, and between
        # samples at the speed of the mean of their two chunk times.
        gaps = starts[1:] - ends[:-1]
        rates = REFERENCE_CHUNK_S / (0.5 * (chunks[1:] + chunks[:-1]))
        clock = np.zeros(2 * len(starts))
        clock[2::2] = np.cumsum(gaps * rates)
        clock[3::2] = clock[2::2]
        knots = np.empty(2 * len(starts))
        knots[0::2] = starts
        knots[1::2] = ends
        return np.interp(np.asarray(times, dtype=float), knots, clock)

    def span(self, start, end):
        """Reference seconds between two ``perf_counter`` readings."""
        a, b = self.convert([start, end])
        return float(b - a)
