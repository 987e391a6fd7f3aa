"""Host speed, measured by fixed calibration loops beside the operations.

The benchmark's host is a share of a machine whose speed drifts: a fixed
pure-Python loop takes 20 ms for minutes and then 28 ms for minutes, in
CPU time as well as wall time, so neither clock alone tells a slower
program from a slower host.  A worker therefore times three short loops
of the benchmark's own code (integer arithmetic; tuple, dict and
frozenset churn; Fraction arithmetic, the kinds of work liejordan does)
at most every `INTERVAL` seconds, just before an operation.  The host's
slowness at that moment is the geometric mean, over the three loops, of
the loop's time over its reference time in `LOOPS`.  An operation's
wall time divided by the mean slowness of the calibrations before and
after it is its time at the reference speed: the speed of the 2-vCPU
host the benchmark was tuned on, in its usual state.  The parent process
scales each set-up time by a calibration made just before it starts the
worker.  The slowdown hits child processes alike, so this holds for the
`python -m liejordan` processes of `cli` too.

The loops never call liejordan, so a change to the program moves the
scaled times by as much as it moves the wall times.  They run with the
garbage collector paused, so the size of the program's heap does not
slow them.
"""
from __future__ import annotations

import gc
import math
from fractions import Fraction
from time import perf_counter, perf_counter_ns

INTERVAL = 0.25  # seconds between calibrations
REPEATS = 3  # each loop's time is the least of this many


def _integers():
    acc = 0
    for i in range(20000):
        acc += (i * i) % 7
    return acc


def _collections():
    counts = {}
    for i in range(3000):
        key = (i % 17, i % 13, i >> 3)
        counts[key] = counts.get(key, 0) + 1
    sets = {frozenset(range(j, j + 6)) for j in range(400)}
    return len(counts) + sum(len(s & {1, 2, 3, 50}) for s in sets)


def _fractions():
    acc = Fraction(0)
    for i in range(1, 600):
        acc += Fraction(i % 7 + 1, i % 11 + 1)
    return acc


# Each loop with its time in ns on the tuning host (Python 3.11.7), in its
# usual state.  Only the ratios matter; both sides of a comparison use them.
LOOPS = ((_integers, 1_170_000), (_collections, 960_000), (_fractions, 1_100_000))


def slowness() -> float:
    """Host slowness now: 1.0 at the reference speed, 1.3 when 30% slower."""
    paused = gc.isenabled()
    gc.disable()
    try:
        logs = []
        for loop, reference_ns in LOOPS:
            best = None
            for _ in range(REPEATS):
                t0 = perf_counter_ns()
                loop()
                ns = perf_counter_ns() - t0
                best = ns if best is None else min(best, ns)
            logs.append(math.log(best / reference_ns))
    finally:
        if paused:
            gc.enable()
    return math.exp(sum(logs) / len(logs))


class Speedometer:
    """Calibrates before an operation when the last calibration is stale,
    and scales each operation's wall time to the reference speed."""

    def __init__(self):
        self.readings = []  # slowness of each calibration, in order
        self.marks = []  # per operation: index of the calibration before it
        self._last = -math.inf

    def before_op(self):
        if perf_counter() - self._last > INTERVAL:
            self.readings.append(slowness())
            self._last = perf_counter()
        self.marks.append(len(self.readings) - 1)

    def scaled(self, wall_ns: list[int]) -> list[float]:
        """Wall times at the reference speed; call once, after the last op."""
        self.readings.append(slowness())
        r = self.readings
        return [ns * 2 / (r[k] + r[k + 1]) for ns, k in zip(wall_ns, self.marks)]
