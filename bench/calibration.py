"""Machine-speed calibration.

On a shared host the same pass can take anywhere from 1x to 2x its fastest
time, depending on what the neighbours run; fast and slow phases last from
seconds to minutes.  So every command is timed together with a fixed
pure-Python loop, run once before the command, once after it, and every
``INTERVAL_S`` while it runs (from a timer signal).  The command's time is
also reported in reference seconds: the time it would have taken had the
loop run at ``REFERENCE_S`` a round.  A change to curvepi leaves the loop
alone, so reference seconds compare commits measured at different moments.
"""

from __future__ import annotations

import gc
import signal
import statistics
from time import perf_counter

# nominal seconds for one round of the loop: reference seconds are seconds
# at that speed (on the 2-vCPU host of the seed-commit numbers a round took
# 0.0019-0.0039 s)
REFERENCE_S = 0.004
INTERVAL_S = 0.2


def loop_round() -> float:
    """Seconds for one round of the loop: integer, list and dict work.  The
    collector is off meanwhile, so the heap the program leaves behind does
    not slow it."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = perf_counter()
        table, seen, x = [0] * 4096, {}, 1
        for i in range(8000):
            x = (x * 1103515245 + 12345) & 0x7FFFFFFF
            j = x & 4095
            table[j] += i
            seen[j] = seen.get(j, 0) + 1
        return perf_counter() - start
    finally:
        if enabled:
            gc.enable()


# A process that starts the interpreter and imports these standard modules
# is the yardstick for set-up time, which is mostly the same kind of work.
STARTUP_PROBE = "import argparse, json, random, statistics\nprint('ready', flush=True)"
STARTUP_REFERENCE_S = 0.08


def to_reference(seconds: float, measured_s: float, reference_s: float = REFERENCE_S) -> float:
    """``seconds`` as they would read had the yardstick taken ``reference_s``."""
    return seconds * reference_s / measured_s


class Speedometer:
    """Times commands and samples the loop around and during them."""

    def __init__(self):
        self.last = statistics.median(loop_round() for _ in range(3))
        self.initial = self.last
        self._during = []
        self._spent = 0.0
        # the signal handler; a tracer may wrap it to see it as a span
        self.sample = self._sample

    def _sample(self) -> None:
        start = perf_counter()
        self._during.append(loop_round())
        self._spent += perf_counter() - start

    def time(self, fn):
        """Run ``fn()``; return its result, its seconds without the
        sampling, and the loop's median round over its duration."""
        self._during, self._spent = [], 0.0
        previous = signal.signal(signal.SIGALRM, lambda s, f: self.sample())
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        start = perf_counter()
        try:
            outcome = fn()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            elapsed = perf_counter() - start
            signal.signal(signal.SIGALRM, previous)
        after = loop_round()
        round_s = statistics.median([self.last, *self._during, after])
        self.last = after
        return outcome, elapsed - self._spent, round_s
