"""Samples the speed of the core a process runs on, while it works.

A shared host slows each core by up to about 1.6x in spells that last from
a fraction of a second to minutes, longer than a benchmark run, so the raw
wall time of the same pass moves by a fifth from run to run.  While a
:class:`Speedometer` is on, a timer signal interrupts the process every
``INTERVAL_S`` and times a fixed pure-Python loop (``PROBE_LOOPS``
iterations, about 0.1 ms, 1-2% of the work) on the same core, in the
same moments as the measured work.  :func:`scaled` multiplies a wall time
by ``PROBE_REF_S`` over the mean probe time: the wall time the work would
take at the speed where the probe takes ``PROBE_REF_S``.  The probe never
calls the lab, so a change to the lab moves the scaled time as it moves
the wall time.

Signal handlers run between bytecodes of the main thread; a long native
call defers the next probe to its end, and the timer's missed ticks
coalesce into one.  Only one speedometer may be on in a process.
"""

from __future__ import annotations

import signal
import time

INTERVAL_S = 0.01
PROBE_LOOPS = 1000
PROBE_REF_S = 1e-4


class Speedometer:
    def __init__(self):
        self.samples = []
        self._previous = None

    def _probe(self, signum, frame):
        start = time.perf_counter()
        acc = 0
        for i in range(PROBE_LOOPS):
            acc += i * i % 7
        self.samples.append(time.perf_counter() - start)
        return acc

    def __enter__(self):
        self.samples = []
        self._previous = signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def mean_s(self) -> float:
        """Mean probe time; ``PROBE_REF_S`` when no tick arrived."""
        return sum(self.samples) / len(self.samples) if self.samples else PROBE_REF_S


def scaled(wall: float, probe_s: float) -> float:
    """``wall`` seconds measured while the mean probe took ``probe_s``."""
    return wall * PROBE_REF_S / probe_s
