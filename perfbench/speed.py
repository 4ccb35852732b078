"""The box's speed, measured beside the work, so times can be rescaled.

A shared virtual CPU runs the same code at two speeds some 45 % apart and
switches between them every few seconds, one CPU independently of the
other (other tenants' load on the physical core).  A fixed-work interval
therefore reads up to 45 % longer from one run to the next, whatever the
program does.  The benchmark times every interval as usual and also runs
a fixed pure-Python reference loop on the same CPU just before and just
after it.  The interval is then reported in *reference seconds*: its
measured time times ``REFERENCE_S`` over the mean of the two reference
times.  The reference loop runs no ``repro`` code, so a change to the
program moves the rescaled time exactly as it moves the measured one; a
change of the box's speed does not.

``REFERENCE_S`` is the loop's time on the box of the baseline in its fast
state, so a rescaled time reads as a measured time there.
"""

from __future__ import annotations

import os
import time

#: Seconds one reference loop takes on the baseline box in its fast state.
REFERENCE_S = 0.0025
_ITERATIONS = 40_000


def reference_loop() -> float:
    """Seconds a fixed pure-Python loop takes on the calling thread's CPU.

    The faster of two runs, so an interrupt does not land in the sample.
    """
    times = []
    for _ in range(2):
        started = time.perf_counter()
        acc = 0
        for i in range(_ITERATIONS):
            acc += i * i % 7
        times.append(time.perf_counter() - started)
    return min(times)


class Speed:
    """Rescales intervals by reference loops on the CPUs that did the work.

    ``cpus=None`` samples the calling thread's CPU, for work on that
    thread (pin it first).  Otherwise every CPU in ``cpus`` is sampled in
    turn and their mean is used, for work spread over them (a server's
    threads); the caller's affinity is restored afterwards.
    """

    def __init__(self, cpus=None) -> None:
        self.cpus = cpus
        self.samples: list[float] = []
        self.last = 0.0

    def start(self) -> None:
        """Sample the reference right before an interval starts."""
        self.last = self.sample()

    def sample(self) -> float:
        if self.cpus is None:
            value = reference_loop()
        else:
            before = os.sched_getaffinity(0)
            values = []
            for cpu in self.cpus:
                os.sched_setaffinity(0, {cpu})
                values.append(reference_loop())
            os.sched_setaffinity(0, before)
            value = sum(values) / len(values)
        self.samples.append(value)
        return value

    def rescale(self, seconds: float) -> float:
        """``seconds`` that just ended, in reference seconds.

        Samples the reference once more; that sample also opens the next
        interval, so back-to-back intervals need one :meth:`start`.
        """
        before, self.last = self.last, self.sample()
        return seconds * REFERENCE_S / ((before + self.last) / 2)

    def slowdown(self) -> float:
        """Median reference time over ``REFERENCE_S``: how slow the box ran."""
        ordered = sorted(self.samples)
        return ordered[len(ordered) // 2] / REFERENCE_S
