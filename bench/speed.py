"""The machine's speed, sampled while a workload runs, to take it out of the
measured times.

The benchmark runs on a shared virtual machine whose speed for Python code
drifts between two levels about 1.75x apart, in spells of a fraction of a
second to tens of seconds, and process CPU time drifts with it (the time is
not stolen; the core just runs slower).  On a 2-vCPU Xeon VM with a 2.1 GHz
base clock, that made the medians of 25 s runs spread 17-47 % over runs,
and no order statistic of the raw latencies (min, p10, median, p90) got
below 10 %.

``SpeedProbe`` runs a fixed reference computation, plain ``Fraction``
arithmetic of the kind tiltbench spends its time in, from a ``SIGALRM``
handler every ``INTERVAL_S`` of wall time, so it is sampled inside long
calls as well as between them.  ``normalize(start, end)`` takes the handler
time out of a measured interval and rescales what is left by
``REF_NOMINAL_S`` over the mean reference time near that interval: the time
the interval would have taken at the speed where the reference takes
``REF_NOMINAL_S``.  The reference touches no tiltbench code, so a change to
the program moves the normalized times as it moves the raw ones.
"""

from __future__ import annotations

import bisect
import gc
import signal
import statistics
import time
from fractions import Fraction

INTERVAL_S = 0.02
# The reference's median time on the 2-vCPU Xeon VM named above; it fixes
# the scale of the normalized times, not their spread.
REF_NOMINAL_S = 0.0006
# Reference samples taken this long before and after an interval also
# count for it, so that a short interval has a few.
PAD_S = 0.1


def reference():
    x = Fraction(1)
    for i in range(1, 90):
        x = x * Fraction(i + 1, i) - Fraction(1, i + 3)
    return x


class SpeedProbe:
    def __init__(self):
        self.starts = []  # handler start times, ascending
        self.ends = []
        self.refs = []  # the reference's duration in each handler call
        self.handler_s = [0.0]  # handler time before each call, cumulative

    def _sample(self, signum, frame):
        start = time.perf_counter()
        collecting = gc.isenabled()
        gc.disable()  # a collection of the program's heap is not the reference's time
        t0 = time.perf_counter()
        reference()
        t1 = time.perf_counter()
        if collecting:
            gc.enable()
        end = time.perf_counter()
        self.starts.append(start)
        self.ends.append(end)
        self.refs.append(t1 - t0)
        self.handler_s.append(self.handler_s[-1] + end - start)

    def start(self):
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def normalize(self, start, end):
        """The interval's wall time less the handlers run in it, at nominal speed."""
        lo = bisect.bisect_left(self.starts, start)
        hi = bisect.bisect_right(self.ends, end)
        own = (end - start) - (self.handler_s[hi] - self.handler_s[lo])
        near = self.refs[bisect.bisect_left(self.starts, start - PAD_S):bisect.bisect_right(self.ends, end + PAD_S)]
        if not near:
            raise RuntimeError("no speed sample near a measured interval")
        # a sample that was preempted says nothing about the core's speed
        typical = statistics.median(near)
        near = [r for r in near if r < 2 * typical]
        return own * REF_NOMINAL_S / statistics.fmean(near)

    def summary(self):
        return {
            "samples": len(self.refs),
            "ref_median_s": statistics.median(self.refs) if self.refs else None,
            "handler_s": self.handler_s[-1],
        }
