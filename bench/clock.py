"""Host-speed calibrated timing.

The benchmark runs on a few cores of a shared host, where the speed of
its single thread swings by up to 1.6x over periods of seconds to
minutes as other tenants load the same cores.  Even the fastest of
many repetitions moves with it, so raw times from two runs of the same
code can differ by more than any useful bound.

A fixed reference loop, timed between operations, tracks that speed.
An operation's calibrated time is its raw time scaled by
REF_S / (the median reference time around it): the time it would take
on a host that runs the reference loop in REF_S seconds.  A change to
roughtop moves the operation's time but not the reference, so a
calibrated time shows the change and not the host.

The reference runs with the garbage collector off, so that its time
depends on the host and not on how many objects the program keeps
alive.  This module imports only built-in modules, so that a fresh
interpreter can time the reference before it times its imports without
loading anything roughtop would load.
"""

import gc
import time

# Seconds the reference loop took on the host the baselines were
# measured on (2-vCPU Intel Xeon at 2.1 GHz) in its fast state.
REF_S = 0.0021
PROBE_EVERY_S = 0.05     # at most this long between two probes
WINDOW = 3               # probes used on each side of an operation


def reference() -> int:
    """Fixed interpreter work of the kind roughtop does: building
    tuples, lists, sets and dicts, and sorting.  Allocation-heavy work
    tracks the host's slowdowns the way roughtop's operations do; a
    tight arithmetic loop slows down more than they do."""
    pairs = [(i, i * 7 % 13) for i in range(5000)]
    kept = {p for p in pairs if p[1] > 3}
    index = {p: len(kept) for p in pairs[:1700]}
    return len(sorted(kept)) + len(index)


def time_reference() -> float:
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        reference()
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


def median(xs):
    s = sorted(xs)
    n = len(s)
    return s[n // 2] if n % 2 else (s[n // 2 - 1] + s[n // 2]) / 2


class Calibrator:
    """Probes the reference between operations and scales raw spans."""

    def __init__(self):
        self.at = []      # start of each probe
        self.took = []    # its reference time
        self.ends = []    # its end
        self.last = float("-inf")

    def probe(self):
        self.at.append(time.perf_counter())
        self.took.append(time_reference())
        self.last = time.perf_counter()
        self.ends.append(self.last)

    def maybe_probe(self):
        """Probe if the last probe is more than PROBE_EVERY_S old; call
        it between operations, outside their timing."""
        if time.perf_counter() - self.last >= PROBE_EVERY_S:
            self.probe()

    def calibrated(self, spans):
        """Calibrated durations of (start, end) spans given in time
        order, each scaled by the median of the WINDOW probes before
        it, any probes inside it and the WINDOW probes after it; the run
        must end with a probe."""
        out = []
        i = 0
        for t0, t1 in spans:
            while i < len(self.at) and self.at[i] < t0:
                i += 1
            j = i
            while j < len(self.at) and self.at[j] < t1:
                j += 1
            around = self.took[max(0, i - WINDOW):j + WINDOW]
            out.append((t1 - t0) * REF_S / median(around))
        return out

    def calibrated_total(self, spans) -> float:
        """Calibrated length of (start, end) spans given in time order,
        leaving out the probes taken inside them."""
        gaps = []
        k = 0
        for t0, t1 in spans:
            start = t0
            while k < len(self.at) and self.at[k] < t1:
                if self.at[k] >= t0:
                    gaps.append((start, self.at[k]))
                    start = self.ends[k]
                k += 1
            gaps.append((start, t1))
        return sum(self.calibrated(gaps))

    def factor(self) -> float:
        """Median reference time over REF_S: how slow the host ran."""
        return median(self.took) / REF_S
