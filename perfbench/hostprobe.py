"""Host-speed probe: a fixed small kernel timed every few milliseconds.

On a shared host, load from other tenants on the same physical core slows
every instruction of this process, by up to 2-3x, in bursts of a few
milliseconds whose share of time drifts over minutes. CPU time grows with
wall time, so neither tells the program's own cost, and no statistic of
whole operations taken inside one run removes the drift.

While a `HostProbe` runs, a SIGALRM every INTERVAL_S runs `kernel()`, a
fixed piece of pure-Python work (dict lookups, float arithmetic, float
formatting and parsing) that uses no twinmill code, and records how long
it took. A sample's speed is REFERENCE_S over its time. `at_reference`
turns the wall time of a stretch of work into its time at reference
speed: the probes' own time is taken out, and the rest is scaled by the
mean speed the probes in that stretch saw.

REFERENCE_S is the kernel's time on an uncontended core of the host this
was tuned on (Intel Xeon, KVM guest, Python 3.11.7): the fastest samples
of runs there are 197-205 us. It is a fixed unit rather than each run's
own fastest sample because under sustained load a whole run can hold no
uncontended sample: one 18 s run's fastest was 326 us. On a faster or
slower host the times are likewise scaled to the reference core, as far
as that host's speed acts on the program and the kernel alike.

The kernel is interpreter-bound, as the benchmark's operations are. On
the 2-core host this was tuned on, the operations' slowdown followed the
kernel's one to one (log-log slope 0.97-1.06 over 1.1-2.1x slowdowns on
all three workloads), while a small-array numpy kernel gave slopes of
1.0-1.2 and a 4 MB array sum 1.8-2.6.

The handler runs between bytecodes of the main thread, so a long C call
defers it; a stretch that holds no sample is returned as measured.
"""

from __future__ import annotations

import signal
import statistics
import time
from contextlib import contextmanager

INTERVAL_S = 0.02
KERNEL_ROUNDS = 300
REFERENCE_S = 200e-6

_TABLE = {str(i): float(i) for i in range(200)}


def kernel():
    acc = 0.0
    for i in range(KERNEL_ROUNDS):
        acc += _TABLE[str(i % 200)] * 1.5
        acc += float(f"{acc:.6e}") * 1e-9
    return acc


class HostProbe:
    """Samples the core's speed between `start()` and `stop()`, or while
    `running()`; `samples` holds the kernel's seconds, in order."""

    def __init__(self, interval=INTERVAL_S):
        self.interval = interval
        self.samples = []
        self._previous = signal.SIG_DFL

    def _on_alarm(self, signum, frame):
        start = time.perf_counter()
        kernel()
        self.samples.append(time.perf_counter() - start)

    def start(self):
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    @contextmanager
    def running(self):
        self.start()
        try:
            yield self
        finally:
            self.stop()

    def mark(self):
        """Index of the next sample; a stretch of work is the samples
        between its start and end marks."""
        return len(self.samples)

    def at_reference(self, wall, first, last):
        """Seconds the stretch that took `wall` and holds samples[first:last]
        would take at reference speed."""
        probes = self.samples[first:last]
        if not probes:
            return wall
        speed = sum(REFERENCE_S / p for p in probes) / len(probes)
        return (wall - sum(probes)) * speed

    def summary(self):
        if not self.samples:
            return {"samples": 0}
        return {
            "samples": len(self.samples),
            "interval_ms": 1e3 * self.interval,
            "fastest_us": 1e6 * min(self.samples),
            "median_us": 1e6 * statistics.median(self.samples),
        }
