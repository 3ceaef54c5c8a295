"""Machine-speed reference for the hwsim benchmark.

The machines this benchmark runs on are shared: a vCPU's speed can change
by a factor of two from one second to the next, and a timing taken before
or after a repetition does not follow it.  So while a timed region runs, an
interval timer interrupts it every PERIOD_S seconds to time a short, fixed
piece of the benchmark's own code on the same CPU.  Timings are reported in
reference seconds: the measured seconds, less the time spent in these
probes, times REFERENCE_S over the median probe time.  No change to hwsim
can change the reference; it only rescales a run's clock.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

PERIOD_S = 0.05
# Median probe time on the machine the baseline was recorded on (2 vCPUs,
# Python 3.11.7); a reference second is one second of that machine.
REFERENCE_S = 3e-4


def _reference() -> float:
    # an interpreted scalar loop and small-array numpy steps, the two kinds
    # of work the workloads' inner loops do
    acc = 0.0
    for i in range(2_000):
        acc += (i % 7) * 0.5
    x = np.zeros((16, 2))
    for _ in range(40):
        x = np.maximum(x + 0.5, 0.0)
    return acc + float(x[0, 0])


class SpeedProbe:
    """Context manager that samples the reference while its body runs.

    Uses SIGALRM, so it must run in the main thread and nothing else in the
    process may use that signal meanwhile.
    """

    def __init__(self):
        self.samples: list[float] = []
        self.spent = 0.0                 # seconds the probes took inside the body
        self._previous = None

    def __enter__(self) -> "SpeedProbe":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        if not self.samples:  # a body shorter than one period: sample after it
            dt = self._sample()
            self.spent -= dt

    def _sample(self, *_signal_args) -> float:
        t0 = time.perf_counter()
        _reference()
        dt = time.perf_counter() - t0
        self.samples.append(dt)
        self.spent += dt
        return dt

    def reference_seconds(self, measured: float) -> float:
        """``measured`` seconds of the body, probes excluded, in reference seconds."""
        return reference_seconds(measured, self.spent, self.samples)


def reference_seconds(measured: float, spent: float, samples: list[float]) -> float:
    """Seconds measured with probes taking ``spent`` of them, in reference seconds."""
    return (measured - spent) * REFERENCE_S / statistics.median(samples)
