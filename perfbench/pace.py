"""Host-speed probe: a fixed reference loop, timed from a CPU-time signal.

On a shared host the speed of a CPU drifts: on the 2-vCPU development host
a fixed loop's speed swung by ±25% in phases of seconds to minutes, and the
process's own CPU time drifted with it, so neither wall nor CPU seconds of
one run compare with another run's. ``Pace`` samples that speed *during*
the run, in the same process: every ``INTERVAL_S`` of the process's CPU
time (``ITIMER_PROF``) a signal handler times ``reference_loop``, which
does the kind of work the simulator does (dict reads and writes, attribute
access, method calls, integer arithmetic) and allocates nothing the
garbage collector tracks. The loop touches no program state, so the
simulation's output does not change (every run's digest checks this).

A run's ``speed`` is ``REFERENCE_LOOP_S`` over the mean loop time of all its
samples, so it is 1.0 on a host whose loop takes ``REFERENCE_LOOP_S`` and
the run's host seconds times its speed are the seconds it would have taken
there. The probe costs about 2% of a run's time, the same share in fast
and slow phases.
"""

from __future__ import annotations

import signal
import statistics
import time
from typing import List

#: CPU seconds of the process between two samples.
INTERVAL_S = 0.01
#: Loop time that counts as speed 1.0 (about the development host's median).
REFERENCE_LOOP_S = 0.00018
#: Iterations of ``reference_loop``.
LOOP_ITERATIONS = 600


class _Counter:
    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 1

    def step(self, i: int) -> int:
        self.value = (self.value + i) & 0xFFFF
        return self.value


_TABLE = {key: key for key in range(64)}
_COUNTER = _Counter()


def reference_loop() -> int:
    table = _TABLE
    counter = _COUNTER
    total = 0
    for i in range(LOOP_ITERATIONS):
        key = i & 63
        total ^= table[key] + counter.step(i)
        table[key] = total & 0xFF
    return total


class Pace:
    """Samples the reference loop's time while the process runs."""

    def __init__(self) -> None:
        self.samples: List[float] = []

    def _sample(self, signum: int, frame: object) -> None:
        start = time.perf_counter()
        reference_loop()
        self.samples.append(time.perf_counter() - start)

    def start(self) -> None:
        """Start sampling (again) from no samples. Timers do not survive fork."""
        self.samples.clear()
        signal.signal(signal.SIGPROF, self._sample)
        signal.setitimer(signal.ITIMER_PROF, INTERVAL_S, INTERVAL_S)

    def stop(self) -> List[float]:
        signal.setitimer(signal.ITIMER_PROF, 0, 0)
        return list(self.samples)


def speed(samples: List[float]) -> float:
    """Host speed relative to the reference over a run's samples (0 if none)."""
    return REFERENCE_LOOP_S / statistics.fmean(samples) if samples else 0.0
