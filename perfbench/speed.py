"""Times in reference seconds: wall time scaled by the machine's speed.

The shared 2-core machine the benchmark runs on changes speed under a
running job: a fixed pure-Python loop flips between two speeds about 2x
apart in bursts of 0.1-2 s, independently on each core, and the share of
fast bursts drifts over minutes.  A job absorbs whatever share its
window caught, so its raw wall time moves with the machine, not with the
code.

:class:`SpeedClock` samples the machine's speed through a measured
phase: a ``SIGALRM`` interval timer runs a fixed probe loop (about
0.5 ms) on the benchmark's main thread every :data:`INTERVAL_S` seconds,
between the bytecodes of whatever that thread is doing (running a job,
or waiting for pool workers, a server or client threads).  Each stretch
of time between two probes is scaled by the mean speed the two probes
measured, relative to :data:`REFERENCE_PROBE_S`, and the probes' own
time is left out.  The result is the time the phase would have taken at
the reference speed; on this machine's slow phase it reads about the
same as the raw time.
"""

from __future__ import annotations

import signal
import time
from typing import List, Tuple

#: Seconds between probes.
INTERVAL_S = 0.025

#: Probe seconds at the reference speed: the probe's duration in the
#: slow phase of the 2-core machine the reference figures were taken on.
REFERENCE_PROBE_S = 0.0005

_PROBE_WORDS = [f"municipality {i} of region {i % 97}" for i in range(60)]


def probe() -> Tuple[float, float]:
    """Run the fixed probe loop once; return its start and end times."""
    start = time.perf_counter()
    counts = {}
    for word in _PROBE_WORDS:
        for i in range(len(word) - 2):
            gram = word[i : i + 3]
            counts[gram] = counts.get(gram, 0) + 1
    return start, time.perf_counter()


class SpeedClock:
    """Samples the speed of a measured phase; see the module docstring.

    Call ``start()`` on the main thread, ``mark()`` there just before a
    timed operation begins (so its first milliseconds have a probe of
    their own), ``stop()`` when the phase ends, then ``between(t0, t1)``
    for any two ``time.perf_counter()`` instants inside the phase.
    """

    def __init__(self) -> None:
        #: (start, end) of every probe, in time order.
        self.samples: List[Tuple[float, float]] = []
        self._previous = None

    def _on_alarm(self, signum, frame) -> None:
        self.samples.append(probe())

    def start(self) -> None:
        self.samples = [probe()]
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def mark(self) -> None:
        """Probe now, with the timer's probes held off meanwhile."""
        signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGALRM})
        try:
            self.samples.append(probe())
        finally:
            signal.pthread_sigmask(signal.SIG_UNBLOCK, {signal.SIGALRM})

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)
        self.samples.append(probe())

    def between(self, begin: float, end: float) -> float:
        """Reference seconds from ``begin`` to ``end``, probes left out."""
        total = 0.0
        for (begin_a, end_a), (begin_b, end_b) in zip(self.samples, self.samples[1:]):
            low, high = max(end_a, begin), min(begin_b, end)
            if high > low:
                # Speed moves linearly from probe a's to probe b's across
                # the gap; a stretch counts at the speed at its midpoint.
                speed_a = 1.0 / (end_a - begin_a)
                speed_b = 1.0 / (end_b - begin_b)
                share = ((low + high) / 2.0 - end_a) / (begin_b - end_a)
                speed = speed_a + (speed_b - speed_a) * share
                total += (high - low) * speed * REFERENCE_PROBE_S
        return total
