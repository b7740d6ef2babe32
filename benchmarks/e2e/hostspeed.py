"""How fast the host runs this process, sampled while it is being timed.

The reference host is a few cores of a shared machine.  Its speed is not
steady: for seconds to minutes at a time the same code runs 1.3 to 2 times
slower, CPU seconds tracking wall seconds (a neighbour on the same core, not
time-slicing), and the share of slow time drifts from a third to nine tenths
over a quarter of an hour.  Repetitions of a second or more never sit inside
one state, so no statistic of raw wall seconds repeats between two runs.

So the timed child measures the host along with the workload.  A timer signal
every ``PERIOD_S`` runs ``_probe``, a fixed interpreter-bound loop in the
benchmark's own code (heap pushes and pops, a generator resume: what the
simulator's engine does, and nothing a PR to ``repro`` can speed up), and
records how long it took.  ``REFERENCE_NS`` over that time is the host's
speed at that moment against a fixed reference (the quiet reference host
reads 1.0 to 1.2: a probe is quicker after a workload that leaves the caches
alone).  A repetition's wall seconds times the mean speed sampled inside it is
what it would have taken at the reference speed; that is what ``wall_s`` and
``setup_s`` report.  The probe costs about 1 % and the raw seconds stay in the
report.
"""

from __future__ import annotations

import heapq
import signal
import time

PERIOD_S = 0.02
PROBE_STEPS = 300
REFERENCE_NS = 140_000  # fixes the scale only; one probe takes 115-140 us on the quiet reference host


def _ticker():
    while True:
        yield 1


def _probe() -> None:
    resume = _ticker()
    heap: list = []
    now = 0.0
    for i in range(PROBE_STEPS):
        heapq.heappush(heap, (now + (i * 7919 % 101) * 0.01, i))
        if i & 1:
            now, _ = heapq.heappop(heap)
            next(resume)


class SpeedSampler:
    def __init__(self):
        self.probe_ns: list[int] = []

    def _tick(self, signum, frame) -> None:
        start = time.perf_counter_ns()
        _probe()
        self.probe_ns.append(time.perf_counter_ns() - start)

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def speed_since(self, first: int) -> float:
        """Mean speed over the probes from index ``first`` on (the time
        average, since probes are evenly spaced); 1.0 when there is none."""
        probes = self.probe_ns[first:]
        if not probes:
            return 1.0
        return sum(REFERENCE_NS / ns for ns in probes) / len(probes)
