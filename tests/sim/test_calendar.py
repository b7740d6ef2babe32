"""Calendar/bucket queue: exact order parity with the binary heap.

``Simulator(queue="calendar")`` must execute exactly the heap's order.
These tests pin pop order to ``heapq`` on randomized schedules and on the
degenerate shapes that historically break calendar queues.
"""

import heapq
import random

import pytest

from repro.sim import Simulator, Timeout
from repro.sim.calendar import CalendarQueue


def _entry(t, seq):
    # the engine's (t, tsched, cls, seq, fn, args) shape, fn/args inert
    return (t, 0.0, 0, seq, None, ())


def _drain_matches_heap(entries, interleave=None, rng=None):
    """Push/pop ``entries`` through both structures, comparing every pop."""
    cq = CalendarQueue()
    ref = []
    seq = 0
    i = 0
    entries = list(entries)
    while i < len(entries) or ref:
        push = i < len(entries) and (
            not ref or rng is None or rng.random() < 0.6
        )
        if push:
            e = _entry(entries[i], seq)
            seq += 1
            i += 1
            cq.push(e)
            heapq.heappush(ref, e)
        else:
            assert len(cq) == len(ref)
            assert cq[0] == ref[0]  # peek parity
            assert cq.pop() == heapq.heappop(ref)
    assert len(cq) == 0


def test_randomized_schedules_match_heap_order():
    rng = random.Random(20050831)
    for trial in range(20):
        n = rng.randint(1, 400)
        scale = rng.choice([1e-6, 1e-3, 1.0, 1e3])
        times = [rng.random() * scale for _ in range(n)]
        _drain_matches_heap(times, rng=rng)


def test_interleaved_push_pop_matches_heap_order():
    rng = random.Random(7)
    # monotone-ish times as the engine produces them: now + small delay
    now = 0.0
    times = []
    for _ in range(500):
        now += rng.random() * 1e-4
        times.append(now + rng.choice([0.0, 2e-5, 6e-5, 1e-2]))
    _drain_matches_heap(times, rng=rng)


# -- degenerate shapes ------------------------------------------------------------


def test_all_zero_delays_single_instant():
    _drain_matches_heap([0.0] * 300)


def test_single_far_future_outlier_among_dense_events():
    times = [i * 1e-5 for i in range(200)] + [3.1e7]  # ~1 simulated year out
    _drain_matches_heap(times)


def test_events_exactly_on_bucket_width_boundaries():
    cq = CalendarQueue(nbuckets=8, width=1e-5)
    w = 1e-5
    times = [k * w for k in range(40)] + [k * w for k in range(0, 40, 8)]
    _drain_matches_heap(times)


def test_ties_break_by_full_key_not_bucket_position():
    cq = CalendarQueue()
    ref = []
    for seq in (5, 3, 9, 0, 7):
        e = _entry(1.25e-4, seq)
        cq.push(e)
        heapq.heappush(ref, e)
    got = [cq.pop()[3] for _ in range(5)]
    assert got == [0, 3, 5, 7, 9]
    assert [heapq.heappop(ref)[3] for _ in range(5)] == got


def test_growth_and_shrink_through_resizes():
    rng = random.Random(99)
    cq = CalendarQueue()
    ref = []
    for seq in range(3000):
        e = _entry(rng.random() * rng.choice([1e-5, 1e-2, 10.0]), seq)
        cq.push(e)
        heapq.heappush(ref, e)
    # shrink all the way back down, checking order the whole way
    while ref:
        assert cq.pop() == heapq.heappop(ref)
    assert not cq
    with pytest.raises(IndexError):
        cq.pop()


# -- the engine on a calendar queue ----------------------------------------------


def test_simulator_behaves_identically_on_calendar_queue():
    """The same workload on heap and calendar simulators must produce the
    same trace, clock, and event count."""

    def run(queue):
        sim = Simulator(queue=queue)
        trace = []

        def worker(tag, period):
            for _ in range(40):
                yield Timeout(period)
                trace.append((tag, sim.now))

        for tag, period in enumerate([1e-5, 2.5e-5, 1e-4, 7e-3, 1.0]):
            sim.spawn(worker(tag, period))
        sim.run()
        return trace, sim.now, sim.events_processed

    assert run("calendar") == run("heap")


def test_simulator_calendar_windows_match_heap_windows():
    def run(queue):
        sim = Simulator(queue=queue)
        trace = []

        def worker(tag, period):
            for _ in range(25):
                yield Timeout(period)
                trace.append((tag, sim.now))

        for tag, period in enumerate([2e-5, 3e-5, 5e-4]):
            sim.spawn(worker(tag, period))
        w = 0.0
        while sim.peek_next_time() != float("inf"):
            w = max(w + 2e-5, sim.now)
            sim.run(until=w)
        return trace, sim.events_processed

    assert run("calendar") == run("heap")
