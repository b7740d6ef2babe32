"""The one recorder fan-out, pinned once for every protocol.

A barrier and an acquire each report to three recorders — tracer span, oracle
edge, ``RunStats`` timer — from one place (``BaseDsmProtocol._wait_begin`` /
``_wait_done``), and the ``Metrics`` histograms are folded from those spans,
so what they emit is the same sequence under every protocol, differing only
in the sync object's name (lock vs view).  Two ranks each take exclusive access to object 1 (managed by
rank 1: a remote acquire for rank 0, a manager-local one for rank 1), write,
release, and meet at one barrier.
"""

import pytest

from repro.core import TraditionalSystem, make_system
from repro.obs import AccessRecorder, EventTracer, Metrics

OBJ = 1


def observed_run(protocol):
    system = make_system(2, protocol)
    arr = system.alloc_array("x", 8, dtype="int64", page_aligned=True)
    sim = system.sim
    sim.tracer, sim.oracle = EventTracer(), AccessRecorder()
    lock_style = isinstance(system, TraditionalSystem)

    def body(rt):
        acquire, release = (
            (rt.acquire_lock, rt.release_lock) if lock_style
            else (rt.acquire_view, rt.release_view)
        )
        yield from acquire(OBJ)
        yield from arr.write(rt, rt.rank, [rt.rank + 1])
        yield from release(OBJ)
        yield from rt.barrier()

    system.run_program(body)
    return system, lock_style


@pytest.mark.parametrize("protocol", ["lrc_d", "hlrc_d", "vc_d", "vc_sd"])
def test_barrier_and_acquire_emit_one_record_sequence(protocol):
    system, lock_style = observed_run(protocol)
    sim = system.sim
    metrics = Metrics().fold(sim.tracer.events)
    kind = "lock" if lock_style else "view"
    if lock_style:
        acquire_span = (f"lock {OBJ}", {"lock": OBJ})
        acquire_labels = {"lock": OBJ}
    else:
        acquire_span = (f"view {OBJ} (w)", {"view": OBJ, "mode": "w"})
        acquire_labels = {"view": OBJ, "mode": "w"}

    acquire_waits = []
    for rank in range(2):
        # tracer: one acquire-wait then one barrier-wait span on the app lane
        spans = [
            ev for ev in sim.tracer.events
            if ev[2] == rank and ev[3] == "app" and ev[4] in ("acquire-wait", "barrier-wait")
        ]
        assert [(ev[0], ev[4], ev[5], ev[6]) for ev in spans] == [
            ("B", "acquire-wait", *acquire_span),
            ("E", "acquire-wait", None, None),
            ("B", "barrier-wait", "barrier 0", {"bid": 0}),
            ("E", "barrier-wait", None, None),
        ]
        acquire_wait = spans[1][1] - spans[0][1]
        barrier_wait = spans[3][1] - spans[2][1]
        acquire_waits.append(acquire_wait)

        # oracle: the synchronisation edges, stamped at the spans' ends
        # (arrival comes after LRC's interval publication, so only its
        # order is pinned)
        sync = [
            ev for ev in sim.oracle.events
            if ev[2] == rank and ev[0] in ("acq", "rel", "ba", "bx")
        ]
        assert [(ev[0], *ev[3:]) for ev in sync] == [
            ("acq", kind, OBJ, "w"),
            ("rel", kind, OBJ, "w"),
            ("ba", 0),
            ("bx", 0),
        ]
        assert sync[0][1] == spans[1][1] and sync[3][1] == spans[3][1]
        assert spans[2][1] <= sync[2][1] <= spans[3][1]

        # RunStats: the rank's shard timed exactly those two waits
        shard = system.dsm.stats_for(rank)
        assert (shard.acquire_time_n, shard.acquire_time_sum) == (1, acquire_wait)
        assert (shard.barrier_time_n, shard.barrier_time_sum) == (1, barrier_wait)

        # Metrics: the barrier histogram is per node
        hist = metrics.histogram("barrier_wait_seconds", node=rank)
        assert (hist.count, hist.sum) == (1, barrier_wait)

    # rank 0 asked a remote manager and waited; rank 1 is the manager
    assert acquire_waits[0] > 0
    hist = metrics.histogram("acquire_wait_seconds", **acquire_labels)
    assert (hist.count, hist.min, hist.max) == (2, min(acquire_waits), max(acquire_waits))
    assert [lab for lab, _ in metrics.series("acquire_wait_seconds")] == [acquire_labels]

    # one episode, counted once, by the manager
    assert system.stats.barriers == 1
    assert metrics.counter_value("barrier_episodes") == 1
    assert metrics.histogram("barrier_skew_seconds").count == 1
    assert system.stats.acquires == 1  # rank 0's acquire message

    grants = metrics.histogram("grant_bytes", view=OBJ)
    assert grants is None if lock_style else grants.count == 2
