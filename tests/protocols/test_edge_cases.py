"""Protocol edge cases: queue fairness, reader/writer interaction, stress."""

import numpy as np
import pytest

from repro.memory.page import PageState
from repro.protocols.system import DsmSystem
from repro.protocols.timestamps import IntervalNotice
from tests.protocols.conftest import as_u8, from_u8, run_workers


def test_lock_grants_are_fifo():
    """LRC lock waiters are served in arrival order."""
    system = DsmSystem(4, protocol="lrc_d", page_size=256)
    system.alloc("order", 8 * 10)
    grant_order = []

    def worker(p, rank):
        # stagger requests so arrival order at the manager is rank order
        yield from p.node.compute(0.001 * rank)
        yield from p.acquire_lock(0)
        grant_order.append(rank)
        yield from p.node.compute(0.01)
        yield from p.release_lock(0)
        yield from p.barrier()

    run_workers(system, worker)
    assert grant_order == [0, 1, 2, 3]


def test_writer_does_not_starve_behind_reader_stream():
    """VC: queued writers block later readers (no writer starvation)."""
    system = DsmSystem(4, protocol="vc_sd", page_size=256)
    system.alloc("x", 8, page_aligned=True)
    events = []

    def worker(p, rank):
        if rank == 0:
            yield from p.acquire_view(0)
            yield from p.mm.write_bytes(0, as_u8([1]))
            yield from p.release_view(0)
        yield from p.barrier()
        if rank in (1, 3):
            # readers holding the view for a while
            yield from p.acquire_rview(0)
            events.append(("r-in", rank, p.node.sim.now))
            yield from p.node.compute(0.02)
            yield from p.release_rview(0)
        elif rank == 2:
            yield from p.node.compute(0.005)  # arrive while readers hold
            yield from p.acquire_view(0)
            events.append(("w-in", rank, p.node.sim.now))
            yield from p.mm.write_bytes(0, as_u8([2]))
            yield from p.release_view(0)
        yield from p.barrier()

    run_workers(system, worker)
    # the writer got in after the readers drained
    w_time = next(t for kind, r, t in events if kind == "w-in")
    r_times = [t for kind, r, t in events if kind == "r-in"]
    assert w_time > max(r_times)


def test_reader_after_queued_writer_waits():
    """A read acquire arriving after a queued writer does not overtake it."""
    system = DsmSystem(4, protocol="vc_sd", page_size=256)
    system.alloc("x", 8, page_aligned=True)
    values = {}

    def worker(p, rank):
        if rank == 0:
            yield from p.acquire_view(0)
            yield from p.mm.write_bytes(0, as_u8([1]))
            yield from p.node.compute(0.02)  # hold while others queue
            yield from p.release_view(0)
        elif rank == 1:
            yield from p.node.compute(0.005)
            yield from p.acquire_view(0)  # writer queues first
            yield from p.mm.write_bytes(0, as_u8([2]))
            yield from p.release_view(0)
        elif rank == 2:
            yield from p.node.compute(0.010)
            yield from p.acquire_rview(0)  # reader queues after the writer
            raw = yield from p.mm.read_bytes(0, 8)
            values[rank] = from_u8(raw)[0]
            yield from p.release_rview(0)
        yield from p.barrier()

    run_workers(system, worker)
    # the reader saw the queued writer's value, not the first one
    assert values[2] == 2


def test_many_views_many_nodes_stress():
    """Randomised-but-deterministic stress: 8 nodes x 12 views, interleaved
    increments; every counter must equal the number of increments."""
    n, v_count, rounds = 8, 12, 5
    system = DsmSystem(n, protocol="vc_sd", page_size=256)
    arrays = [system.alloc(f"c{v}", 8, page_aligned=True) for v in range(v_count)]

    def worker(p, rank):
        for r in range(rounds):
            v = (rank * 7 + r * 3) % v_count
            yield from p.acquire_view(v)
            base = arrays[v].base
            raw = yield from p.mm.read_bytes(base, 8)
            yield from p.mm.write_bytes(base, as_u8([from_u8(raw)[0] + 1]))
            yield from p.release_view(v)
        yield from p.barrier()
        if rank == 0:
            totals = []
            for v in range(v_count):
                yield from p.acquire_rview(v)
                raw = yield from p.mm.read_bytes(arrays[v].base, 8)
                totals.append(int(from_u8(raw)[0]))
                yield from p.release_rview(v)
            return totals

    results = run_workers(system, worker)
    expected = [0] * v_count
    for rank in range(n):
        for r in range(rounds):
            expected[(rank * 7 + r * 3) % v_count] += 1
    assert results[0] == expected


def test_interleaved_locks_and_barriers_on_lrc():
    """Locks protecting different data interleaved with barriers."""
    n = 4
    system = DsmSystem(n, protocol="lrc_d", page_size=256)
    system.alloc("a", 8)
    system.alloc("b", 8, page_aligned=True)

    def worker(p, rank):
        for _ in range(3):
            yield from p.acquire_lock(0)
            raw = yield from p.mm.read_bytes(0, 8)
            yield from p.mm.write_bytes(0, as_u8([from_u8(raw)[0] + 1]))
            yield from p.release_lock(0)
            yield from p.acquire_lock(1)
            base = system.space.region("b").base
            raw = yield from p.mm.read_bytes(base, 8)
            yield from p.mm.write_bytes(base, as_u8([from_u8(raw)[0] + 2]))
            yield from p.release_lock(1)
            yield from p.barrier()
        yield from p.acquire_lock(0)
        raw_a = yield from p.mm.read_bytes(0, 8)
        yield from p.release_lock(0)
        yield from p.acquire_lock(1)
        raw_b = yield from p.mm.read_bytes(system.space.region("b").base, 8)
        yield from p.release_lock(1)
        return (from_u8(raw_a)[0], from_u8(raw_b)[0])

    results = run_workers(system, worker)
    assert all(r == (12, 24) for r in results)


def test_empty_interval_release_is_cheap():
    """Releasing a view without writing produces no notice traffic growth."""
    system = DsmSystem(2, protocol="vc_sd", page_size=256)
    system.alloc("x", 8, page_aligned=True)

    def worker(p, rank):
        if rank == 0:
            yield from p.acquire_view(0)
            yield from p.mm.write_bytes(0, as_u8([1]))
            yield from p.release_view(0)
        yield from p.barrier()
        before = len(p.diff_store)
        yield from p.acquire_view(0)
        yield from p.mm.read_bytes(0, 8)  # read-only use of exclusive view
        yield from p.release_view(0)
        assert len(p.diff_store) == before  # no new diffs
        yield from p.barrier()

    run_workers(system, worker)


def test_lamport_stamps_strictly_order_view_chain():
    """Each successive holder's interval gets a larger Lamport stamp."""
    system = DsmSystem(4, protocol="vc_d", page_size=256)
    system.alloc("x", 8, page_aligned=True)
    stamps = []

    def worker(p, rank):
        yield from p.node.compute(0.001 * rank)
        yield from p.acquire_view(0)
        raw_ok = True
        if p.mm.state(0).name != "NO_COPY":
            yield from p.mm.read_bytes(0, 8)
        yield from p.mm.write_bytes(0, as_u8([rank]))
        yield from p.release_view(0)
        stamps.append((rank, p.lamport))
        yield from p.barrier()

    run_workers(system, worker)
    ordered = [s for _, s in sorted(stamps)]
    assert ordered == sorted(ordered)
    assert len(set(ordered)) == len(ordered)  # strictly increasing


def test_notice_invalidation_rules():
    """A notice changes only the pages held here: a page with no copy stays
    so, a read-only copy turns INVALID, and a page being written is first
    flushed as an early diff of the current interval.  Every named page is
    queued as pending, and the clock takes the notice's stamp."""
    system = DsmSystem(2, protocol="lrc_d", page_size=256)
    system.alloc("x", 3 * 256, page_aligned=True)
    p = system.protocols[0]
    p.mm.zero_fill(0)
    p.mm.zero_fill(2)
    p.mm.start_writing(2)
    p.mm.page(2).data[3] = 1
    notice = IntervalNotice(node=1, idx=1, lamport=5, pages=(0, 1, 2))
    p.apply_notices([notice])
    assert [p.mm.state(pid) for pid in range(3)] == [
        PageState.INVALID, PageState.NO_COPY, PageState.INVALID]
    assert p.pending == {0: [notice], 1: [notice], 2: [notice]}
    assert [d.runs for d in p._early_flush[2]] == [((3, b"\x01"),)]
    assert p.mm.write_set == set() and p.lamport == 5
