"""A ``DIFF_REPLY`` is sized from the stored diffs it carries.

Its payload is ``CTRL_MSG_BYTES`` plus the wire size of every diff of every
requested interval.  The writer sums an interval's diffs once, on the
interval's first request, and keeps the sum in ``reply_bytes`` beside
``diff_store``; an interval nobody asks for is never sized.
"""

import pytest

from repro.net.message import MessageKind
from repro.protocols.base import CTRL_MSG_BYTES
from repro.protocols.system import DsmSystem
from tests.protocols.conftest import as_u8, run_workers

PAGE = 256


def _spy_replies(system):
    """Record ``(writer, payload, size)`` of every DIFF_REPLY sent."""
    replies = []
    for proto in system.protocols:
        node = proto.node

        def reply_to(req, kind, payload, size, node=node, send=node.reply_to):
            if kind is MessageKind.DIFF_REPLY:
                replies.append((node.id, payload, size))
            send(req, kind, payload, size)

        node.reply_to = reply_to
    return replies


def _wire(payload) -> int:
    return CTRL_MSG_BYTES + sum(d.wire_size for diffs in payload.values() for d in diffs)


def _check_sized_once(system, replies):
    """Every reply matches its diffs; only requested intervals were sized,
    each to its stored diffs' wire size."""
    requested = set()
    for writer, payload, size in replies:
        assert size == _wire(payload)
        requested.update((writer, diffs[0].page_id, idx) for idx, diffs in payload.items())
    for proto in system.protocols:
        sized = {(proto.node.id, pid, idx) for pid, idx in proto.reply_bytes}
        assert sized <= requested
        for key, nbytes in proto.reply_bytes.items():
            assert nbytes == sum(d.wire_size for d in proto.diff_store[key])


def _multi_interval_lrc(p, rank):
    # rank 1 writes page 0 in three intervals and page 1 in a fourth that
    # nobody reads; rank 0 then pulls the three page-0 intervals at once
    if rank == 1:
        for k in range(3):
            yield from p.acquire_lock(0)
            yield from p.mm.write_bytes(8 * k, as_u8([k + 1]))
            yield from p.release_lock(0)
        yield from p.acquire_lock(1)
        yield from p.mm.write_bytes(PAGE, as_u8([9]))
        yield from p.release_lock(1)
    elif rank == 0:
        yield from p.node.compute(0.5)
        yield from p.acquire_lock(0)
        yield from p.mm.read_bytes(0, 24)
        yield from p.release_lock(0)


def _multi_interval_vc(p, rank):
    if rank == 1:
        for k in range(3):
            yield from p.acquire_view(0)
            yield from p.mm.write_bytes(8 * k, as_u8([k + 1]))
            yield from p.release_view(0)
        yield from p.acquire_view(1)
        yield from p.mm.write_bytes(PAGE, as_u8([9]))
        yield from p.release_view(1)
    elif rank == 0:
        yield from p.node.compute(0.5)
        yield from p.acquire_rview(0)
        yield from p.mm.read_bytes(0, 24)
        yield from p.release_rview(0)


@pytest.mark.parametrize("protocol, worker", [
    ("lrc_d", _multi_interval_lrc),
    ("vc_d", _multi_interval_vc),
])
def test_multi_interval_reply_is_control_bytes_plus_every_diff(protocol, worker):
    system = DsmSystem(3, protocol=protocol, page_size=PAGE)
    system.alloc("x", 2 * PAGE, page_aligned=True)
    replies = _spy_replies(system)
    run_workers(system, worker)
    multi = [(w, payload, size) for w, payload, size in replies if len(payload) > 1]
    assert [(w, sorted(payload)) for w, payload, _ in multi] == [(1, [1, 2, 3])]
    _check_sized_once(system, replies)
    writer = system.protocols[1]
    # the page-1 interval is stored but nobody asked for it: never sized
    never_asked = [key for key in writer.diff_store if key[0] == 1]
    assert never_asked and not set(never_asked) & set(writer.reply_bytes)


def test_early_flushed_diff_and_end_diff_travel_in_one_reply():
    """A write notice hitting a page being written flushes it as an early
    diff; the interval then stores that diff and its end diff, and one
    reply carries both.  LRC_d only: VC_d's views never overlap, so no
    notice can name a page its receiver is writing."""
    system = DsmSystem(3, protocol="lrc_d", page_size=PAGE)
    system.alloc("x", PAGE, page_aligned=True)
    replies = _spy_replies(system)

    def worker(p, rank):
        if rank == 2:
            yield from p.acquire_lock(1)
            yield from p.mm.write_bytes(64, as_u8([5]))
            yield from p.release_lock(1)
        elif rank == 1:
            yield from p.node.compute(0.1)
            yield from p.acquire_lock(0)
            yield from p.mm.write_bytes(0, as_u8([7]))
            # rank 2's notice on page 0 arrives while this node writes it
            yield from p.acquire_lock(1)
            yield from p.mm.write_bytes(8, as_u8([8]))
            yield from p.release_lock(1)
            yield from p.release_lock(0)
        else:
            yield from p.node.compute(0.5)
            yield from p.acquire_lock(1)
            yield from p.mm.read_bytes(0, PAGE)
            yield from p.release_lock(1)

    run_workers(system, worker)
    (two,) = [payload for w, payload, _ in replies
              if w == 1 and any(len(ds) == 2 for ds in payload.values())]
    early, end = next(ds for ds in two.values() if len(ds) == 2)
    assert early.runs[0][0] == 0 and end.runs[0][0] == 8
    _check_sized_once(system, replies)
