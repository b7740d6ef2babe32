"""Tests for the causal critical-path analysis.

The load-bearing invariant is the *exact partition*: the walked segments
are contiguous with float equality and their durations telescope to the
run's total simulated time, for every (app, protocol, nprocs) cell — no
epsilon slop hiding double-counted or dropped time.
"""

import math

import pytest

from repro.apps import APPS
from repro.apps.common import run_app
from repro.obs import (
    WAIT_CATEGORIES,
    EventTracer,
    app_intervals,
    compute_critical_path,
    format_critical_path,
)


def _assert_exact_partition(cp):
    assert cp.segments, "empty path for a traced run"
    assert cp.segments[0].t0 == cp.start
    assert cp.segments[-1].t1 == cp.end
    for a, b in zip(cp.segments, cp.segments[1:]):
        assert a.t1 == b.t0, f"gap between {a} and {b}"
    assert math.fsum(s.duration for s in cp.segments) == pytest.approx(
        cp.total, abs=1e-9
    )
    assert math.fsum(cp.by_category.values()) == pytest.approx(cp.total, abs=1e-9)


def _assert_rank_segments_sorted_and_disjoint(cp):
    """What the slack bisect relies on: one rank's path segments, taken in
    path order, run ``t0 <= t1 <= next t0``."""
    last_end: dict[int, float] = {}
    for seg in cp.segments:
        assert seg.t0 <= seg.t1, seg
        assert last_end.get(seg.rank, seg.t0) <= seg.t0, seg
        last_end[seg.rank] = seg.t1


def _reference_waits(tracer, cp):
    """The wait pieces x same-rank segments double loop the bisect replaced,
    kept as the reference: every segment, in path order, against every piece."""
    intervals = app_intervals(tracer.events)
    out = []
    for pid in sorted(intervals):
        spans = [(s.t0, s.t1) for s in cp.segments if s.rank == pid]
        for i0, i1, cat in intervals[pid]["pieces"]:
            if cat not in WAIT_CATEGORIES or i1 <= i0:
                continue
            on_path = 0.0
            for s0, s1 in spans:
                lo, hi = max(i0, s0), min(i1, s1)
                if hi > lo:
                    on_path += hi - lo
            out.append((pid, i0, i1, on_path))
    return out


def _assert_waits_equal_reference(tracer, cp):
    _assert_rank_segments_sorted_and_disjoint(cp)
    got = [(w.rank, w.t0, w.t1, w.on_path) for w in cp.waits]
    assert got == _reference_waits(tracer, cp)  # == on floats, not approx


# -- synthetic walk -----------------------------------------------------------------


def _synthetic_tracer(rank0_waits=()):
    """Two ranks: rank 1 blocks on a lock rank 0 grants from a handler.

    Timeline: rank 1 computes [0,4], sends LOCK_ACQUIRE at 4; rank 0's
    handler runs (4.5, 5.5] and sends LOCK_GRANT at 5.0; the grant wakes
    rank 1 at 9.0; rank 1 computes [9,10] and finishes last.  Rank 0's app
    lane (run [0,8], barrier waits at ``rank0_waits``) is never walked.
    """
    tr = EventTracer()
    tr.begin(0, "app", "run", "rank 0", 0.0)
    for t0, t1 in rank0_waits:
        tr.begin(0, "app", "barrier-wait", "b", t0)
        tr.end(0, "app", "barrier-wait", t1)
    tr.end(0, "app", "run", 8.0)
    tr.begin(1, "app", "run", "rank 1", 0.0)
    tr.begin(1, "app", "acquire-wait", "lock 7", 4.0)
    tr.causal_send(3, 1, 4.0, "LOCK_ACQUIRE")
    tr.begin_dispatch(0, 3, "LOCK_ACQUIRE", 1, 4.5)
    tr.causal_send(5, 0, 5.0, "LOCK_GRANT")
    tr.end_dispatch(0, 5.5)
    tr.wake(1, 9.0, msg_id=5)
    tr.end(1, "app", "acquire-wait", 9.0)
    tr.end(1, "app", "run", 10.0)
    return tr


def test_synthetic_walk_crosses_ranks_through_the_handler():
    cp = compute_critical_path(_synthetic_tracer())
    assert cp.total == 10.0
    _assert_exact_partition(cp)
    shape = [(s.rank, s.lane, s.t0, s.t1, s.category) for s in cp.segments]
    assert shape == [
        (1, "app", 0.0, 4.0, "compute"),
        (0, "wire", 4.0, 4.5, "wire"),  # LOCK_ACQUIRE flight
        (0, "dispatch", 4.5, 5.0, "acquire"),  # handler until the grant send
        (1, "wire", 5.0, 9.0, "wire"),  # LOCK_GRANT flight
        (1, "app", 9.0, 9.0, "acquire"),  # zero-length wait tail
        (1, "app", 9.0, 10.0, "compute"),
    ]


def test_synthetic_wait_slack():
    cp = compute_critical_path(_synthetic_tracer())
    assert len(cp.waits) == 1
    w = cp.waits[0]
    assert (w.rank, w.t0, w.t1, w.category) == (1, 4.0, 9.0, "acquire")
    # same-rank path coverage: only the grant flight [5, 9] lands on rank 1;
    # the request flight and the handler belong to rank 0's timeline
    assert w.on_path == pytest.approx(4.0)
    assert w.slack == pytest.approx(1.0)


def test_slack_edge_pieces_match_reference():
    """Rank 0's path segments are the request flight [4, 4.5] and the handler
    [4.5, 5]; its waits touch them end-to-start on both sides, straddle both,
    and one is zero-length.  Rank 2 waits but never carries the path."""
    tr = _synthetic_tracer(
        rank0_waits=[(2.0, 4.0), (4.0, 4.0), (4.25, 5.0), (5.0, 7.0)]
    )
    tr.begin(2, "app", "run", "rank 2", 0.0)
    tr.begin(2, "app", "recv-wait", "r", 1.0)
    tr.end(2, "app", "recv-wait", 3.0)
    tr.end(2, "app", "run", 6.0)

    cp = compute_critical_path(tr)
    _assert_exact_partition(cp)
    assert not any(s.rank == 2 for s in cp.segments)
    _assert_waits_equal_reference(tr, cp)
    on_path = {(w.rank, w.t0, w.t1): w.on_path for w in cp.waits}
    assert on_path == {
        (0, 2.0, 4.0): 0.0,  # ends where the flight segment starts
        (0, 4.25, 5.0): 0.75,  # tail of the flight + the whole handler
        (0, 5.0, 7.0): 0.0,  # starts where the handler segment ends
        (1, 4.0, 9.0): 4.0,
        (2, 1.0, 3.0): 0.0,  # no segment on this rank: slack == duration
    }


def test_wake_without_edge_stays_local():
    tr = EventTracer()
    tr.begin(0, "app", "run", "rank 0", 0.0)
    tr.begin(0, "app", "barrier-wait", "b", 2.0)
    tr.wake(0, 5.0)  # no dispatch context, no explicit cause: no edge
    tr.end(0, "app", "barrier-wait", 5.0)
    tr.end(0, "app", "run", 6.0)
    cp = compute_critical_path(tr)
    _assert_exact_partition(cp)
    assert all(s.rank == 0 for s in cp.segments)
    assert cp.by_category["barrier"] == pytest.approx(3.0)


def test_empty_tracer_gives_empty_path():
    cp = compute_critical_path(EventTracer())
    assert cp.segments == [] and cp.total == 0.0
    assert "no traced run" in format_critical_path(cp)


# -- real runs ----------------------------------------------------------------------


@pytest.mark.parametrize(
    "app,protocol",
    [("is", "lrc_d"), ("is", "vc_d"), ("is", "vc_sd"), ("is", "hlrc_d"),
     ("sor", "vc_sd"), ("nn", "mpi")],
)
def test_partition_is_exact_across_matrix(app, protocol):
    tracer = EventTracer()
    run_app(APPS[app], protocol, 4, tracer=tracer)
    cp = compute_critical_path(tracer)
    _assert_exact_partition(cp)
    _assert_waits_equal_reference(tracer, cp)
    for w in cp.waits:
        assert 0.0 <= w.on_path <= w.duration + 1e-12
        assert w.slack >= -1e-12


def test_vc_sd_path_has_no_diff_segments():
    """Single-writer piggybacking keeps diff traffic off VC_sd's path."""
    tracer = EventTracer()
    run_app(APPS["is"], "vc_sd", 4, tracer=tracer)
    cp = compute_critical_path(tracer)
    assert cp.by_category.get("diff", 0.0) == 0.0
    assert not any(s.category == "diff" for s in cp.segments)


def test_lrc_d_path_shows_barrier_consistency_handlers():
    """LRC's centralised barrier work appears as dispatch-lane segments."""
    tracer = EventTracer()
    run_app(APPS["is"], "lrc_d", 4, tracer=tracer)
    cp = compute_critical_path(tracer)
    barrier_handlers = [
        s for s in cp.segments if s.lane == "dispatch" and s.category == "barrier"
    ]
    assert barrier_handlers, "no barrier consistency segments on LRC_d's path"


def test_handler_category_covers_every_message_kind():
    """HLRC's home-side diff application is diff work, not acquire work (it
    once travelled as a spare view kind), and no table names a kind nothing
    sends."""
    from repro.net.message import MessageKind
    from repro.obs.critical_path import _HANDLER_ORIGIN_KINDS, _handler_category

    assert _handler_category(MessageKind.DIFF_PUSH.name) == "diff"
    assert {k.name: _handler_category(k.name) for k in MessageKind} == {
        "ACK": "wire", "MPI_DATA": "wire", "TEST": "wire",
        "LOCK_ACQUIRE": "acquire", "LOCK_GRANT": "acquire", "LOCK_FORWARD": "acquire",
        "VIEW_ACQUIRE": "acquire", "VIEW_GRANT": "acquire", "VIEW_RELEASE": "acquire",
        "BARRIER_ARRIVE": "barrier", "BARRIER_RELEASE": "barrier",
        "DIFF_REQUEST": "diff", "DIFF_REPLY": "diff", "DIFF_PUSH": "diff",
        "PAGE_REQUEST": "diff", "PAGE_REPLY": "diff",
    }
    assert _HANDLER_ORIGIN_KINDS <= {k.name for k in MessageKind}


def test_critical_path_is_deterministic():
    def path():
        tracer = EventTracer()
        run_app(APPS["is"], "vc_d", 4, tracer=tracer)
        return compute_critical_path(tracer)

    a, b = path(), path()
    assert a.segments == b.segments
    assert a.by_category == b.by_category
    assert a.waits == b.waits


def test_format_critical_path_renders():
    tracer = EventTracer()
    run_app(APPS["sor"], "vc_sd", 2, tracer=tracer)
    text = format_critical_path(compute_critical_path(tracer))
    assert "Critical path" in text
    assert "compute" in text
    assert "waits:" in text
