"""Tests for per-process time-breakdown attribution."""

import pytest

from repro.apps import APPS
from repro.apps.common import run_app
from repro.obs import (
    COMPUTE,
    IDLE,
    EventTracer,
    app_intervals,
    compute_breakdown,
    format_breakdown,
)


def span(pid, cat, t0, t1, lane="app"):
    return [
        ("B", t0, pid, lane, cat, cat, None, None),
        ("E", t1, pid, lane, cat, None, None, None),
    ]


def test_synthetic_partition_is_exact():
    events = [
        ("B", 0.0, 0, "app", "run", "rank 0", None, None),
        *span(0, "barrier-wait", 1.0, 3.0),
        ("E", 10.0, 0, "app", "run", None, None, None),
    ]
    out = compute_breakdown(events)
    row = out[0]
    assert row["seconds"]["barrier-wait"] == pytest.approx(2.0)
    assert row["seconds"][COMPUTE] == pytest.approx(8.0)
    assert row["total"] == pytest.approx(10.0)
    assert sum(row["percent"].values()) == pytest.approx(100.0)


def test_innermost_open_span_wins():
    events = [
        ("B", 0.0, 0, "app", "run", "rank 0", None, None),
        ("B", 1.0, 0, "app", "barrier-wait", "b", None, None),
        ("B", 2.0, 0, "app", "page-fault", "pf", None, None),
        ("E", 4.0, 0, "app", "page-fault", None, None, None),
        ("E", 5.0, 0, "app", "barrier-wait", None, None, None),
        ("E", 6.0, 0, "app", "run", None, None, None),
    ]
    row = compute_breakdown(events)[0]
    assert row["seconds"]["page-fault"] == pytest.approx(2.0)
    assert row["seconds"]["barrier-wait"] == pytest.approx(2.0)
    assert row["seconds"][COMPUTE] == pytest.approx(2.0)


def test_idle_fills_to_global_end():
    events = [
        ("B", 0.0, 0, "app", "run", "rank 0", None, None),
        ("E", 4.0, 0, "app", "run", None, None, None),
        ("B", 0.0, 1, "app", "run", "rank 1", None, None),
        ("E", 10.0, 1, "app", "run", None, None, None),
    ]
    out = compute_breakdown(events)
    assert out[0]["seconds"][IDLE] == pytest.approx(6.0)
    assert IDLE not in out[1]["seconds"]
    assert out[0]["total"] == out[1]["total"] == pytest.approx(10.0)


def test_non_app_lanes_are_ignored():
    events = [
        ("B", 0.0, 0, "app", "run", "rank 0", None, None),
        ("X", 1.0, 0, "nic-rx", "rx", "rx", None, 9.0),
        ("E", 2.0, 0, "app", "run", None, None, None),
    ]
    row = compute_breakdown(events)[0]
    assert row["seconds"][COMPUTE] == pytest.approx(2.0)
    assert "rx" not in row["seconds"]


def test_unclosed_run_raises():
    events = [("B", 0.0, 0, "app", "run", "rank 0", None, None)]
    with pytest.raises(ValueError):
        compute_breakdown(events)


def test_empty_trace_gives_empty_breakdown():
    assert compute_breakdown([]) == {}
    assert "no traced processes" in format_breakdown({})


@pytest.mark.parametrize(
    "app,protocol",
    [("is", "vc_d"), ("is", "lrc_d"), ("is", "hlrc_d"),
     ("sor", "vc_sd"), ("nn", "mpi")],
)
def test_percentages_sum_to_100_across_protocols(app, protocol):
    tracer = EventTracer()
    run_app(APPS[app], protocol, 4, tracer=tracer)
    breakdown = compute_breakdown(tracer.events)
    assert sorted(breakdown) == list(range(4))
    for row in breakdown.values():
        assert sum(row["percent"].values()) == pytest.approx(100.0, abs=1e-9)
        assert sum(row["seconds"].values()) == pytest.approx(row["total"])


# -- degenerate runs ----------------------------------------------------------------


def test_single_rank_run():
    """nprocs=1: one row, no idle (it is its own last finisher), sums exact."""
    tracer = EventTracer()
    run_app(APPS["sor"], "vc_sd", 1, tracer=tracer)
    breakdown = compute_breakdown(tracer.events)
    assert sorted(breakdown) == [0]
    row = breakdown[0]
    assert IDLE not in row["seconds"]
    assert sum(row["percent"].values()) == pytest.approx(100.0, abs=1e-9)
    assert sum(row["seconds"].values()) == pytest.approx(row["total"])


def test_zero_duration_spans_are_kept_but_weightless():
    events = [
        ("B", 0.0, 0, "app", "run", "rank 0", None, None),
        *span(0, "barrier-wait", 2.0, 2.0),  # instantaneous barrier
        *span(0, "acquire-wait", 2.0, 2.0),  # back-to-back at the same instant
        ("E", 4.0, 0, "app", "run", None, None, None),
    ]
    row = compute_breakdown(events)[0]
    assert row["seconds"][COMPUTE] == pytest.approx(4.0)
    assert row["seconds"].get("barrier-wait", 0.0) == 0.0
    assert row["total"] == pytest.approx(4.0)
    pieces = app_intervals(events)[0]["pieces"]
    assert (2.0, 2.0, "barrier-wait") in pieces  # kept for the path walker


def test_zero_duration_run():
    events = [
        ("B", 3.0, 0, "app", "run", "rank 0", None, None),
        ("E", 3.0, 0, "app", "run", None, None, None),
    ]
    row = compute_breakdown(events)[0]
    assert row["total"] == 0.0
    assert row["percent"] == {} or sum(row["percent"].values()) == 0.0


def test_rank_that_never_blocks_is_pure_compute():
    events = [
        ("B", 0.0, 0, "app", "run", "rank 0", None, None),
        ("E", 10.0, 0, "app", "run", None, None, None),
        ("B", 0.0, 1, "app", "run", "rank 1", None, None),
        *span(1, "barrier-wait", 1.0, 9.0),
        ("E", 10.0, 1, "app", "run", None, None, None),
    ]
    out = compute_breakdown(events)
    assert out[0]["seconds"] == {COMPUTE: pytest.approx(10.0)}
    assert out[0]["percent"][COMPUTE] == pytest.approx(100.0)
    # the never-blocking rank yields exactly one compute piece
    assert app_intervals(events)[0]["pieces"] == [(0.0, 10.0, COMPUTE)]


def test_app_intervals_matches_breakdown_pieces():
    tracer = EventTracer()
    run_app(APPS["is"], "vc_d", 2, tracer=tracer)
    intervals = app_intervals(tracer.events)
    breakdown = compute_breakdown(tracer.events)
    for pid, info in intervals.items():
        assert info["start"] <= info["end"]
        # pieces partition [start, end] contiguously
        assert info["pieces"][0][0] == info["start"]
        assert info["pieces"][-1][1] == info["end"]
        for a, b in zip(info["pieces"], info["pieces"][1:]):
            assert a[1] == b[0]
        total = sum(p[1] - p[0] for p in info["pieces"])
        own = sum(
            s for c, s in breakdown[pid]["seconds"].items() if c != IDLE
        )
        assert total == pytest.approx(own, abs=1e-9)


def test_format_breakdown_renders_all_processes():
    tracer = EventTracer()
    run_app(APPS["sor"], "vc_sd", 2, tracer=tracer)
    text = format_breakdown(compute_breakdown(tracer.events))
    assert "compute" in text
    assert "mean" in text
    for pid in (0, 1):
        assert f"\n{pid:>6}" in text
