"""Tests for the contention-metrics registry."""

import json

import pytest

from repro.apps import APPS
from repro.apps.common import run_app
from repro.core import VoppSystem
from repro.obs import EventTracer, Histogram, Metrics, format_contention


def fold_vopp_run(nprocs, body_of):
    """Run a VOPP program over one page-aligned array, traced; return the
    metrics folded from its rows."""
    system = VoppSystem(nprocs)
    arr = system.alloc_array("shared", 64, dtype="int64", page_aligned=True)
    system.sim.tracer = tracer = EventTracer()
    system.run_program(body_of(arr))
    return Metrics().fold(tracer.events)


def contended(arr, rounds=6):
    """Every rank takes view 0 exclusively ``rounds`` times, holding it."""
    def body(rt):
        for _ in range(rounds):
            yield from rt.acquire_view(0)
            cur = yield from arr.read(rt, 0, 1)
            yield from arr.write(rt, 0, [cur[0] + 1])
            yield from rt.compute(0.002)
            yield from rt.release_view(0)
        yield from rt.barrier()
    return body


def test_counters_and_gauges_are_label_keyed():
    m = Metrics()
    m.inc("diff_bytes", 100, page=3)
    m.inc("diff_bytes", 50, page=3)
    m.inc("diff_bytes", 7, page=4)
    assert m.counter_value("diff_bytes", page=3) == 150
    assert m.counter_value("diff_bytes", page=4) == 7
    assert m.counter_value("diff_bytes", page=99) == 0


def test_histogram_observations():
    h = Histogram()
    for v in (0.001, 0.01, 0.1):
        h.observe(v)
    assert h.count == 3
    assert h.sum == pytest.approx(0.111)
    assert h.min == pytest.approx(0.001)
    assert h.max == pytest.approx(0.1)
    assert h.mean == pytest.approx(0.037)
    snap = h.snapshot()
    assert sum(snap["buckets"].values()) == 3


def test_observe_routes_to_labelled_histograms():
    m = Metrics()
    m.observe("acquire_wait_seconds", 0.5, view=1, mode="w")
    m.observe("acquire_wait_seconds", 1.5, view=1, mode="w")
    m.observe("acquire_wait_seconds", 0.1, view=2, mode="r")
    h = m.histogram("acquire_wait_seconds", view=1, mode="w")
    assert h.count == 2 and h.sum == pytest.approx(2.0)
    assert len(m.series("acquire_wait_seconds")) == 2


def test_snapshot_is_deterministic_and_json_clean(tmp_path):
    def build():
        m = Metrics()
        m.inc("diff_bytes", 10, page=2)
        m.inc("diff_bytes", 1, page=1)
        m.observe("barrier_wait_seconds", 0.25, node=1)
        return m

    a, b = build().snapshot(), build().snapshot()
    assert a == b
    path = tmp_path / "m.json"
    build().write_json(str(path))
    assert json.loads(path.read_text()) == a


def test_format_contention_renders_tables_and_empty_case():
    m = Metrics()
    assert "none recorded" in format_contention(m)
    m.inc("diff_bytes", 64, page=0)
    m.observe("acquire_wait_seconds", 0.5, view=3, mode="w")
    text = format_contention(m)
    assert "diff_bytes" in text
    assert "acquire_wait_seconds" in text
    assert "view=3" in text


def test_metered_dsm_run_records_expected_metrics():
    m = Metrics()
    run_app(APPS["is"], "vc_d", 4, metrics=m)
    names = {k[0] for k in m.histograms} | {k[0] for k in m.counters}
    assert "acquire_wait_seconds" in names
    assert "barrier_wait_seconds" in names
    assert "barrier_skew_seconds" in names
    assert "diff_bytes" in names
    assert "diff_requests" in names
    assert m.counter_value("barrier_episodes") > 0


def test_vc_sd_records_piggyback_not_diff_traffic():
    m = Metrics()
    run_app(APPS["is"], "vc_sd", 4, metrics=m)
    names = {k[0] for k in m.counters}
    assert "piggyback_bytes" in names
    assert "diff_requests" not in names


def test_metered_run_is_observationally_pure():
    base = run_app(APPS["is"], "vc_d", 4)
    m = Metrics()
    metered = run_app(APPS["is"], "vc_d", 4, metrics=m)
    assert metered.events == base.events
    assert metered.time == base.time
    assert metered.table_row() == base.table_row()
    assert metered.metrics is m and base.metrics is None


def test_unmetered_run_records_nothing():
    sentinel = Metrics()
    run_app(APPS["sor"], "vc_sd", 2)
    assert not sentinel.counters and not sentinel.histograms


def test_fold_keeps_exclusive_and_read_acquires_apart():
    """One ``mode=w`` and one ``mode=r`` series per view, each counting its
    own acquires."""
    def body_of(arr):
        def body(rt):
            if rt.rank == 0:
                yield from rt.acquire_view(0)
                yield from arr.write(rt, 0, list(range(8)))
                yield from rt.release_view(0)
            yield from rt.barrier()
            yield from rt.acquire_Rview(0)
            yield from arr.read(rt)
            yield from rt.release_Rview(0)
            yield from rt.barrier()
        return body

    m = fold_vopp_run(3, body_of)
    assert m.histogram("acquire_wait_seconds", view=0, mode="w").count == 1
    assert m.histogram("acquire_wait_seconds", view=0, mode="r").count == 3


def test_fold_records_grant_bytes_per_grant():
    m = fold_vopp_run(4, contended)
    waits = m.histogram("acquire_wait_seconds", view=0, mode="w")
    assert waits.count == 4 * 6 and waits.sum > 0 and waits.max >= waits.mean
    assert m.histogram("acquire_wait_seconds", view=0, mode="r") is None
    assert m.histogram("grant_bytes", view=0).count == 4 * 6


def test_fold_is_deterministic_across_runs():
    a, b = fold_vopp_run(4, contended), fold_vopp_run(4, contended)
    assert a.snapshot() == b.snapshot()
    assert format_contention(a) == format_contention(b)
