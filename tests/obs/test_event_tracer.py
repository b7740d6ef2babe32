"""Tests for the structured event tracer: coverage and determinism."""

import json

from repro.apps import APPS
from repro.apps.common import run_app
from repro.obs import EventTracer, chrome_trace


def traced_run(app="is", protocol="vc_d", nprocs=4):
    tracer = EventTracer()
    result = run_app(APPS[app], protocol, nprocs, tracer=tracer)
    return tracer, result


def test_tracer_records_all_expected_categories():
    tracer, _ = traced_run()
    cats = {ev[4] for ev in tracer.events}
    for expected in (
        "run", "compute", "barrier-wait", "acquire-wait",
        "page-fault", "diff-wait", "tx", "rx",
    ):
        assert expected in cats, f"missing category {expected}"


def test_tracer_records_engine_counter():
    tracer, _ = traced_run(app="sor", protocol="vc_sd", nprocs=2)
    counters = [ev for ev in tracer.events if ev[0] == "C"]
    assert counters, "no counter events"
    assert all(ev[5] == "live_processes" for ev in counters)
    assert all(ev[2] == -1 for ev in counters)  # engine-global pid


def test_tracer_spans_balance_per_lane():
    tracer, _ = traced_run()
    depth: dict[tuple, int] = {}
    for ph, _t, pid, lane, _cat, _name, _args in tracer.events:
        key = (pid, lane)
        if ph == "B":
            depth[key] = depth.get(key, 0) + 1
        elif ph == "E":
            assert depth.get(key, 0) > 0, f"E without B on {key}"
            depth[key] -= 1
    assert not any(depth.values()), f"unclosed spans: {depth}"


def test_tracer_timestamps_monotone():
    tracer, _ = traced_run(app="sor", protocol="vc_sd", nprocs=2)
    times = [ev[1] for ev in tracer.events]
    assert all(a <= b for a, b in zip(times, times[1:]))


def test_two_identical_runs_trace_identically():
    t1, _ = traced_run()
    t2, _ = traced_run()
    assert t1.events == t2.events
    doc1 = json.dumps(chrome_trace(t1), sort_keys=True)
    doc2 = json.dumps(chrome_trace(t2), sort_keys=True)
    assert doc1 == doc2


def test_mpi_run_traces_recv_wait():
    tracer, _ = traced_run(app="nn", protocol="mpi", nprocs=4)
    cats = {ev[4] for ev in tracer.events}
    assert "recv-wait" in cats
    assert "run" in cats


