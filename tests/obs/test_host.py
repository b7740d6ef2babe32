"""The host-time observatory: wall-clock spans, breakdown, purity.

:mod:`repro.obs.host` profiles *host* time (``time.perf_counter``, i.e.
CLOCK_MONOTONIC) around the real work the simulated clock cannot see: a
run's build/execute/extract/verify phases, the sweep pool's queue waits.
The load-bearing claims:

* **accounting closes** — for every process in a breakdown, the attributed
  category seconds plus ``other`` equal the process's wall time exactly
  (it's computed as the remainder), and the ``main`` total tracks the
  externally measured wall clock within a tolerance;
* **purity** — a profiled run's simulated observables are bit-identical to
  an unprofiled run's (the profiler is an observer on the None-default
  contract, like the tracer and metrics);
* **export merges** — host spans render as extra Perfetto processes beside
  the simulated trace and the merged document passes schema validation.
"""

import time

import pytest

from repro.obs.host import (
    HostProfiler,
    TOTAL,
    format_host_breakdown,
    host_breakdown,
)


# -- span mechanics ---------------------------------------------------------------


def test_begin_end_records_span():
    host = HostProfiler("t")
    host.begin("lane", "work", "step")
    host.end()
    assert len(host.spans) == 1
    proc, lane, cat, name, t0, t1, args = host.spans[0]
    assert (proc, lane, cat, name) == ("t", "lane", "work", "step")
    assert t1 >= t0


def test_nested_spans_pop_innermost():
    host = HostProfiler("t")
    host.begin("lane", "outer")
    host.begin("lane", "inner")
    host.end()
    host.end()
    cats = sorted(s[2] for s in host.spans)
    assert cats == ["inner", "outer"]
    inner = next(s for s in host.spans if s[2] == "inner")
    outer = next(s for s in host.spans if s[2] == "outer")
    assert outer[4] <= inner[4] and inner[5] <= outer[5]


def test_span_contextmanager_closes_on_error():
    host = HostProfiler("t")
    with pytest.raises(RuntimeError):
        with host.span("lane", "work"):
            raise RuntimeError("boom")
    assert len(host.spans) == 1


def test_end_without_begin_raises():
    host = HostProfiler("t")
    with pytest.raises(RuntimeError):
        host.end()


def test_add_span_records_under_another_process():
    host = HostProfiler("main")
    host.begin("run", "execute")
    host.end()
    host.add_span("pool", "queue-wait", "cell", 1.0, 2.5, proc="sweep")
    # procs() lists processes that recorded spans, in first-appearance order
    assert host.procs() == ["main", "sweep"]
    assert host.seconds("queue-wait", proc="sweep") == pytest.approx(1.5)
    assert host.seconds("execute", proc="main") >= 0.0


# -- the breakdown invariant ------------------------------------------------------


def test_breakdown_categories_sum_to_total_exactly():
    host = HostProfiler("main")
    host.add_span("run", TOTAL, TOTAL, 0.0, 10.0)
    host.add_span("run", "barrier-wait", "w", 0.0, 6.0)
    host.add_span("run", "route", "r", 6.0, 7.0)
    down = host_breakdown(host)
    b = down["main"]
    assert b["total"] == pytest.approx(10.0)
    assert b["seconds"]["barrier-wait"] == pytest.approx(6.0)
    assert b["seconds"]["route"] == pytest.approx(1.0)
    # the invariant: attributed + other == total, with no slack
    assert sum(b["seconds"].values()) + b["other"] == pytest.approx(b["total"])
    assert b["other"] == pytest.approx(3.0)


def test_breakdown_envelope_fallback_without_total_span():
    host = HostProfiler("main")
    host.add_span("run", "execute", "e", 2.0, 5.0)
    host.add_span("run", "verify", "v", 5.0, 6.0)
    b = host_breakdown(host)["main"]
    # no "total" span: wall is the envelope first-start..last-end
    assert b["total"] == pytest.approx(4.0)
    assert b["other"] == pytest.approx(0.0)


def test_format_breakdown_renders_every_process():
    host = HostProfiler("main")
    host.add_span("run", TOTAL, TOTAL, 0.0, 2.0)
    host.add_span("run", "execute", "e", 0.0, 1.0)
    host.add_span("pool", "run", "cell", 0.0, 1.0, proc="sweep")
    text = format_host_breakdown(host_breakdown(host))
    assert "main" in text and "sweep" in text
    assert "execute" in text and "wall" in text


# -- run_app's spans close on every way out ---------------------------------------


def test_profiled_run_breakdown_accounts_for_wall_time():
    """The profiled total tracks the wall clock measured *outside* the
    profiler, and the categories sum to it exactly."""
    from repro.apps import APPS
    from repro.apps.common import run_app

    host = HostProfiler("main")
    t0 = time.perf_counter()
    run_app(APPS["is"], "vc_sd", 8, host=host)
    wall = time.perf_counter() - t0

    b = host_breakdown(host)["main"]
    # the profiled total may only miss the perf_counter calls themselves
    assert b["total"] == pytest.approx(wall, rel=0.05)
    assert sum(b["seconds"].values()) + b["other"] == pytest.approx(
        b["total"], rel=1e-9
    )
    # the real work must be visible, not lumped into other
    assert {"build", "execute", "extract", "verify"} <= set(b["seconds"])
    assert b["other"] < b["total"] * 0.5


def test_profiled_run_is_bit_identical():
    from repro.apps import APPS
    from repro.apps.common import run_app

    plain = run_app(APPS["is"], "vc_sd", 8)
    host = HostProfiler("main")
    profiled = run_app(APPS["is"], "vc_sd", 8, host=host)
    assert profiled.table_row() == plain.table_row()
    assert profiled.time == plain.time and profiled.events == plain.events
    assert host.spans  # and it actually recorded something


def test_aborted_run_closes_every_host_span():
    """An aborted run used to leave ``("run", "total")`` open: the bare
    ``end()`` in ``run_app``'s ``finally`` closed the still-open ``execute``
    span instead, and the breakdown silently fell back to the envelope."""
    from repro.apps import APPS
    from repro.apps.common import run_app
    from repro.faults import RunAborted
    from repro.net.config import NetConfig

    host = HostProfiler("main")
    with pytest.raises(RunAborted):
        run_app(APPS["is"], "lrc_d", 2,
                netcfg=NetConfig(random_drop_prob=1.0), host=host)
    assert host._open == []
    assert [s[2] for s in host.spans] == ["build", "execute", TOTAL]


# -- merged export ----------------------------------------------------------------


def test_host_spans_close_under_their_own_category():
    """Every host span is one complete row carrying its own ``cat``, start
    and end — sequential spans, nested spans and the lane's tail alike, each
    lane in start order whatever order the spans completed in.  (While spans
    were ``B``/``E`` pairs synthesised from a per-lane stack, an ``E`` could
    close under another span's category; a row that is the span cannot.)"""
    from types import SimpleNamespace

    from repro.obs import chrome_trace, host_trace_events

    host = SimpleNamespace(spans=[  # completion order: inner spans first
        ("main", "coord", "setup", "setup", 1.0, 2.0, None),
        ("main", "coord", "route", "route", 2.0, 3.0, None),
        ("main", "pool", "cell", "cell 0", 2.0, 3.0, None),
        ("main", "coord", "merge", "merge", 3.5, 4.0, None),
        ("main", "pool", "verify", "verify", 3.0, 5.0, None),
        ("main", "pool", "sweep", "sweep", 1.0, 5.0, None),
    ])
    events, names = host_trace_events(host)
    by_lane = {}
    for ph, t, _pid, lane, cat, name, _args, end in events:
        by_lane.setdefault(lane, []).append((ph, t, end, cat, name))
    assert by_lane["coord"] == [
        ("X", 0.0, 1.0, "setup", "setup"),
        ("X", 1.0, 2.0, "route", "route"),
        ("X", 2.5, 3.0, "merge", "merge"),
    ]
    assert by_lane["pool"] == [
        ("X", 0.0, 4.0, "sweep", "sweep"),
        ("X", 1.0, 2.0, "cell", "cell 0"),
        ("X", 2.0, 4.0, "verify", "verify"),
    ]
    rows = [e for e in chrome_trace(events, names)["traceEvents"] if e["ph"] == "X"]
    assert [(e["cat"], e["ts"], e["dur"]) for e in rows] == [
        ("sweep", 0.0, 4e6), ("setup", 0.0, 1e6), ("route", 1e6, 1e6),
        ("cell", 1e6, 1e6), ("verify", 2e6, 2e6), ("merge", 2.5e6, 0.5e6),
    ]


def test_merged_chrome_trace_validates_and_separates_clock_domains():
    from repro.apps import APPS
    from repro.apps.common import run_app
    from repro.obs import (
        EventTracer,
        merged_chrome_trace,
        validate_chrome_trace,
    )
    from repro.obs.export import HOST_PID_BASE

    tracer = EventTracer()
    host = HostProfiler("main")
    run_app(APPS["is"], "vc_sd", 8, tracer=tracer, host=host)
    doc = merged_chrome_trace(tracer, host)
    validate_chrome_trace(doc)
    pids = {e["pid"] for e in doc["traceEvents"] if "pid" in e}
    sim_pids = {p for p in pids if p < HOST_PID_BASE}
    host_pids = {p for p in pids if p >= HOST_PID_BASE}
    assert sim_pids and host_pids  # both clock domains present, disjoint
    names = {
        e["args"]["name"]
        for e in doc["traceEvents"]
        if e.get("ph") == "M" and e.get("name") == "process_name"
        and e["pid"] >= HOST_PID_BASE
    }
    assert any(n.startswith("host:") for n in names)


# -- sweep purity against the committed matrix ------------------------------------


IS16_MESSAGE_MIX = {  # kind -> (messages, bytes), IS on 16 processors, seed 42
    "lrc_d": {
        "DIFF_REPLY": (750, 1743281), "DIFF_REQUEST": (750, 15000),
        "BARRIER_ARRIVE": (645, 152340), "BARRIER_RELEASE": (645, 152220),
        "PAGE_REPLY": (180, 740160), "PAGE_REQUEST": (180, 2880),
    },
    "vc_d": {
        "DIFF_REPLY": (37526, 22313775), "DIFF_REQUEST": (37526, 751032),
        "VIEW_ACQUIRE": (2470, 39520), "VIEW_GRANT": (2470, 603536),
        "VIEW_RELEASE": (2470, 78808),
        "BARRIER_ARRIVE": (660, 10560), "BARRIER_RELEASE": (660, 10560),
        "PAGE_REPLY": (270, 1110240), "PAGE_REQUEST": (270, 4320),
    },
    "vc_sd": {
        "VIEW_ACQUIRE": (2470, 39520), "VIEW_GRANT": (2470, 2396612),
        "VIEW_RELEASE": (2470, 1848345),
        "BARRIER_ARRIVE": (660, 10560), "BARRIER_RELEASE": (660, 10560),
    },
}


def test_host_traced_sweep_matches_committed_fingerprints():
    """--host-trace is non-perturbing across the whole 18-cell matrix: a
    profiled, uncached sweep reproduces the committed BENCH_sweep.json
    fingerprints bit for bit."""
    import json as _json
    import os

    from repro.bench.sweep import default_cells, run_sweep

    bench_path = os.path.join(os.path.dirname(__file__), "..", "..",
                              "BENCH_sweep.json")
    if not os.path.exists(bench_path):
        pytest.skip("no committed BENCH_sweep.json in this checkout")
    with open(bench_path) as fh:
        committed = _json.load(fh)
    want = {
        (c["app"], c["protocol"], c["nprocs"], c["variant"]): c["fingerprint"]
        for c in committed["cells"]
    }

    host = HostProfiler("main")
    report = run_sweep(default_cells(), jobs=1, cache_dir=None,
                       verify=False, host=host)
    got = {
        (c.cell.app, c.cell.protocol, c.cell.nprocs, c.cell.variant):
            c.fingerprint()
        for c in report.cells
    }
    assert got == want
    # the per-kind (count, bytes) message mix of the three IS/16 cells: the one
    # exact check no fingerprint covers (the table row only totals messages)
    for c in report.cells:
        if (c.cell.app, c.cell.nprocs, c.cell.variant) == ("is", 16, "default"):
            by_kind = c.result.stats.net.snapshot()["by_kind"]
            mix = {k.split(".", 1)[-1]: (r["count"], r["bytes"])
                   for k, r in by_kind.items()}
            assert mix == IS16_MESSAGE_MIX[c.cell.protocol]
    # and the profiler saw one run span per executed cell
    runs = [s for s in host.spans if s[2] == "run"]
    assert len(runs) == len(report.cells)
