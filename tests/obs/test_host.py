"""The host-time observatory: wall-clock phases as tracer rows, breakdown, purity.

Host time (``time.perf_counter``, i.e. CLOCK_MONOTONIC) around the real work
the simulated clock cannot see — a run's build/execute/extract/verify phases —
is recorded as complete (``X``) rows on a second :class:`EventTracer`, pid
:data:`HOST_PID`.  The load-bearing claims:

* **accounting closes** — the phase seconds plus ``other`` equal the wall
  time exactly (``other`` is the remainder), and the wall tracks the
  externally measured wall clock within a tolerance;
* **purity** — a profiled run's simulated observables are bit-identical to
  an unprofiled run's (the host tracer is an observer on the None-default
  contract, like the simulated tracer and metrics);
* **one document** — chained after the simulated rows, the host rows render
  as one more Perfetto process, labelled ``host``, and the document passes
  schema validation.
"""

import time

import pytest

from repro.apps import APPS
from repro.apps.common import run_app
from repro.obs import EventTracer
from repro.obs.host import HOST_PID, format_host_breakdown, host_breakdown

PHASES = ["build", "execute", "extract", "verify"]


def host_rows(*spans):
    """A host tracer holding ``(cat, t0, t1)`` spans as run_app records them."""
    host = EventTracer()
    for cat, t0, t1 in spans:
        host.span(HOST_PID, "run", cat, cat, t0, t1)
    return host


# -- the breakdown invariant ------------------------------------------------------


def test_breakdown_categories_sum_to_total_exactly():
    b = host_breakdown(host_rows(("build", 0.0, 1.0), ("execute", 2.0, 8.0),
                                 ("verify", 9.0, 10.0)))
    assert b["wall"] == pytest.approx(10.0)
    assert b["seconds"] == pytest.approx({"build": 1.0, "execute": 6.0, "verify": 1.0})
    # the invariant: attributed + other == wall, with no slack
    assert sum(b["seconds"].values()) + b["other"] == b["wall"]
    assert b["other"] == pytest.approx(2.0)


def test_breakdown_envelope_fallback_without_total_span():
    """The wall is the envelope, first row's start to last row's end: there is
    no ``total`` span to measure it."""
    b = host_breakdown(host_rows(("execute", 2.0, 5.0), ("verify", 5.0, 6.0)))
    assert b["wall"] == pytest.approx(4.0)
    assert b["other"] == pytest.approx(0.0)
    assert host_breakdown(EventTracer()) == {}


def test_format_breakdown_renders_every_process():
    text = format_host_breakdown(host_breakdown(
        host_rows(("build", 0.0, 0.5), ("execute", 0.5, 1.0))))
    assert "host" in text and "wall 1.0000s" in text
    assert "execute" in text and "other" in text
    assert format_host_breakdown({}).endswith("no host spans recorded")


# -- run_app's phases close on every way out --------------------------------------


def test_profiled_run_breakdown_accounts_for_wall_time():
    """The host wall tracks the wall clock measured *outside* the run, and
    the categories sum to it exactly."""
    host = EventTracer()
    t0 = time.perf_counter()
    run_app(APPS["is"], "vc_sd", 8, host=host)
    wall = time.perf_counter() - t0

    b = host_breakdown(host)
    # the recorded wall may only miss the perf_counter calls themselves
    assert b["wall"] == pytest.approx(wall, rel=0.05)
    assert sum(b["seconds"].values()) + b["other"] == pytest.approx(b["wall"], rel=1e-9)
    # the real work must be visible, not lumped into other
    assert sorted(b["seconds"]) == sorted(PHASES)
    assert b["other"] < b["wall"] * 0.5


def test_profiled_run_is_bit_identical():
    plain = run_app(APPS["is"], "vc_sd", 8)
    host = EventTracer()
    profiled = run_app(APPS["is"], "vc_sd", 8, host=host)
    assert profiled.table_row() == plain.table_row()
    assert profiled.time == plain.time and profiled.events == plain.events
    assert [row[4] for row in host.events] == PHASES  # and it recorded something


def test_aborted_run_closes_every_host_span():
    """An aborted run leaves exactly the phases it entered, each one row."""
    from repro.faults import Episode, FaultPlan, RunAborted

    host = EventTracer()
    with pytest.raises(RunAborted):
        run_app(APPS["is"], "lrc_d", 2,
                faults=FaultPlan((Episode(kind="loss", drop_prob=1.0),)), host=host)
    assert [row[4] for row in host.events] == ["build", "execute"]


def test_span_contextmanager_closes_on_error():
    """Any exception, not only an abort, still closes the phase it leaves."""

    class BrokenMetrics:  # folded in the extract phase
        def fold(self, events):
            raise RuntimeError("boom")

    host = EventTracer()
    with pytest.raises(RuntimeError, match="boom"):
        run_app(APPS["sor"], "vc_sd", 2, host=host, metrics=BrokenMetrics())
    assert [row[4] for row in host.events] == ["build", "execute", "extract"]


def test_host_spans_close_under_their_own_category():
    """Every host row is one complete row on ``(HOST_PID, "run")`` carrying
    its phase as both category and name, and the lane's ``t`` never
    decreases: each phase begins no earlier than the previous one ended."""
    host = EventTracer()
    run_app(APPS["sor"], "vc_sd", 2, host=host)
    rows = host.events
    assert [(ph, pid, lane, cat, name, args) for ph, _t, pid, lane, cat, name, args, _e
            in rows] == [("X", HOST_PID, "run", c, c, None) for c in PHASES]
    assert 0.0 <= rows[0][1]
    assert all(t <= end for _ph, t, *_mid, end in rows)
    assert all(prev[7] <= row[1] for prev, row in zip(rows, rows[1:]))


# -- both clock domains in one document -------------------------------------------


def test_merged_chrome_trace_validates_and_separates_clock_domains():
    from itertools import chain

    from repro.obs import chrome_trace, validate_chrome_trace

    tracer, host = EventTracer(), EventTracer()
    run_app(APPS["is"], "vc_sd", 8, tracer=tracer, host=host)
    doc = chrome_trace(chain(tracer.events, host.events))
    validate_chrome_trace(doc)
    pids = {e["pid"] for e in doc["traceEvents"]}
    assert HOST_PID in pids
    assert all(p < HOST_PID for p in pids - {HOST_PID})  # simulated, disjoint
    assert len(pids) > 1
    names = {
        e["pid"]: e["args"]["name"]
        for e in doc["traceEvents"]
        if e["ph"] == "M" and e["name"] == "process_name"
    }
    assert names[HOST_PID] == "host"
    assert [e["cat"] for e in doc["traceEvents"]
            if e["pid"] == HOST_PID and e["ph"] == "X"] == PHASES
