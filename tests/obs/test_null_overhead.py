"""Tier-1 perf guard: tracing disabled must equal current behaviour exactly.

The null-tracer fast path is ``sim.tracer is None`` checked at each
instrumentation site; with no tracer installed a run must execute the same
simulator events, produce bit-identical statistics rows, and allocate no
trace events.  (Wall-clock overhead is the ``benchmarks/e2e`` benchmark's
business — ``obs.calls`` stays 0 on its unobserved workloads; these tests pin
the *behavioural* half of the zero-overhead guarantee, which is what the
event count and table rows measure.)
"""

from repro.apps import APPS
from repro.apps.common import run_app
from repro.obs import EventTracer
from repro.sim import Simulator


def test_simulator_has_no_tracer_by_default():
    assert Simulator().tracer is None


def test_traced_run_does_not_perturb_the_simulation():
    base = run_app(APPS["is"], "vc_d", 4)
    tracer = EventTracer()
    traced = run_app(APPS["is"], "vc_d", 4, tracer=tracer)
    # identical simulated outcome, event for event
    assert traced.events == base.events
    assert traced.time == base.time
    assert traced.table_row() == base.table_row()
    assert len(tracer.events) > 0


def test_untraced_run_allocates_no_events():
    """An untraced run must leave a fresh tracer completely empty."""
    sentinel = EventTracer()
    run_app(APPS["sor"], "vc_sd", 2)  # no tracer passed anywhere
    assert sentinel.events == []


def test_tracer_and_metrics_together_stay_bit_identical():
    from repro.obs import Metrics

    base = run_app(APPS["is"], "lrc_d", 4)
    tracer, metrics = EventTracer(), Metrics()
    observed = run_app(APPS["is"], "lrc_d", 4, tracer=tracer, metrics=metrics)
    assert observed.events == base.events
    assert observed.time == base.time
    assert observed.table_row() == base.table_row()
    assert tracer.events and metrics.histograms


def test_untraced_run_records_no_causal_edges():
    sentinel = EventTracer()
    run_app(APPS["sor"], "vc_sd", 2)
    assert not sentinel.sends and not sentinel.wakes


def test_view_tracer_and_event_tracer_compose():
    """The per-view series (what ``--metrics`` prints) fold from the caller's
    own tracer without perturbing the run."""
    from repro.obs import Metrics

    tracer, metrics = EventTracer(), Metrics()
    result = run_app(APPS["is"], "vc_d", 2, tracer=tracer, metrics=metrics)
    base = run_app(APPS["is"], "vc_d", 2)
    assert result.table_row() == base.table_row()
    waits = metrics.series("acquire_wait_seconds")
    assert waits and all("view" in labels for labels, _ in waits)
    assert tracer.events  # structured events recorded


def test_unobserved_manager_local_grant_sizes_nothing(monkeypatch):
    """Zero cost when off: a grant the manager hands to itself puts no
    message on the wire, so with no tracer installed nothing may walk its
    payload to size it — not even to build an argument for a recorder that
    is not there."""
    from repro.core import VoppSystem
    from repro.protocols.vc_sd import VcSdProtocol

    sized = []
    real = VcSdProtocol._grant_size
    monkeypatch.setattr(
        VcSdProtocol, "_grant_size",
        lambda self, payload: sized.append(self.node.id) or real(self, payload),
    )

    def run(traced):
        del sized[:]
        system = VoppSystem(2)  # view v is managed by node v % 2
        arr = system.alloc_array("own", (2, 512), dtype="int64", page_aligned=True)
        if traced:
            system.sim.tracer = EventTracer()

        def body(rt):  # each rank only ever acquires the view it manages
            for k in range(3):
                yield from rt.acquire_view(rt.rank)
                yield from arr.write_row(rt, rt.rank, [k] * 512)
                yield from rt.release_view(rt.rank)
            yield from rt.barrier()

        system.run_program(body)
        assert system.stats.acquires == 0  # all six grants were manager-local
        return list(sized)

    assert run(traced=False) == []
    assert len(run(traced=True)) == 6  # the grant row (grant_bytes) sizes them
