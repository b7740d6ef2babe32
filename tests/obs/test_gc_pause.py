"""Whole-trace passes pause the cycle collector.

Every pass that walks a finished trace to completion runs with the collector
off and puts it back as it found it, on return and on raise.  The evidence
that the pause frees nothing less: on a real traced run, a full collection
right after each pass finds nothing unreachable.
"""

import gc

import pytest

from repro.apps import is_sort
from repro.apps.common import run_app
from repro.obs import (
    AccessRecorder,
    EventTracer,
    Metrics,
    check_history,
    compute_breakdown,
    compute_critical_path,
    write_chrome_trace,
)
from tests.apps.test_run_gc import SMALL_IS, gc_state  # noqa: F401  (fixture)


class _ProbedRows(list):
    """A row list that appends ``gc.isenabled()`` to ``seen`` whenever a pass
    starts iterating it, and raises after the first row when ``fail`` is set."""

    def __init__(self, rows, seen, fail):
        super().__init__(rows)
        self.seen, self.fail = seen, fail

    def __iter__(self):
        self.seen.append(gc.isenabled())
        rows = super().__iter__()
        return self._failing(rows) if self.fail else rows

    @staticmethod
    def _failing(rows):
        yield next(rows)
        raise RuntimeError("a row source that breaks mid-pass")


@pytest.fixture(scope="module")
def traced_run():
    tracer, recorder = EventTracer(), AccessRecorder()
    run_app(is_sort, "vc_d", 4, SMALL_IS, tracer=tracer, oracle=recorder)
    return tracer, recorder


def _probed_tracer(tracer, probe):
    probed = EventTracer()
    probed.events = probe(tracer.events)
    probed.sends, probed.wakes = tracer.sends, tracer.wakes
    return probed


# each pass over rows wrapped by ``probe``: (tracer, recorder, probe, path) -> None
PASSES = {
    "Metrics.fold": lambda tracer, recorder, probe, path: Metrics().fold(
        probe(tracer.events)),
    "compute_breakdown": lambda tracer, recorder, probe, path: compute_breakdown(
        probe(tracer.events)),
    "check_history": lambda tracer, recorder, probe, path: check_history(
        probe(recorder.events), nprocs=4, protocol="vc_d"),
    "compute_critical_path": lambda tracer, recorder, probe, path: compute_critical_path(
        _probed_tracer(tracer, probe)),
    "write_chrome_trace": lambda tracer, recorder, probe, path: write_chrome_trace(
        probe(tracer.events), str(path)),
}


def _run_probed(name, traced_run, tmp_path, fail):
    """Run one pass over probed rows; return the collector states it ran in."""
    seen = []
    PASSES[name](*traced_run, lambda rows: _ProbedRows(rows, seen, fail),
                 tmp_path / "t.json")
    return seen


@pytest.mark.parametrize("name", sorted(PASSES))
def test_pass_runs_paused_and_restores_the_collector(name, traced_run, gc_state, tmp_path):
    seen = _run_probed(name, traced_run, tmp_path, fail=False)
    assert seen and not any(seen)
    assert gc.isenabled() is gc_state


@pytest.mark.parametrize("name", sorted(PASSES))
def test_pass_restores_the_collector_when_it_raises(name, traced_run, gc_state, tmp_path):
    with pytest.raises(RuntimeError, match="breaks mid-pass"):
        _run_probed(name, traced_run, tmp_path, fail=True)
    assert gc.isenabled() is gc_state
    assert not (tmp_path / "t.json").exists()


def test_refused_trace_restores_the_collector(traced_run, gc_state, tmp_path):
    tracer, _ = traced_run
    unclosed = tracer.events + [("B", 9.0, 0, "app", "compute", "never closed", None, None)]
    with pytest.raises(ValueError, match="unclosed spans at end of trace"):
        write_chrome_trace(unclosed, str(tmp_path / "t.json"))
    assert gc.isenabled() is gc_state


def test_a_full_collection_after_each_pass_frees_nothing(traced_run, tmp_path):
    """Pausing the collector over a pass can only cost memory if the pass
    leaves cyclic garbage behind; none of them does."""
    tracer, recorder = traced_run
    gc.collect()
    for name, run_pass in (
        ("Metrics.fold", lambda: Metrics().fold(tracer.events)),
        ("compute_breakdown", lambda: compute_breakdown(tracer.events)),
        ("check_history", lambda: check_history(recorder, nprocs=4, protocol="vc_d")),
        ("compute_critical_path", lambda: compute_critical_path(tracer)),
        ("write_chrome_trace", lambda: write_chrome_trace(tracer, str(tmp_path / "t.json"))),
    ):
        run_pass()
        assert gc.collect() == 0, name
