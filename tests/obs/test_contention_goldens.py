"""Contention output pinned to goldens recorded by the live metrics registry.

Each ``data/contention_<cell>.json`` is the ``--metrics-out`` document
(:meth:`Metrics.write_json`) and each ``.txt`` the :func:`format_contention`
text of one run, as written when the protocols still fed a registry
installed on the simulator, observation by observation.  The fold over the
tracer rows must reproduce them byte for byte: floats go through ``repr``,
so a span paired with the wrong partner, a dropped row or a histogram fed
in another order shows here.

The cells cover every metric name: diff requests and bytes, grants, view
waits, barrier skew and episodes (``is/vc_d/4``), piggybacked bytes
(``is/vc_sd/4``), lock waits (``nn/lrc_d/4``), every ``fault_*`` counter and
the pause histogram (``is/vc_sd/4`` under :data:`FAULT_PLAN`) and the MPI
barrier wait (a 2-rank ``comm.barrier()`` program — no app calls it).
"""

import json
from pathlib import Path

import pytest

from repro.apps import APPS
from repro.apps.common import run_app
from repro.faults import Episode, FaultPlan
from repro.mpi import MpiSystem
from repro.obs import EventTracer, Metrics, format_contention

DATA = Path(__file__).parent / "data"

FAULT_PLAN = FaultPlan((
    Episode(kind="loss", drop_prob=0.02),
    Episode(kind="duplicate", dup_prob=0.05),
    Episode(kind="reorder", reorder_prob=0.1, reorder_delay=1e-3),
    Episode(kind="pause", node=1, start=0.0, end=0.02),
), seed=7)

# cell -> (app, protocol, nprocs, plan, metric names the golden must hold)
APP_CELLS = {
    "is_vc_d_4": ("is", "vc_d", 4, None, {
        "diff_requests", "diff_bytes", "grant_bytes", "acquire_wait_seconds",
        "barrier_skew_seconds", "barrier_episodes", "barrier_wait_seconds",
    }),
    "is_vc_sd_4": ("is", "vc_sd", 4, None, {"piggyback_bytes"}),
    "nn_lrc_d_4": ("nn", "lrc_d", 4, None, {"acquire_wait_seconds"}),
    "is_vc_sd_4_faults": ("is", "vc_sd", 4, FAULT_PLAN, {
        "fault_drops", "fault_duplicates", "fault_reorders", "fault_pause_seconds",
    }),
}


def assert_matches_golden(cell, metrics, tmp_path):
    path = tmp_path / "metrics.json"
    metrics.write_json(str(path))
    assert path.read_text() == (DATA / f"contention_{cell}.json").read_text()
    assert format_contention(metrics) + "\n" == (DATA / f"contention_{cell}.txt").read_text()


@pytest.mark.parametrize("cell", sorted(APP_CELLS))
def test_app_contention_matches_golden(cell, tmp_path):
    app, protocol, nprocs, plan, names = APP_CELLS[cell]
    metrics = Metrics()
    run_app(APPS[app], protocol, nprocs, metrics=metrics, faults=plan)
    assert names <= {name for name, _ in metrics.counters} | {
        name for name, _ in metrics.histograms
    }
    if cell == "nn_lrc_d_4":
        assert any("lock" in labels for labels, _ in metrics.series("acquire_wait_seconds"))
    assert_matches_golden(cell, metrics, tmp_path)


def test_mpi_barrier_wait_matches_golden(tmp_path):
    system = MpiSystem(2)
    system.sim.tracer = tracer = EventTracer()

    def body(comm):
        for k in range(3):
            yield from comm.compute(1e-3 * (comm.rank + 1) * (k + 1))
            yield from comm.barrier()

    system.run_program(body)
    metrics = Metrics().fold(tracer.events)
    assert sorted(labels["node"] for labels, _ in metrics.series("barrier_wait_seconds")) == [0, 1]
    assert_matches_golden("mpi_barrier_2", metrics, tmp_path)


def test_fold_that_drops_a_row_misses_the_golden(tmp_path):
    """The goldens bite: one wait span fewer is a different document."""
    tracer = EventTracer()
    run_app(APPS["is"], "vc_d", 4, tracer=tracer)
    rows = list(tracer.events)
    end = max(i for i, ev in enumerate(rows) if ev[0] == "E" and ev[4] == "acquire-wait")
    begin = max(i for i, ev in enumerate(rows[:end])
                if ev[0] == "B" and ev[4] == "acquire-wait" and ev[2] == rows[end][2])
    del rows[end], rows[begin]
    with pytest.raises(AssertionError):
        assert_matches_golden("is_vc_d_4", Metrics().fold(rows), tmp_path)
