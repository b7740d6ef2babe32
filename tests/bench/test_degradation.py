"""Tests for the fault-degradation grid (``python -m repro sweep --faults``)."""

import json
import math

import pytest

from repro.bench.degradation import (
    DEFAULT_FAULTS_OUTPUT,
    format_degradation_grid,
    run_degradation_grid,
    write_degradation_report,
)
from repro.faults import Episode, FaultPlan

# small and fast: 2 protocols x 2 rates at 2 processes
KW = dict(
    app="is",
    nprocs=2,
    protocols=("lrc_d", "vc_sd"),
    loss_rates=(0.0, 0.01),
    seed=11,
)


def test_grid_shape_and_cell_schema():
    report = run_degradation_grid(**KW)
    assert report["benchmark"] == "faults_degradation"
    assert len(report["grid"]) == 4
    for cell in report["grid"]:
        assert not cell["failed"]
        assert cell["verified"] is True
        assert cell["time"] > 0
        assert set(cell["injected"]) == {"drop", "duplicate", "reorder"}
    by_proto = {}
    for cell in report["grid"]:
        by_proto.setdefault(cell["protocol"], []).append(cell)
    for cells in by_proto.values():
        assert [c["loss_rate"] for c in cells] == [0.0, 0.01]
        assert cells[0]["slowdown"] == 1.0  # normalised to the rate-0 cell
        assert cells[0]["rexmit"] == 0  # zero loss, zero retransmission
        assert cells[1]["drops_by_cause"].get("fault", 0) > 0


def test_grid_is_deterministic():
    first = run_degradation_grid(**KW)
    again = run_degradation_grid(**KW)
    assert first["grid"] == again["grid"]


def test_base_plan_layers_under_the_loss_sweep():
    base = FaultPlan((Episode(kind="duplicate", dup_prob=0.05),))
    report = run_degradation_grid(base_plan=base, **KW)
    assert report["base_plan"] == base.to_json()
    # the duplication background applies even to the zero-loss cells
    zero_loss = [c for c in report["grid"] if c["loss_rate"] == 0.0]
    assert all(c["injected"]["duplicate"] > 0 for c in zero_loss)
    assert all(c["verified"] for c in report["grid"])


def test_hostile_rate_reports_a_failure_row():
    report = run_degradation_grid(
        app="is",
        nprocs=2,
        protocols=("vc_sd",),
        loss_rates=(0.0, 1.0),  # total blackout: retry budget must exhaust
        seed=11,
    )
    ok, failed = report["grid"]
    assert not ok["failed"]
    assert failed["failed"]
    assert failed["failure"]["reason"] == "retry-exhausted"
    assert failed["failure"]["net"]["drops_by_cause"]["fault"] > 0
    text = format_degradation_grid(report)
    assert "FAILED (retry-exhausted)" in text


def test_report_roundtrip(tmp_path):
    report = run_degradation_grid(**KW)
    path = tmp_path / DEFAULT_FAULTS_OUTPUT
    write_degradation_report(report, str(path))
    assert json.loads(path.read_text()) == json.loads(json.dumps(report))
    text = format_degradation_grid(report)
    assert "Degradation grid" in text
    assert "lrc_d" in text and "vc_sd" in text


def test_rejects_empty_rate_list():
    with pytest.raises(ValueError, match="loss rate"):
        run_degradation_grid(app="is", nprocs=2, loss_rates=())


def test_checked_grid_verdicts_cover_the_aborted_cell():
    """The shared cell runner's failure path: an aborted cell is a value —
    a structured failure row — and its partial history is still checked."""
    report = run_degradation_grid(
        app="is", nprocs=2, protocols=("vc_sd",), loss_rates=(0.0, 1.0),
        seed=11, check=True,
    )
    ok, failed = report["grid"]
    assert not ok["failed"] and ok["verified"] is True
    assert ok["consistency"] == {"verdict": "clean", "findings": 0}
    assert failed["failed"]
    assert failed["failure"]["reason"] == "retry-exhausted"
    # computed from what executed before the abort, not skipped
    assert failed["consistency"]["verdict"] == "clean"
    assert failed["consistency"]["findings"] == 0
    assert "time" not in failed and "injected" not in failed


@pytest.mark.parametrize("rate", [math.nan, 1.5, -0.01])
def test_loss_rate_outside_0_1_is_refused_before_any_cell(rate, monkeypatch):
    """NaN used to run as no loss at all (and write NaN into the report), 1.5
    to escape a pool worker as a fault-plan error."""
    from repro.bench import degradation

    def boom(*a, **kw):
        raise AssertionError("a grid cell ran")

    monkeypatch.setattr(degradation, "run_sweep", boom)
    with pytest.raises(ValueError, match=r"loss rate must be a probability in \[0, 1\], "
                       f"got {rate!r}"):
        run_degradation_grid(**{**KW, "loss_rates": (0.0, rate)})


def test_grid_rides_the_sweep_pool_and_cache(tmp_path, monkeypatch):
    """The grid's cells are sweep cells: pooled rows equal serial rows, and
    a warm cache recalls them (aborted cell included) without a re-run."""
    kw = dict(app="is", nprocs=2, protocols=("lrc_d", "vc_sd"),
              loss_rates=(0.0, 1.0), seed=11)
    serial = run_degradation_grid(**kw)
    cache = str(tmp_path / "cache")
    pooled = run_degradation_grid(jobs=2, cache_dir=cache, **kw)
    assert pooled["grid"] == serial["grid"]

    from repro.bench import sweep as sweep_mod

    def boom(*a, **kw):
        raise AssertionError("grid cell re-executed despite warm cache")

    monkeypatch.setattr(sweep_mod, "_execute_cell", boom)
    warm = run_degradation_grid(cache_dir=cache, **kw)
    assert warm["grid"] == serial["grid"]
