"""Tests for the parallel sweep engine and its result cache."""

import dataclasses
import json

import numpy as np
import pytest

from repro.bench import sweep as sweep_mod
from repro.bench.sweep import (
    DEFAULT_OUTPUT,
    ResultCache,
    SweepCell,
    cell_key,
    code_fingerprint,
    default_cells,
    run_sweep,
    write_report,
)
from repro.faults import Episode, FaultPlan

# small cells: seconds for the whole module, not minutes
CELLS = [
    SweepCell(app="sor", protocol="vc_sd", nprocs=2),
    SweepCell(app="sor", protocol="lrc_d", nprocs=2),
    SweepCell(app="is", protocol="vc_sd", nprocs=2),
    SweepCell(app="is", protocol="vc_d", nprocs=2),
]


def rows(report):
    return [c.result.table_row() for c in report.cells]


def boom(*a, **kw):  # a second execution would be a cache miss -> fail loudly
    raise AssertionError("cell re-executed despite warm cache")


# -- cache keying ----------------------------------------------------------------


def test_key_is_stable_for_same_cell():
    cell = SweepCell(app="sor", protocol="vc_sd", nprocs=2)
    assert cell_key(cell) == cell_key(SweepCell(app="sor", protocol="vc_sd", nprocs=2))


def test_key_changes_with_seed_and_cell_fields():
    base = SweepCell(app="sor", protocol="vc_sd", nprocs=2)
    variants = [
        SweepCell(app="sor", protocol="vc_sd", nprocs=2, seed=99),
        SweepCell(app="sor", protocol="lrc_d", nprocs=2),
        SweepCell(app="sor", protocol="vc_sd", nprocs=4),
        SweepCell(app="is", protocol="vc_sd", nprocs=2),
        SweepCell(app="is", protocol="vc_sd", nprocs=2, variant="lb"),
    ]
    keys = {cell_key(base), *(cell_key(v) for v in variants)}
    assert len(keys) == len(variants) + 1  # all distinct


def test_key_changes_with_config(monkeypatch):
    cell = SweepCell(app="sor", protocol="vc_sd", nprocs=2)
    before = cell_key(cell)
    orig = sweep_mod.APPS["sor"].default_config

    def tweaked():
        return dataclasses.replace(orig(), work_factor=orig().work_factor * 2)

    monkeypatch.setattr(sweep_mod.APPS["sor"], "default_config", tweaked)
    assert cell_key(cell) != before


def test_key_changes_with_code_fingerprint():
    cell = SweepCell(app="sor", protocol="vc_sd", nprocs=2)
    assert cell_key(cell, "aaa") != cell_key(cell, "bbb")
    # and the real fingerprint is a function of the source tree, not the call
    assert code_fingerprint() == code_fingerprint()


def test_key_covers_the_fault_plan_by_content():
    base = SweepCell(app="is", protocol="vc_sd", nprocs=2)
    loss = FaultPlan((Episode(kind="loss", drop_prob=0.01),), seed=7)
    faulted = dataclasses.replace(base, faults=loss)
    assert cell_key(faulted) != cell_key(base)
    # an empty plan is still a plan: the cell reports injector counters
    assert cell_key(dataclasses.replace(base, faults=FaultPlan())) != cell_key(base)
    # equal plans built separately share an entry; a different seed does not
    twin = FaultPlan.from_json(loss.to_json())
    assert twin is not loss
    assert cell_key(dataclasses.replace(base, faults=twin)) == cell_key(faulted)
    assert cell_key(dataclasses.replace(base, faults=FaultPlan(loss.episodes, seed=8))) != \
        cell_key(faulted)
    # checked and unchecked faulted runs key apart, like unfaulted ones
    assert cell_key(faulted, check=True) != cell_key(faulted)


def test_key_covers_the_config_override():
    base = SweepCell(app="sor", protocol="vc_sd", nprocs=2)
    default = sweep_mod.APPS["sor"].default_config()
    # naming the default config explicitly is the same run, hence the same key
    assert cell_key(dataclasses.replace(base, app_config=default)) == cell_key(base)
    small = dataclasses.replace(default, rows=default.rows // 2)
    overridden = dataclasses.replace(base, app_config=small)
    assert cell_key(overridden) != cell_key(base)
    assert overridden.config() == small
    # the seed still applies on top of an override
    assert dataclasses.replace(overridden, seed=5).config().seed == 5
    assert hash(overridden) == hash(dataclasses.replace(base, app_config=small))


# -- cache behaviour -------------------------------------------------------------


def test_cache_hit_skips_execution_and_returns_identical_result(tmp_path, monkeypatch):
    cache_dir = str(tmp_path / "cache")
    cell = SweepCell(app="sor", protocol="vc_sd", nprocs=2)

    cold = run_sweep([cell], jobs=1, cache_dir=cache_dir)
    assert [c.cache_hit for c in cold.cells] == [False]

    monkeypatch.setattr(sweep_mod, "_execute_cell", boom)
    warm = run_sweep([cell], jobs=1, cache_dir=cache_dir)
    assert [c.cache_hit for c in warm.cells] == [True]
    assert rows(warm) == rows(cold)
    assert warm.cells[0].fingerprint() == cold.cells[0].fingerprint()
    np.testing.assert_array_equal(
        np.asarray(warm.cells[0].result.output), np.asarray(cold.cells[0].result.output)
    )


@pytest.mark.parametrize("drop_prob", [0.01, 1.0], ids=["completes", "aborts"])
def test_warm_faulted_cell_is_a_hit_with_an_equal_result(tmp_path, monkeypatch, drop_prob):
    """The checked runner's results cache like any other — the structured
    failure and partial-history verdict of an aborted cell included."""
    cache_dir = str(tmp_path / "cache")
    plan = FaultPlan((Episode(kind="loss", drop_prob=drop_prob),), seed=11)
    cell = SweepCell(app="is", protocol="vc_sd", nprocs=2, faults=plan)

    (cold,) = run_sweep([cell], cache_dir=cache_dir, check=True).cells
    assert not cold.cache_hit
    assert (cold.result.failure is not None) == (drop_prob == 1.0)
    assert cold.result.consistency["verdict"] == "clean"
    assert cold.result.consistency["aborted"] == (drop_prob == 1.0)
    assert cold.result.injected["drop"] > 0
    if drop_prob == 1.0:
        assert cold.result.failure.reason == "retry-exhausted"
        assert cold.result.time == cold.result.failure.sim_time
        assert cold.result.net is None and not cold.result.verified
    else:
        assert cold.result.verified and cold.result.net.drops_by_cause["fault"] > 0

    monkeypatch.setattr(sweep_mod, "_execute_cell", boom)
    twin = dataclasses.replace(cell, faults=FaultPlan.from_json(plan.to_json()))
    (warm,) = run_sweep([twin], cache_dir=cache_dir, check=True).cells
    assert warm.cache_hit
    assert warm.fingerprint() == cold.fingerprint()
    for name in ("time", "events", "verified", "failure", "injected", "consistency"):
        assert getattr(warm.result, name) == getattr(cold.result, name), name
    # the unchecked run of the same cell is a different entry
    with pytest.raises(AssertionError, match="re-executed"):
        run_sweep([cell], cache_dir=cache_dir)


def test_seed_change_invalidates(tmp_path):
    cache_dir = str(tmp_path / "cache")
    run_sweep([SweepCell(app="sor", protocol="vc_sd", nprocs=2)], cache_dir=cache_dir)
    again = run_sweep(
        [SweepCell(app="sor", protocol="vc_sd", nprocs=2, seed=1234)],
        cache_dir=cache_dir,
    )
    assert [c.cache_hit for c in again.cells] == [False]


def test_code_fingerprint_change_invalidates(tmp_path, monkeypatch):
    cache_dir = str(tmp_path / "cache")
    cell = SweepCell(app="sor", protocol="vc_sd", nprocs=2)
    run_sweep([cell], cache_dir=cache_dir)
    monkeypatch.setattr(sweep_mod, "code_fingerprint", lambda refresh=False: "deadbeef")
    again = run_sweep([cell], cache_dir=cache_dir)
    assert [c.cache_hit for c in again.cells] == [False]


def test_corrupt_cache_entry_is_a_miss(tmp_path):
    cache = ResultCache(str(tmp_path))
    key = "ab" + "0" * 62
    path = tmp_path / "ab" / (key + ".pkl")
    path.parent.mkdir(parents=True)
    path.write_bytes(b"not a pickle")
    assert cache.get(key) is None


# -- parallel == serial ----------------------------------------------------------


def test_parallel_sweep_bit_identical_to_serial():
    serial = run_sweep(CELLS, jobs=1, cache_dir=None)
    parallel = run_sweep(CELLS, jobs=2, cache_dir=None)
    assert rows(serial) == rows(parallel)
    assert [c.fingerprint() for c in serial.cells] == [
        c.fingerprint() for c in parallel.cells
    ]
    assert [c.result.events for c in serial.cells] == [
        c.result.events for c in parallel.cells
    ]
    assert all(not c.cache_hit for c in parallel.cells)


def test_parallel_workers_populate_the_cache(tmp_path):
    cache_dir = str(tmp_path / "cache")
    cold = run_sweep(CELLS[:2], jobs=2, cache_dir=cache_dir)
    assert all(not c.cache_hit for c in cold.cells)
    warm = run_sweep(CELLS[:2], jobs=2, cache_dir=cache_dir)
    assert all(c.cache_hit for c in warm.cells)
    assert rows(warm) == rows(cold)


# -- report schema ---------------------------------------------------------------

REQUIRED_CELL_KEYS = {
    "app", "protocol", "variant", "nprocs", "seed", "wall_seconds", "events",
    "events_per_sec", "peak_rss_kb", "sim_time_seconds", "verified",
    "cache_hit", "fingerprint", "table_row",
}


def check_sweep_schema(parsed: dict) -> None:
    assert parsed["benchmark"] == "sweep"
    assert parsed["jobs"] >= 1
    assert parsed["wall_seconds"] >= 0
    assert parsed["cache_hits"] + parsed["cache_misses"] == len(parsed["cells"])
    assert len(parsed["code_fingerprint"]) == 64
    assert parsed["cells"], "sweep report has no cells"
    for cell in parsed["cells"]:
        assert REQUIRED_CELL_KEYS <= set(cell), cell
        assert cell["events"] > 0
        assert cell["verified"] is True
        assert len(cell["fingerprint"]) == 16
        assert "Time (Sec.)" in cell["table_row"]


def test_report_roundtrip_and_schema(tmp_path):
    report = run_sweep(CELLS[:2], jobs=1, cache_dir=None)
    path = tmp_path / DEFAULT_OUTPUT
    write_report(report, str(path))
    parsed = json.loads(path.read_text())
    check_sweep_schema(parsed)
    assert parsed == report.to_json()


def test_committed_bench_sweep_json_schema():
    """The committed BENCH_sweep.json must parse against the schema."""
    import pathlib

    path = pathlib.Path(__file__).resolve().parents[2] / DEFAULT_OUTPUT
    if not path.exists():
        pytest.skip("no committed BENCH_sweep.json in this checkout")
    check_sweep_schema(json.loads(path.read_text()))


def test_default_cells_cover_all_apps_and_protocols():
    cells = default_cells()
    assert {c.app for c in cells} == {"is", "gauss", "sor", "nn"}
    assert {"lrc_d", "vc_d", "vc_sd", "mpi"} <= {c.protocol for c in cells}
    assert len(cells) == len(set(cells)), "duplicate cells in default matrix"


# -- the whole committed matrix ---------------------------------------------------


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


def test_uncached_sweep_matches_committed_fingerprints():
    """An uncached sweep of the default matrix reproduces every committed
    BENCH_sweep.json fingerprint bit for bit."""
    import pathlib

    path = pathlib.Path(__file__).resolve().parents[2] / DEFAULT_OUTPUT
    if not path.exists():
        pytest.skip("no committed BENCH_sweep.json in this checkout")
    want = {
        (c["app"], c["protocol"], c["nprocs"], c["variant"]): c["fingerprint"]
        for c in json.loads(path.read_text())["cells"]
    }

    report = run_sweep(default_cells(), jobs=1, cache_dir=None, verify=False)
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
