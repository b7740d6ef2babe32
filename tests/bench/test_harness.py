"""Tests for the benchmark harness (runners, tables, paper data)."""

import dataclasses

import pytest

from repro.apps import is_sort
from repro.bench import (
    Entry,
    format_speedup_table,
    format_stats_table,
    paper_data,
    speedup_experiment,
    stats_experiment,
)

SMALL = is_sort.IsConfig(n_keys=1200, b_max=64, reps=2, bucket_views=4, work_factor=4.0)


def test_stats_experiment_runs_all_protocols():
    results = stats_experiment(is_sort, nprocs=3, config=SMALL)
    assert set(results) == {"LRC_d", "VC_d", "VC_sd"}
    assert all(r.verified for r in results.values())


def test_custom_config_runs_get_the_cache(tmp_path, monkeypatch):
    """A caller's config rides in the cells, so it is no longer a reason to
    bypass the sweep cache: the second run re-simulates nothing."""
    from repro.bench import sweep as sweep_mod

    cache = str(tmp_path / "cache")
    cold = stats_experiment(is_sort, nprocs=2, config=SMALL, cache_dir=cache)

    def boom(*a, **kw):
        raise AssertionError("cell re-executed despite warm cache")

    monkeypatch.setattr(sweep_mod, "_execute_cell", boom)
    warm = stats_experiment(is_sort, nprocs=2, config=SMALL, cache_dir=cache)
    assert {k: r.table_row() for k, r in warm.items()} == \
        {k: r.table_row() for k, r in cold.items()}
    # a different config (or the default one) is a different set of entries
    other = dataclasses.replace(SMALL, reps=SMALL.reps + 1)
    with pytest.raises(AssertionError, match="re-executed"):
        stats_experiment(is_sort, nprocs=2, config=other, cache_dir=cache)
    with pytest.raises(AssertionError, match="re-executed"):
        stats_experiment(is_sort, nprocs=2, cache_dir=cache)


def test_stats_table_renders_with_paper_refs():
    results = stats_experiment(is_sort, nprocs=2, config=SMALL)
    text = format_stats_table(
        "Test Table", results, paper={"VC_sd": {"Barriers": 40}}
    )
    assert "Test Table" in text
    assert "LRC_d" in text and "VC_sd" in text
    assert "(40)" in text  # the paper reference is shown
    assert "Diff Requests" in text


def test_stats_table_prints_one_precision_per_row():
    """The acquire-time row once read ``0.000   1,199.6   555.400``: each row
    now has one format, and a paper value in parentheses uses the row's."""

    class Row:
        def __init__(self, **values):
            self.values = values

        def table_row(self):
            return {"Time (Sec.)": 1234.5, "Num. Msg": 123_456, **self.values}

    results = {"A": Row(**{"Acquire Time (usec.)": 0.0}),
               "B": Row(**{"Acquire Time (usec.)": 1199.6}),
               "C": Row(**{"Acquire Time (usec.)": 555.4})}
    text = format_stats_table("T", results, paper={"C": {"Acquire Time (usec.)": 555,
                                                         "Num. Msg": 120_000}})
    rows = {line[:24].strip(): line[24:].split() for line in text.splitlines()[3:12]}
    assert rows["Acquire Time (usec.)"] == ["0.0", "1,199.6", "555.4", "(555.0)"]
    assert rows["Time (Sec.)"] == ["1,234.500"] * 3
    assert rows["Num. Msg"] == ["123,456"] * 3 + ["(120,000)"]
    assert rows["Barriers"] == ["-"] * 3


def test_speedup_experiment_shape():
    entries = (Entry("VC_sd", "vc_sd"),)
    speedups = speedup_experiment(is_sort, entries, proc_counts=(2, 3), config=SMALL)
    assert set(speedups) == {"VC_sd"}
    assert set(speedups["VC_sd"]) == {2, 3}
    assert all(v > 0 for v in speedups["VC_sd"].values())


def test_speedup_table_renders():
    text = format_speedup_table(
        "Speedups",
        {"A": {2: 1.5, 4: 2.5}},
        paper={"A": {4: 3.0}},
    )
    assert "2-p" in text and "4-p" in text
    assert "1.50" in text
    assert "(3.0)" in text


def test_custom_entries_and_variants():
    entries = (Entry("VC_sd lb", "vc_sd", variant="lb"),)
    results = stats_experiment(is_sort, nprocs=2, config=SMALL, entries=entries)
    assert "VC_sd lb" in results
    assert results["VC_sd lb"].verified


def test_paper_data_is_well_formed():
    for table in (
        paper_data.TABLE1_IS_STATS,
        paper_data.TABLE2_IS_LB_STATS,
        paper_data.TABLE6_SOR_STATS,
        paper_data.TABLE8_NN_STATS,
    ):
        for label, rows in table.items():
            assert label in ("LRC_d", "VC_d", "VC_sd")
            for key, value in rows.items():
                assert isinstance(value, (int, float))
    # the qualitative findings cover all nine tables
    assert {f"table{i}" for i in range(1, 10)} == set(paper_data.SHAPE_NOTES)


def test_paper_configs_exist_for_every_app():
    """paper_config() documents the full-size problems."""
    from repro.apps import gauss, nn, sor

    assert is_sort.paper_config().n_keys == 1 << 25
    assert gauss.paper_config().n == 2048
    assert sor.paper_config().rows == 4096
    assert nn.paper_config().epochs == 235
    for cfg in (is_sort.paper_config(), gauss.paper_config(), sor.paper_config(), nn.paper_config()):
        assert cfg.work_factor == 1.0  # full size: no compute rescaling
