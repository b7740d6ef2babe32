"""Tests for the table registry (fast paths only — the full 16-processor
table runs live in benchmarks/)."""

import pytest

from repro.apps import APPS
from repro.bench import experiments


def test_registry_covers_all_nine_tables():
    assert set(experiments.TABLES) == set(range(1, 10))
    for number, spec in experiments.TABLES.items():
        assert spec.title.startswith(f"Table {number}: ")
        assert spec.app in APPS
        assert spec.entries
        assert spec.speedup == (number in (3, 5, 7, 9))
        assert ("{nprocs}" in spec.title) == (not spec.speedup)


def test_run_table_rejects_unknown():
    with pytest.raises(ValueError, match="tables 1-9"):
        experiments.run_table(10)
    with pytest.raises(ValueError):
        experiments.run_table(0)


def test_stats_table_runs_at_small_scale():
    """The table drivers accept processor-count overrides (smoke test)."""
    text = experiments.run_table(1, nprocs=2)
    assert "Table 1: Statistics of IS on 2 processors" in text
    assert "LRC_d" in text and "VC_sd" in text


def test_speedup_table_runs_at_small_scale():
    text = experiments.run_table(5, proc_counts=(2,))
    assert "Table 5" in text
    assert "2-p" in text
