"""Benchmark harness: one experiment per paper table.

The harness (:mod:`repro.bench.runner`) runs the applications across
protocols/processor counts, formats the same rows the paper reports
(:mod:`repro.bench.tables`), and compares against the paper's published
numbers (:mod:`repro.bench.paper_data`).  The ``benchmarks/`` directory
contains one pytest-benchmark target per table plus the ablation benches
listed in DESIGN.md §5.
"""

from repro.bench.runner import stats_experiment, speedup_experiment, Entry
from repro.bench.tables import format_stats_table, format_speedup_table
from repro.bench import paper_data

__all__ = [
    "stats_experiment",
    "speedup_experiment",
    "Entry",
    "format_stats_table",
    "format_speedup_table",
    "paper_data",
]
