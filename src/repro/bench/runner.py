"""Experiment drivers for the table benchmarks.

Both drivers turn their entries into :class:`~repro.bench.sweep.SweepCell`
s and submit them to :func:`~repro.bench.sweep.run_sweep`: every run —
default config or a caller's own, which rides in the cell — is resolved
against the content-addressed result cache (``cache_dir``; ``None`` turns
it off) and can fan out over worker processes with ``jobs > 1``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from repro.apps.common import AppResult
from repro.bench.sweep import DEFAULT_CACHE_DIR, SweepCell, _app_name, run_sweep

__all__ = [
    "Entry",
    "stats_experiment",
    "speedup_experiment",
    "PAPER_PROC_COUNTS",
    "STATS_ENTRIES",
]

PAPER_PROC_COUNTS = (2, 4, 8, 16, 24, 32)


@dataclass(frozen=True)
class Entry:
    """One column/row of an experiment: a label plus how to run it."""

    label: str
    protocol: str
    variant: str = "default"


STATS_ENTRIES = (
    Entry("LRC_d", "lrc_d"),
    Entry("VC_d", "vc_d"),
    Entry("VC_sd", "vc_sd"),
)


def _sweep_cells(app_module, specs, config, **sweep) -> list[AppResult]:
    """Run ``(entry, nprocs)`` specs through the sweep engine (``sweep``:
    :func:`~repro.bench.sweep.run_sweep`'s ``jobs``/``cache_dir``/``verify``)."""
    app = _app_name(app_module)
    cells = [
        SweepCell(app=app, protocol=entry.protocol, nprocs=nprocs,
                  variant=entry.variant, app_config=config)
        for entry, nprocs in specs
    ]
    return [c.result for c in run_sweep(cells, **sweep).cells]


def stats_experiment(
    app_module,
    nprocs: int = 16,
    config=None,
    entries: Sequence[Entry] = STATS_ENTRIES,
    verify: bool = True,
    jobs: int = 1,
    cache_dir: Optional[str] = DEFAULT_CACHE_DIR,
) -> dict[str, AppResult]:
    """Run one application on ``nprocs`` under each entry (a paper stats table)."""
    specs = [(entry, nprocs) for entry in entries]
    results = _sweep_cells(app_module, specs, config,
                           jobs=jobs, cache_dir=cache_dir, verify=verify)
    return {entry.label: result for entry, result in zip(entries, results)}


def speedup_experiment(
    app_module,
    entries: Sequence[Entry],
    proc_counts: Sequence[int] = PAPER_PROC_COUNTS,
    config=None,
    verify: bool = True,
    jobs: int = 1,
    cache_dir: Optional[str] = DEFAULT_CACHE_DIR,
) -> dict[str, dict[int, float]]:
    """Speedups T(1)/T(p) for each entry across ``proc_counts``.

    The baseline T(1) is the 1-processor run of the same protocol/variant —
    on one node every protocol degenerates to local execution, so this is
    effectively the sequential time (plus negligible local overhead).
    """
    specs = [(entry, p) for entry in entries for p in (1, *proc_counts)]
    results = iter(_sweep_cells(app_module, specs, config,
                                jobs=jobs, cache_dir=cache_dir, verify=verify))
    speedups: dict[str, dict[int, float]] = {}
    for entry in entries:
        per_p = {p: next(results) for p in (1, *proc_counts)}
        base = per_p[1]
        speedups[entry.label] = {
            p: base.time / per_p[p].time if per_p[p].time > 0 else float("inf")
            for p in proc_counts
        }
    return speedups
