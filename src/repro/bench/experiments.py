"""The paper's nine tables, as data: one spec row each.

Used by the CLI (``python -m repro table N``); the pytest benchmarks in
``benchmarks/`` run and render the same specs and add the shape assertions.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.apps import APPS
from repro.bench import paper_data
from repro.bench.runner import STATS_ENTRIES, Entry, speedup_experiment, stats_experiment
from repro.bench.tables import format_speedup_table, format_stats_table

__all__ = ["TABLES", "TableSpec", "run_table"]


@dataclass(frozen=True)
class TableSpec:
    """One paper table: what to run and how to title it."""

    title: str  # a stats table's names its processor count: "{nprocs}"
    app: str  # name in :data:`repro.apps.APPS`
    entries: tuple[Entry, ...] = STATS_ENTRIES
    # the paper's published values (empty where none are legible)
    paper: dict = field(default_factory=dict)
    speedup: bool = False  # speedups over processor counts, not statistics on one

    def run(self, **overrides):
        """Run the experiment; ``overrides`` go to the driver (``nprocs`` for
        a stats table, ``proc_counts`` for a speedup table, ``jobs``, ...)."""
        if self.speedup:
            return speedup_experiment(APPS[self.app], self.entries, **overrides)
        return stats_experiment(APPS[self.app], entries=self.entries, **overrides)

    def render(self, results) -> str:
        """Format what :meth:`run` returned the way the paper prints it."""
        if self.speedup:
            return format_speedup_table(self.title, results, paper=self.paper)
        nprocs = next(iter(results.values())).nprocs
        return format_stats_table(
            self.title.format(nprocs=nprocs), results, paper=self.paper
        )


_LRC_VS_SD = (Entry("LRC_d", "lrc_d"), Entry("VC_sd", "vc_sd"))

TABLES: dict[int, TableSpec] = {
    1: TableSpec("Table 1: Statistics of IS on {nprocs} processors", "is",
                 paper=paper_data.TABLE1_IS_STATS),
    2: TableSpec("Table 2: Statistics of IS with fewer barriers on {nprocs} processors",
                 "is", (Entry("VC_d", "vc_d", "lb"), Entry("VC_sd", "vc_sd", "lb")),
                 paper_data.TABLE2_IS_LB_STATS),
    3: TableSpec("Table 3: Speedup of IS on LRC_d and VC_sd", "is",
                 (*_LRC_VS_SD, Entry("VC_sd lb", "vc_sd", "lb")),
                 paper_data.TABLE3_IS_SPEEDUP, speedup=True),
    4: TableSpec("Table 4: Statistics of Gauss on {nprocs} processors", "gauss",
                 paper=paper_data.TABLE4_GAUSS_STATS),
    5: TableSpec("Table 5: Speedup of Gauss on LRC_d and VC_sd", "gauss", _LRC_VS_SD,
                 speedup=True),
    6: TableSpec("Table 6: Statistics of SOR on {nprocs} processors", "sor",
                 paper=paper_data.TABLE6_SOR_STATS),
    7: TableSpec("Table 7: Speedup of SOR on LRC_d and VC_sd", "sor", _LRC_VS_SD,
                 speedup=True),
    8: TableSpec("Table 8: Statistics of NN on {nprocs} processors", "nn",
                 paper=paper_data.TABLE8_NN_STATS),
    9: TableSpec("Table 9: Speedup of NN on LRC_d, VC_sd and MPI", "nn",
                 (*_LRC_VS_SD, Entry("MPI", "mpi")), speedup=True),
}


def run_table(number: int, **overrides) -> str:
    """Run one paper table's experiment and return the formatted table."""
    try:
        spec = TABLES[number]
    except KeyError:
        raise ValueError(f"no table {number}; the paper has tables 1-9") from None
    return spec.render(spec.run(**overrides))
