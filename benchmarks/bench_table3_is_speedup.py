"""Table 3 — Speedup of IS on LRC_d and VC_sd (2..32 processors).

Paper findings: VC_sd's speedups are significantly better than LRC_d's at
every processor count; moving the barrier out of the loop (VC_sd lb) improves
them further, especially at large processor counts; LRC_d degrades as the
cluster grows.
"""

from repro.bench.experiments import TABLES
from repro.bench.runner import PAPER_PROC_COUNTS
from benchmarks.conftest import attach, run_once

SPEC = TABLES[3]


def test_table3_is_speedup(benchmark):
    speedups = run_once(benchmark, SPEC.run)
    table = SPEC.render(speedups)
    attach(benchmark, table, {f"{k}@{p}": v for k, row in speedups.items() for p, v in row.items()})

    lrc, sd, sd_lb = speedups["LRC_d"], speedups["VC_sd"], speedups["VC_sd lb"]
    # VC_sd beats LRC_d at every processor count
    for p in PAPER_PROC_COUNTS:
        assert sd[p] > lrc[p], f"VC_sd must beat LRC_d at {p}p"
    # the fewer-barriers version wins at scale (paper: "especially when the
    # number of processors becomes large")
    assert sd_lb[32] >= sd[32]
    # LRC_d collapses at scale; VC_sd keeps improving from 16 to 32
    assert lrc[32] < lrc[16]
    assert sd[32] > sd[16]
