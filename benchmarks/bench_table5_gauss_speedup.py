"""Table 5 — Speedup of Gauss on LRC_d and VC_sd (2..32 processors).

Paper finding: "The speedups of VC_sd is really impressive compared with
those of LRC_d" — LRC_d barely scales while VC_sd keeps climbing.
"""

from repro.bench.experiments import TABLES
from repro.bench.runner import PAPER_PROC_COUNTS
from benchmarks.conftest import attach, run_once

SPEC = TABLES[5]


def test_table5_gauss_speedup(benchmark):
    speedups = run_once(benchmark, SPEC.run)
    table = SPEC.render(speedups)
    attach(benchmark, table, {f"{k}@{p}": v for k, row in speedups.items() for p, v in row.items()})

    lrc, sd = speedups["LRC_d"], speedups["VC_sd"]
    for p in PAPER_PROC_COUNTS:
        assert sd[p] > lrc[p], f"VC_sd must beat LRC_d at {p}p"
    # VC_sd at 16p is several times LRC_d's speedup
    assert sd[16] > 3 * lrc[16]
    # VC_sd still improves beyond 8 processors
    assert sd[16] > sd[8]
