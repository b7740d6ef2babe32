"""Table 7 — Speedup of SOR on LRC_d and VC_sd (2..32 processors).

Paper finding: "the speedups of the VOPP program running on VC_sd is greatly
improved compared with the original program running on LRC_d."
"""

from repro.bench.experiments import TABLES
from repro.bench.runner import PAPER_PROC_COUNTS
from benchmarks.conftest import attach, run_once

SPEC = TABLES[7]


def test_table7_sor_speedup(benchmark):
    speedups = run_once(benchmark, SPEC.run)
    table = SPEC.render(speedups)
    attach(benchmark, table, {f"{k}@{p}": v for k, row in speedups.items() for p, v in row.items()})

    lrc, sd = speedups["LRC_d"], speedups["VC_sd"]
    # at 2 processors both protocols are near-ideal (parity allowed); from 4
    # processors on, VC_sd must win outright
    assert sd[2] > 0.9 * lrc[2]
    for p in PAPER_PROC_COUNTS[1:]:
        assert sd[p] > lrc[p], f"VC_sd must beat LRC_d at {p}p"
    # the gap widens with the processor count
    assert sd[32] / lrc[32] > sd[2] / lrc[2]
