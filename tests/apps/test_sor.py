"""SOR correctness across protocols and processor counts."""

import tracemalloc

import numpy as np
import pytest

from repro.apps import sor
from repro.apps.common import run_app
from repro.core.program import make_system

SMALL = sor.SorConfig(rows=20, cols=16, iterations=3, work_factor=1.0)


def test_sequential_preserves_boundary():
    grid0 = sor._grid(SMALL)
    out = sor.sequential(SMALL)
    assert np.array_equal(out[0], grid0[0])
    assert np.array_equal(out[-1], grid0[-1])
    assert np.array_equal(out[:, 0], grid0[:, 0])
    assert np.array_equal(out[:, -1], grid0[:, -1])


def test_sequential_changes_interior():
    grid0 = sor._grid(SMALL)
    out = sor.sequential(SMALL)
    assert not np.array_equal(out[1:-1, 1:-1], grid0[1:-1, 1:-1])


@pytest.mark.parametrize("protocol", ["lrc_d", "vc_d", "vc_sd"])
@pytest.mark.parametrize("nprocs", [1, 2, 4])
def test_parallel_matches_sequential_bitwise(protocol, nprocs):
    result = run_app(sor, protocol, nprocs, SMALL)
    assert result.verified


def test_uneven_row_blocks():
    cfg = sor.SorConfig(rows=19, cols=16, iterations=2, work_factor=1.0)
    result = run_app(sor, "vc_sd", 3, cfg)
    assert result.verified


def test_vopp_transfers_only_borders():
    """The §3.3 effect: VOPP moves clearly less data than LRC once block
    boundaries fall inside pages (false sharing)."""
    cfg = sor.SorConfig(rows=40, cols=64, iterations=6, work_factor=1.0)
    lrc = run_app(sor, "lrc_d", 4, cfg)
    d = run_app(sor, "vc_d", 4, cfg)
    # at 4 procs the blocks are boundary-dominated, so the gap is modest; the
    # benchmark at 16 procs shows the ~2x gap (EXPERIMENTS.md, Table 6)
    assert d.stats.net.data_bytes < 0.85 * lrc.stats.net.data_bytes


def test_lrc_retains_little_more_than_the_wire_size_of_its_diffs():
    """LRC_d keeps every diff of every interval for later diff requests, so
    what a diff retains sets the process's memory.  A page per row: 16 pages
    a rank, 2 of them borders, so few stored diffs are ever applied (and
    grow a scatter index).  Measured 2.9x; per-run Python objects gave 18.5x."""
    cfg = sor.SorConfig(rows=64, cols=512, iterations=8, work_factor=1.0)
    system = make_system(4, "lrc_d")
    body = sor.build(system, cfg, "default")
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        system.run_program(body)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    stored = [d for p in system.dsm.protocols for diffs in p.diff_store.values() for d in diffs]
    assert len(stored) > 1000
    assert peak <= 4 * sum(d.wire_size for d in stored)


def test_relax_color_counts_updates():
    g = np.ones((6, 8))
    n = sor._relax_color(g, 1, 5, 0)
    assert n == 4 * 3  # 4 interior rows, 3 cells of each colour per row
