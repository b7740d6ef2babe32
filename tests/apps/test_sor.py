"""SOR correctness across protocols and processor counts."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.apps import sor
from repro.apps.common import program_builder, run_app
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
    body = program_builder(sor, "lrc_d")(system, cfg)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        system.run_program(body)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    stored = [d for p in system.protocols for diffs in p.diff_store.values() for d in diffs]
    assert len(stored) > 1000
    assert peak <= 4 * sum(d.wire_size for d in stored)


def test_relax_color_counts_updates():
    g = np.ones((6, 8))
    n = sor._relax_color(g, 1, 5, 0)
    assert n == 4 * 3  # 4 interior rows, 3 cells of each colour per row


def _relax_color_by_rows(g, lo, hi, color, row_offset=0):
    """The row-by-row half-sweep the per-parity kernel replaced."""
    rows, cols = g.shape
    count = 0
    for i in range(max(lo, 1), min(hi, rows - 1)):
        start = 1 + ((i + row_offset + color) % 2)
        sl = slice(start, cols - 1, 2)
        g[i, sl] = 0.25 * (
            g[i - 1, sl] + g[i + 1, sl] + g[i, sl.start - 1 : cols - 2 : 2]
            + g[i, sl.start + 1 : cols : 2]
        )
        count += len(range(start, cols - 1, 2))
    return count


@st.composite
def _half_sweeps(draw):
    rows = draw(st.integers(1, 40))
    cols = draw(st.integers(1, 40))
    seed = draw(st.integers(0, 2**32 - 1))
    lo = draw(st.integers(0, rows + 2))
    hi = draw(st.integers(0, rows + 2))
    color = draw(st.integers(0, 1))
    row_offset = draw(st.integers(-1, 4))
    grid = np.random.default_rng(seed).uniform(-1.0, 1.0, size=(rows, cols))
    return grid, lo, hi, color, row_offset


@settings(max_examples=300, deadline=None)
@given(_half_sweeps())
def test_relax_color_is_bitwise_the_row_by_row_sweep(case):
    grid, lo, hi, color, row_offset = case
    want, got = grid.copy(), grid.copy()
    expected = _relax_color_by_rows(want, lo, hi, color, row_offset)
    assert sor._relax_color(got, lo, hi, color, row_offset) == expected
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("protocol", ["lrc_d", "vc_d"])
def test_every_version_relaxes_through_the_one_kernel(protocol, monkeypatch):
    """The sequential reference, the traditional body and the VOPP body all
    call ``_relax_color``, and every call equals the row-by-row sweep."""
    calls, mismatches = [], []
    kernel = sor._relax_color

    def checked(g, lo, hi, color, row_offset=0):
        want = g.copy()
        expected = _relax_color_by_rows(want, lo, hi, color, row_offset)
        count = kernel(g, lo, hi, color, row_offset)
        if count != expected or g.tobytes() != want.tobytes():
            mismatches.append((g.shape, lo, hi, color, row_offset))
        calls.append(g.shape)
        return count

    monkeypatch.setattr(sor, "_relax_color", checked)
    nprocs, sweeps = 2, SMALL.iterations * 2
    result = run_app(sor, protocol, nprocs, SMALL)
    assert result.verified
    assert not mismatches
    assert calls.count((SMALL.rows, SMALL.cols)) == sweeps  # the reference
    assert len(calls) == nprocs * sweeps + sweeps


@pytest.mark.parametrize("field, value", [("rows", 20.0), ("iterations", 2.5), ("cols", True)])
def test_config_refuses_a_count_that_is_not_an_int(field, value):
    """Every integer field is checked when the config is built, naming the
    field: a float grid size or sweep count is no count, nor is a bool."""
    with pytest.raises(ValueError, match=f"^{field} must be an int"):
        sor.SorConfig(**{field: value})
