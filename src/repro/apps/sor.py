"""SOR — red-black successive over-relaxation, paper §3.3 / §5.3.

Iterative 5-point stencil relaxation on a 2-D grid with fixed boundary,
red-black ordering (two half-sweeps per iteration, each followed by a
barrier), block-row decomposition.

Variants
--------
* traditional (LRC_d): the whole grid is one packed shared allocation; every
  processor updates its row block in place.  Block-boundary pages are shared
  between neighbouring processors (false sharing), and *all* interior updates
  become page diffs that cross the network at barriers even though only the
  boundary rows are ever consumed remotely.
* ``vopp`` (VC): each processor's block lives in a **local buffer**; only the
  boundary rows are shared, through dedicated per-processor border views
  (§3.3: "we use separate views for those border elements which are
  frequently shared ... only the border elements of the views are passed
  between processors through the cluster network").

The parallel grid is bitwise-identical to the sequential reference: every
version relaxes its rows with the one kernel :func:`_relax_color`, whose
per-parity strided update equals a row-by-row sweep bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Generator

import numpy as np

from repro.apps.common import AppConfig, charge, chunk_bounds

__all__ = ["SorConfig", "PROGRAMS", "default_config", "sequential", "outputs_match"]

CYC_STENCIL = 8.0  # cycles per element relaxed
CYC_COPY = 1.0


@dataclass
class SorConfig(AppConfig):
    """Paper: 4096x2048 grid, 50 iterations.  Scaled default 192x96 (rows per
    processor do not align to page boundaries, so neighbouring block owners
    genuinely share pages, like the original program) with the
    compute/communication ratio restored by ``work_factor``."""

    rows: int = 200
    cols: int = 64
    iterations: int = 16
    seed: int = 3
    work_factor: float = float((4096 * 2048) // (200 * 64))


def default_config() -> SorConfig:
    return SorConfig()


def paper_config() -> SorConfig:
    return SorConfig(rows=4096, cols=2048, iterations=50, work_factor=1.0)


def _grid(config: SorConfig) -> np.ndarray:
    rng = np.random.RandomState(config.seed)
    g = rng.uniform(0.0, 1.0, size=(config.rows, config.cols))
    return g


def _relax_color(g: np.ndarray, lo: int, hi: int, color: int, row_offset: int = 0) -> int:
    """Red-black half-sweep over interior rows ``[lo, hi)`` of ``g`` in place.

    ``g`` must include the rows lo-1 and hi (ghosts) so the stencil closes.
    ``row_offset`` maps local row indices to global ones so the colour parity
    is distribution-independent.  Returns the number of elements updated.

    One strided store per row parity (rows ``lo, lo+2, ...`` then ``lo+1,
    lo+3, ...``) equals a row-by-row sweep bit for bit: a colour's cells read
    only cells of the other colour, which no store of this half-sweep writes,
    and ``((up + down) + left) + right`` is summed elementwise in that order.
    The sequential and all parallel versions run this one kernel.
    """
    rows, cols = g.shape
    lo, hi = max(lo, 1), min(hi, rows - 1)
    count = 0
    for first in range(lo, min(lo + 2, hi)):
        start = 1 + ((first + row_offset + color) % 2)
        rs, cs = slice(first, hi, 2), slice(start, cols - 1, 2)
        g[rs, cs] = 0.25 * (
            g[first - 1 : hi - 1 : 2, cs] + g[first + 1 : hi + 1 : 2, cs]
            + g[rs, start - 1 : cols - 2 : 2] + g[rs, start + 1 : cols : 2]
        )
        count += len(range(first, hi, 2)) * len(range(start, cols - 1, 2))
    return count


def sequential(config: SorConfig) -> np.ndarray:
    g = _grid(config)
    for _ in range(config.iterations):
        for color in (0, 1):
            _relax_color(g, 1, config.rows - 1, color)
    return g


def outputs_match(got: np.ndarray, expected: np.ndarray) -> bool:
    return bool(np.array_equal(got, expected))


# -- traditional ---------------------------------------------------------------------


def _build_traditional(system, config: SorConfig):
    R, C, P = config.rows, config.cols, system.nprocs
    grid = system.alloc_array("grid", (R, C), dtype="float64")

    def body(rt) -> Generator:
        p = rt.rank
        lo, hi = chunk_bounds(R, P, p)
        if p == 0:
            yield from grid.write_all(rt, _grid(config))
        yield from rt.barrier()
        for _ in range(config.iterations):
            for color in (0, 1):
                # read my block plus ghost rows straight from shared memory
                glo = max(lo - 1, 0)
                ghi = min(hi + 1, R)
                start, count = glo * C, (ghi - glo) * C
                flat = yield from grid.read(rt, start, count)
                block = flat.reshape(ghi - glo, C).copy()
                updated = _relax_color(block, lo - glo, hi - glo, color, row_offset=glo)
                yield from charge(rt, config, updated, CYC_STENCIL)
                # write back only my own rows
                yield from grid.write(
                    rt, lo * C, block[lo - glo : hi - glo].ravel()
                )
                yield from rt.barrier()
        if p == 0:
            system.app_output = (yield from grid.read_all(rt)).copy()
        return None

    return body


# -- VOPP ----------------------------------------------------------------------------


def _build_vopp(system, config: SorConfig):
    R, C, P = config.rows, config.cols, system.nprocs
    blocks = []
    tops = []
    bots = []
    for q in range(P):
        qlo, qhi = chunk_bounds(R, P, q)
        rows = max(qhi - qlo, 1)
        blocks.append(
            system.alloc_array(f"block{q}", (rows, C), dtype="float64", page_aligned=True)
        )
        # border views are double-buffered by sweep parity: readers of sweep k
        # use buffer k%2 while writers fill buffer (k+1)%2, so a read-only
        # acquire never queues behind the next sweep's exclusive writer
        tops.append(
            [
                system.alloc_array(f"top{q}_{j}", C, dtype="float64", page_aligned=True)
                for j in range(2)
            ]
        )
        bots.append(
            [
                system.alloc_array(f"bot{q}_{j}", C, dtype="float64", page_aligned=True)
                for j in range(2)
            ]
        )
    BLOCK, TOP, BOT = 0, P, 3 * P  # view ids: TOP+2q+j, BOT+2q+j

    def body(rt) -> Generator:
        p = rt.rank
        lo, hi = chunk_bounds(R, P, p)
        nrows = hi - lo
        if p == 0:
            g = _grid(config)
            for q in range(P):
                qlo, qhi = chunk_bounds(R, P, q)
                yield from rt.acquire_view(BLOCK + q)
                yield from blocks[q].write_all(rt, g[qlo:qhi])
                yield from rt.release_view(BLOCK + q)
        yield from rt.barrier()
        # local buffer with ghost rows above and below (§3.1/§3.3)
        yield from rt.acquire_Rview(BLOCK + p)
        inner = (yield from blocks[p].read_all(rt)).copy()
        yield from rt.release_Rview(BLOCK + p)
        yield from charge(rt, config, inner.size, CYC_COPY)
        local = np.zeros((nrows + 2, C), dtype=np.float64)
        local[1:-1] = inner
        # publish initial borders into the sweep-0 buffer
        yield from rt.acquire_view(TOP + 2 * p)
        yield from tops[p][0].write(rt, 0, local[1])
        yield from rt.release_view(TOP + 2 * p)
        yield from rt.acquire_view(BOT + 2 * p)
        yield from bots[p][0].write(rt, 0, local[nrows])
        yield from rt.release_view(BOT + 2 * p)
        yield from rt.barrier()
        sweep = 0
        for _ in range(config.iterations):
            for color in (0, 1):
                buf = sweep % 2
                # pull the neighbours' border rows into the ghost rows
                if p > 0:
                    yield from rt.acquire_Rview(BOT + 2 * (p - 1) + buf)
                    local[0] = yield from bots[p - 1][buf].read(rt)
                    yield from rt.release_Rview(BOT + 2 * (p - 1) + buf)
                if p < P - 1:
                    yield from rt.acquire_Rview(TOP + 2 * (p + 1) + buf)
                    local[nrows + 1] = yield from tops[p + 1][buf].read(rt)
                    yield from rt.release_Rview(TOP + 2 * (p + 1) + buf)
                # relax my rows (global indices lo..hi map to local 1..nrows)
                glo = max(lo, 1) - lo + 1
                ghi = min(hi, R - 1) - lo + 1
                count = _relax_color(local, glo, ghi, color, row_offset=lo - 1)
                yield from charge(rt, config, count, CYC_STENCIL)
                # publish my fresh borders into the next sweep's buffer
                nbuf = (sweep + 1) % 2
                yield from rt.acquire_view(TOP + 2 * p + nbuf)
                yield from tops[p][nbuf].write(rt, 0, local[1])
                yield from rt.release_view(TOP + 2 * p + nbuf)
                yield from rt.acquire_view(BOT + 2 * p + nbuf)
                yield from bots[p][nbuf].write(rt, 0, local[nrows])
                yield from rt.release_view(BOT + 2 * p + nbuf)
                yield from rt.barrier()
                sweep += 1
        yield from rt.acquire_view(BLOCK + p)
        yield from blocks[p].write_all(rt, local[1:-1])
        yield from rt.release_view(BLOCK + p)
        yield from charge(rt, config, inner.size, CYC_COPY)
        yield from rt.barrier()
        if p == 0:
            out = np.empty((R, C), dtype=np.float64)
            for q in range(P):
                qlo, qhi = chunk_bounds(R, P, q)
                yield from rt.acquire_Rview(BLOCK + q)
                data = yield from blocks[q].read_all(rt)
                yield from rt.release_Rview(BLOCK + q)
                out[qlo:qhi] = data[: qhi - qlo]
            system.app_output = out
        return None

    return body


# (programming model, variant) -> builder(system, config) -> program body
PROGRAMS = {
    ("traditional", "default"): _build_traditional,
    ("vopp", "default"): _build_vopp,
}
