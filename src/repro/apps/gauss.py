"""Gauss — parallel Gaussian elimination, paper §3.1 / §5.2.

Forward elimination (no pivoting; the matrix is made diagonally dominant) on
an ``n x n`` float64 matrix with cyclic row distribution.

Variants
--------
* traditional (LRC_d): the whole matrix lives packed in shared memory and is
  updated in place.  With several rows per page, the cyclic distribution
  makes every page multi-writer — the false-sharing effect the paper removes.
  One consistency barrier per elimination step.
* ``vopp`` (VC): each processor keeps its rows in a **local buffer** (§3.1,
  "local buffer for infrequently-shared data"); only the pivot row crosses
  the network each step, through a double-buffered pair of pivot views; the
  per-processor row blocks are views written once at the start and once at
  the end.
* ``vopp`` / ``no_local_buffers``: the §3.1 ablation — rows are updated in
  place in the shared block views every step.

The parallel result is bitwise-identical to the sequential reference (the
per-row floating-point operations do not depend on the distribution).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Generator

import numpy as np

from repro.apps.common import AppConfig, charge

__all__ = ["GaussConfig", "PROGRAMS", "default_config", "sequential", "outputs_match"]

CYC_ELIM = 4.0  # cycles per matrix element updated (multiply + subtract)
CYC_COPY = 1.0  # cycles per element copied between buffers


@dataclass
class GaussConfig(AppConfig):
    """Paper: 2048x2048, 1024 steps.  Scaled default: 96x96 with the paper's
    compute/communication ratio restored by ``work_factor``."""

    n: int = 96
    seed: int = 7
    work_factor: float = float((2048 // 96) ** 3)


def default_config() -> GaussConfig:
    return GaussConfig()


def paper_config() -> GaussConfig:
    return GaussConfig(n=2048, work_factor=1.0)


def _matrix(config: GaussConfig) -> np.ndarray:
    rng = np.random.RandomState(config.seed)
    a = rng.uniform(0.1, 1.0, size=(config.n, config.n))
    a[np.diag_indices(config.n)] += config.n  # diagonally dominant: stable
    return a


def _eliminate_row(row: np.ndarray, pivot: np.ndarray, k: int) -> None:
    """One row update of step ``k`` (in place, identical in all versions)."""
    factor = row[k] / pivot[k]
    row[k:] -= factor * pivot[k:]


def sequential(config: GaussConfig) -> np.ndarray:
    a = _matrix(config)
    n = config.n
    for k in range(n - 1):
        pivot = a[k].copy()
        for i in range(k + 1, n):
            _eliminate_row(a[i], pivot, k)
    return a


def outputs_match(got: np.ndarray, expected: np.ndarray) -> bool:
    return bool(np.array_equal(got, expected))


def _my_rows(n: int, nprocs: int, rank: int) -> list[int]:
    """Cyclic row distribution (row i belongs to processor i % nprocs)."""
    return list(range(rank, n, nprocs))


# -- traditional ------------------------------------------------------------------


def _build_traditional(system, config: GaussConfig):
    n, P = config.n, system.nprocs
    matrix = system.alloc_array("matrix", (n, n), dtype="float64")

    def body(rt) -> Generator:
        p = rt.rank
        if p == 0:
            yield from matrix.write_all(rt, _matrix(config))
        yield from rt.barrier()
        mine = _my_rows(n, P, p)
        for k in range(n - 1):
            pivot = yield from matrix.read_row(rt, k)
            todo = [i for i in mine if i > k]
            for i in todo:
                row = (yield from matrix.read_row(rt, i)).copy()
                _eliminate_row(row, pivot, k)
                yield from matrix.write_row(rt, i, row)
            yield from charge(rt, config, len(todo) * (n - k), CYC_ELIM)
            yield from rt.barrier()
        if p == 0:
            system.app_output = (yield from matrix.read_all(rt)).copy()
        return None

    return body


# -- VOPP --------------------------------------------------------------------------


def _build_vopp(system, config: GaussConfig, local_buffers: bool):
    """Rows live in per-processor block views; only the pivot row crosses the
    network each step, through a double-buffered pair of pivot views.

    With ``local_buffers`` (§3.1) each processor copies its rows out of its
    block once, eliminates them locally and writes them back at the end.
    Without (the ablation) every step updates the rows in place in the shared
    block view, so each release ships the step's row diffs through the view
    manager — the data volume the local buffers avoid.
    """
    n, P = config.n, system.nprocs
    blocks = []
    for q in range(P):
        rows = _my_rows(n, P, q)
        blocks.append(
            system.alloc_array(
                f"rows{q}", (max(len(rows), 1), n), dtype="float64", page_aligned=True
            )
        )
    pivots = [
        system.alloc_array(f"pivot{j}", n, dtype="float64", page_aligned=True)
        for j in range(2)
    ]
    BLOCK, PIVOT = 0, P  # view id ranges

    def body(rt) -> Generator:
        p = rt.rank
        mine = _my_rows(n, P, p)
        if p == 0:
            a = _matrix(config)
            for q in range(P):
                rows = _my_rows(n, P, q)
                yield from rt.acquire_view(BLOCK + q)
                yield from blocks[q].write_all(rt, a[rows])
                yield from rt.release_view(BLOCK + q)
        yield from rt.barrier()
        if local_buffers:
            # local buffer for the infrequently-shared rows (§3.1)
            yield from rt.acquire_Rview(BLOCK + p)
            local = (yield from blocks[p].read_all(rt)).copy()
            yield from rt.release_Rview(BLOCK + p)
            yield from charge(rt, config, local.size, CYC_COPY)
        row_pos = {i: j for j, i in enumerate(mine)}
        for k in range(n - 1):
            pv = PIVOT + (k % 2)  # double-buffered pivot views
            if k in row_pos:
                if local_buffers:
                    pivot_row = local[row_pos[k]]
                else:
                    yield from rt.acquire_Rview(BLOCK + p)
                    pivot_row = yield from blocks[p].read_row(rt, row_pos[k])
                    yield from rt.release_Rview(BLOCK + p)
                yield from rt.acquire_view(pv)
                yield from pivots[k % 2].write(rt, 0, pivot_row)
                yield from rt.release_view(pv)
            yield from rt.barrier()
            yield from rt.acquire_Rview(pv)
            pivot = yield from pivots[k % 2].read(rt)
            yield from rt.release_Rview(pv)
            todo = [i for i in mine if i > k]
            if local_buffers:
                for i in todo:
                    _eliminate_row(local[row_pos[i]], pivot, k)
            elif todo:
                # no local buffer: work directly in the shared view
                yield from rt.acquire_view(BLOCK + p)
                for i in todo:
                    row = (yield from blocks[p].read_row(rt, row_pos[i])).copy()
                    _eliminate_row(row, pivot, k)
                    yield from blocks[p].write_row(rt, row_pos[i], row)
                yield from rt.release_view(BLOCK + p)
            yield from charge(rt, config, len(todo) * (n - k), CYC_ELIM)
        if local_buffers:
            # write results back into the shared views for the final read-out
            yield from rt.acquire_view(BLOCK + p)
            yield from blocks[p].write_all(rt, local)
            yield from rt.release_view(BLOCK + p)
            yield from charge(rt, config, local.size, CYC_COPY)
        yield from rt.barrier()
        if p == 0:
            out = np.empty((n, n), dtype=np.float64)
            for q in range(P):
                rows = _my_rows(n, P, q)
                yield from rt.acquire_Rview(BLOCK + q)
                data = yield from blocks[q].read_all(rt)
                yield from rt.release_Rview(BLOCK + q)
                out[rows] = data[: len(rows)]
            system.app_output = out
        return None

    return body


# (programming model, variant) -> builder(system, config) -> program body
PROGRAMS = {
    ("traditional", "default"): _build_traditional,
    ("vopp", "default"): partial(_build_vopp, local_buffers=True),
    ("vopp", "no_local_buffers"): partial(_build_vopp, local_buffers=False),
}
