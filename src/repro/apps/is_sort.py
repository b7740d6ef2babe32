"""IS — Integer Sort (bucket-sort ranking), paper §3.2 / §5.1.

Ranks a sequence of integer keys by bucket counting, repeated over ``reps``
rounds with a per-round key rotation; bucket counts accumulate across rounds
and the final ranks come from the exclusive prefix sum of the accumulated
histogram.

Variants
--------
* traditional (LRC_d): per-processor partial-histogram rows in packed shared
  memory (adjacent rows false-share pages), **barriers only** for exclusion —
  the paper's Table 1 shows ``Acquires = 0`` for LRC_d; two barriers per
  round.
* ``vopp`` (VC): keys copied to local buffers (§3.1), bucket array split into
  page-aligned sub-views updated under ``acquire_view`` in a staggered order;
  keeps the two per-round barriers of the original ("one uses the same number
  of barriers", §5.1).
* ``vopp_lb`` — the "fewer barriers" version: the in-loop barriers move
  outside the loop (§3.2), leaving just the closing synchronisation.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Generator

import numpy as np

from repro.apps.common import AppConfig, charge, chunk_bounds

__all__ = ["IsConfig", "PROGRAMS", "default_config", "sequential", "outputs_match"]

# calibrated per-op costs (cycles on the 350 MHz node)
CYC_HIST = 12.0  # per key histogrammed
CYC_ADD = 6.0  # per bucket added into the shared histogram
CYC_PREFIX = 6.0  # per bucket prefix-summed
CYC_RANK = 10.0  # per key ranked


@dataclass
class IsConfig(AppConfig):
    """Problem size.  Paper: keys=2^25, Bmax=2^15; scaled default keeps the
    paper's compute/communication balance via ``work_factor``."""

    n_keys: int = 1 << 15
    b_max: int = 1 << 10
    reps: int = 20
    bucket_views: int = 8
    seed: int = 42
    work_factor: float = float(1 << 10)  # paper keys / scaled keys


def default_config() -> IsConfig:
    return IsConfig()


def paper_config() -> IsConfig:
    """The full problem size (only for reference; slow to simulate)."""
    return IsConfig(n_keys=1 << 25, b_max=1 << 15, reps=20, work_factor=1.0)


def _base_keys(config: IsConfig) -> np.ndarray:
    rng = np.random.RandomState(config.seed)
    return rng.randint(0, config.b_max, size=config.n_keys).astype(np.int64)


def _keys_at_rep(base: np.ndarray, rep: int, config: IsConfig) -> np.ndarray:
    return (base + rep * 17) % config.b_max


def sequential(config: IsConfig) -> dict:
    """Reference result: accumulated histogram prefix + ranks."""
    base = _base_keys(config)
    acc = np.zeros(config.b_max, dtype=np.int64)
    for rep in range(config.reps):
        acc += np.bincount(_keys_at_rep(base, rep, config), minlength=config.b_max)
    prefix = np.concatenate(([0], np.cumsum(acc)[:-1]))
    ranks = prefix[base]
    return {"prefix": prefix, "ranks": ranks}


def outputs_match(got: dict, expected: dict) -> bool:
    return bool(
        np.array_equal(got["prefix"], expected["prefix"])
        and np.array_equal(got["ranks"], expected["ranks"])
    )


# -- traditional (lock/barrier on LRC_d) -----------------------------------------------


def _build_traditional(system, config: IsConfig):
    n, B, P = config.n_keys, config.b_max, system.nprocs
    keys = system.alloc_array("keys", n, dtype="int64")
    partial = system.alloc_array("partial", (P, B), dtype="int64")
    prefix = system.alloc_array("prefix", B, dtype="int64")
    ranks = system.alloc_array("ranks", n, dtype="int64")

    def body(rt) -> Generator:
        lo, hi = chunk_bounds(n, P, rt.rank)
        if rt.rank == 0:
            yield from keys.write(rt, 0, _base_keys(config))
        yield from rt.barrier()
        # traditional style: keys stay in shared memory, read directly
        my_keys = yield from keys.read(rt, lo, hi - lo)
        acc = np.zeros(B, dtype=np.int64)  # rank 0's private accumulator
        for rep in range(config.reps):
            hist = np.bincount(_keys_at_rep(my_keys, rep, config), minlength=B)
            yield from charge(rt, config, hi - lo, CYC_HIST)
            yield from partial.write_row(rt, rt.rank, hist)
            yield from rt.barrier()
            if rt.rank == 0:
                rows = yield from partial.read_all(rt)
                acc += rows.sum(axis=0)
                yield from charge(rt, config, P * B, CYC_ADD)
            yield from rt.barrier()
        if rt.rank == 0:
            pref = np.concatenate(([0], np.cumsum(acc)[:-1]))
            yield from charge(rt, config, B, CYC_PREFIX)
            yield from prefix.write(rt, 0, pref)
        yield from rt.barrier()
        pref = yield from prefix.read(rt)
        my_ranks = pref[my_keys]
        yield from charge(rt, config, hi - lo, CYC_RANK)
        yield from ranks.write(rt, lo, my_ranks)
        yield from rt.barrier()
        if rt.rank == 0:
            out_prefix = yield from prefix.read(rt)
            out_ranks = yield from ranks.read(rt)
            system.app_output = {"prefix": out_prefix, "ranks": out_ranks}
        return None

    return body


# -- VOPP (views on VC_d / VC_sd) --------------------------------------------------------


def _build_vopp(system, config: IsConfig, fewer_barriers: bool):
    n, B, P, V = config.n_keys, config.b_max, system.nprocs, config.bucket_views
    if B % V:
        raise ValueError(f"b_max ({B}) must divide evenly into {V} bucket views")
    seg = B // V
    key_chunks = []
    for p in range(P):
        lo, hi = chunk_bounds(n, P, p)
        key_chunks.append(
            system.alloc_array(f"keys{p}", max(hi - lo, 1), dtype="int64", page_aligned=True)
        )
    bucket_segs = [
        system.alloc_array(f"buckets{v}", seg, dtype="int64", page_aligned=True)
        for v in range(V)
    ]
    prefix = system.alloc_array("prefix", B, dtype="int64", page_aligned=True)
    rank_chunks = []
    for p in range(P):
        lo, hi = chunk_bounds(n, P, p)
        rank_chunks.append(
            system.alloc_array(f"ranks{p}", max(hi - lo, 1), dtype="int64", page_aligned=True)
        )
    # view ids
    KEYS, BUCKET, PREFIX, RANKS = 0, P, P + V, P + V + 1

    def body(rt) -> Generator:
        p = rt.rank
        lo, hi = chunk_bounds(n, P, p)
        if p == 0:
            base = _base_keys(config)
            for q in range(P):
                qlo, qhi = chunk_bounds(n, P, q)
                yield from rt.acquire_view(KEYS + q)
                yield from key_chunks[q].write(rt, 0, base[qlo:qhi])
                yield from rt.release_view(KEYS + q)
        yield from rt.barrier()
        # local buffer for the read-only keys (§3.1)
        yield from rt.acquire_Rview(KEYS + p)
        my_keys = yield from key_chunks[p].read(rt, 0, hi - lo)
        yield from rt.release_Rview(KEYS + p)
        for rep in range(config.reps):
            hist = np.bincount(_keys_at_rep(my_keys, rep, config), minlength=B)
            yield from charge(rt, config, hi - lo, CYC_HIST)
            for i in range(V):
                v = (p + i) % V  # staggered order reduces view contention
                yield from rt.acquire_view(BUCKET + v)
                cur = yield from bucket_segs[v].read(rt)
                yield from bucket_segs[v].write(rt, 0, cur + hist[v * seg : (v + 1) * seg])
                yield from rt.release_view(BUCKET + v)
                yield from charge(rt, config, seg, CYC_ADD)
            if not fewer_barriers:
                # mirror the original's two per-round barriers (§5.1 variant 1)
                yield from rt.barrier()
                yield from rt.barrier()
        yield from rt.barrier()
        if p == 0:
            acc = np.empty(B, dtype=np.int64)
            for v in range(V):
                yield from rt.acquire_Rview(BUCKET + v)
                acc[v * seg : (v + 1) * seg] = yield from bucket_segs[v].read(rt)
                yield from rt.release_Rview(BUCKET + v)
            pref = np.concatenate(([0], np.cumsum(acc)[:-1]))
            yield from charge(rt, config, B, CYC_PREFIX)
            yield from rt.acquire_view(PREFIX)
            yield from prefix.write(rt, 0, pref)
            yield from rt.release_view(PREFIX)
        yield from rt.barrier()
        yield from rt.acquire_Rview(PREFIX)
        pref = yield from prefix.read(rt)
        yield from rt.release_Rview(PREFIX)
        my_ranks = pref[my_keys]
        yield from charge(rt, config, hi - lo, CYC_RANK)
        yield from rt.acquire_view(RANKS + p)
        yield from rank_chunks[p].write(rt, 0, my_ranks)
        yield from rt.release_view(RANKS + p)
        yield from rt.barrier()
        if p == 0:
            yield from rt.acquire_Rview(PREFIX)
            out_prefix = yield from prefix.read(rt)
            yield from rt.release_Rview(PREFIX)
            out_ranks = np.empty(n, dtype=np.int64)
            for q in range(P):
                qlo, qhi = chunk_bounds(n, P, q)
                yield from rt.acquire_Rview(RANKS + q)
                out_ranks[qlo:qhi] = yield from rank_chunks[q].read(rt, 0, qhi - qlo)
                yield from rt.release_Rview(RANKS + q)
            system.app_output = {"prefix": out_prefix, "ranks": out_ranks}
        return None

    return body


# (programming model, variant) -> builder(system, config) -> program body;
# VOPP keeps the original's barriers by default, "lb" has fewer (§3.2)
PROGRAMS = {
    ("traditional", "default"): _build_traditional,
    ("vopp", "default"): partial(_build_vopp, fewer_barriers=False),
    ("vopp", "lb"): partial(_build_vopp, fewer_barriers=True),
}
