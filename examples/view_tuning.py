#!/usr/bin/env python
"""Tuning a VOPP program with its per-view metrics (paper §1/§3.6).

VOPP's selling point is that the view structure gives the programmer a
channel for performance tuning.  This example shows the workflow:

1. write the obvious program — a shared histogram behind ONE view;
2. trace it and read the contention tables folded from the trace (what
   ``repro run --metrics`` prints): the view's ``acquire_wait_seconds``
   series shows every acquire waiting, its ``grant_bytes`` series every
   grant moving the whole histogram;
3. apply the §3.6 rule of thumb — split the histogram into sub-views
   acquired in a staggered order — and measure the improvement.

Run:  python examples/view_tuning.py
"""

import numpy as np

from repro.core import VoppSystem
from repro.obs import EventTracer, Metrics, format_contention

NPROCS = 8
BINS = 4096
ROUNDS = 6
SEED = 21


def make_samples(rank: int) -> np.ndarray:
    rng = np.random.RandomState(SEED + rank)
    return rng.randint(0, BINS, size=20_000)


def run_single_view():
    system = VoppSystem(NPROCS)
    hist = system.alloc_array("hist", BINS, dtype="int64", page_aligned=True)
    system.sim.tracer = tracer = EventTracer()

    def body(rt):
        counts = np.bincount(make_samples(rt.rank), minlength=BINS)
        for _ in range(ROUNDS):
            yield from rt.compute(0.004)  # produce this round's samples
            yield from rt.acquire_view(0)
            cur = yield from hist.read(rt)
            yield from hist.write(rt, 0, cur + counts)
            yield from rt.release_view(0)
        yield from rt.barrier()

    system.run_program(body)
    return system, tracer


def run_split_views(n_views=8):
    system = VoppSystem(NPROCS)
    seg = BINS // n_views
    segs = [
        system.alloc_array(f"hist{v}", seg, dtype="int64", page_aligned=True)
        for v in range(n_views)
    ]

    def body(rt):
        counts = np.bincount(make_samples(rt.rank), minlength=BINS)
        for _ in range(ROUNDS):
            yield from rt.compute(0.004)
            for i in range(n_views):
                v = (rt.rank + i) % n_views  # staggered: §3.6
                yield from rt.acquire_view(v)
                cur = yield from segs[v].read(rt)
                yield from segs[v].write(rt, 0, cur + counts[v * seg : (v + 1) * seg])
                yield from rt.release_view(v)
        yield from rt.barrier()

    system.run_program(body)
    return system


def main() -> None:
    system1, tracer = run_single_view()
    print("Step 1+2: the naive single-view histogram, traced")
    print()
    print(format_contention(Metrics().fold(tracer.events)))
    print()
    system2 = run_split_views()
    t1, t2 = system1.stats.time, system2.stats.time
    print("Step 3: after splitting into 8 staggered sub-views")
    print(f"  single view : {t1:.3f} s  ({system1.stats.net.data_bytes/1e6:.2f} MB moved)")
    print(f"  8 sub-views : {t2:.3f} s  ({system2.stats.net.data_bytes/1e6:.2f} MB moved)")
    print(f"  improvement : {t1/t2:.2f}x")
    assert t2 < t1


if __name__ == "__main__":
    main()
