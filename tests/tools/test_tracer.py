"""Tests for the view tracer / tuning-advice tool (a reader over Metrics)."""

import numpy as np

from repro.core import VoppSystem
from repro.obs import EventTracer, Metrics
from repro.tools import ViewTracer


def make_contended_run(nprocs=4, rounds=6):
    """All processors hammer one exclusive view."""
    system = VoppSystem(nprocs)
    arr = system.alloc_array("hot", 64, dtype="int64", page_aligned=True)
    tracer = ViewTracer.install(system)

    def body(rt):
        for _ in range(rounds):
            yield from rt.acquire_view(0)
            cur = yield from arr.read(rt, 0, 1)
            yield from arr.write(rt, 0, [cur[0] + 1])
            yield from rt.compute(0.002)  # hold the view: builds contention
            yield from rt.release_view(0)
        yield from rt.barrier()

    system.run_program(body)
    return system, tracer


def test_tracer_records_acquires_and_grants():
    system, tracer = make_contended_run()
    profile = tracer.profiles[0]
    assert profile.excl_acquires == 4 * 6
    assert profile.r_acquires == 0
    assert profile.grants == 4 * 6
    assert profile.wait_sum > 0
    assert profile.wait_max >= profile.wait_avg


def test_tracer_flags_contention():
    system, tracer = make_contended_run()
    text = tracer.report()
    assert "view 0" in text
    advice = " ".join(tracer.advice())
    assert "§3.6" in advice or "§3.4" in advice
    assert "view 0" in advice


def test_tracer_quiet_run_gives_no_advice():
    system = VoppSystem(2)
    arr = system.alloc_array("cold", 4, dtype="int64", page_aligned=True)
    tracer = ViewTracer.install(system)

    def body(rt):
        if rt.rank == 0:
            yield from rt.acquire_view(0)
            yield from arr.write(rt, 0, [1])
            yield from rt.release_view(0)
        yield from rt.barrier()

    system.run_program(body)
    assert tracer.advice() == ["no contended or oversized views detected"]


def test_tracer_distinguishes_read_acquires():
    system = VoppSystem(3)
    arr = system.alloc_array("shared", 8, dtype="int64", page_aligned=True)
    tracer = ViewTracer.install(system)

    def body(rt):
        if rt.rank == 0:
            yield from rt.acquire_view(0)
            yield from arr.write(rt, 0, list(range(8)))
            yield from rt.release_view(0)
        yield from rt.barrier()
        yield from rt.acquire_Rview(0)
        yield from arr.read(rt)
        yield from rt.release_Rview(0)
        yield from rt.barrier()

    system.run_program(body)
    profile = tracer.profiles[0]
    assert profile.excl_acquires == 1
    assert profile.r_acquires == 3


def test_tracer_flags_oversized_views():
    """A view that moves a lot of data per grant draws §3.6 advice."""
    system = VoppSystem(2)
    # 64 KB view, fully rewritten every round
    arr = system.alloc_array("big", 8192, dtype="int64", page_aligned=True)
    tracer = ViewTracer.install(system)

    def body(rt):
        for k in range(3):
            yield from rt.acquire_view(0)
            yield from arr.write(rt, 0, np.full(8192, rt.rank * 10 + k, dtype=np.int64))
            yield from rt.release_view(0)
        yield from rt.barrier()

    system.run_program(body)
    advice = " ".join(tracer.advice())
    assert "KB" in advice and "partition" in advice


def test_advice_wait_flag_threshold():
    """Mean exclusive wait just above WAIT_FLAG_SECONDS trips the flag."""
    from repro.tools.tracer import WAIT_FLAG_SECONDS

    def advice_for(wait):
        metrics = Metrics()
        # one read acquire keeps this off the read-mostly-conversion branch
        metrics.observe("acquire_wait_seconds", wait, view=0, mode="r")
        for _ in range(3):
            metrics.observe("acquire_wait_seconds", wait, view=0, mode="w")
        return " ".join(ViewTracer(metrics).advice())

    assert "splitting" in advice_for(WAIT_FLAG_SECONDS * 2)
    assert advice_for(WAIT_FLAG_SECONDS / 2) == (
        "no contended or oversized views detected"
    )


def test_advice_bytes_flag_threshold():
    """Mean grant payload above BYTES_FLAG flags the view as oversized."""
    from repro.tools.tracer import BYTES_FLAG

    def advice_for(size):
        metrics = Metrics()
        metrics.observe("grant_bytes", size, view=7)
        return " ".join(ViewTracer(metrics).advice())

    assert "partition" in advice_for(BYTES_FLAG * 2)
    assert advice_for(BYTES_FLAG // 2) == "no contended or oversized views detected"


def test_advice_read_mostly_conversion():
    """Contended exclusive-only views get the acquire_Rview suggestion."""
    from repro.tools.tracer import READ_MOSTLY_RATIO, WAIT_FLAG_SECONDS

    metrics = Metrics()
    for _ in range(READ_MOSTLY_RATIO):
        metrics.observe("acquire_wait_seconds", WAIT_FLAG_SECONDS * 3, view=2, mode="w")
    advice = " ".join(ViewTracer(metrics).advice())
    assert "acquire_Rview" in advice and "§3.4" in advice


def test_view_tracer_deterministic_across_runs():
    """Two identical runs record identical metrics, profiles and reports."""
    _, t1 = make_contended_run()
    _, t2 = make_contended_run()
    assert t1.metrics.snapshot() == t2.metrics.snapshot()
    assert t1.profiles == t2.profiles
    assert t1.report() == t2.report()
    assert t1.advice() == t2.advice()


def test_no_tracer_means_no_overhead_path():
    """Without an installed tracer, runs behave identically."""
    def run(with_tracer):
        system = VoppSystem(2)
        arr = system.alloc_array("a", 4, dtype="int64", page_aligned=True)
        if with_tracer:
            ViewTracer.install(system)

        def body(rt):
            yield from rt.acquire_view(0)
            yield from arr.write(rt, rt.rank, [rt.rank])
            yield from rt.release_view(0)
            yield from rt.barrier()

        system.run_program(body)
        return system.stats.table_row()

    assert run(False) == run(True)


def test_tracer_reads_an_already_metered_run_and_ignores_lock_acquires():
    """install() reuses the installed tracer; lock= series are not views."""
    system = VoppSystem(2)
    system.sim.tracer = tracer = EventTracer()
    assert ViewTracer.install(system).source is tracer
    metrics = Metrics()
    metrics.observe("acquire_wait_seconds", 1e-3, lock=0)  # what LRC records
    metrics.observe("acquire_wait_seconds", 2e-3, view=5, mode="w")
    profiles = ViewTracer(metrics).profiles
    assert list(profiles) == [5]
    assert profiles[5].excl_acquires == 1 and profiles[5].wait_max == 2e-3
