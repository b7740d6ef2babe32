"""Tests for view inference over the oracle's access history (paper §6)."""

import numpy as np

from repro.apps import is_sort
from repro.core import TraditionalSystem
from repro.obs import AccessRecorder
from repro.tools import infer_views, page_uses


def record_run(body_builder, nprocs=4):
    """Run with the ``sim.oracle`` hook on; returns (system, history)."""
    system = TraditionalSystem(nprocs)
    body = body_builder(system)
    system.sim.oracle = history = AccessRecorder()
    system.run_program(body)
    return system, history


def test_recorder_tracks_readers_and_writers():
    def build(system):
        arr = system.alloc_array("slots", (4, 512), dtype="int64")

        def body(rt):
            yield from arr.write_row(rt, rt.rank, np.full(512, rt.rank))
            yield from rt.barrier()
            if rt.rank == 0:
                yield from arr.read_all(rt)
            yield from rt.barrier()

        return body

    system, history = record_run(build)
    uses = page_uses(history)
    # every slot page was written by its owner and read by rank 0
    arr = system.arrays["slots"]
    own_pages = set(arr.region.page_range(system.dsm.space.page_size))
    assert own_pages <= set(uses)
    assert set().union(*(uses[pid].writers for pid in own_pages)) == {0, 1, 2, 3}
    all_readers = set()
    for pid in own_pages:
        all_readers |= uses[pid].readers
    assert 0 in all_readers


def test_epochs_separate_write_phases():
    """Writers in different epochs are not 'concurrent'."""

    def build(system):
        arr = system.alloc_array("x", 64, dtype="int64")

        def body(rt):
            if rt.rank == 0:
                yield from arr.write(rt, 0, [1])
            yield from rt.barrier()
            if rt.rank == 1:
                yield from arr.write(rt, 0, [2])
            yield from rt.barrier()

        return body

    system, history = record_run(build, nprocs=2)
    pid = system.arrays["x"].region.page_range(system.dsm.space.page_size)[0]
    use = page_uses(history)[pid]
    assert use.writers == {0, 1}
    assert use.epoch_writers == {0: {0}, 1: {1}}
    assert not use.concurrent_writers


def test_concurrent_writers_detected():
    def build(system):
        arr = system.alloc_array("x", 64, dtype="int64")  # one page

        def body(rt):
            yield from arr.write(rt, rt.rank, [rt.rank])
            yield from rt.barrier()

        return body

    system, history = record_run(build, nprocs=3)
    pid = system.arrays["x"].region.page_range(system.dsm.space.page_size)[0]
    assert page_uses(history)[pid].concurrent_writers


def test_infer_views_groups_by_signature():
    def build(system):
        system.alloc_array("mine", 512, dtype="int64")  # rank 0 private
        system.alloc_array("bcast", 512, dtype="int64", page_aligned=True)

        def body(rt):
            mine = system.arrays["mine"]
            bcast = system.arrays["bcast"]
            if rt.rank == 0:
                yield from mine.write(rt, 0, np.arange(512))
                yield from bcast.write(rt, 0, np.arange(512))
            yield from rt.barrier()
            yield from bcast.read(rt)  # everyone reads the broadcast
            yield from rt.barrier()

        return body

    system, history = record_run(build, nprocs=3)
    plan = infer_views(history, system.dsm.space, 3)
    report = plan.report()
    assert "Inferred view plan" in report
    # the broadcast pages form a single-writer multi-reader group
    bcast_views = [v for v in plan.views if "bcast" in v.regions]
    assert bcast_views
    view = bcast_views[0]
    assert view.writers == (0,)
    assert set(view.readers) == {0, 1, 2}
    assert "acquire_Rview" in view.primitive
    assert "§3.4" in view.advice


def test_read_only_data_advice():
    def build(system):
        system.alloc_array("table", 512, dtype="int64", page_aligned=True)

        def body(rt):
            # nobody writes: purely read-only data (pretend it was
            # pre-initialised outside the program)
            yield from system.arrays["table"].read(rt, 0, 4)
            yield from rt.barrier()

        return body

    system, history = record_run(build, nprocs=2)
    plan = infer_views(history, system.dsm.space, 2)
    table_views = [v for v in plan.views if "table" in v.regions]
    assert table_views
    assert not table_views[0].writers
    assert "read-only" in table_views[0].advice


def test_plan_on_real_traditional_is():
    """End-to-end: record the traditional IS run, infer a plan."""
    cfg = is_sort.IsConfig(n_keys=1200, b_max=64, reps=2, bucket_views=4, work_factor=1.0)
    system, history = record_run(lambda system: is_sort.build(system, cfg))
    plan = infer_views(history, system.dsm.space, 4)
    report = plan.report()
    # the known structure of IS must be visible in the plan:
    regions_mentioned = {r for v in plan.views for r in v.regions}
    assert "keys" in regions_mentioned
    assert "prefix" in regions_mentioned
    # keys: written once by rank 0, read by all -> Rview advice appears
    assert "acquire_Rview" in report
