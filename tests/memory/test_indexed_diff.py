"""A diff used a second time keeps its scatter index and, when its runs are
maximal, drops its run-bound arrays; whatever form it is in, it reads exactly
as a fresh diff of the same content."""

import pickle

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.memory.diff import (
    Diff,
    apply_diff,
    full_page_diff,
    integrate_diffs,
    make_diff,
    pending_diff,
)

PAGE = 256

page_strategy = st.binary(min_size=PAGE, max_size=PAGE).map(
    lambda b: np.frombuffer(b, dtype=np.uint8).copy()
)
mask_strategy = st.lists(st.booleans(), min_size=PAGE, max_size=PAGE).map(np.array)
# (gap before the run, run length): a zero gap after the first run makes the
# run adjacent to the previous one, which ``Diff(...)`` accepts
segments_strategy = st.lists(
    st.tuples(st.integers(0, 12), st.integers(1, 12)), min_size=1, max_size=16
)
USES = st.integers(0, 3)
VIA = st.sampled_from(["apply", "integrate"])


def explicit_runs(segments, fill):
    runs, off = [], 0
    for gap, length in segments:
        off += gap
        if off + length > PAGE:
            break
        runs.append((off, bytes((fill + off + k) % 256 for k in range(length))))
        off += length
    return tuple(runs)


def use(diff, times, via):
    """Use ``diff`` ``times`` times, by application or by VC_sd integration."""
    for _ in range(times):
        if via == "apply":
            apply_diff(np.zeros(PAGE, dtype=np.uint8), diff)
        else:
            integrate_diffs(diff.page_id, [diff], PAGE)


def applied(diff):
    page = np.full(PAGE, 0x5A, dtype=np.uint8)
    apply_diff(page, diff)
    return page.tobytes()


def assert_reads_as(diff, fresh):
    """Every read of ``diff`` equals the same read of a never-used diff
    (``fresh()`` makes one per read, so no read sees a used reference)."""
    assert diff.wire_size == fresh().wire_size
    assert diff.changed_bytes == fresh().changed_bytes
    assert diff.empty == fresh().empty
    assert diff.runs == fresh().runs
    assert repr(diff) == repr(fresh())
    assert diff == fresh() and fresh() == diff
    assert hash(diff) == hash(fresh())
    clone = pickle.loads(pickle.dumps(diff))
    assert clone == fresh() and hash(clone) == hash(fresh()) and clone.runs == fresh().runs
    assert clone._index is None  # an index is never shipped
    use(clone, 2, "apply")
    assert clone == fresh() and clone.runs == fresh().runs
    assert clone.wire_size == fresh().wire_size
    merged = integrate_diffs(diff.page_id, [diff], PAGE)
    assert merged == integrate_diffs(diff.page_id, [fresh()], PAGE)
    assert applied(diff) == applied(fresh())


def check_every_use_count(make, times, via):
    diff = make()
    use(diff, times, via)
    assert_reads_as(diff, make)
    # the reads above used it twice more (integration, application): read again
    assert_reads_as(diff, make)


@given(twin=page_strategy, cur=page_strategy, keep=mask_strategy, times=USES, via=VIA)
@settings(max_examples=60)
def test_prop_a_used_diff_reads_as_a_fresh_make_diff(twin, cur, keep, times, via):
    after = np.where(keep, twin, cur)
    check_every_use_count(lambda: make_diff(4, twin, after), times, via)
    fresh = lambda: make_diff(4, twin, after)  # noqa: E731
    pending = pending_diff(4, twin.copy(), after.copy())
    use(pending, times, via)
    assert_reads_as(pending, fresh)


@given(segments=segments_strategy, fill=st.integers(0, 255), times=USES, via=VIA)
@settings(max_examples=60)
def test_prop_a_used_explicit_run_diff_reads_as_a_fresh_one(segments, fill, times, via):
    runs = explicit_runs(segments, fill)
    check_every_use_count(lambda: Diff(6, runs), times, via)


@pytest.mark.parametrize("times", [0, 1, 2, 3])
@pytest.mark.parametrize("via", ["apply", "integrate"])
def test_a_used_full_page_diff_reads_as_a_fresh_one(times, via):
    content = np.arange(PAGE, dtype=np.uint8) ^ 0x33
    check_every_use_count(lambda: full_page_diff(9, content), times, via)


def form(diff):
    """Which arrays a built diff holds: ``"built"`` (bounds, no index kept) or
    ``"indexed"`` (index and payload, no bounds)."""
    assert diff._twin is None and diff._after is None
    kept = isinstance(diff._index, np.ndarray)
    bounds = diff._starts is not None
    assert bounds == (diff._ends is not None)
    if kept and not bounds:
        return "indexed"
    return "built" if not kept else "indexed+bounds"


def striped():
    twin = np.zeros(PAGE, dtype=np.uint8)
    after = twin.copy()
    after.reshape(16, 16)[:, :8] = 0xFF
    return twin, after


@pytest.mark.parametrize("make", [
    lambda: make_diff(1, *striped()),
    lambda: pending_diff(1, *striped()),
    lambda: full_page_diff(1, np.ones(PAGE, dtype=np.uint8)),
    lambda: Diff(1, ((0, b"ab"), (5, b"c"))),
    lambda: make_diff(1, np.zeros(PAGE, np.uint8), np.zeros(PAGE, np.uint8)),
], ids=["make_diff", "pending", "full_page", "explicit-maximal", "empty"])
def test_a_maximal_diff_holds_no_run_bounds_after_its_second_use(make):
    diff = make()
    nruns = len(diff.runs)
    use(diff, 1, "apply")
    assert form(diff) == "built"
    use(diff, 1, "apply")
    assert form(diff) == "indexed"
    assert diff._nruns == nruns and diff._index.size == diff._data.size
    use(diff, 1, "integrate")
    assert form(diff) == "indexed"


def test_a_diff_with_adjacent_runs_keeps_its_bounds():
    diff = Diff(1, ((0, b"ab"), (2, b"cd"), (9, b"e")))
    use(diff, 3, "apply")
    assert form(diff) == "indexed+bounds"
    assert diff.runs == ((0, b"ab"), (2, b"cd"), (9, b"e"))
    assert diff.wire_size == Diff(1, diff.runs).wire_size


def test_an_indexed_diff_still_refuses_a_smaller_page():
    diff = make_diff(1, *striped())
    use(diff, 2, "apply")
    assert form(diff) == "indexed"
    with pytest.raises(ValueError, match=r"diff run \[240:248\] exceeds page size 200"):
        apply_diff(np.zeros(200, dtype=np.uint8), diff)
