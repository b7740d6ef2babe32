"""Unit + property tests for the diff machinery."""

import pickle
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.memory.diff import (
    DIFF_HEADER_BYTES,
    RUN_HEADER_BYTES,
    Diff,
    apply_diff,
    full_page_diff,
    integrate_diffs,
    make_diff,
)

PAGE = 256  # small page for tests


def page(vals=0):
    arr = np.zeros(PAGE, dtype=np.uint8)
    if np.ndim(vals) or vals:
        arr[:] = vals
    return arr


def test_identical_pages_give_empty_diff():
    twin = page()
    cur = page()
    d = make_diff(1, twin, cur)
    assert d.empty
    assert d.changed_bytes == 0
    assert d.wire_size == DIFF_HEADER_BYTES


def test_single_byte_change():
    twin = page()
    cur = page()
    cur[10] = 7
    d = make_diff(1, twin, cur)
    assert d.runs == ((10, bytes([7])),)
    assert d.changed_bytes == 1
    assert d.wire_size == DIFF_HEADER_BYTES + RUN_HEADER_BYTES + 1


def test_adjacent_changes_coalesce_into_one_run():
    twin = page()
    cur = page()
    cur[20:25] = [1, 2, 3, 4, 5]
    d = make_diff(1, twin, cur)
    assert len(d.runs) == 1
    assert d.runs[0] == (20, bytes([1, 2, 3, 4, 5]))


def test_separate_changes_make_separate_runs():
    twin = page()
    cur = page()
    cur[0] = 1
    cur[100] = 2
    cur[255] = 3
    d = make_diff(1, twin, cur)
    assert [off for off, _ in d.runs] == [0, 100, 255]


def test_apply_diff_reconstructs_page():
    rng = np.random.RandomState(0)
    twin = rng.randint(0, 256, PAGE).astype(np.uint8)
    cur = twin.copy()
    cur[rng.choice(PAGE, 40, replace=False)] ^= 0xFF
    d = make_diff(3, twin, cur)
    rebuilt = twin.copy()
    apply_diff(rebuilt, d)
    assert np.array_equal(rebuilt, cur)


def test_diff_validation_rejects_bad_runs():
    with pytest.raises(ValueError):
        Diff(1, ((-1, b"x"),))
    with pytest.raises(ValueError):
        Diff(1, ((0, b""),))
    with pytest.raises(ValueError):
        Diff(1, ((0, b"ab"), (1, b"c")))  # overlap
    with pytest.raises(ValueError):
        Diff(1, ((5, b"a"), (2, b"b")))  # out of order


def test_apply_out_of_range_run_raises():
    """...and integrate_diffs raises the same error, not numpy's IndexError."""
    d = Diff(1, ((250, b"0123456789"),))
    message = r"diff run \[250:260\] exceeds page size 256"
    with pytest.raises(ValueError, match=message):
        apply_diff(page(), d)
    with pytest.raises(ValueError, match=message):
        integrate_diffs(1, [d], PAGE)


def test_offsets_beyond_a_run_header_are_rejected():
    """Pages too large for one are refused by ``AddressSpace`` (test_address_space)."""
    with pytest.raises(ValueError):
        Diff(1, ((0xFFFF, b"xy"),))
    largest = 1 << 15  # the largest power-of-two page AddressSpace accepts
    d = make_diff(1, np.zeros(largest, np.uint8), np.ones(largest, np.uint8))
    assert d.runs == ((0, b"\x01" * largest),)


def test_mismatched_shapes_raise():
    with pytest.raises(ValueError):
        make_diff(1, np.zeros(10, np.uint8), np.zeros(12, np.uint8))


def test_integrate_mismatched_page_ids_raises():
    d = Diff(1, ((0, b"x"),))
    with pytest.raises(ValueError):
        integrate_diffs(2, [d], PAGE)


def test_integration_result_equals_sequential_application():
    rng = np.random.RandomState(1)
    base = rng.randint(0, 256, PAGE).astype(np.uint8)
    seq = base.copy()
    diffs = []
    for step in range(5):
        twin = seq.copy()
        seq[rng.choice(PAGE, 30, replace=False)] = rng.randint(0, 256, 30)
        diffs.append(make_diff(9, twin, seq))
    integrated = integrate_diffs(9, diffs, PAGE)
    rebuilt = base.copy()
    apply_diff(rebuilt, integrated)
    assert np.array_equal(rebuilt, seq)


def test_integration_never_larger_than_sum_of_parts():
    rng = np.random.RandomState(2)
    base = rng.randint(0, 256, PAGE).astype(np.uint8)
    seq = base.copy()
    diffs = []
    for step in range(4):
        twin = seq.copy()
        seq[10:50] = rng.randint(0, 256, 40)  # same region modified repeatedly
        # guarantee at least one changed byte so diffs are non-trivial
        seq[10] = twin[10] ^ 0xFF
        diffs.append(make_diff(4, twin, seq))
    integrated = integrate_diffs(4, diffs, PAGE)
    assert integrated.wire_size <= sum(d.wire_size for d in diffs)
    # repeated writes to the same 40 bytes integrate to ~40 bytes, not 160
    assert integrated.changed_bytes <= 40


def test_full_page_diff_roundtrip():
    rng = np.random.RandomState(3)
    src = rng.randint(0, 256, PAGE).astype(np.uint8)
    d = full_page_diff(7, src)
    dst = page()
    apply_diff(dst, d)
    assert np.array_equal(dst, src)
    assert d.changed_bytes == PAGE


def sor_striped_diff():
    """A 4 KiB page with 256 alternating 8-byte runs, as red/black SOR writes."""
    twin = np.zeros(4096, dtype=np.uint8)
    cur = twin.copy()
    cur.reshape(256, 16)[:, :8] = 0xFF
    return twin, make_diff(5, twin, cur)


def retained_bytes(d):
    arrays = [getattr(d, slot) for slot in Diff.__slots__]
    return sys.getsizeof(d) + sum(a.nbytes for a in arrays if isinstance(a, np.ndarray))


def test_retained_footprint_is_near_wire_size():
    """No per-run Python objects and no scatter index until first applied."""
    _, d = sor_striped_diff()
    assert d.wire_size == DIFF_HEADER_BYTES + 256 * (RUN_HEADER_BYTES + 8)
    clone = pickle.loads(pickle.dumps(d))
    for fresh in (d, clone):
        assert fresh._index is None
        assert retained_bytes(fresh) <= 2 * fresh.wire_size


@pytest.mark.parametrize("applied_first", [False, True])
def test_pickle_ships_no_cache(applied_first):
    twin, striped = sor_striped_diff()
    for d in (striped, full_page_diff(7, np.full(4096, 3, np.uint8))):
        if applied_first:
            apply_diff(twin.copy(), d)
        blob = pickle.dumps(d)
        assert len(blob) <= d.wire_size + 128
        clone = pickle.loads(blob)
        assert clone == d and hash(clone) == hash(d)
        assert clone._index is None


# -- property-based tests -------------------------------------------------------

page_strategy = st.binary(min_size=PAGE, max_size=PAGE).map(
    lambda b: np.frombuffer(b, dtype=np.uint8).copy()
)


@given(twin=page_strategy, cur=page_strategy)
@settings(max_examples=60)
def test_prop_make_apply_roundtrip(twin, cur):
    """apply(twin, make_diff(twin, cur)) == cur for arbitrary pages."""
    d = make_diff(0, twin, cur)
    rebuilt = twin.copy()
    apply_diff(rebuilt, d)
    assert np.array_equal(rebuilt, cur)


def reference_runs(twin, cur):
    """Pure-Python run splitter the array-backed layout is checked against."""
    runs, start = [], None
    for i in range(len(twin) + 1):
        differs = i < len(twin) and twin[i] != cur[i]
        if differs and start is None:
            start = i
        elif not differs and start is not None:
            runs.append((start, cur[start:i].tobytes()))
            start = None
    return tuple(runs)


# half the bytes equal the twin's, so runs of every length and position occur
mask_strategy = st.lists(st.booleans(), min_size=PAGE, max_size=PAGE).map(np.array)


@given(twin=page_strategy, cur=page_strategy, keep=mask_strategy)
@settings(max_examples=60)
def test_prop_runs_match_reference_splitter(twin, cur, keep):
    cur = np.where(keep, twin, cur)
    d = make_diff(3, twin, cur)
    assert d.runs == reference_runs(twin, cur)
    from_runs = Diff(3, d.runs)
    assert from_runs == d and hash(from_runs) == hash(d)
    rebuilt = twin.copy()
    apply_diff(rebuilt, from_runs)
    assert np.array_equal(rebuilt, cur)


@given(twin=page_strategy, cur=page_strategy)
@settings(max_examples=60)
def test_prop_diff_is_minimal(twin, cur):
    """Every byte in a run differs at its boundaries (runs are maximal)."""
    d = make_diff(0, twin, cur)
    assert d.changed_bytes == int(np.count_nonzero(twin != cur))
    for off, data in d.runs:
        # boundaries: byte before/after each run is unchanged
        if off > 0:
            assert twin[off - 1] == cur[off - 1]
        end = off + len(data)
        if end < PAGE:
            assert twin[end] == cur[end]


@given(
    base=page_strategy,
    edits=st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=PAGE - 1),
            st.binary(min_size=1, max_size=32),
        ),
        min_size=0,
        max_size=6,
    ),
)
@settings(max_examples=60)
def test_prop_integration_equals_sequential(base, edits):
    """Integrating per-edit diffs equals applying them in order."""
    seq = base.copy()
    diffs = []
    for off, data in edits:
        data = data[: PAGE - off]
        if not data:
            continue
        twin = seq.copy()
        seq[off : off + len(data)] = np.frombuffer(data, dtype=np.uint8)
        diffs.append(make_diff(0, twin, seq))
    integrated = integrate_diffs(0, diffs, PAGE)
    rebuilt = base.copy()
    apply_diff(rebuilt, integrated)
    assert np.array_equal(rebuilt, seq)


@given(twin=page_strategy, cur=page_strategy)
@settings(max_examples=60)
def test_prop_wire_size_accounting(twin, cur):
    d = make_diff(0, twin, cur)
    expected = DIFF_HEADER_BYTES + sum(RUN_HEADER_BYTES + len(r) for _, r in d.runs)
    assert d.wire_size == expected
    assert d.changed_bytes <= PAGE


# runs for multi-writer integration tests: arbitrary offsets and lengths, so
# runs from different "writers" freely overlap; adjacent runs within one diff
# are merged before construction to satisfy Diff's run invariants
def _runs_to_diff(page_id, run_list):
    merged = []
    for off, data in sorted(run_list, key=lambda r: r[0]):
        data = data[: PAGE - off]
        if not data:
            continue
        if merged and off <= merged[-1][0] + len(merged[-1][1]):
            prev_off, prev_data = merged[-1]
            keep = off - prev_off
            merged[-1] = (prev_off, prev_data[:keep] + data)
        else:
            merged.append((off, data))
    return Diff(page_id, tuple(merged))


runs_strategy = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=PAGE - 1),
        st.binary(min_size=1, max_size=48),
    ),
    min_size=1,
    max_size=5,
)


@given(base=page_strategy, writers=st.lists(runs_strategy, min_size=1, max_size=4))
@settings(max_examples=80)
def test_prop_integration_with_overlapping_writers(base, writers):
    """integrate_diffs == sequential apply_diff for overlapping multi-writer
    diffs (later writers overwrite earlier ones byte-for-byte)."""
    diffs = [_runs_to_diff(7, run_list) for run_list in writers]
    diffs = [d for d in diffs if not d.empty]
    sequential = base.copy()
    for d in diffs:
        apply_diff(sequential, d)
    integrated = integrate_diffs(7, diffs, PAGE)
    via_integrated = base.copy()
    apply_diff(via_integrated, integrated)
    assert np.array_equal(via_integrated, sequential)
    # the integrated diff is one write per touched byte, never more
    touched = set()
    for d in diffs:
        for off, data in d.runs:
            touched.update(range(off, off + len(data)))
    assert integrated.changed_bytes == len(touched)
