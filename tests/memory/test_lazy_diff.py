"""A closed interval's diff is pending until first read, and laziness changes
no byte: a pending diff reads exactly as the eager ``make_diff`` of its twin
and after-image, whatever touched the page in between."""

import pickle
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.memory.diff import Diff, apply_diff, make_diff, pending_diff
from repro.protocols.system import DsmSystem

PAGE = 256

page_strategy = st.binary(min_size=PAGE, max_size=PAGE).map(
    lambda b: np.frombuffer(b, dtype=np.uint8).copy()
)
mask_strategy = st.lists(st.booleans(), min_size=PAGE, max_size=PAGE).map(np.array)

# every way to read a diff; each is applied to a fresh pending diff, so each is
# the read that builds it
READS = {
    "_wire": lambda d, eager: d._wire(),
    "wire_size": lambda d, eager: d.wire_size,
    "changed_bytes": lambda d, eager: d.changed_bytes,
    "empty": lambda d, eager: d.empty,
    "runs": lambda d, eager: d.runs,
    "eq": lambda d, eager: (d == eager, eager == d),
    "hash": lambda d, eager: hash(d) == hash(eager),
    "pickle": lambda d, eager: pickle.loads(pickle.dumps(d))._wire(),
    "apply": lambda d, eager: _applied(d),
}


def _applied(diff):
    page = np.full(PAGE, 0x5A, dtype=np.uint8)
    apply_diff(page, diff)
    return page.tobytes()


def assert_reads_like_eager(twin, after):
    eager = make_diff(4, twin, after)
    for name, read in READS.items():
        pending = pending_diff(4, twin.copy(), after.copy())
        assert type(pending) is not Diff, "a pending diff was built before any read"
        assert read(pending, eager) == read(eager, eager), name
        assert type(pending) is Diff and pending._twin is None and pending._after is None


@given(twin=page_strategy, cur=page_strategy, keep=mask_strategy)
@settings(max_examples=60)
def test_prop_pending_diff_reads_as_make_diff(twin, cur, keep):
    assert_reads_like_eager(twin, np.where(keep, twin, cur))


@pytest.mark.parametrize("case", ["empty", "all-changed", "ends-at-page-end"])
def test_pending_diff_edge_cases_read_as_make_diff(case):
    twin = np.arange(PAGE, dtype=np.uint8)
    after = twin.copy()
    if case == "all-changed":
        after ^= 0xFF
    elif case == "ends-at-page-end":
        after[-3:] ^= 1
        after[7] ^= 1
    assert_reads_like_eager(twin, after)


def test_a_scatter_index_is_kept_from_the_second_application_on():
    twin = np.zeros(4096, dtype=np.uint8)
    after = twin.copy()
    after.reshape(256, 16)[:, :8] = 0xFF  # red/black SOR's 256 runs of 8 bytes
    diff = pending_diff(5, twin, after)
    target = twin.copy()
    apply_diff(target, diff)
    assert np.array_equal(target, after)
    assert not isinstance(diff._index, np.ndarray)  # applied once: nothing kept
    apply_diff(twin.copy(), diff)
    assert isinstance(diff._index, np.ndarray)
    assert diff._index.size == diff.changed_bytes == 2048
    target = np.zeros(4096, dtype=np.uint8)
    apply_diff(target, diff)
    assert np.array_equal(target, after)


# -- copy-on-write: whatever touches the page next, the diff keeps its bytes ------


def _drive(system, gen):
    system.sim.spawn(gen)
    system.sim.run()


def closed_page(protocol):
    """A two-node system whose node 0 wrote page 0 in an interval it closed:
    ``(system, protocol instance, pending diff, eager diff of the same close)``."""
    system = DsmSystem(2, protocol=protocol, page_size=PAGE)
    system.alloc("x", 2 * PAGE)
    p = system.protocols[0]
    mm = p.mm
    mm.zero_fill(0)
    mm.start_writing(0)
    for _ in mm.write_bytes(8, np.arange(1, 41, dtype=np.uint8)):
        pass
    before, after = mm.pages[0].twin.copy(), mm.pages[0].data.copy()
    pending = mm.end_interval()[0]
    assert type(pending) is not Diff
    return system, p, pending, make_diff(0, before, after)


def foreign_diff():
    """Another writer's change to page 0 (bytes the interval also wrote)."""
    base = np.zeros(PAGE, dtype=np.uint8)
    cur = base.copy()
    cur[0:64] = 0xEE
    return make_diff(0, base, cur)


def touch_write(system, p):
    p.mm.start_writing(0)
    for _ in p.mm.write_bytes(0, np.full(PAGE, 7, dtype=np.uint8)):
        pass


def touch_apply_diffs(system, p):
    p.mm.apply_diffs(0, [foreign_diff()])


def touch_install_full_page(system, p):
    p.mm.install_full_page(0, bytes(range(PAGE)))


def touch_hlrc_push(system, p):
    msg = SimpleNamespace(payload={"node": 1, "idx": 1, "pages": {0: [foreign_diff()]}})
    _drive(system, p._handle_diff_push(msg))


def touch_vc_sd_grant(system, p):
    _drive(system, p._apply_grant(0, (0, [], {}, {0: [foreign_diff()]})))


@pytest.mark.parametrize("protocol,touch", [
    ("lrc_d", touch_write),
    ("lrc_d", touch_apply_diffs),
    ("lrc_d", touch_install_full_page),
    ("hlrc_d", touch_hlrc_push),
    ("vc_sd", touch_vc_sd_grant),
], ids=lambda v: v if isinstance(v, str) else v.__name__)
def test_a_pending_diff_keeps_its_close_time_content(protocol, touch):
    system, p, pending, eager = closed_page(protocol)
    closed_with = p.mm.snapshot_page(0)
    touch(system, p)
    assert p.mm.snapshot_page(0) != closed_with, "the touch changed nothing"
    assert pending == eager
    assert pending.runs == eager.runs
