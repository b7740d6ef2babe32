"""Unit tests for the per-node memory manager (with a fake protocol)."""

import numpy as np
import pytest

from repro.memory import AddressSpace, MemoryManager, PageState
from repro.net import Cluster


class FakeProtocol:
    """Grants every fault locally: zero-fill reads, twin+RW writes."""

    def __init__(self, mm):
        self.mm = mm
        self.read_faults = []
        self.write_faults = []

    def read_fault(self, pids):
        self.read_faults.append(list(pids))
        for pid in pids:
            if self.mm.page(pid).state is PageState.NO_COPY:
                self.mm.zero_fill(pid)
            else:
                self.mm.page(pid).state = PageState.RO
        return
        yield  # pragma: no cover

    def write_fault(self, pids):
        self.write_faults.append(list(pids))
        for pid in pids:
            copy = self.mm.page(pid)
            if copy.state is PageState.NO_COPY:
                self.mm.zero_fill(pid)
            if copy.state is not PageState.RW:
                self.mm.start_writing(pid)
        return
        yield  # pragma: no cover


@pytest.fixture()
def setup():
    cluster = Cluster(1)
    space = AddressSpace(page_size=64)
    space.alloc("buf", 256)  # 4 pages
    mm = MemoryManager(cluster[0], space)
    proto = FakeProtocol(mm)
    mm.fault_handler = proto
    return cluster, mm, proto


def drive(cluster, gen):
    box = []

    def runner():
        box.append((yield from gen))

    cluster.sim.spawn(runner())
    cluster.run()
    return box[0]


def test_write_then_read_roundtrip(setup):
    cluster, mm, proto = setup
    payload = np.arange(100, dtype=np.uint8)
    drive(cluster, mm.write_bytes(30, payload))
    out = drive(cluster, mm.read_bytes(30, 100))
    assert np.array_equal(out, payload)


def test_faults_only_for_missing_pages(setup):
    cluster, mm, proto = setup
    drive(cluster, mm.write_bytes(0, np.zeros(64, np.uint8)))
    assert proto.write_faults == [[0]]
    drive(cluster, mm.write_bytes(10, np.ones(10, np.uint8)))
    assert proto.write_faults == [[0]]  # page already RW, no new fault
    drive(cluster, mm.read_bytes(0, 64))
    assert proto.read_faults == []  # RW is readable


def test_cross_page_access_faults_all_pages(setup):
    cluster, mm, proto = setup
    drive(cluster, mm.read_bytes(60, 10))  # spans pages 0 and 1
    assert proto.read_faults == [[0, 1]]
    out = drive(cluster, mm.read_bytes(60, 10))
    assert np.array_equal(out, np.zeros(10, np.uint8))


def test_end_interval_produces_diffs_and_downgrades(setup):
    cluster, mm, proto = setup
    drive(cluster, mm.write_bytes(5, np.array([9, 8, 7], np.uint8)))
    diffs = mm.end_interval()
    assert list(diffs) == [0]
    assert diffs[0].runs == ((5, bytes([9, 8, 7])),)
    assert mm.page(0).state is PageState.RO
    assert mm.page(0).twin is None
    assert mm.write_set == set()


def test_end_interval_skips_clean_twins(setup):
    cluster, mm, proto = setup
    drive(cluster, mm.write_bytes(0, np.zeros(4, np.uint8)))  # writes zeros over zeros
    diffs = mm.end_interval()
    assert diffs == {}


def test_install_and_apply_diffs(setup):
    cluster, mm, proto = setup
    content = np.arange(64, dtype=np.uint8)
    mm.install_full_page(2, content.tobytes())
    assert mm.page(2).state is PageState.RO
    out = drive(cluster, mm.read_bytes(128, 64))
    assert np.array_equal(out, content)

    from repro.memory.diff import Diff

    mm.apply_diffs(2, [Diff(2, ((0, bytes([255])),))])
    out = drive(cluster, mm.read_bytes(128, 1))
    assert out[0] == 255


def test_read_without_protocol_raises():
    cluster = Cluster(1)
    space = AddressSpace(page_size=64)
    space.alloc("buf", 64)
    mm = MemoryManager(cluster[0], space)

    def runner():
        with pytest.raises(RuntimeError):
            yield from mm.read_bytes(0, 4)

    cluster.sim.spawn(runner())
    cluster.run()


def test_snapshot_page(setup):
    cluster, mm, proto = setup
    drive(cluster, mm.write_bytes(0, np.array([1, 2, 3], np.uint8)))
    snap = mm.snapshot_page(0)
    assert snap[:3] == bytes([1, 2, 3])
    with pytest.raises(KeyError):
        mm.snapshot_page(3)
