"""Unit + property tests for the address space/allocator."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.memory import AddressSpace


def test_packed_allocations_can_share_a_page():
    space = AddressSpace(page_size=4096)
    a = space.alloc("a", 100)
    b = space.alloc("b", 100)
    assert a.base == 0 and b.base == 100
    assert set(a.page_range(4096)) == set(b.page_range(4096)) == {0}


def test_page_aligned_allocations_never_share_pages():
    space = AddressSpace(page_size=4096)
    space.alloc("pad", 10)
    a = space.alloc("a", 100, page_aligned=True)
    b = space.alloc("b", 5000, page_aligned=True)
    c = space.alloc("c", 1)  # packed after aligned still gets a fresh page
    assert a.base % 4096 == 0
    assert b.base % 4096 == 0
    pages_a = set(a.page_range(4096))
    pages_b = set(b.page_range(4096))
    pages_c = set(c.page_range(4096))
    assert pages_a.isdisjoint(pages_b)
    assert pages_b.isdisjoint(pages_c)
    assert len(pages_b) == 2  # 5000 bytes spans two pages


def test_region_lookup_and_listing():
    space = AddressSpace()
    r = space.alloc("matrix", 1234)
    assert space.region("matrix") is r
    assert space.regions() == [r]
    with pytest.raises(KeyError):
        space.region("nope")


def test_duplicate_name_rejected():
    space = AddressSpace()
    space.alloc("x", 10)
    with pytest.raises(ValueError):
        space.alloc("x", 10)


def test_bad_sizes_rejected():
    space = AddressSpace()
    with pytest.raises(ValueError):
        space.alloc("x", 0)
    with pytest.raises(ValueError):
        AddressSpace(page_size=1000)  # not a power of two
    with pytest.raises(ValueError):
        AddressSpace(page_size=0)
    with pytest.raises(ValueError, match="65536-byte page does not fit a run header"):
        AddressSpace(page_size=1 << 16)  # diff run headers are two uint16
    assert AddressSpace(page_size=1 << 15).page_size == 1 << 15


def test_page_of_and_range_bounds():
    space = AddressSpace(page_size=16)
    space.alloc("x", 40)
    assert space.page_of(0) == 0
    assert space.page_of(39) == 2
    assert list(space.pages_of_range(10, 10)) == [0, 1]
    with pytest.raises(IndexError):
        space.page_of(40)
    with pytest.raises(IndexError):
        space.pages_of_range(30, 20)
    with pytest.raises(ValueError):
        space.pages_of_range(0, 0)


def test_num_pages_rounds_up():
    space = AddressSpace(page_size=16)
    assert space.num_pages == 0
    space.alloc("x", 17)
    assert space.num_pages == 2


@given(
    sizes=st.lists(
        st.tuples(st.integers(min_value=1, max_value=10_000), st.booleans()),
        min_size=1,
        max_size=30,
    )
)
@settings(max_examples=50)
def test_prop_allocations_are_disjoint_and_ordered(sizes):
    space = AddressSpace(page_size=256)
    regions = []
    for i, (size, aligned) in enumerate(sizes):
        regions.append(space.alloc(f"r{i}", size, page_aligned=aligned))
    # strictly increasing, non-overlapping
    for earlier, later in zip(regions, regions[1:]):
        assert earlier.end <= later.base
    # aligned regions start on page boundaries and own their pages
    for i, (size, aligned) in enumerate(sizes):
        if aligned:
            assert regions[i].base % 256 == 0
            own = set(regions[i].page_range(256))
            for j, other in enumerate(regions):
                if j != i:
                    assert own.isdisjoint(other.page_range(256))
