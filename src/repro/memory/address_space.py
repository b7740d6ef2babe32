"""The global shared address space and its allocator.

All nodes agree on one address map (the paper's DSM exposes a single shared
segment).  The allocator is a bump allocator with two modes:

* **packed** (default) — consecutive allocations share pages, exactly like
  ``malloc`` inside one shared segment.  This is what makes the *traditional*
  programs suffer false sharing.
* **page-aligned** — the allocation starts on a fresh page and the remainder
  of its last page is never reused.  VOPP programs allocate each view this
  way, so views never share pages (views must not overlap, §2 of the paper).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

__all__ = ["AddressSpace", "Region"]


@dataclass(frozen=True)
class Region:
    """A named allocation ``[base, base+size)`` in the shared space."""

    name: str
    base: int
    size: int

    @property
    def end(self) -> int:
        return self.base + self.size

    def page_range(self, page_size: int) -> range:
        """Ids of all pages this region touches."""
        first = self.base // page_size
        last = (self.end - 1) // page_size
        return range(first, last + 1)


class AddressSpace:
    """Shared address map + allocator (identical on every node)."""

    def __init__(self, page_size: int = 4096):
        if page_size <= 0 or page_size & (page_size - 1):
            raise ValueError("page size must be a positive power of two")
        if page_size > 0xFFFF:  # a diff's run header holds offset and end as two shorts
            raise ValueError(f"a {page_size}-byte page does not fit a run header")
        self.page_size = page_size
        self._brk = 0
        self._regions: dict[str, Region] = {}

    @property
    def size(self) -> int:
        return self._brk

    @property
    def num_pages(self) -> int:
        return (self._brk + self.page_size - 1) // self.page_size

    def alloc(self, name: str, size: int, page_aligned: bool = False) -> Region:
        """Allocate ``size`` bytes; see module docstring for the two modes."""
        if size <= 0:
            raise ValueError(f"allocation size must be positive, got {size}")
        if name in self._regions:
            raise ValueError(f"region name {name!r} already allocated")
        base = self._brk
        if page_aligned:
            base = -(-base // self.page_size) * self.page_size
        region = Region(name, base, size)
        self._brk = base + size
        if page_aligned:
            # burn the tail of the last page so the next packed allocation
            # cannot share it
            self._brk = -(-self._brk // self.page_size) * self.page_size
        self._regions[name] = region
        return region

    def region(self, name: str) -> Region:
        return self._regions[name]

    def regions(self) -> list[Region]:
        return list(self._regions.values())

    def page_of(self, addr: int) -> int:
        if not (0 <= addr < self._brk):
            raise IndexError(f"address {addr} outside shared space [0, {self._brk})")
        return addr // self.page_size

    def pages_of_range(self, addr: int, nbytes: int) -> range:
        """Page ids covering ``[addr, addr+nbytes)``."""
        if nbytes <= 0:
            raise ValueError("range must be non-empty")
        if addr < 0 or addr + nbytes > self._brk:
            raise IndexError(
                f"range [{addr}, {addr + nbytes}) outside shared space [0, {self._brk})"
            )
        return range(addr // self.page_size, (addr + nbytes - 1) // self.page_size + 1)
