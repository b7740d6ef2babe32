"""Paged distributed-shared-memory substrate.

This package provides the machinery every protocol shares:

* a global :class:`AddressSpace` with a bump allocator (packed allocations can
  share pages — the source of *false sharing*; page-aligned allocations give
  each view its own pages),
* per-node page copies with the TreadMarks state machine
  (``NO_COPY → INVALID → RO → RW``),
* **twins** (pristine copies taken at the first write of an interval) and
  **run-length byte diffs** (created by comparing a page against its twin —
  lazily, when something first reads an interval's diff — applied at
  consumers, and *integrated* — merged into a single diff — by the VC_sd
  protocol).

Nothing here touches the network; protocols drive data movement.
"""

from repro.memory.address_space import AddressSpace, Region
from repro.memory.diff import Diff, make_diff, apply_diff, integrate_diffs, full_page_diff
from repro.memory.page import PageCopy, PageState
from repro.memory.manager import MemoryManager

__all__ = [
    "AddressSpace",
    "Region",
    "Diff",
    "make_diff",
    "apply_diff",
    "integrate_diffs",
    "full_page_diff",
    "PageCopy",
    "PageState",
    "MemoryManager",
]
