"""Per-node page copies and the TreadMarks page state machine."""

from __future__ import annotations

from enum import Enum
from typing import Optional

import numpy as np

__all__ = ["PageState", "PageCopy"]


class PageState(Enum):
    """Access state of one node's copy of a page.

    ``NO_COPY``
        The node has never held this page; a fault fetches the full page.
    ``INVALID``
        The node holds a (stale) copy; a fault fetches and applies diffs.
    ``RO``
        Valid for reading; a write fault creates a twin and upgrades to RW.
    ``RW``
        Valid and being written in the current interval (twin exists).
    """

    NO_COPY = "no_copy"
    INVALID = "invalid"
    RO = "ro"
    RW = "rw"


class PageCopy:
    """One node's copy of one page, plus its twin while writable.

    ``data`` is copy-on-write: closing an interval hands the array to a
    pending diff as its after-image and marks it read-only, so whatever
    changes the page next works on a copy (:meth:`make_twin`,
    :meth:`detach`) and the diff still reads the bytes the interval closed
    with.
    """

    __slots__ = ("page_id", "size", "state", "data", "twin")

    def __init__(self, page_id: int, size: int):
        self.page_id = page_id
        self.size = size
        self.state = PageState.NO_COPY
        self.data: Optional[np.ndarray] = None
        self.twin: Optional[np.ndarray] = None

    def materialise(self) -> np.ndarray:
        """Allocate the backing array (zero-filled) if not present."""
        if self.data is None:
            self.data = np.zeros(self.size, dtype=np.uint8)
        return self.data

    def detach(self) -> np.ndarray:
        """The backing array, ready for an in-place change: allocated if
        absent, copied first if a pending diff shares it."""
        data = self.materialise()
        if not data.flags.writeable:
            data = self.data = data.copy()
        return data

    def make_twin(self) -> None:
        """The current array becomes the twin and writing goes to a copy, so
        the previous interval's after-image, if any, is the next twin."""
        if self.twin is not None:
            raise RuntimeError(f"page {self.page_id}: twin already exists")
        if self.data is None:
            raise RuntimeError(f"page {self.page_id}: cannot twin a page with no data")
        self.twin = self.data
        self.data = self.data.copy()

    def drop_twin(self) -> None:
        self.twin = None

    @property
    def readable(self) -> bool:
        return self.state in (PageState.RO, PageState.RW)

    @property
    def writable(self) -> bool:
        return self.state is PageState.RW

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<PageCopy {self.page_id} {self.state.name}>"
