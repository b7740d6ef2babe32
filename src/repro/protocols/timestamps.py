"""Vector clocks, intervals and write notices.

An **interval** is the span of a node's execution between two synchronisation
points (lock/view release, barrier).  Each interval gets:

* a per-node index (position in that node's interval sequence), and
* a **Lamport stamp** — a scalar clock that is a linear extension of the
  happened-before order.  Diffs from different writers to the same page are
  applied in Lamport order, which is correct for data-race-free programs
  (conflicting writes are ordered by synchronisation, hence by the stamp).

An :class:`IntervalNotice` is the wire record announcing one interval's write
set; its accounted size mirrors TreadMarks' packed write-notice records.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

__all__ = ["VectorClock", "IntervalNotice", "NOTICE_BASE_BYTES", "NOTICE_PER_PAGE_BYTES"]

NOTICE_BASE_BYTES = 12  # node id + interval index + lamport stamp
NOTICE_PER_PAGE_BYTES = 4


class VectorClock:
    """Classic vector clock over node interval indices.

    ``vc[i]`` = highest interval index of node ``i`` whose write notices this
    node has *seen* (seen means invalidations applied, not diffs fetched).
    """

    __slots__ = ("_v",)

    def __init__(self, n: int):
        self._v = [0] * n

    def __getitem__(self, i: int) -> int:
        return self._v[i]

    def __len__(self) -> int:
        return len(self._v)

    def advance(self, i: int, idx: int) -> None:
        """Record that intervals of node ``i`` up to ``idx`` have been seen."""
        if idx > self._v[i]:
            self._v[i] = idx

    def see(self, notices: Iterable["IntervalNotice"]) -> None:
        """Record every interval named by ``notices`` as seen."""
        v = self._v
        for notice in notices:
            if notice.idx > v[notice.node]:
                v[notice.node] = notice.idx

    def merge(self, other: Sequence[int]) -> None:
        if len(other) != len(self._v):
            raise ValueError("vector clock length mismatch")
        for i, x in enumerate(other):
            if x > self._v[i]:
                self._v[i] = x

    def dominates(self, other: Sequence[int]) -> bool:
        """True iff this clock has seen everything ``other`` has."""
        return all(a >= b for a, b in zip(self._v, other))

    def copy(self) -> list[int]:
        return list(self._v)

    @property
    def wire_size(self) -> int:
        return 4 * len(self._v)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"VC{self._v!r}"


@dataclass(frozen=True)
class IntervalNotice:
    """Announcement that ``node``'s interval ``idx`` wrote ``pages``."""

    node: int
    idx: int
    lamport: int
    pages: tuple[int, ...]

    @property
    def wire_size(self) -> int:
        return NOTICE_BASE_BYTES + NOTICE_PER_PAGE_BYTES * len(self.pages)

    def key(self) -> tuple[int, int]:
        return (self.node, self.idx)

    def order(self) -> tuple[int, int]:
        """Total order consistent with happened-before (Lamport, node)."""
        return (self.lamport, self.node)


def notices_wire_size(notices: Iterable[IntervalNotice]) -> int:
    return sum(n.wire_size for n in notices)
