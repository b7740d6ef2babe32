"""Array-friendly calendar/bucket event queue.

A classic calendar queue (Brown 1988): events hash into an array of day
buckets by ``day(t) % nbuckets`` where ``day(t) = int(t * (1/width))``, and
the pop cursor walks the calendar day by day, so in the steady state both
``push`` and ``pop`` are O(1) amortized instead of the binary heap's
O(log n).  The simulator's workloads are a good fit — event times cluster
around ``now`` within a few network latencies — and the flat bucket array
keeps entries for the same instant adjacent in memory.

Entries are the engine's full ``(t, tsched, cls, seq, fn, args)`` tuples and
pop order is *exactly* the total order of a binary heap over the same keys
(property-tested against :mod:`heapq` in ``tests/sim/test_calendar.py``),
so :class:`repro.sim.Simulator` can swap this in for the heap without any
behavioural change.  Buckets hold small heaps, which makes degenerate
schedules (every event at one instant) gracefully collapse to plain heap
behaviour instead of breaking.

**Front cache.**  The engine's run loop peeks ``q[0]`` on every iteration
(often twice), so peeking must not cost a bucket scan.  The queue keeps the
current minimum in a dedicated ``_head`` slot *outside* the buckets: a peek
is an attribute read, the following pop hands the cached entry straight
back, and ``push`` maintains the invariant ``_head <= every bucket entry``
with one tuple comparison (a new pre-head entry swaps into the slot and the
old head is demoted into its bucket).

The queue resizes itself: when the population doubles past or shrinks below
the bucket count's working range, the calendar is rebuilt with a bucket
count proportional to the population and a width estimated from the spread
of a sample of pending event times, per the original paper's recipe.  A
far-future outlier therefore cannot strand the cursor scanning empty days:
a full lap without a hit falls back to a direct minimum scan over all
buckets, and the cursor re-anchors on the found day.

All day arithmetic goes through the single :meth:`_day` function for both
placement and the cursor scan, so float rounding can never place an entry
in one day and look for it in another.  (``_day`` multiplies by a cached
``1/width`` instead of dividing — multiplication by a positive constant is
monotone, and the sole-source-of-truth rule makes the exact rounding
irrelevant.)
"""

from __future__ import annotations

import heapq
from typing import Any, Optional

__all__ = ["CalendarQueue"]

_INF = float("inf")


class CalendarQueue:
    """Calendar queue with a heap-compatible ``push``/``pop``/peek surface."""

    MIN_BUCKETS = 8

    __slots__ = ("_size", "_nbuckets", "_width", "_inv_width",
                 "_buckets", "_cur_day", "_head")

    def __init__(self, nbuckets: int = 8, width: float = 1e-5):
        self._size = 0  # number of entries in the buckets (head excluded)
        self._head: Optional[tuple] = None  # cached minimum, <= all buckets
        self._init(nbuckets, width)

    def _init(self, nbuckets: int, width: float) -> None:
        if width <= 0.0:
            width = 1e-9
        self._nbuckets = nbuckets
        self._width = width
        self._inv_width = 1.0 / width
        self._buckets: list[list[tuple]] = [[] for _ in range(nbuckets)]
        self._cur_day = 0  # absolute day number the pop cursor is draining

    def _day(self, t: float) -> int:
        """Canonical day number for time ``t`` (sole source of truth)."""
        if t == _INF:
            return self._cur_day  # park infinities on the current day
        return int(t * self._inv_width)

    # -- sizing ---------------------------------------------------------------

    def _resize(self, nbuckets: int) -> None:
        entries = [e for b in self._buckets for e in b]
        self._init(nbuckets, self._estimate_width(entries))
        if entries:
            self._cur_day = min(self._day(e[0]) for e in entries)
            buckets = self._buckets
            nb = self._nbuckets
            for e in entries:
                heapq.heappush(buckets[self._day(e[0]) % nb], e)

    def _estimate_width(self, entries: list[tuple]) -> float:
        """Width ≈ a few average inter-event gaps, from a sample (CQ recipe)."""
        if len(entries) < 2:
            return self._width
        sample = sorted(e[0] for e in entries[: max(25, len(entries) // 16)])
        gaps = [b - a for a, b in zip(sample, sample[1:])
                if b > a and b != _INF]
        if not gaps:
            return self._width  # all sampled events simultaneous
        return 3.0 * (sum(gaps) / len(gaps))

    # -- queue surface --------------------------------------------------------

    def push(self, entry: tuple) -> None:
        """Insert ``entry`` (a ``(t, tsched, cls, seq, fn, args)`` tuple)."""
        head = self._head
        if head is not None and entry < head:
            # new global minimum: take the head slot, demote the old head
            self._head = entry
            entry = head
        day = self._day(entry[0])
        if self._size == 0 or day < self._cur_day:
            # re-anchor the cursor so the next pop starts on the right day
            # (an entry behind the cursor would otherwise lose the race to
            # later entries the scan reaches first)
            self._cur_day = day
        heapq.heappush(self._buckets[day % self._nbuckets], entry)
        self._size += 1
        if self._size > 2 * self._nbuckets:
            self._resize(2 * self._nbuckets)

    def pop(self) -> tuple:
        """Remove and return the minimum entry (full-key order)."""
        head = self._head
        if head is not None:
            self._head = None
            return head
        if self._size == 0:
            raise IndexError("pop from empty CalendarQueue")
        entry = self._pop_min()
        self._size -= 1
        if self._nbuckets > self.MIN_BUCKETS and self._size < self._nbuckets // 2:
            self._resize(max(self.MIN_BUCKETS, self._nbuckets // 2))
        return entry

    def _pop_min(self) -> tuple:
        buckets = self._buckets
        nb = self._nbuckets
        day = self._cur_day
        for _ in range(nb):
            b = buckets[day % nb]
            if b and self._day(b[0][0]) <= day:
                # hit on (or overdue for) this day: calendar-order pop
                self._cur_day = day
                return heapq.heappop(b)
            day += 1
        # a full lap without a hit (sparse year / far-future outlier):
        # direct minimum scan, then re-anchor the cursor on that day
        best_i = -1
        best: Any = None
        for i, b in enumerate(buckets):
            if b and (best is None or b[0] < best):
                best = b[0]
                best_i = i
        assert best is not None
        self._cur_day = self._day(best[0])
        return heapq.heappop(buckets[best_i])

    def __len__(self) -> int:
        return self._size + (self._head is not None)

    def __bool__(self) -> bool:
        return self._size > 0 or self._head is not None

    def __getitem__(self, index: int) -> Any:
        """Peek support: ``q[0]`` is the minimum entry (heap-API parity)."""
        head = self._head
        if head is not None and index == 0:
            return head
        if index != 0:
            raise IndexError("CalendarQueue only supports peeking q[0]")
        if self._size == 0:
            raise IndexError("peek into empty CalendarQueue")
        # promote the bucket minimum into the head slot; subsequent peeks
        # and the next pop are then O(1)
        head = self._pop_min()
        self._size -= 1
        self._head = head
        return head
