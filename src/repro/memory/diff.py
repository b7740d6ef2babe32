"""Run-length byte diffs, the unit of data movement in all three protocols.

A diff records the byte ranges of a page that changed relative to a *twin*
(the pristine copy captured at the first write fault of an interval).  Its
wire size is what the paper's "Data" row measures, so the accounting here
(:attr:`Diff.wire_size`) matters:

``wire_size = DIFF_HEADER + sum(RUN_HEADER + len(run)) over runs``

which mirrors TreadMarks' (offset, length, data...) encoding.

Layout: a :class:`Diff` holds three numpy arrays and no per-run Python
object — run start and end offsets as ``uint16`` (the two shorts of a run
header) and every run's bytes concatenated into one ``uint8`` payload — built
from a change mask entirely in numpy (:func:`_diff_from_mask`) for both
:func:`make_diff` and :func:`integrate_diffs`.  A diff so retains about its
wire size plus ~0.4 KB of array headers, which matters because LRC keeps every
diff of every interval for later diff requests.  The ``intp`` scatter index
that applies all runs in one fancy-index store costs 8 bytes per changed byte:
it is built on a diff's first application (most stored diffs are never applied
in the process that made them), then kept (the same diff object is applied at
every receiving node), and never pickled.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

__all__ = [
    "Diff",
    "make_diff",
    "apply_diff",
    "integrate_diffs",
    "full_page_diff",
    "DIFF_HEADER_BYTES",
    "RUN_HEADER_BYTES",
]

DIFF_HEADER_BYTES = 12  # page id + run count + timestamp
RUN_HEADER_BYTES = 4  # offset + length (2 shorts: pages are 4 KB)
_MAX_OFFSET = 0xFFFF  # what one short of a run header can address


class Diff:
    """Byte-level delta for one page; hashed and shared between nodes, so never mutated."""

    __slots__ = ("page_id", "_starts", "_ends", "_data", "_index")

    def __init__(self, page_id: int, runs: Iterable[tuple[int, bytes]]):
        runs = tuple(runs)
        last_end = -1
        for off, data in runs:
            if off < 0 or not data:
                raise ValueError(f"bad run (offset={off}, len={len(data)})")
            if off <= last_end:
                raise ValueError("runs must be sorted and non-overlapping")
            last_end = off + len(data) - 1
        if last_end >= _MAX_OFFSET:
            raise ValueError(f"run end {last_end + 1} does not fit a run header")
        _fill(
            self,
            page_id,
            np.array([off for off, _ in runs], dtype=np.uint16),
            np.array([off + len(data) for off, data in runs], dtype=np.uint16),
            np.frombuffer(b"".join(data for _, data in runs), dtype=np.uint8),
        )

    @property
    def runs(self) -> tuple[tuple[int, bytes], ...]:
        """The ``(offset, bytes)`` runs, derived on demand (tests and debugging)."""
        payloads = np.split(self._data, np.cumsum(self._ends[:-1] - self._starts[:-1]))
        return tuple((off, run.tobytes()) for off, run in zip(self._starts.tolist(), payloads))

    @property
    def empty(self) -> bool:
        return not self._data.size

    @property
    def changed_bytes(self) -> int:
        return self._data.size

    @property
    def wire_size(self) -> int:
        return DIFF_HEADER_BYTES + RUN_HEADER_BYTES * self._starts.size + self._data.size

    def _wire(self) -> tuple[int, bytes, bytes, bytes]:
        """The diff's whole value: what is pickled, compared and hashed."""
        return self.page_id, self._starts.tobytes(), self._ends.tobytes(), self._data.tobytes()

    def __reduce__(self):
        return _from_wire, self._wire()

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Diff):
            return NotImplemented
        return self._wire() == other._wire()

    def __hash__(self) -> int:
        return hash(self._wire())

    def __repr__(self) -> str:
        return f"Diff(page_id={self.page_id}, runs={self._starts.size}, bytes={self._data.size})"

    def _scatter_index(self, page_size: int) -> np.ndarray:
        """Page offset of every payload byte, checked to fit ``page_size``: one
        fancy-index operation then touches all runs, so VC_sd's diff integration
        scales with diff *count* rather than run count."""
        idx = self._index
        if idx is None:
            # vectorised multi-arange: each payload position plus its run's
            # (page offset - payload position), which is constant along a run
            lengths = (self._ends - self._starts).astype(np.intp)
            idx = np.repeat(self._ends - np.cumsum(lengths), lengths)
            idx += np.arange(idx.size)
            self._index = idx
        if idx.size and self._ends[-1] > page_size:  # sorted: the last run ends highest
            run = f"[{self._starts[-1]}:{self._ends[-1]}]"
            raise ValueError(f"diff run {run} exceeds page size {page_size}")
        return idx


def _fill(diff: Diff, page_id: int, starts: np.ndarray, ends: np.ndarray, data: np.ndarray) -> Diff:
    diff.page_id, diff._index = page_id, None
    diff._starts, diff._ends, diff._data = starts, ends, data
    return diff


def _from_wire(page_id: int, starts: bytes, ends: bytes, data: bytes) -> Diff:
    """Rebuild a pickled diff; trusted, so :class:`Diff`'s validation is skipped."""
    return _fill(
        object.__new__(Diff),
        page_id,
        np.frombuffer(starts, dtype=np.uint16),
        np.frombuffer(ends, dtype=np.uint16),
        np.frombuffer(data, dtype=np.uint8),
    )


def _diff_from_mask(page_id: int, data: np.ndarray, changed: np.ndarray) -> Diff:
    """Build the diff carrying ``data`` wherever the boolean mask ``changed`` is set.

    The maximal runs are the mask's rising and falling edges, found with one
    vectorised comparison; valid by construction, so not re-validated (the
    :class:`~repro.memory.address_space.AddressSpace` keeps pages within ``uint16``).
    """
    padded = np.zeros(changed.shape[0] + 2, dtype=bool)
    padded[1:-1] = changed
    edges = (padded[1:] != padded[:-1]).nonzero()[0].astype(np.uint16)
    return _fill(object.__new__(Diff), page_id, edges[0::2], edges[1::2], data[changed])


def make_diff(page_id: int, twin: np.ndarray, current: np.ndarray) -> Diff:
    """Diff ``current`` against ``twin``; both are uint8 arrays of page size."""
    if twin.shape != current.shape:
        raise ValueError("twin/current shape mismatch")
    return _diff_from_mask(page_id, current, twin != current)


def apply_diff(page: np.ndarray, diff: Diff) -> None:
    """Apply ``diff`` to ``page`` in place."""
    page[diff._scatter_index(page.shape[0])] = diff._data


def integrate_diffs(page_id: int, diffs: Sequence[Diff], page_size: int) -> Diff:
    """Merge ``diffs`` (applied in order) into one equivalent diff.

    This is VC_sd's *diff integration*: later runs overwrite earlier ones, and
    adjacent/overlapping runs coalesce, so the result's wire size is the size
    of the *union* of modified bytes — never the sum.
    """
    scratch = np.zeros(page_size, dtype=np.uint8)
    touched = np.zeros(page_size, dtype=bool)
    for diff in diffs:
        if diff.page_id != page_id:
            raise ValueError(
                f"cannot integrate diff for page {diff.page_id} into page {page_id}"
            )
        idx = diff._scatter_index(page_size)
        scratch[idx] = diff._data
        touched[idx] = True
    return _diff_from_mask(page_id, scratch, touched)


def full_page_diff(page_id: int, page: np.ndarray) -> Diff:
    """A diff that replaces the whole page (used for first-touch transfers)."""
    return Diff(page_id, ((0, page.tobytes()),))
