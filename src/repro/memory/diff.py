"""Run-length byte diffs, the unit of data movement in all three protocols.

A diff records the byte ranges of a page that changed relative to a *twin*
(the pristine copy captured at the first write fault of an interval).  Its
wire size is what the paper's "Data" row measures, so the accounting here
(:attr:`Diff.wire_size`) matters:

``wire_size = DIFF_HEADER + sum(RUN_HEADER + len(run)) over runs``

which mirrors TreadMarks' (offset, length, data...) encoding.

Layout: a built :class:`Diff` holds three numpy arrays and no per-run Python
object — run start and end offsets as ``uint16`` (the two shorts of a run
header) and every run's bytes concatenated into one ``uint8`` payload — built
from a change mask entirely in numpy (:func:`_diff_from_mask`) for both
:func:`make_diff` and :func:`integrate_diffs`.  A diff so retains about its
wire size plus ~0.4 KB of array headers, which matters because LRC keeps every
diff of every interval for later diff requests.

Lifecycle: as in TreadMarks, a closed interval's diff is *pending* until
something reads it.  :func:`pending_diff` keeps the twin and the page's
after-image (two arrays nobody changes again: the page copy is copy-on-write,
:meth:`repro.memory.page.PageCopy.detach`) and :func:`make_diff` builds the
runs on the first read — sizing, application, integration, comparison or
pickling — after which the two arrays are dropped.  Most diffs are never read.
The ``intp`` scatter index that applies all runs in one fancy-index store
costs 8 bytes per changed byte, so it is kept only from a diff's second use on
(most diffs are applied exactly once; the same diff object is applied at every
receiving node) and never pickled.  From that second use on a diff whose runs
are maximal (no run ends where the next begins: every diff built from a change
mask) also drops its two run-bound arrays: the runs are the index's unbroken
stretches, so :attr:`Diff.runs`, ``==``, ``hash`` and pickling derive the
bounds from it and :attr:`Diff.wire_size` reads the kept run count.  A diff is
thus in one of three forms: pending (twin and after-image), built (bounds and
payload) or indexed (index, payload and run count).  ``Diff(...)`` accepts
adjacent runs; such a diff is a :class:`_JoinedDiff` and keeps its bounds.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

__all__ = [
    "Diff",
    "make_diff",
    "pending_diff",
    "apply_diff",
    "integrate_diffs",
    "full_page_diff",
    "DIFF_HEADER_BYTES",
    "RUN_HEADER_BYTES",
]

DIFF_HEADER_BYTES = 12  # page id + run count + timestamp
RUN_HEADER_BYTES = 4  # offset + length (2 shorts: pages are 4 KB)
_MAX_OFFSET = 0xFFFF  # what one short of a run header can address
_UNKEPT = object()  # ``Diff._index`` once a scatter index was built and not kept


class Diff:
    """Byte-level delta for one page; hashed and shared between nodes, so its
    value never changes (a pending diff's arrays are built, not changed)."""

    __slots__ = (
        "page_id", "_starts", "_ends", "_data", "_nruns", "_index", "_twin", "_after",
    )

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
        if any(off + len(data) == nxt for (off, data), (nxt, _) in zip(runs, runs[1:])):
            self.__class__ = _JoinedDiff

    @property
    def runs(self) -> tuple[tuple[int, bytes], ...]:
        """The ``(offset, bytes)`` runs, derived on demand (tests and debugging)."""
        starts, ends = self._bounds()
        payloads = np.split(self._data, np.cumsum(ends[:-1] - starts[:-1]))
        return tuple((off, run.tobytes()) for off, run in zip(starts.tolist(), payloads))

    def _bounds(self) -> tuple[np.ndarray, np.ndarray]:
        """Run start and end offsets, derived from the kept index once the
        bound arrays were dropped (the runs are then its unbroken stretches)."""
        if self._starts is not None:
            return self._starts, self._ends
        idx = self._index
        if not idx.size:
            return idx.astype(np.uint16), idx.astype(np.uint16)
        cut = (idx[1:] != idx[:-1] + 1).nonzero()[0] + 1
        first = np.concatenate(([0], cut))
        last = np.concatenate((cut - 1, [idx.size - 1]))
        return idx[first].astype(np.uint16), (idx[last] + 1).astype(np.uint16)

    @property
    def empty(self) -> bool:
        return not self._data.size

    @property
    def changed_bytes(self) -> int:
        return self._data.size

    @property
    def wire_size(self) -> int:
        return DIFF_HEADER_BYTES + RUN_HEADER_BYTES * self._nruns + self._data.size

    def _wire(self) -> tuple[int, bytes, bytes, bytes]:
        """The diff's whole value: what is pickled, compared and hashed."""
        starts, ends = self._bounds()
        return self.page_id, starts.tobytes(), ends.tobytes(), self._data.tobytes()

    def __reduce__(self):
        return _from_wire, self._wire()

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Diff):
            return NotImplemented
        return self._wire() == other._wire()

    def __hash__(self) -> int:
        return hash(self._wire())

    def __repr__(self) -> str:
        return f"Diff(page_id={self.page_id}, runs={self._nruns}, bytes={self._data.size})"

    def _scatter_index(self, page_size: int) -> np.ndarray:
        """Page offset of every payload byte, checked to fit ``page_size``: one
        fancy-index operation then touches all runs, so VC_sd's diff integration
        scales with diff *count* rather than run count."""
        idx = self._index
        if idx is None or idx is _UNKEPT:
            # vectorised multi-arange: each payload position plus its run's
            # (page offset - payload position), which is constant along a run
            # (array methods, not the np.* wrappers: their dispatch is a third
            # of the cost on a diff of ~100 short runs)
            lengths = (self._ends - self._starts).astype(np.intp)
            idx = (self._ends - lengths.cumsum()).repeat(lengths)
            idx += np.arange(idx.size)
            # kept from the second use on: most diffs are applied exactly once
            if self._index is None:
                self._index = _UNKEPT
            else:
                self._index = idx
                if type(self) is Diff:  # maximal runs: the index has the bounds
                    self._starts = self._ends = None
        if idx.size and idx[-1] >= page_size:  # sorted: the last byte is the highest
            starts, ends = self._bounds()
            run = f"[{starts[-1]}:{ends[-1]}]"
            raise ValueError(f"diff run {run} exceeds page size {page_size}")
        return idx


class _JoinedDiff(Diff):
    """A :class:`Diff` with adjacent runs (one ends where the next begins),
    which only ``Diff(...)`` and unpickling make: its index cannot tell the
    runs apart, so it keeps its bounds."""

    __slots__ = ()


def _fill(diff: Diff, page_id: int, starts: np.ndarray, ends: np.ndarray, data: np.ndarray) -> Diff:
    diff.page_id, diff._index, diff._twin, diff._after = page_id, None, None, None
    diff._starts, diff._ends, diff._data, diff._nruns = starts, ends, data, starts.size
    return diff


def _from_wire(page_id: int, starts: bytes, ends: bytes, data: bytes) -> Diff:
    """Rebuild a pickled diff; trusted, so :class:`Diff`'s validation is skipped."""
    diff = _fill(
        object.__new__(Diff),
        page_id,
        np.frombuffer(starts, dtype=np.uint16),
        np.frombuffer(ends, dtype=np.uint16),
        np.frombuffer(data, dtype=np.uint8),
    )
    if (diff._starts[1:] == diff._ends[:-1]).any():
        diff.__class__ = _JoinedDiff
    return diff


class _PendingDiff(Diff):
    """A :class:`Diff` whose arrays are not built yet.

    Reading one of them misses its unset slot and lands in ``__getattr__``,
    which builds them all and turns the object into a plain :class:`Diff`
    (same slots), so a built diff pays no hook on any later access.
    """

    __slots__ = ()

    def __getattr__(self, name: str):
        if name not in ("_starts", "_ends", "_data", "_nruns"):
            raise AttributeError(name)
        built = make_diff(self.page_id, self._twin, self._after)
        self._starts, self._ends, self._data = built._starts, built._ends, built._data
        self._nruns = built._nruns
        self._twin = self._after = None
        self.__class__ = Diff
        return getattr(self, name)


def pending_diff(page_id: int, twin: np.ndarray, after: np.ndarray) -> Diff:
    """The diff of ``after`` against ``twin``, built by :func:`make_diff` when
    first read; neither array may change afterwards."""
    diff = object.__new__(_PendingDiff)
    diff.page_id, diff._index, diff._twin, diff._after = page_id, None, twin, after
    return diff


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
