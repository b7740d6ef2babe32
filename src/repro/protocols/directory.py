"""Global page-location hints.

Real DSM systems assign every page a *static manager* at initialisation time
(TreadMarks: pages are distributed round-robin; the manager always knows a
node holding a valid base copy).  We model that metadata as a zero-cost global
directory: it carries **routing hints only** (who first materialised a page,
who wrote it last) and never any page content — content always moves through
accounted network messages.

The directory is *versioned*: every claim and write note carries the acting
node and time, and every read filters through the visibility rule of
:mod:`repro.protocols.versioned` — a node sees another node's mutation only
once it is at least one network lookahead old.  That makes reads a pure
function of ``(reader, time)`` and the mutation log, which is what lets the
partitioned (PDES) driver replicate the directory per partition (shipping
mutations at window boundaries) and still produce bit-identical runs.
"""

from __future__ import annotations

from typing import Optional

from repro.protocols.versioned import VersionedOracle

__all__ = ["PageDirectory"]


class PageDirectory:
    """Shared page metadata, read under the lookahead-visibility rule."""

    def __init__(self, lookahead: float = 0.0) -> None:
        self._origins = VersionedOracle(lookahead)  # pid -> creation claims
        self._writers = VersionedOracle(lookahead)  # pid -> write notes

    def claim_origin(self, pid: int, node: int, t: float) -> None:
        """Record that ``node`` materialised ``pid`` at ``t`` (idempotent).

        Within one lookahead window two nodes can both zero-fill the same
        page without seeing each other; both claims are kept and readers
        deterministically pick the earliest visible one.
        """
        if self._origins.has_record(pid, node):
            return
        self._origins.record(pid, t, node)

    def origin_any(self, pid: int) -> Optional[int]:
        """First creator of ``pid`` with **instantaneous** visibility.

        HLRC's home assignment needs every node to agree on a page's home the
        moment it exists: a writer that wrongly believes itself home skips
        the eager diff push and the true home deadlocks waiting for it.  The
        price of agreement is that this read is only meaningful serially —
        the PDES driver refuses ``hlrc_d`` (a partitioned replica lacks other
        partitions' in-window claims).
        """
        entries = self._origins.all_entries(pid)
        return min(entries, key=lambda e: (e[0], e[1]))[1] if entries else None

    def note_writer(self, pid: int, node: int, t: float) -> None:
        self._writers.record(pid, t, node)

    def fetch_source(self, pid: int, asker: int, t: float) -> Optional[int]:
        """Best node to fetch a full base copy of ``pid`` from (not ``asker``)."""
        entry = self._writers.latest(pid, asker, t)
        if entry is not None and entry[1] != asker:
            return entry[1]
        entry = self._origins.earliest(pid, asker, t)
        if entry is not None and entry[1] != asker:
            return entry[1]
        return None

    # -- PDES delta shipping ----------------------------------------------------

    def capture_deltas(self) -> None:
        self._origins.capture_deltas()
        self._writers.capture_deltas()

    def drain_deltas(self) -> tuple:
        return (self._origins.drain_deltas(), self._writers.drain_deltas())

    def apply_deltas(self, deltas: tuple) -> None:
        origins, writers = deltas
        self._origins.apply_deltas(origins)
        self._writers.apply_deltas(writers)
