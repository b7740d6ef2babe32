"""Shared DSM metadata: page-location hints and view membership.

Real DSM systems keep this metadata in static managers: TreadMarks gives
every page a manager at initialisation that always knows a node holding a
valid base copy, and a VOPP view manager knows its view's pages.  Here it is
zero-cost state shared by all nodes.  It carries **routing hints only** (who
first materialised a page, who wrote it last, which view a page belongs to)
and never any page content: content always moves through accounted network
messages.

Every read sees every mutation made so far, by any node.  The page directory
keeps one ``(t, node)`` origin and one ``(t, node)`` last writer per page, so
same-instant claims or write notes of different nodes resolve by node id,
whatever order the engine ran them in.  A page bound to a second view raises
:class:`ViewOverlapError` at that bind.  The tie-permutation witness
(``tests/sim/ties.py``) runs every protocol with the order of same-instant
events of different nodes permuted and gets the serial run bit for bit.
"""

from __future__ import annotations

from typing import Optional

from repro.protocols.base import ViewOverlapError

__all__ = ["PageDirectory", "ViewRegistry"]


class PageDirectory:
    """Per page: the origin (smallest ``(t, node)`` claim) and the last
    writer (largest ``(t, node)`` write note)."""

    def __init__(self) -> None:
        self._origins: dict[int, tuple[float, int]] = {}
        self._writers: dict[int, tuple[float, int]] = {}

    def claim_origin(self, pid: int, node: int, t: float) -> None:
        """Record that ``node`` materialised ``pid`` at ``t``; the first
        claim wins, and at one instant the lower node."""
        claim = (t, node)
        held = self._origins.get(pid)
        if held is None or claim < held:
            self._origins[pid] = claim

    def note_writer(self, pid: int, node: int, t: float) -> None:
        """Record that ``node`` wrote ``pid`` at ``t``; the last note wins,
        and at one instant the higher node."""
        note = (t, node)
        held = self._writers.get(pid)
        if held is None or note > held:
            self._writers[pid] = note

    def origin(self, pid: int) -> Optional[int]:
        """The node that first materialised ``pid``, or ``None``."""
        claim = self._origins.get(pid)
        return None if claim is None else claim[1]

    def fetch_source(self, pid: int, asker: int) -> Optional[int]:
        """Best node to fetch a full base copy of ``pid`` from (not ``asker``):
        the last writer, else the origin."""
        for entry in (self._writers.get(pid), self._origins.get(pid)):
            if entry is not None and entry[1] != asker:
                return entry[1]
        return None


class ViewRegistry:
    """VOPP view membership: ``page -> view`` and ``view -> pages``."""

    def __init__(self) -> None:
        self._view_of: dict[int, int] = {}
        self._pages: dict[int, set[int]] = {}

    def bind(self, pid: int, view_id: int) -> None:
        """Bind ``pid`` to ``view_id`` (idempotent); a page already bound to
        another view raises :class:`ViewOverlapError` here."""
        bound = self._view_of.setdefault(pid, view_id)
        if bound != view_id:
            raise ViewOverlapError(
                f"page {pid} already belongs to view {bound}, cannot bind "
                f"to view {view_id}"
            )
        self._pages.setdefault(view_id, set()).add(pid)

    def view_of(self, pid: int) -> Optional[int]:
        return self._view_of.get(pid)

    def pages_of(self, view_id: int) -> list[int]:
        return sorted(self._pages.get(view_id, ()))

    def known_views(self) -> list[int]:
        """Sorted ids of every view with at least one bound page."""
        return sorted(self._pages)
