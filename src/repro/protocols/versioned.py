"""Versioned shared oracles with visibility delayed by the switch latency.

The simulator keeps two pieces of cross-node metadata outside the message
layer: the page directory (who created / last wrote each page) and the view
registry (which pages belong to which view).  They stand in for metadata a
real DSM distributes through its managers, at zero simulated cost.

Every read goes through one visibility rule:

    a mutation made by node ``m`` at time ``t_m`` is visible to a reader
    ``r`` at time ``t_r`` iff ``r == m`` or ``t_m + lookahead <= t_r``,

``lookahead`` being the switch forwarding latency λ.  The rule is physically
faithful: real metadata travels in messages that take at least the switch
forwarding latency, so no node can act on another node's mutation sooner
than that.  And it makes every read a pure function of ``(reader, t_r)`` and
the mutation log — independent of how the engine ordered other nodes'
same-instant events, which the tie-permutation witness
(``tests/sim/ties.py``) checks.  Whether the rule is also *observed* — does
any committed fingerprint move when λ is 0 here — is measured separately
(docs/simulator.md, "Tie-permutation witness").
"""

from __future__ import annotations

from typing import Any, Optional

__all__ = ["VersionedOracle", "ViewRegistry"]


class VersionedOracle:
    """A multimap ``key -> [(t, node, value)]`` read under the visibility rule."""

    def __init__(self, lookahead: float = 0.0):
        self.lookahead = lookahead
        self._log: dict[Any, list[tuple]] = {}

    # -- mutation ---------------------------------------------------------------

    def record(self, key: Any, t: float, node: int, value: Any = None) -> None:
        self._log.setdefault(key, []).append((t, node, value))

    def has_record(self, key: Any, node: int) -> bool:
        """Whether ``node`` itself ever recorded under ``key`` (no visibility:
        used for idempotence checks, which are node-local by construction)."""
        return any(e[1] == node for e in self._log.get(key, ()))

    def all_entries(self, key: Any) -> list[tuple]:
        """Every entry regardless of visibility (instantaneous read; HLRC's
        home lookup is its one consumer)."""
        return self._log.get(key, [])

    # -- reads ------------------------------------------------------------------

    def visible(self, key: Any, reader: int, t: float) -> list[tuple]:
        """All entries visible to ``reader`` at time ``t``, log order."""
        entries = self._log.get(key)
        if not entries:
            return []
        lam = self.lookahead
        return [e for e in entries if e[1] == reader or e[0] + lam <= t]

    def earliest(self, key: Any, reader: int, t: float) -> Optional[tuple]:
        """Visible entry with the smallest ``(t, node)`` — first-wins reads."""
        vis = self.visible(key, reader, t)
        return min(vis, key=_order) if vis else None

    def latest(self, key: Any, reader: int, t: float) -> Optional[tuple]:
        """Visible entry with the largest ``(t, node)`` — last-wins reads."""
        vis = self.visible(key, reader, t)
        return max(vis, key=_order) if vis else None


def _order(entry: tuple) -> tuple:
    return (entry[0], entry[1])


class ViewRegistry:
    """Page-to-view bindings (VOPP metadata), visibility-delayed.

    Replaces the plain ``page_view`` / ``view_pages`` dicts: bindings carry
    the binding node and time, and every read filters through the oracle
    visibility rule.
    """

    def __init__(self, lookahead: float = 0.0):
        self._binds = VersionedOracle(lookahead)  # pid -> entries, value=view
        # secondary index for per-view iteration: view -> entries, value=pid
        self._members = VersionedOracle(lookahead)

    def bind(self, pid: int, view_id: int, node: int, t: float) -> None:
        """Bind ``pid`` to ``view_id`` (idempotent; overlap-checked)."""
        from repro.protocols.base import ViewOverlapError

        bound = self.view_of(pid, node, t)
        if bound is not None:
            if bound != view_id:
                raise ViewOverlapError(
                    f"page {pid} already belongs to view {bound}, cannot bind "
                    f"to view {view_id}"
                )
            if self._binds.has_record(pid, node):
                return  # re-release of an already-bound page by the same node
        self._binds.record(pid, t, node, view_id)
        self._members.record(view_id, t, node, pid)

    def view_of(self, pid: int, reader: int, t: float) -> Optional[int]:
        """The view ``pid`` belongs to, as visible to ``reader`` at ``t``."""
        from repro.protocols.base import ViewOverlapError

        vis = self._binds.visible(pid, reader, t)
        if not vis:
            return None
        views = {e[2] for e in vis}
        if len(views) > 1:
            raise ViewOverlapError(
                f"page {pid} is bound to multiple views {sorted(views)} "
                "(views must not overlap)"
            )
        return vis[0][2]

    def pages_of(self, view_id: int, reader: int, t: float) -> list[int]:
        """Sorted pages of ``view_id`` visible to ``reader`` at ``t``."""
        return sorted({e[2] for e in self._members.visible(view_id, reader, t)})

    def known_views(self, reader: int, t: float) -> list[int]:
        """Sorted ids of every view with at least one visible binding."""
        lam = self._members.lookahead
        out = []
        for view_id, entries in self._members._log.items():
            if any(e[1] == reader or e[0] + lam <= t for e in entries):
                out.append(view_id)
        return sorted(out)
