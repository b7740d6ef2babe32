"""Per-rank runtimes: the primitives application code calls.

:class:`VoppRuntime` exposes exactly the primitives the paper defines in §2
(``acquire_view``, ``release_view``, ``acquire_Rview``, ``release_Rview``,
barriers, and §3.5's ``merge_views``); :class:`TraditionalRuntime` exposes
the lock/barrier style the paper converts from.  Everything that blocks is a
generator to be driven with ``yield from``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Generator

from repro.protocols.base import BaseDsmProtocol
from repro.protocols.lrc import LrcProtocol
from repro.protocols.vc import VcProtocol

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.program import BaseSystem

__all__ = ["BaseRuntime", "VoppRuntime", "TraditionalRuntime"]


class BaseRuntime:
    """State shared by both programming styles."""

    def __init__(self, system: "BaseSystem", rank: int):
        self.system = system
        self.rank = rank
        self.proto: BaseDsmProtocol = system.protocols[rank]
        self.node = self.proto.node

    @property
    def nprocs(self) -> int:
        return self.system.nprocs

    @property
    def now(self) -> float:
        return self.node.sim.now

    def compute(self, seconds: float) -> Generator:
        """Charge application CPU time (``yield from``)."""
        return self.node.app_compute(seconds)

    def barrier(self) -> Generator:
        """Global barrier (consistency semantics depend on the protocol)."""
        return self.proto.barrier()


class VoppRuntime(BaseRuntime):
    """View-Oriented Parallel Programming primitives (paper §2)."""

    def __init__(self, system: "BaseSystem", rank: int):
        super().__init__(system, rank)
        if not isinstance(self.proto, VcProtocol):
            raise TypeError(
                f"VOPP programs need a VC protocol, got {type(self.proto).__name__}"
            )

    def acquire_view(self, view_id: int) -> Generator:
        """Acquire exclusive access to a view (must not be nested)."""
        return self.proto.acquire_view(view_id)

    def release_view(self, view_id: int) -> Generator:
        """Finish exclusive access to a view."""
        return self.proto.release_view(view_id)

    def acquire_Rview(self, view_id: int) -> Generator:
        """Acquire read-only access to a view (nestable, shared)."""
        return self.proto.acquire_rview(view_id)

    def release_Rview(self, view_id: int) -> Generator:
        """Finish read-only access to a view."""
        return self.proto.release_rview(view_id)

    def merge_views(self) -> Generator:
        """Bring this node up to date on *every* view (paper §3.5).

        Expensive but convenient: acquires each known view read-only and
        touches all of its pages, forcing a full update.
        """
        page_size = self.system.space.page_size
        views = self.system.views
        for view_id in views.known_views():
            yield from self.acquire_Rview(view_id)
            for pid in views.pages_of(view_id):
                yield from self.proto.mm.read_bytes(pid * page_size, 1)
            yield from self.release_Rview(view_id)
        return None


class TraditionalRuntime(BaseRuntime):
    """Lock/barrier (data-race-free) programming on LRC_d."""

    def __init__(self, system: "BaseSystem", rank: int):
        super().__init__(system, rank)
        if not isinstance(self.proto, LrcProtocol):
            raise TypeError(
                f"traditional programs need LRC, got {type(self.proto).__name__}"
            )

    def acquire_lock(self, lock_id: int) -> Generator:
        return self.proto.acquire_lock(lock_id)

    def release_lock(self, lock_id: int) -> Generator:
        return self.proto.release_lock(lock_id)
