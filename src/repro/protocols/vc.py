"""VC_d: View-based Consistency with the LRC diff/invalidate machinery.

Views are acquired through a **per-view manager** (``view_id % nprocs``), so
consistency maintenance is *distributed* across the cluster instead of
centralised at a barrier manager.  The grant message carries only the write
notices of *that view's* past intervals that the acquirer hasn't received;
the acquirer invalidates those pages and pulls diffs from their writers on
fault — the same invalidate protocol as LRC_d (hence "same implementation
techniques", paper §5).

Barriers are **synchronisation only**: a tiny arrive/release exchange with
node 0, no notices, no consistency processing — the second defining
difference from LRC_d (paper §3.3: "Barriers in VOPP simply synchronize the
processors without any consistency maintenance").  That is the barrier
:class:`~repro.protocols.base.BaseDsmProtocol` implements, so there is no
barrier code here.

View discipline is enforced where a simulator can see it: writes require a
held exclusive view, pages may only ever bind to one view
(:class:`ViewOverlapError` otherwise), and a read-only (Rview) holder must
not write.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Generator, Optional

from repro.net.message import Message, MessageKind
from repro.protocols.base import (
    CTRL_MSG_BYTES,
    HANDLER_BASE_COST,
    NOTICE_PROC_COST,
    BaseDsmProtocol,
    ViewOverlapError,
    VoppDisciplineError,
)
from repro.protocols.timestamps import IntervalNotice, notices_wire_size

VIEW_ACQUIRE, VIEW_GRANT = MessageKind.VIEW_ACQUIRE, MessageKind.VIEW_GRANT
VIEW_RELEASE = MessageKind.VIEW_RELEASE

if TYPE_CHECKING:  # pragma: no cover
    from repro.protocols.system import DsmSystem
    from repro.net.cluster import Node

__all__ = ["VcProtocol", "ViewState"]


class ViewState:
    """Manager-side state of one view."""

    __slots__ = ("view_id", "writer", "readers", "queue", "log", "delivered")

    def __init__(self, view_id: int):
        self.view_id = view_id
        self.writer: Optional[int] = None  # node holding exclusively
        self.readers: set[int] = set()  # nodes holding read-only
        self.queue: list[tuple[int, str, Optional[Message]]] = []  # (node, mode, msg)
        self.log: list[IntervalNotice] = []  # release history, in order
        self.delivered: dict[int, int] = {}  # node -> log position delivered

    def grantable(self, mode: str) -> bool:
        if self.writer is not None:
            return False
        if mode == "w":
            return not self.readers
        return True  # readers may share


class VcProtocol(BaseDsmProtocol):
    """Per-node VC_d instance."""

    name = "vc_d"

    def __init__(self, system: "DsmSystem", node: "Node"):
        super().__init__(system, node)
        self._views: dict[int, ViewState] = {}  # manager-side
        self.held_excl: Optional[int] = None
        self.held_r: list[int] = []
        node.register_handler(VIEW_ACQUIRE, self._handle_view_acquire)
        node.register_handler(VIEW_GRANT, self._handle_view_grant)
        node.register_handler(VIEW_RELEASE, self._handle_view_release)

    # -- access discipline --------------------------------------------------------------

    def check_write_allowed(self, pids: list[int]) -> None:
        if self.held_excl is None:
            raise VoppDisciplineError(
                f"node {self.node.id}: write to shared memory without holding an "
                "exclusive view (VOPP requires acquire_view before writes)"
            )
        views = self.system.views
        for pid in pids:
            bound = views.view_of(pid)
            if bound is not None and bound != self.held_excl:
                raise ViewOverlapError(
                    f"node {self.node.id}: page {pid} belongs to view {bound} but "
                    f"is written under view {self.held_excl} (views must not overlap)"
                )

    def check_read_allowed(self, pids: list[int]) -> None:
        held = set(self.held_r)
        if self.held_excl is not None:
            held.add(self.held_excl)
        if not held:
            raise VoppDisciplineError(
                f"node {self.node.id}: read of shared memory without holding any view"
            )
        views = self.system.views
        for pid in pids:
            bound = views.view_of(pid)
            if bound is not None and bound not in held:
                raise VoppDisciplineError(
                    f"node {self.node.id}: page {pid} belongs to view {bound}, which "
                    f"is not held (held: excl={self.held_excl}, r={self.held_r})"
                )

    # -- client API -----------------------------------------------------------------------

    def view_manager(self, view_id: int) -> int:
        return self.system.view_manager(view_id)

    def acquire_view(self, view_id: int) -> Generator:
        """Exclusive acquire (``yield from``); VOPP forbids nesting these."""
        if self.held_excl is not None:
            raise VoppDisciplineError(
                f"node {self.node.id}: acquire_view({view_id}) while holding view "
                f"{self.held_excl} (acquire_view must not be nested)"
            )
        yield from self._acquire(view_id, "w")
        self.held_excl = view_id

    def acquire_rview(self, view_id: int) -> Generator:
        """Read-only acquire (``yield from``); nestable."""
        yield from self._acquire(view_id, "r")
        self.held_r.append(view_id)

    def _acquire(self, view_id: int, mode: str) -> Generator:
        t0 = self._wait_begin("view", view_id, mode)
        manager = self.view_manager(view_id)
        evt = self._park(("view", view_id))
        if manager == self.node.id:
            self._manager_acquire(view_id, mode, self.node.id, None)
        else:
            self.stats.count_acquire_msg()
            yield from self.node.send_reliable(
                manager,
                VIEW_ACQUIRE,
                (view_id, mode, self.node.id),
                size=CTRL_MSG_BYTES,
            )
        payload = yield evt.wait()
        yield from self._apply_grant(view_id, payload)
        self._wait_done("view", view_id, t0, mode)

    def _apply_grant(self, view_id: int, payload: tuple) -> Generator:
        notices = payload[1]
        yield from self.node.compute(NOTICE_PROC_COST * len(notices))
        self.apply_notices(notices)
        return None

    def release_view(self, view_id: int) -> Generator:
        """Release an exclusive view (``yield from``)."""
        if self.held_excl != view_id:
            raise VoppDisciplineError(
                f"node {self.node.id}: release_view({view_id}) but holding "
                f"{self.held_excl}"
            )
        notice = yield from self.end_interval()
        if notice is not None:
            self._bind_pages(view_id, notice.pages)
        oracle = self.node.sim.oracle
        if oracle is not None:
            oracle.release(self.node.sim.now, self.node.id, "view", view_id, "w")
        self.held_excl = None
        yield from self._send_release(view_id, "w", notice)

    def release_rview(self, view_id: int) -> Generator:
        """Release a read-only view (``yield from``)."""
        if view_id not in self.held_r:
            raise VoppDisciplineError(
                f"node {self.node.id}: release_rview({view_id}) not held"
            )
        if self.mm.write_set and self.held_excl is None:
            raise VoppDisciplineError(
                f"node {self.node.id}: wrote shared data while holding only "
                f"read views ({sorted(self.mm.write_set)})"
            )
        self.held_r.remove(view_id)
        oracle = self.node.sim.oracle
        if oracle is not None:
            oracle.release(self.node.sim.now, self.node.id, "view", view_id, "r")
        yield from self._send_release(view_id, "r", None)

    def _send_release(self, view_id: int, mode: str, notice: Optional[IntervalNotice]) -> Generator:
        manager = self.view_manager(view_id)
        extra_payload, extra_size = self._release_extra(view_id, notice)
        if manager == self.node.id:
            yield from self._manager_apply_release(view_id, mode, notice, extra_payload, local=True)
            self._manager_release(view_id, mode, self.node.id)
        else:
            size = CTRL_MSG_BYTES + (notice.wire_size if notice else 0) + extra_size
            yield from self.node.send_reliable(
                manager,
                VIEW_RELEASE,
                (view_id, mode, self.node.id, notice, extra_payload),
                size=size,
            )

    def _release_extra(self, view_id: int, notice: Optional[IntervalNotice]):
        """Hook for VC_sd: attach integrated diffs to the release. VC_d: none."""
        return None, 0

    def _bind_pages(self, view_id: int, pages: tuple[int, ...]) -> None:
        views = self.system.views
        for pid in pages:
            views.bind(pid, view_id)

    # -- manager side ---------------------------------------------------------------------

    def _view_state(self, view_id: int) -> ViewState:
        state = self._views.get(view_id)
        if state is None:
            state = ViewState(view_id)
            self._views[view_id] = state
        return state

    def _manager_acquire(
        self, view_id: int, mode: str, node_id: int, msg: Optional[Message]
    ) -> None:
        state = self._view_state(view_id)
        if state.grantable(mode) and not (mode == "r" and self._writer_waiting(state)):
            self._grant(state, mode, node_id)
        else:
            state.queue.append((node_id, mode, msg))

    @staticmethod
    def _writer_waiting(state: ViewState) -> bool:
        """Readers don't overtake queued writers (prevents writer starvation)."""
        return any(m == "w" for _, m, _ in state.queue)

    def _grant(self, state: ViewState, mode: str, node_id: int) -> None:
        if mode == "w":
            state.writer = node_id
        else:
            state.readers.add(node_id)
        pos = state.delivered.get(node_id, 0)
        notices = state.log[pos:]
        state.delivered[node_id] = len(state.log)
        payload = self._grant_payload(state, node_id, notices, pos)
        tracer = self.node.sim.tracer
        if tracer is not None:
            # what this grant moves (the view tracer's KB/grant column)
            tracer.instant(self.node.id, "manager", "grant", "grant", self.node.sim.now,
                           {"view": state.view_id, "bytes": self._grant_size(payload)})
        if node_id == self.node.id:
            self._wake(("view", state.view_id), payload)
        else:
            size = CTRL_MSG_BYTES + self._grant_size(payload)
            self.node.sim.spawn(
                self.node.send_reliable(node_id, VIEW_GRANT, payload, size),
                name=f"view-grant-{state.view_id}-{node_id}",
            )

    def _grant_payload(self, state: ViewState, node_id: int, notices: list, pos: int) -> tuple:
        """Hook for VC_sd (appends piggybacked full pages + diffs).

        Grant payloads are tuples, not dicts — one is built per grant on the
        protocol's hottest path.  VC_d grants are ``(view, notices)``; VC_sd
        piggyback grants are ``(view, notices, full_pages, diffs)``
        (discriminated by length).
        """
        return (state.view_id, notices)

    def _grant_size(self, payload: tuple) -> int:
        return notices_wire_size(payload[1])

    def _manager_release(self, view_id: int, mode: str, node_id: int) -> None:
        state = self._view_state(view_id)
        if mode == "w":
            if state.writer != node_id:
                raise RuntimeError(
                    f"view {view_id}: release from {node_id} but writer is {state.writer}"
                )
            state.writer = None
        else:
            state.readers.discard(node_id)
        self._grant_waiters(state)

    def _grant_waiters(self, state: ViewState) -> None:
        while state.queue:
            node_id, mode, _msg = state.queue[0]
            if not state.grantable(mode):
                break
            state.queue.pop(0)
            self._grant(state, mode, node_id)
            if mode == "w":
                break

    def _manager_apply_release(
        self,
        view_id: int,
        mode: str,
        notice: Optional[IntervalNotice],
        extra,
        local: bool,
    ) -> Generator:
        """Record a release's notice in the view log (VC_sd also applies diffs)."""
        state = self._view_state(view_id)
        if notice is not None:
            self.observe_lamport(notice.lamport)
            state.log.append(notice)
            state.delivered[notice.node] = len(state.log)
        return
        yield  # pragma: no cover

    # -- message handlers --------------------------------------------------------------------

    def _handle_view_acquire(self, msg: Message) -> Generator:
        yield from self.node.compute(HANDLER_BASE_COST)
        view_id, mode, node_id = msg.payload
        self._manager_acquire(view_id, mode, node_id, msg)

    def _handle_view_grant(self, msg: Message) -> Generator:
        yield from self.node.compute(HANDLER_BASE_COST)
        self._wake(("view", msg.payload[0]), msg.payload)

    def _handle_view_release(self, msg: Message) -> Generator:
        yield from self.node.compute(HANDLER_BASE_COST)
        view_id, mode, node_id, notice, extra = msg.payload
        yield from self._manager_apply_release(view_id, mode, notice, extra, local=False)
        self._manager_release(view_id, mode, node_id)
