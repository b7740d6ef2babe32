"""LRC_d: diff-based Lazy Release Consistency (TreadMarks-style).

Traditional (lock + barrier) DSM programs run on this protocol.

**Locks** use a centralised manager per lock (``lock_id % nprocs``): the
acquire message carries the acquirer's vector clock; the manager's grant
carries every write notice the acquirer hasn't seen; the release ships the
releaser's previously-unshipped knowledge to the manager so causality chains
through the manager.

**Barriers maintain consistency centrally** — the defining cost of LRC that
the paper measures: every arriver ships its new write notices to the barrier
manager (node 0), whose dispatcher processes all 2(n-1) messages *serially*
(notice-proportional CPU cost), merges vector clocks and notice sets, and
broadcasts per-node releases carrying all unseen notices out of its single
network port.  With many processors this centralisation dominates (paper,
Table 1: 34,492 µs mean barrier time vs 5,467 µs for VC_d) and the arrival
burst overflows the manager's receive buffer, causing the retransmissions the
paper reports in the "Rexmit" row.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Generator, Optional

from repro.net.message import Message, MessageKind
from repro.protocols.base import (
    CTRL_MSG_BYTES,
    HANDLER_BASE_COST,
    NOTICE_PROC_COST,
    BaseDsmProtocol,
)
from repro.protocols.timestamps import IntervalNotice, VectorClock, notices_wire_size

LOCK_ACQUIRE, LOCK_GRANT = MessageKind.LOCK_ACQUIRE, MessageKind.LOCK_GRANT
LOCK_FORWARD = MessageKind.LOCK_FORWARD

if TYPE_CHECKING:  # pragma: no cover
    from repro.protocols.system import DsmSystem
    from repro.net.cluster import Node

__all__ = ["LrcProtocol"]


class _LockState:
    """Manager-side state of one lock."""

    __slots__ = ("held_by", "queue")

    def __init__(self) -> None:
        self.held_by: Optional[int] = None
        self.queue: list[Message | int] = []  # waiting acquire msgs (or self id)


class LrcProtocol(BaseDsmProtocol):
    """Per-node LRC_d instance."""

    name = "lrc_d"

    def __init__(self, system: "DsmSystem", node: "Node"):
        super().__init__(system, node)
        n = system.nprocs
        self.vc = VectorClock(n)
        # all notices this node knows, per origin node, ordered by idx
        self.known: dict[int, list[IntervalNotice]] = {i: [] for i in range(n)}
        # knowledge horizon already shipped to each manager node
        self._shipped: dict[int, list[int]] = {}
        # manager-side lock table (only used on manager nodes)
        self._locks: dict[int, _LockState] = {}
        node.register_handler(LOCK_ACQUIRE, self._handle_lock_acquire)
        node.register_handler(LOCK_GRANT, self._handle_lock_grant)
        node.register_handler(LOCK_FORWARD, self._handle_lock_release_msg)

    # -- knowledge bookkeeping ------------------------------------------------------

    def _record_notice(self, notice: IntervalNotice) -> None:
        """Add a notice to this node's knowledge base (no invalidation)."""
        self.observe_lamport(notice.lamport)
        lst = self.known[notice.node]
        if not lst or notice.idx > lst[-1].idx:
            lst.append(notice)
        elif all(existing.idx != notice.idx for existing in lst):
            lst.append(notice)
            lst.sort(key=lambda n: n.idx)

    def _unseen_for(self, vc: list[int]) -> list[IntervalNotice]:
        """Every known notice with an index beyond ``vc``."""
        out = []
        for origin, lst in self.known.items():
            horizon = vc[origin]
            for notice in lst:
                if notice.idx > horizon:
                    out.append(notice)
        return out

    def _absorb(self, notices: list[IntervalNotice], vc: Optional[list[int]] = None) -> None:
        """Apply invalidations + record knowledge + advance vector clock."""
        for notice in notices:
            self._record_notice(notice)
        self.apply_notices(notices)
        self.vc.see(notices)
        if vc is not None:
            self.vc.merge(vc)

    def _publish_own_interval(self) -> Generator:
        """End the interval; record the notice under our own knowledge."""
        notice = yield from self.end_interval()
        if notice is not None:
            self.known[self.node.id].append(notice)
            self.vc.advance(self.node.id, notice.idx)
        return notice

    def _unshipped_for_manager(self, manager: int) -> list[IntervalNotice]:
        """Knowledge not yet shipped to ``manager`` (keeps causality chains)."""
        horizon = self._shipped.setdefault(manager, [0] * self.nprocs)
        out = self._unseen_for(horizon)
        for notice in out:
            if notice.idx > horizon[notice.node]:
                horizon[notice.node] = notice.idx
        return out

    # -- lock client API ------------------------------------------------------------

    def lock_manager(self, lock_id: int) -> int:
        return lock_id % self.nprocs

    def acquire_lock(self, lock_id: int) -> Generator:
        """Acquire a global lock (``yield from``)."""
        t0 = self._wait_begin("lock", lock_id)
        manager = self.lock_manager(lock_id)
        if manager == self.node.id:
            state = self._lock_state(lock_id)
            if state.held_by is None:
                state.held_by = self.node.id
                # manager's own knowledge is local: apply anything unseen
                self._absorb(self._unseen_for(self.vc.copy()))
            else:
                evt = self._park(("lock", lock_id))
                state.queue.append(self.node.id)
                payload = yield evt.wait()
                self._absorb(payload["notices"], payload["vc"])
        else:
            self.stats.count_acquire_msg()
            evt = self._park(("lock", lock_id))
            yield from self.node.send_reliable(
                manager,
                LOCK_ACQUIRE,
                {"lock": lock_id, "vc": self.vc.copy(), "node": self.node.id},
                size=CTRL_MSG_BYTES + self.vc.wire_size,
            )
            payload = yield evt.wait()
            yield from self.node.compute(NOTICE_PROC_COST * len(payload["notices"]))
            self._absorb(payload["notices"], payload["vc"])
        self._wait_done("lock", lock_id, t0)

    def release_lock(self, lock_id: int) -> Generator:
        """Release a global lock (``yield from``)."""
        yield from self._publish_own_interval()
        oracle = self.node.sim.oracle
        if oracle is not None:
            oracle.release(self.node.sim.now, self.node.id, "lock", lock_id, "w")
        manager = self.lock_manager(lock_id)
        if manager == self.node.id:
            self._manager_release(lock_id)
        else:
            notices = self._unshipped_for_manager(manager)
            yield from self.node.send_reliable(
                manager,
                LOCK_FORWARD,
                {
                    "lock": lock_id,
                    "vc": self.vc.copy(),
                    "notices": notices,
                    "node": self.node.id,
                },
                size=CTRL_MSG_BYTES + self.vc.wire_size + notices_wire_size(notices),
            )

    # -- lock manager side -------------------------------------------------------------

    def _lock_state(self, lock_id: int) -> _LockState:
        state = self._locks.get(lock_id)
        if state is None:
            state = _LockState()
            self._locks[lock_id] = state
        return state

    def _grant_to(self, lock_id: int, waiter: "Message | int") -> None:
        """Manager grants the lock to a queued waiter."""
        state = self._lock_state(lock_id)
        if isinstance(waiter, int):
            # local (manager's own) waiter
            state.held_by = waiter
            self._wake(
                ("lock", lock_id),
                {"notices": self._unseen_for(self.vc.copy()), "vc": self.vc.copy()},
            )
            return
        acq_vc = waiter.payload["vc"]
        notices = self._unseen_for(acq_vc)
        state.held_by = waiter.payload["node"]
        grant = {"lock": lock_id, "notices": notices, "vc": self.vc.copy()}
        size = CTRL_MSG_BYTES + self.vc.wire_size + notices_wire_size(notices)
        self.node.sim.spawn(
            self.node.send_reliable(waiter.payload["node"], LOCK_GRANT, grant, size),
            name=f"grant-{self.node.id}-{lock_id}",
        )

    def _handle_lock_acquire(self, msg: Message) -> Generator:
        yield from self.node.compute(HANDLER_BASE_COST)
        state = self._lock_state(msg.payload["lock"])
        if state.held_by is None:
            self._grant_to(msg.payload["lock"], msg)
        else:
            state.queue.append(msg)

    def _handle_lock_release_msg(self, msg: Message) -> Generator:
        notices = msg.payload["notices"]
        yield from self.node.compute(HANDLER_BASE_COST + NOTICE_PROC_COST * len(notices))
        # manager records the shipped knowledge (lazily applied at its own
        # next acquire/barrier; recording alone does not invalidate)
        for notice in notices:
            self._record_notice(notice)
        self._manager_release(msg.payload["lock"])

    def _manager_release(self, lock_id: int) -> None:
        state = self._lock_state(lock_id)
        state.held_by = None
        if state.queue:
            self._grant_to(lock_id, state.queue.pop(0))

    def _handle_lock_grant(self, msg: Message) -> Generator:
        yield from self.node.compute(
            HANDLER_BASE_COST + NOTICE_PROC_COST * len(msg.payload["notices"])
        )
        self._wake(("lock", msg.payload["lock"]), msg.payload)

    # -- consistency-maintaining barrier (hooks of BaseDsmProtocol.barrier) ----------------

    def _barrier_publish(self) -> Generator:
        return self._publish_own_interval()

    def _barrier_arrival(self, local: bool) -> tuple:
        # the manager's own knowledge is in its tables already
        notices = [] if local else self._unshipped_for_manager(self.BARRIER_MANAGER)
        return (self.vc.copy(), notices), self.vc.wire_size + notices_wire_size(notices)

    def _barrier_receive(self, carried: tuple) -> Generator:
        _vc, notices = carried
        # the manager's serial dispatcher pays per-notice processing: this is
        # the centralisation cost the paper measures
        yield from self.node.compute(HANDLER_BASE_COST + NOTICE_PROC_COST * len(notices))
        for notice in notices:
            self._record_notice(notice)

    def _barrier_releases(self, arrivals: list[tuple]):
        merged_vc = self.vc.copy()
        for _node, _gen, (vc, _notices) in arrivals:
            for i, x in enumerate(vc):
                if x > merged_vc[i]:
                    merged_vc[i] = x
        for origin, lst in self.known.items():
            for notice in lst:
                if notice.idx > merged_vc[origin]:
                    merged_vc[origin] = notice.idx
        for _node, _gen, (vc, _notices) in arrivals:
            notices = self._unseen_for(vc)
            yield (notices, merged_vc), 4 * len(merged_vc) + notices_wire_size(notices)

    def _barrier_absorb(self, released: tuple) -> Generator:
        notices, vc = released
        yield from self.node.compute(NOTICE_PROC_COST * len(notices))
        self._absorb(notices, vc)
