"""HLRC_d: home-based Lazy Release Consistency.

An extension beyond the paper's three systems: the *home-based* LRC variant
its research context compares against (Yu & Huang, "Homeless and Home-based
Lazy Release Consistency Protocols on Distributed Shared Memory"; Zhou et
al.'s original HLRC).  Including it lets the benchmarks place VOPP against
both ends of the LRC design space:

* every page has a **home** node (its first toucher) whose copy is kept
  current: at every interval end, writers eagerly push their diffs to the
  homes (``DIFF_PUSH``, one-way reliable);
* a **fault fetches the full page from its home** — exactly one round trip,
  regardless of how many writers touched the page (the homeless protocol
  needs one diff request per writer and applies chains);
* write notices, vector clocks, locks and the consistency-maintaining
  barrier are inherited unchanged from LRC_d.

The classic trade-off this reproduces: HLRC sends more *eager* data (diffs
travel even when nobody will read them) but repairs faults in one exchange
and never accumulates diff chains; whole-page fetches cost bandwidth when
only a few bytes changed.

Ordering subtlety handled here: a faulting node may learn of an interval
(via barrier/lock notices) before the home received that interval's diff
push.  The page request therefore carries the intervals the requester knows;
the home defers the reply until its ``applied`` record covers them.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Generator

from repro.memory.page import PageState
from repro.net.message import Message, MessageKind
from repro.protocols.base import CTRL_MSG_BYTES, HANDLER_BASE_COST
from repro.protocols.lrc import LrcProtocol
from repro.sim import Event

if TYPE_CHECKING:  # pragma: no cover
    from repro.protocols.system import DsmSystem
    from repro.net.cluster import Node

__all__ = ["HlrcProtocol"]

class HlrcProtocol(LrcProtocol):
    """Per-node home-based LRC instance."""

    name = "hlrc_d"

    # "first_touch": a page's home is whoever materialised it first (simple,
    # but a master-initialised data set makes node 0 home of everything);
    # "round_robin": home = pid % nprocs (spreads the push load)
    home_policy = "first_touch"

    def __init__(self, system: "DsmSystem", node: "Node"):
        super().__init__(system, node)
        # home side: which (writer, interval) diffs have been applied per page
        self._applied: dict[int, set[tuple[int, int]]] = {}
        # remote page requests waiting for outstanding diff pushes
        self._waiting: dict[int, list[Message]] = {}
        # local accesses (we are home) waiting for outstanding diff pushes
        self._home_events: dict[int, list] = {}
        node.register_handler(MessageKind.DIFF_PUSH, self._handle_diff_push)

    # -- home assignment ---------------------------------------------------------

    def home_of(self, pid: int) -> "int | None":
        """The page's home node, or None if the page does not exist yet."""
        if self.home_policy == "round_robin":
            return pid % self.nprocs
        return self.directory.origin(pid)

    # -- writer side: eager diff propagation -----------------------------------------

    def end_interval(self) -> Generator:
        notice = yield from super().end_interval()
        if notice is None:
            return None
        by_home: dict[int, dict[int, list]] = {}
        for pid in notice.pages:
            home = self.home_of(pid)
            if home is None:
                home = self.node.id
            if home == self.node.id:
                # we are the home: our copy is the current one already
                self._applied.setdefault(pid, set()).add((self.node.id, notice.idx))
                continue
            by_home.setdefault(home, {})[pid] = self.diff_store[(pid, notice.idx)]
        for home, pages in by_home.items():
            size = CTRL_MSG_BYTES + sum(
                d.wire_size for diffs in pages.values() for d in diffs
            )
            yield from self.node.send_reliable(
                home,
                MessageKind.DIFF_PUSH,
                {"node": self.node.id, "idx": notice.idx, "pages": pages},
                size=size,
            )
        return notice

    def _handle_diff_push(self, msg: Message) -> Generator:
        yield from self.node.compute(HANDLER_BASE_COST)
        writer = msg.payload["node"]
        idx = msg.payload["idx"]
        oracle = self.node.sim.oracle
        nbytes = 0
        for pid, diffs in msg.payload["pages"].items():
            # a push leaves the home copy's state as it is
            self.mm.apply_diffs(pid, diffs, self.mm.state(pid))
            nbytes += sum(diff.changed_bytes for diff in diffs)
            self._applied.setdefault(pid, set()).add((writer, idx))
            if oracle is not None:
                oracle.apply(
                    self.node.sim.now, self.node.id, pid, ((writer, idx),),
                    self.mm.pages[pid].data,
                )
            self._retry_waiting(pid)
        if nbytes:
            yield from self.node.copy_cost(nbytes)

    # -- fault side: whole-page fetch from the home ---------------------------------------

    def _make_one_valid(self, pid: int, lane: str = "app") -> Generator:
        state = self.mm.state(pid)
        if state in (PageState.RO, PageState.RW):
            return
        notices = self.pending.pop(pid, [])
        home = self.home_of(pid)
        if home is None:
            # first touch anywhere: create the page locally and become home
            self.mm.zero_fill(pid)
            self.directory.claim_origin(pid, self.node.id, self.node.sim.now)
            self._applied.setdefault(pid, set())
            oracle = self.node.sim.oracle
            if oracle is not None:
                oracle.zero_fill(
                    self.node.sim.now, self.node.id, pid, self.mm.pages[pid].data
                )
            return
        if home == self.node.id:
            # we are the home: pushes keep our data current, but a push can
            # physically trail the notice that announced it — wait until
            # every interval we know of has been applied
            copy = self.mm.page(pid)
            copy.materialise()
            applied = self._applied.setdefault(pid, set())
            while True:
                missing = [n for n in notices if (n.node, n.idx) not in applied]
                if not missing:
                    break
                evt = Event(self.node.sim)
                self._home_events.setdefault(pid, []).append(evt)
                yield evt.wait()
            copy.state = PageState.RO
            return
        need = [(n.node, n.idx) for n in notices]
        reply = yield from self.node.request(
            home,
            MessageKind.PAGE_REQUEST,
            {"pid": pid, "need": need},
            size=CTRL_MSG_BYTES + 8 * len(need),
        )
        yield from self.node.copy_cost(self.system.space.page_size)
        self.mm.install_full_page(pid, reply.payload["content"])
        oracle = self.node.sim.oracle
        if oracle is not None:
            oracle.install(
                self.node.sim.now, self.node.id, pid, home, self.mm.pages[pid].data
            )

    def _handle_page_request(self, msg: Message) -> None:
        pid = msg.payload["pid"]
        need = msg.payload.get("need") or []
        applied = self._applied.setdefault(pid, set())
        missing = [key for key in need if tuple(key) not in applied and key[0] != self.node.id]
        if missing:
            # the diffs this requester knows about have not arrived yet;
            # defer the reply until the pushes land
            self._waiting.setdefault(pid, []).append(msg)
            return
        # under round-robin placement the home may never have touched the
        # page itself: its initial content is zeros plus the applied pushes
        self.mm.page(pid).materialise()
        content = self.mm.snapshot_page(pid)
        self.node.reply_to(
            msg,
            MessageKind.PAGE_REPLY,
            {"content": content},
            size=CTRL_MSG_BYTES + len(content),
        )

    def _retry_page_request(self, msg: Message) -> Generator:
        """Re-run a deferred page request, charging the handler cost again."""
        yield from self.node.compute(HANDLER_BASE_COST)
        self._handle_page_request(msg)

    def _retry_waiting(self, pid: int) -> None:
        waiters = self._waiting.pop(pid, [])
        for msg in waiters:
            self.node.sim.spawn(
                self._retry_page_request(msg), name=f"hlrc-retry-{self.node.id}-{pid}"
            )
        tracer = self.node.sim.tracer
        for evt in self._home_events.pop(pid, []):
            if tracer is not None:
                # cause resolves via dispatch context: _retry_waiting runs
                # from the DIFF_PUSH handler that made the home copy current
                tracer.wake(self.node.id, self.node.sim.now)
            evt.set()
