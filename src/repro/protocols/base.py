"""Shared protocol machinery: intervals, diff store, fault handling, barrier.

Every protocol instance lives on one node and implements the
:class:`repro.memory.manager.FaultHandler` interface.  The base class
provides what LRC_d and VC_d share verbatim (the paper: "V C_d ... uses the
same implementation techniques (e.g. the invalidation protocol) as the
LRC_d"):

* interval bookkeeping — ending an interval closes every written page
  against its twin into a pending diff and publishes an
  :class:`IntervalNotice`;
* the **invalidate protocol** — applying a notice invalidates the named
  pages; the faulting access later pulls diffs from the writers
  (``DIFF_REQUEST``/``DIFF_REPLY``) and applies them in Lamport order;
* first-touch handling — a fault on a page nobody holds zero-fills locally;
  a fault on a page someone else created fetches a full base copy
  (``PAGE_REQUEST``/``PAGE_REPLY``) before applying pending diffs;
* the **barrier** — client, manager and both handlers are written once as
  the VOPP barrier (synchronisation only, paper §3.3); LRC makes it
  consistency-maintaining through the five ``_barrier_*`` hooks;
* the **wait plumbing** every blocking primitive uses: :meth:`_park` /
  :meth:`_wake` for the waiter's event, and :meth:`_wait_begin` /
  :meth:`_wait_done`, the one place a barrier or acquire is reported to the
  tracer, the oracle, ``RunStats`` and ``Metrics``.

VC_sd overrides the fault path: its grants piggyback integrated diffs, so it
never sends diff requests.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Generator, Iterable, Optional

from repro.memory.diff import Diff
from repro.memory.manager import MemoryManager
from repro.memory.page import PageState
from repro.net.message import Message, MessageKind
from repro.protocols.timestamps import IntervalNotice
from repro.sim import Event, Timeout

# shared zero-delay hop effect (stateless: apply() only reads it)
_HOP = Timeout(0)

if TYPE_CHECKING:  # pragma: no cover
    from repro.protocols.system import DsmSystem
    from repro.net.cluster import Node

__all__ = ["BaseDsmProtocol", "VoppDisciplineError", "ViewOverlapError"]

# fixed CPU cost of running one protocol handler (dispatch, lookups)
HANDLER_BASE_COST = 5e-6
# CPU cost of processing one write-notice record
NOTICE_PROC_COST = 1e-6
# wire overhead of small control messages
CTRL_MSG_BYTES = 16


class VoppDisciplineError(RuntimeError):
    """A VOPP program accessed shared data outside the required view."""


class ViewOverlapError(RuntimeError):
    """Two views were found to contain the same page (views must not overlap)."""


class BaseDsmProtocol:
    """Per-node protocol instance (see module docstring)."""

    name = "base"

    def __init__(self, system: "DsmSystem", node: "Node"):
        self.system = system
        self.node = node
        self.mm = MemoryManager(node, system.space)
        self.mm.fault_handler = self
        self.stats = system.stats_for(node.id)
        self.directory = system.directory
        # interval machinery
        self.interval_seq = 0  # index of the last *completed* own interval
        self.lamport = 0  # scalar clock, max over everything seen
        self.diff_store: dict[tuple[int, int], list[Diff]] = {}  # (pid, idx) -> diffs
        # (pid, idx) -> wire bytes of that interval's stored diffs, summed on
        # its first DIFF_REQUEST (most stored intervals are never asked for)
        self.reply_bytes: dict[tuple[int, int], int] = {}
        self._early_flush: dict[int, list[Diff]] = {}  # current interval's flushes
        # invalidation bookkeeping
        self.pending: dict[int, list[IntervalNotice]] = {}  # pid -> unapplied notices
        # local processes blocked on a grant or a barrier release, by
        # ("lock" | "view" | "barrier", id)
        self._parked: dict[tuple[str, int], Event] = {}
        # barrier client state, and the manager's (node 0 only)
        self._barrier_gen = 0
        self._barrier_arrivals: list[tuple] = []  # (node, gen, carried)
        self._register_handlers()

    # -- wiring ---------------------------------------------------------------

    def _register_handlers(self) -> None:
        self.node.register_handler(
            MessageKind.DIFF_REQUEST, self._handle_diff_request, cost=HANDLER_BASE_COST
        )
        self.node.register_handler(
            MessageKind.PAGE_REQUEST, self._handle_page_request, cost=HANDLER_BASE_COST
        )
        self.node.register_handler(MessageKind.BARRIER_ARRIVE, self._handle_barrier_arrive)
        self.node.register_handler(MessageKind.BARRIER_RELEASE, self._handle_barrier_release)

    @property
    def nprocs(self) -> int:
        return self.system.nprocs

    def peer(self, i: int) -> "BaseDsmProtocol":
        return self.system.protocols[i]

    # -- interval lifecycle -----------------------------------------------------

    def end_interval(self) -> Generator:
        """Close the current interval (``yield from``).

        Closes every written page against its twin (charging the scan cost
        here, although a diff's runs are built only when something first
        reads it), stores the diffs locally for later diff requests, and
        returns the :class:`IntervalNotice` — or ``None`` if nothing was
        written.
        """
        dirty_pages = len(self.mm.write_set)
        if dirty_pages:
            # diffing scans each written page against its twin
            yield from self.node.copy_cost(dirty_pages * self.system.space.page_size)
        end_diffs = self.mm.end_interval()
        pages: dict[int, list[Diff]] = {}
        for pid, flushed in self._early_flush.items():
            pages.setdefault(pid, []).extend(flushed)
        self._early_flush = {}
        for pid, diff in end_diffs.items():
            pages.setdefault(pid, []).append(diff)
        if not pages:
            return None
        self.interval_seq += 1
        self.lamport += 1
        idx = self.interval_seq
        now = self.node.sim.now
        for pid, diffs in pages.items():
            self.diff_store[(pid, idx)] = diffs
            self.directory.note_writer(pid, self.node.id, now)
        # the oracle is told what the interval closed, not what the notice says
        closed = tuple(sorted(pages))
        notice = IntervalNotice(
            node=self.node.id,
            idx=idx,
            lamport=self.lamport,
            pages=closed,
        )
        oracle = self.node.sim.oracle
        if oracle is not None:
            oracle.interval(now, self.node.id, idx, closed)
        return notice

    # -- notice handling -----------------------------------------------------------

    def observe_lamport(self, stamp: int) -> None:
        if stamp > self.lamport:
            self.lamport = stamp

    def apply_notices(self, notices: Iterable[IntervalNotice]) -> None:
        """Invalidate the pages named by foreign notices and queue them as
        pending.

        No sender hands a node a notice it has already applied, so there is
        no seen-set to test: LRC grants and barrier releases carry only what
        lies past the receiver's vector clock, which covers every notice it
        applied; a view grant carries the view's log past what the acquirer
        was last given, and a notice sits in one view's log; the transport
        drops a duplicated frame before dispatch.
        Only a page this node holds a copy of changes state.  One being
        written is first flushed as an early diff of the current interval, so
        our own modifications survive the invalidation (TreadMarks does the
        same when a write notice hits a twinned page).
        """
        me = self.node.id
        pending = self.pending
        held = self.mm.pages
        for notice in notices:
            if notice.lamport > self.lamport:
                self.lamport = notice.lamport
            if notice.node == me:
                continue
            for pid in notice.pages:
                queued = pending.get(pid)
                if queued is None:
                    pending[pid] = [notice]
                else:
                    queued.append(notice)
                copy = held.get(pid)
                if copy is None or copy.state is PageState.NO_COPY:
                    continue
                if copy.state is PageState.RW:
                    diff = self.mm.flush_page(pid)
                    if diff is not None:
                        self._early_flush.setdefault(pid, []).append(diff)
                copy.state = PageState.INVALID

    # -- fault handling (invalidate protocol: LRC_d and VC_d) ------------------------

    def read_fault(self, pids: list[int]) -> Generator:
        self.check_read_allowed(pids)
        tracer = self.node.sim.tracer
        if tracer is None:
            yield from self._make_valid(pids)
            return
        tracer.begin(
            self.node.id, "app", "page-fault", f"read fault x{len(pids)}",
            self.node.sim.now, {"pages": list(pids), "mode": "read"},
        )
        yield from self._make_valid(pids)
        tracer.end(self.node.id, "app", "page-fault", self.node.sim.now)

    def write_fault(self, pids: list[int]) -> Generator:
        self.check_write_allowed(pids)
        tracer = self.node.sim.tracer
        if tracer is not None:
            tracer.begin(
                self.node.id, "app", "page-fault", f"write fault x{len(pids)}",
                self.node.sim.now, {"pages": list(pids), "mode": "write"},
            )
        yield from self._make_valid(pids)
        for pid in pids:
            copy = self.mm.page(pid)
            if copy.state is not PageState.RW:
                # twin creation copies the page
                yield from self.node.copy_cost(self.system.space.page_size)
                self.mm.start_writing(pid)
                self.directory.claim_origin(pid, self.node.id, self.node.sim.now)
        if tracer is not None:
            tracer.end(self.node.id, "app", "page-fault", self.node.sim.now)

    def check_read_allowed(self, pids: list[int]) -> None:
        """Protocol-specific access discipline hook (VC enforces views)."""

    def check_write_allowed(self, pids: list[int]) -> None:
        """Protocol-specific access discipline hook (VC enforces views)."""

    def _make_valid(self, pids: list[int]) -> Generator:
        """Bring every page in ``pids`` to a readable state.

        Pages of one block access are fetched **concurrently** (the block
        read/write API knows all faulting pages up front, like a block
        transfer); their replies can therefore burst into this node — which
        is exactly how centralised consumers (the LRC barrier manager reading
        everyone's data) congest their receive buffer.
        """
        faulting = [
            pid for pid in pids if self.mm.state(pid) in (PageState.NO_COPY, PageState.INVALID)
        ]
        if not faulting:
            return
        if len(faulting) == 1:
            # inline fetch runs on the faulting process's own ("app") timeline
            yield from self._make_one_valid(faulting[0], "app")
            return
        fetchers = [
            self.node.sim.spawn(
                self._make_one_valid(pid, f"fetch-{pid}"),
                name=f"fault-{self.node.id}-{pid}",
            )
            for pid in faulting
        ]
        yield from self.node.sim.all_of(fetchers)

    def _make_one_valid(self, pid: int, lane: str = "app") -> Generator:
        if self.mm.state(pid) is PageState.NO_COPY:
            yield from self._fetch_base_copy(pid)
        yield from self._fetch_pending_diffs(pid, lane)

    def _fetch_base_copy(self, pid: int) -> Generator:
        """First touch: zero-fill if nobody has the page, else fetch it."""
        now = self.node.sim.now
        src = self.directory.fetch_source(pid, self.node.id)
        if src is None:
            self.mm.zero_fill(pid)
            self.directory.claim_origin(pid, self.node.id, now)
            oracle = self.node.sim.oracle
            if oracle is not None:
                oracle.zero_fill(now, self.node.id, pid, self.mm.pages[pid].data)
            return
        reply = yield from self.node.request(
            src, MessageKind.PAGE_REQUEST, pid, size=CTRL_MSG_BYTES
        )
        yield from self.node.copy_cost(self.system.space.page_size)
        self.mm.install_full_page(pid, reply.payload)
        oracle = self.node.sim.oracle
        if oracle is not None:
            oracle.install(self.node.sim.now, self.node.id, pid, src, self.mm.pages[pid].data)

    # when a page's pending diff chain from a single writer exceeds this many
    # intervals, fetch the full page instead (TreadMarks' diff-accumulation
    # heuristic); only safe for single-writer chains — a multi-writer page
    # still needs its diffs merged
    FULL_PAGE_FETCH_THRESHOLD = 4

    def _fetch_pending_diffs(self, pid: int, lane: str = "app") -> Generator:
        """Pull and apply every pending diff for ``pid`` (in Lamport order)."""
        notices = self.pending.pop(pid, [])
        if not notices:
            copy = self.mm.pages.get(pid)
            if copy is not None and copy.state is PageState.INVALID:
                copy.state = PageState.RO
            return
        tracer = self.node.sim.tracer
        if tracer is None:
            yield from self._pull_diffs(pid, notices, lane)
            return
        tracer.begin(
            self.node.id, lane, "diff-wait", f"page {pid}",
            self.node.sim.now, {"page": pid, "notices": len(notices)},
        )
        try:
            yield from self._pull_diffs(pid, notices, lane)
        finally:
            tracer.end(self.node.id, lane, "diff-wait", self.node.sim.now)

    def _pull_diffs(self, pid: int, notices: list[IntervalNotice], lane: str) -> Generator:
        by_writer: dict[int, list[int]] = {}
        for notice in notices:
            by_writer.setdefault(notice.node, []).append(notice.idx)
        if len(by_writer) == 1:
            (writer,) = by_writer
            if writer != self.node.id and len(by_writer[writer]) > self.FULL_PAGE_FETCH_THRESHOLD:
                reply = yield from self.node.request(
                    writer, MessageKind.PAGE_REQUEST, pid, size=CTRL_MSG_BYTES
                )
                yield from self.node.copy_cost(self.system.space.page_size)
                self.mm.install_full_page(pid, reply.payload)
                oracle = self.node.sim.oracle
                if oracle is not None:
                    oracle.install(
                        self.node.sim.now, self.node.id, pid, writer,
                        self.mm.pages[pid].data,
                    )
                return
        # fetch from all writers concurrently (TreadMarks issues parallel
        # diff requests), then apply in Lamport order.  Either way the
        # requests leave one zero-delay hop after the fault: the hop stands
        # in for the start of the fetcher process each request once ran in,
        # and it is measurably order-bearing — without it three committed
        # fingerprints change (sor/lrc_d/8, gauss/lrc_d/8, nn/lrc_d/8).  The
        # single-writer case's second hop stands in for that fetcher's exit
        # waking the faulting process; a gathered call's one wake-up needs
        # no such stand-in.
        requests = [
            (writer, MessageKind.DIFF_REQUEST, (pid, sorted(idxs)),
             CTRL_MSG_BYTES + 4 * len(idxs))
            for writer, idxs in sorted(by_writer.items())
        ]
        self.stats.diff_requests += len(requests)
        if len(requests) == 1:
            yield _HOP
            reply = yield from self.node.request(*requests[0])
            yield _HOP
            # one writer's intervals are already in its Lamport order
            diffs_by_idx = reply.payload
            ordered = [d for idx in sorted(diffs_by_idx) for d in diffs_by_idx[idx]]
        else:
            replies = yield self.node.transport.call_all(requests)
            lamport_of = {(n.node, n.idx): n.lamport for n in notices}
            collected: list[tuple[tuple[int, int, int], Diff]] = []
            for (writer, _, _, _), reply in zip(requests, replies):
                for idx, diffs in reply.payload.items():
                    lamport = lamport_of[(writer, idx)]
                    for k, diff in enumerate(diffs):
                        collected.append(((lamport, writer, k), diff))
            collected.sort(key=lambda item: item[0])
            ordered = [diff for _, diff in collected]
        nbytes = sum(d.changed_bytes for d in ordered)
        tracer = self.node.sim.tracer
        if tracer is not None:
            writers = [w for w, *_ in requests]
            tracer.instant(self.node.id, lane, "diff", "diff pull", self.node.sim.now,
                           {"page": pid, "bytes": nbytes, "writers": writers})
        if nbytes:
            yield from self.node.copy_cost(nbytes)
        self.mm.apply_diffs(pid, ordered)
        oracle = self.node.sim.oracle
        if oracle is not None:
            oracle.apply(
                self.node.sim.now, self.node.id, pid,
                tuple(sorted(n.key() for n in notices)),
                self.mm.pages[pid].data,
            )

    # -- remote handlers ---------------------------------------------------------------

    def _handle_diff_request(self, msg: Message) -> None:
        pid, idxs = msg.payload
        store = self.diff_store
        sized = self.reply_bytes
        diffs_by_idx: dict[int, list[Diff]] = {}
        size = CTRL_MSG_BYTES
        for idx in idxs:
            key = (pid, idx)
            diffs = store.get(key)
            if diffs is None:
                raise RuntimeError(
                    f"node {self.node.id}: no stored diff for page {pid} "
                    f"interval {idx} (requested by node {msg.src})"
                )
            diffs_by_idx[idx] = diffs
            nbytes = sized.get(key)
            if nbytes is None:
                nbytes = sized[key] = sum(d.wire_size for d in diffs)
            size += nbytes
        self.node.reply_to(msg, MessageKind.DIFF_REPLY, diffs_by_idx, size)

    def _handle_page_request(self, msg: Message) -> None:
        content = self.mm.snapshot_page(msg.payload)
        self.node.reply_to(
            msg,
            MessageKind.PAGE_REPLY,
            content,
            size=CTRL_MSG_BYTES + len(content),
        )

    # -- waiting: one park/wake pair, one recorder fan-out --------------------------

    def _park(self, key: tuple[str, int]) -> Event:
        """The event the calling process waits on until ``key`` is woken."""
        evt = self._parked[key] = Event(self.node.sim)
        return evt

    def _wake(self, key: tuple[str, int], value: Any = None) -> None:
        """Resume the local process parked under ``key`` with ``value``.

        The tracer resolves the cause itself: called from a message handler
        the wake is attributed to that message, a purely local wake (the
        manager granting to itself) records nothing.
        """
        evt = self._parked.pop(key)
        tracer = self.node.sim.tracer
        if tracer is not None:
            tracer.wake(self.node.id, self.node.sim.now)
        evt.set(value)

    def _wait_begin(self, kind: str, obj: int, mode: Optional[str] = None) -> float:
        """Open the wait span of a ``"barrier"`` (``obj`` is the caller's
        barrier id), a ``"lock"`` or a ``"view"`` acquire (``mode`` given);
        returns the start time for :meth:`_wait_done`."""
        t0 = self.node.sim.now
        tracer = self.node.sim.tracer
        if tracer is not None:
            if kind == "barrier":
                cat, name, args = "barrier-wait", f"barrier {obj}", {"bid": obj}
            elif mode is None:
                cat, name, args = "acquire-wait", f"lock {obj}", {"lock": obj}
            else:
                cat, name = "acquire-wait", f"view {obj} ({mode})"
                args = {"view": obj, "mode": mode}
            tracer.begin(self.node.id, "app", cat, name, t0, args)
        return t0

    def _wait_done(self, kind: str, obj: int, t0: float, mode: Optional[str] = None) -> None:
        """The wait is over: tell every recorder, here and nowhere else.

        Oracle edge (``obj`` is the episode number for a barrier; a lock is
        an exclusive acquire), tracer span end (``Metrics`` folds its wait
        histograms from it) and ``RunStats`` timer (always on: the paper's
        Barrier/Acquire Time rows).
        """
        sim = self.node.sim
        now = sim.now
        nid = self.node.id
        barrier = kind == "barrier"
        oracle = sim.oracle
        if oracle is not None:
            if barrier:
                oracle.barrier_exit(now, nid, obj)
            else:
                oracle.acquire(now, nid, kind, obj, mode or "w")
        tracer = sim.tracer
        if tracer is not None:
            tracer.end(nid, "app", "barrier-wait" if barrier else "acquire-wait", now)
        if barrier:
            self.stats.add_barrier_time(now - t0)
        else:
            self.stats.add_acquire_time(now - t0)

    # -- barrier ---------------------------------------------------------------------------

    BARRIER_MANAGER = 0

    def barrier(self, bid: int = 0) -> Generator:
        """Global barrier (``yield from``): arrive at node 0, wait for its release.

        As written here it only synchronises — a ``CTRL_MSG_BYTES``
        arrive/release exchange, no notices, no consistency processing:
        "Barriers in VOPP simply synchronize the processors without any
        consistency maintenance" (paper §3.3), and the VC protocols use it
        unchanged.  LRC overrides the ``_barrier_*`` hooks below.
        """
        t0 = self._wait_begin("barrier", bid)
        yield from self._barrier_publish()
        gen = self._barrier_gen
        self._barrier_gen += 1
        oracle = self.node.sim.oracle
        if oracle is not None:
            oracle.barrier_arrive(self.node.sim.now, self.node.id, gen)
        evt = self._park(("barrier", gen))
        local = self.node.id == self.BARRIER_MANAGER
        carried, size = self._barrier_arrival(local)
        if local:
            self._manager_note_arrival((self.node.id, gen, carried))
        else:
            yield from self.node.send_reliable(
                self.BARRIER_MANAGER,
                MessageKind.BARRIER_ARRIVE,
                (self.node.id, gen, carried),
                size=CTRL_MSG_BYTES + size,
            )
        released = yield evt.wait()
        yield from self._barrier_absorb(released)
        self._wait_done("barrier", gen, t0)

    def _handle_barrier_arrive(self, msg: Message) -> Generator:
        assert self.node.id == self.BARRIER_MANAGER
        yield from self._barrier_receive(msg.payload[2])
        self._manager_note_arrival(msg.payload)

    def _manager_note_arrival(self, arrival: tuple) -> None:
        """Collect one ``(node, gen, carried)``; the last one releases everybody."""
        self._barrier_arrivals.append(arrival)
        left = self.nprocs - len(self._barrier_arrivals)
        tracer = self.node.sim.tracer
        if tracer is not None:
            tracer.instant(self.node.id, "manager", "barrier", "arrival",
                           self.node.sim.now, {"gen": arrival[1], "left": left})
        if left:
            return
        arrivals, self._barrier_arrivals = self._barrier_arrivals, []
        self.stats.count_barrier_episode()
        for (node_id, gen, _), (released, size) in zip(
            arrivals, self._barrier_releases(arrivals)
        ):
            if node_id == self.node.id:
                self._wake(("barrier", gen), released)
            else:
                self.node.sim.spawn(
                    self.node.send_reliable(
                        node_id,
                        MessageKind.BARRIER_RELEASE,
                        (gen, released),
                        CTRL_MSG_BYTES + size,
                    ),
                    name=f"barrier-release-{node_id}",
                )

    def _handle_barrier_release(self, msg: Message) -> Generator:
        yield from self.node.compute(HANDLER_BASE_COST)
        gen, released = msg.payload
        self._wake(("barrier", gen), released)

    # the consistency a barrier maintains, in the order a barrier meets it;
    # the defaults maintain none (wire sizes are on top of CTRL_MSG_BYTES)

    def _barrier_publish(self) -> Generator:
        """Client, before arriving."""
        return
        yield  # pragma: no cover

    def _barrier_arrival(self, local: bool) -> tuple[Any, int]:
        """Client: what the arrival carries to the manager, and its wire size
        (``local``: this node is the manager, nothing travels)."""
        return None, 0

    def _barrier_receive(self, carried: Any) -> Generator:
        """Manager: the handler's work for one remote arrival."""
        return self.node.compute(HANDLER_BASE_COST)

    def _barrier_releases(self, arrivals: list[tuple]) -> Iterable[tuple[Any, int]]:
        """Manager: per arrival, in order, what its release carries and the
        wire size."""
        return [(None, 0)] * len(arrivals)

    def _barrier_absorb(self, released: Any) -> Generator:
        """Client, on release."""
        return
        yield  # pragma: no cover
