"""Shared protocol machinery: intervals, diff store, fault handling.

Every protocol instance lives on one node and implements the
:class:`repro.memory.manager.FaultHandler` interface.  The base class
provides what LRC_d and VC_d share verbatim (the paper: "V C_d ... uses the
same implementation techniques (e.g. the invalidation protocol) as the
LRC_d"):

* interval bookkeeping — ending an interval diffs all written pages against
  their twins and publishes an :class:`IntervalNotice`;
* the **invalidate protocol** — applying a notice invalidates the named
  pages; the faulting access later pulls diffs from the writers
  (``DIFF_REQUEST``/``DIFF_REPLY``) and applies them in Lamport order;
* first-touch handling — a fault on a page nobody holds zero-fills locally;
  a fault on a page someone else created fetches a full base copy
  (``PAGE_REQUEST``/``PAGE_REPLY``) before applying pending diffs.

VC_sd overrides the fault path: its grants piggyback integrated diffs, so it
never sends diff requests.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Generator, Iterable, Optional

from repro.memory.diff import Diff
from repro.memory.manager import MemoryManager
from repro.memory.page import PageState
from repro.net.message import Message, MessageKind
from repro.protocols.timestamps import IntervalNotice
from repro.sim import Timeout

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
        self._early_flush: dict[int, list[Diff]] = {}  # current interval's flushes
        # invalidation bookkeeping
        self.pending: dict[int, list[IntervalNotice]] = {}  # pid -> unapplied notices
        self.seen_keys: set[tuple[int, int]] = set()  # applied (node, idx)
        self._register_handlers()

    # -- wiring ---------------------------------------------------------------

    def _register_handlers(self) -> None:
        self.node.register_handler(
            MessageKind.DIFF_REQUEST, self._handle_diff_request, cost=HANDLER_BASE_COST
        )
        self.node.register_handler(
            MessageKind.PAGE_REQUEST, self._handle_page_request, cost=HANDLER_BASE_COST
        )

    @property
    def nprocs(self) -> int:
        return self.system.nprocs

    def peer(self, i: int) -> "BaseDsmProtocol":
        return self.system.protocols[i]

    # -- interval lifecycle -----------------------------------------------------

    def end_interval(self) -> Generator:
        """Close the current interval (``yield from``).

        Diffs every written page against its twin (charging the scan cost),
        stores the diffs locally for later diff requests, and returns the
        :class:`IntervalNotice` — or ``None`` if nothing was written.
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
        notice = IntervalNotice(
            node=self.node.id,
            idx=idx,
            lamport=self.lamport,
            pages=tuple(sorted(pages)),
        )
        oracle = self.node.sim.oracle
        if oracle is not None:
            oracle.interval(now, self.node.id, idx, notice.pages)
        return notice

    # -- notice handling -----------------------------------------------------------

    def observe_lamport(self, stamp: int) -> None:
        if stamp > self.lamport:
            self.lamport = stamp

    def apply_notices(self, notices: Iterable[IntervalNotice]) -> None:
        """Invalidate pages named by unseen notices and queue them as pending."""
        for notice in notices:
            self.observe_lamport(notice.lamport)
            if notice.node == self.node.id:
                continue
            key = notice.key()
            if key in self.seen_keys:
                continue
            self.seen_keys.add(key)
            for pid in notice.pages:
                self.pending.setdefault(pid, []).append(notice)
                self._invalidate_page(pid)

    def _invalidate_page(self, pid: int) -> None:
        copy = self.mm.pages.get(pid)
        if copy is None or copy.state is PageState.NO_COPY:
            return
        if copy.state is PageState.RW:
            # our own modifications must survive the invalidation: flush them
            # as an early diff of the current interval (TreadMarks does the
            # same when a write notice hits a twinned page)
            diff = self.mm.flush_page(pid)
            if diff is not None:
                self._early_flush.setdefault(pid, []).append(diff)
        self.mm.invalidate([pid])

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
        src = self.directory.fetch_source(pid, self.node.id, now)
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
            yield from self._pull_diffs(pid, notices)
            return
        tracer.begin(
            self.node.id, lane, "diff-wait", f"page {pid}",
            self.node.sim.now, {"page": pid, "notices": len(notices)},
        )
        try:
            yield from self._pull_diffs(pid, notices)
        finally:
            tracer.end(self.node.id, lane, "diff-wait", self.node.sim.now)

    def _pull_diffs(self, pid: int, notices: list[IntervalNotice]) -> Generator:
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
        metrics = self.node.sim.metrics
        for writer, _, _, _ in requests:
            self.stats.count_diff_request()
            if metrics is not None:
                metrics.inc("diff_requests", 1, page=pid, writer=writer)
        if len(requests) == 1:
            yield _HOP
            reply = yield from self.node.request(*requests[0])
            yield _HOP
            # one writer's intervals are already in its Lamport order
            diffs_by_idx = reply.payload
            ordered = [d for idx in sorted(diffs_by_idx) for d in diffs_by_idx[idx]]
        else:
            replies = yield self.node.transport.call_all(requests)
            collected: list[tuple[tuple[int, int], Diff]] = []
            for (writer, _, _, _), reply in zip(requests, replies):
                lamport_of = {n.idx: n.lamport for n in notices if n.node == writer}
                for idx, diffs in reply.payload.items():
                    for k, diff in enumerate(diffs):
                        collected.append(((lamport_of[idx], writer, k), diff))
            collected.sort(key=lambda item: item[0])
            ordered = [diff for _, diff in collected]
        nbytes = sum(d.changed_bytes for d in ordered)
        metrics = self.node.sim.metrics
        if metrics is not None:
            metrics.inc("diff_bytes", nbytes, page=pid)
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
        diffs_by_idx: dict[int, list[Diff]] = {}
        size = CTRL_MSG_BYTES
        for idx in idxs:
            diffs = self.diff_store.get((pid, idx))
            if diffs is None:
                raise RuntimeError(
                    f"node {self.node.id}: no stored diff for page {pid} "
                    f"interval {idx} (requested by node {msg.src})"
                )
            diffs_by_idx[idx] = diffs
            size += sum(d.wire_size for d in diffs)
        self.node.reply_to(msg, MessageKind.DIFF_REPLY, diffs_by_idx, size)

    def _handle_page_request(self, msg: Message) -> None:
        content = self.mm.snapshot_page(msg.payload)
        self.node.reply_to(
            msg,
            MessageKind.PAGE_REPLY,
            content,
            size=CTRL_MSG_BYTES + len(content),
        )

    # -- synchronisation API (implemented by subclasses) ------------------------------

    def barrier(self, bid: int = 0) -> Generator:  # pragma: no cover - abstract
        raise NotImplementedError

    def finish(self) -> Generator:
        """Hook run by the program runner when a worker finishes (no-op)."""
        return
        yield  # pragma: no cover
