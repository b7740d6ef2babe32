"""Reliable transport over the lossy NIC/switch layer.

Three communication idioms, mirroring what a TreadMarks-era DSM built over
UDP:

* :meth:`Transport.post` — unreliable one-way datagram (used for transport
  acks only);
* :meth:`Transport.send_reliable` — one-way message, acked by the receiver's
  transport, retransmitted on timeout (used for write-notice pushes, barrier
  arrivals, view releases);
* :meth:`Transport.request` — request/reply RPC; the reply is the implicit
  ack, the *requester* retransmits on timeout, and the receiver caches
  replies per request id so duplicated requests never re-run the handler
  (at-most-once execution).

Every in-flight reliable send and request is one *pending record* in one
table.  The ack or reply pops the record, cancels its retransmission timer
(:meth:`Simulator.cancel_timer` — an answered timer never becomes an event)
and resumes the sender in place, inside the RX completion that delivered
the answer, so an answer costs no event beyond its frame's two; the timer's
callback is the retransmission, and after ``max_retries`` of them it throws
:class:`RequestError` into the sender.  :meth:`Transport.call_all` issues
several requests behind one waiter, so a caller fetching from k peers is
resumed once, not k times through k helper processes.

The first transmission puts the record's own message on the wire; a
retransmission replaces the record's message with a copy before bumping its
``attempt``, so a copy already in flight is never mutated.

Every copy waits the same ``NetConfig.rexmit_timeout`` (1 s by default, the
paper's observed behaviour), so all retransmission timers share one delay
and sit in the simulator's timer FIFO in deadline order.

Duplicate-suppression state (``_seen_reliable``, ``_reply_cache``) is
bounded: entries are evicted once they are older than the *duplicate
horizon*, ``(max_retries + 2) * rexmit_timeout``, which keeps the
at-most-once guarantee while holding table sizes proportional to in-flight
traffic rather than run length.  The transport keeps a lower bound on the
oldest stamp of either table and runs the eviction only on a receipt at
which that bound has expired, so a receipt that finds nothing to evict
costs one comparison.

A cached reply is usually dropped long before the horizon.  When a reply
answers a request that went on the wire once (``attempt == 0``) and no
installed fault plan can duplicate frames (``FaultInjector.duplicating``;
loss, latency and reordering never put a second copy on the wire), the
server answered the only copy, so no copy can arrive again: the requester's
transport pops the entry from the server's ``_reply_cache`` through the
run's transport list.  This is host-memory bookkeeping with no simulated
counterpart (a real server would need an ack to learn it) and moves no
event; a fault-free run ends with every reply cache empty.

Statistics: original sends are counted in ``NetStats.num_msg``/``data_bytes``
(replies too, acks not); every retransmission increments ``rexmit``.
"""

from __future__ import annotations

from math import inf
from typing import TYPE_CHECKING, Any, Callable, Generator, Iterator, Optional, Sequence

from repro.sim import Simulator
from repro.sim.engine import Effect, Process

from repro.net.message import Message, MessageKind

# tested on every received frame, so bound once (docs/simulator.md, "What a
# state test costs")
ACK = MessageKind.ACK

if TYPE_CHECKING:  # pragma: no cover
    from repro.net.config import NetConfig
    from repro.net.nic import Nic
    from repro.net.stats import NetStats

__all__ = ["Transport", "RequestError", "Waiter"]


class RequestError(RuntimeError):
    """A reliable send or request exhausted its retransmission budget.

    Carries structured context (``node``, ``dst``, ``kind``, ``attempts``,
    ``sim_time``) so the run level can escalate it into a
    :class:`repro.faults.failure.RunFailure` diagnostic instead of a
    traceback.
    """

    def __init__(
        self,
        message: str,
        *,
        node: "int | None" = None,
        dst: "int | None" = None,
        kind: "str | None" = None,
        attempts: "int | None" = None,
        sim_time: "float | None" = None,
    ):
        super().__init__(message)
        self.node = node
        self.dst = dst
        self.kind = kind
        self.attempts = attempts
        self.sim_time = sim_time


class Waiter(Effect):
    """What a waiting process yields: suspends it until all ``left`` of its
    answers are in, then resumes it once with ``results`` (one slot per
    answer, in the order they were asked for).  ``send``, if given, runs one
    zero-delay hop after the process suspends.

    Whoever delivers the last answer, or throws a failure into the process,
    resumes it in place (``proc._resume``) from an event callback, never
    from a process; :meth:`live` is true until then.  ``MpiComm.recv`` parks
    on a ``Waiter(1)`` and is resumed with the data itself, not ``results``.
    """

    __slots__ = ("send", "proc", "results", "left")

    def __init__(self, n: int, send: Optional[Callable[[Waiter], None]] = None):
        self.send = send
        self.results: list = [None] * n
        self.left = n

    def apply(self, sim: Simulator, proc: Process) -> None:
        self.proc = proc
        if self.send is not None:
            sim.call_soon(self.send, self)

    def live(self) -> bool:
        """The process still waits on this yield: answers are missing and
        no failure was thrown into it (a failure zeroes ``left``)."""
        return self.left > 0


class _Pending:
    """One unanswered reliable send or request; ``msg.attempt`` counts its
    retransmissions and ``timer`` is the armed ``schedule_timer`` handle."""

    __slots__ = ("msg", "waiter", "slot", "timer")

    def __init__(self, msg: Message, waiter: Waiter, slot: int):
        self.msg = msg
        self.waiter = waiter
        self.slot = slot  # index into waiter.results


class Transport:
    """Per-node reliable messaging endpoint.

    The dispatcher (in :mod:`repro.net.cluster`) feeds every received message
    through :meth:`on_receive`; messages consumed by the transport (acks,
    duplicate suppressions, reply matching) return ``None``, everything else
    is returned for protocol-level dispatch.  ``ids`` numbers the messages
    it creates; every transport of a cluster draws from the same one.
    ``transports`` is the run's transport list, indexed by node id (filled
    by the cluster once every node exists), through which an answered
    request's cached reply is dropped at its server.
    """

    def __init__(self, sim: Simulator, node_id: int, nic: "Nic", cfg: "NetConfig",
                 stats: "NetStats", ids: Iterator[int], transports: "Sequence[Transport]"):
        self.sim = sim
        self.node_id = node_id
        self.nic = nic
        self.cfg = cfg
        self.stats = stats
        self._ids = ids
        self._transports = transports
        # msg_id -> record of every reliable send awaiting its ack and every
        # request awaiting its reply (a request's req_id is its msg_id)
        self._pending: dict[int, _Pending] = {}
        # (src, id) -> simulated time of first receipt; insertion order ==
        # time order.  Keyed by source as well as id: the receiver only
        # relies on ids being unique per sender.
        self._seen_reliable: dict[tuple[int, int], float] = {}
        # (src, req_id) -> (time cached, reply); insertion order == time order
        self._reply_cache: dict[tuple[int, int], tuple[float, Message]] = {}
        self._requests_in_progress: set[tuple[int, int]] = set()
        # a lower bound on the oldest stamp in either table (``inf`` when
        # the last scan left both empty and nothing came since): a reply
        # popped early leaves its stamp here until the next scan
        self._oldest = inf
        # a duplicate of a message first received at t can arrive no later
        # than t + the retry window (max_retries + 1 timeouts) plus delivery
        # delays; one more timeout of slack absorbs those delays
        self._dup_horizon = (cfg.max_retries + 2) * cfg.rexmit_timeout

    # -- send paths -------------------------------------------------------------

    def post(self, msg: Message) -> None:
        """Fire-and-forget, unreliable, uncounted except for acks."""
        self.nic.send(msg)

    def send_reliable(self, dst: int, kind: MessageKind, payload: Any, size: int) -> Generator:
        """One-way reliable send; completes when the receiver acked.

        Usage: ``yield from transport.send_reliable(...)``.
        """
        waiter = Waiter(1)
        self._transmit(waiter, 0, dst, kind, payload, size, need_ack=True)
        yield waiter

    def request(self, dst: int, kind: MessageKind, payload: Any, size: int) -> Generator:
        """Request/reply RPC; resumes with the reply :class:`Message`."""
        waiter = Waiter(1)
        self._transmit(waiter, 0, dst, kind, payload, size, need_ack=False)
        return (yield waiter)[0]

    def call_all(self, requests: Sequence[tuple[int, MessageKind, Any, int]]) -> Effect:
        """Effect: issue every ``(dst, kind, payload, size)`` request at once.

        ``replies = yield transport.call_all([...])`` queues one zero-delay
        hop, sends the requests in list order and resumes the caller once,
        when the last reply is in, with the reply messages in request order.
        Each request retransmits on its own timer; the first to exhaust its
        budget fails the call.
        """
        if not requests:
            raise ValueError("call_all needs at least one request")

        def send(waiter: Waiter) -> None:
            for slot, (dst, kind, payload, size) in enumerate(requests):
                self._transmit(waiter, slot, dst, kind, payload, size, need_ack=False)

        return Waiter(len(requests), send)

    def pending_counts(self) -> tuple[int, int]:
        """``(unacked reliable sends, unanswered requests)`` in flight."""
        acks = sum(1 for rec in self._pending.values() if rec.msg.need_ack)
        return acks, len(self._pending) - acks

    def reply_to(self, req: Message, kind: MessageKind, payload: Any, size: int) -> None:
        """Send (and cache) the reply to a request message."""
        reply = Message(self.node_id, req.src, kind, payload, size, next(self._ids),
                        False, req.req_id, True)
        self.stats.count_send(kind, size)
        now = self.sim.now
        tracer = self.sim.tracer
        if tracer is not None:
            tracer.causal_send(reply.msg_id, self.node_id, now, kind._name_)
        key = (req.src, req.req_id)
        self._reply_cache[key] = (now, reply)
        if now < self._oldest:
            self._oldest = now
        self._requests_in_progress.discard(key)
        self.nic.send(reply)

    def _transmit(self, waiter: Waiter, slot: int, dst: int, kind: MessageKind,
                  payload: Any, size: int, need_ack: bool) -> None:
        """Create a message, count it and put its first copy on the wire."""
        # positional: keyword calls into ``Message.__init__`` cost twice as much
        msg = Message(self.node_id, dst, kind, payload, size, next(self._ids), need_ack)
        if not need_ack:
            msg.req_id = msg.msg_id
        self.stats.count_send(kind, size)
        tracer = self.sim.tracer
        if tracer is not None:
            tracer.causal_send(msg.msg_id, self.node_id, self.sim.now, kind._name_)
        rec = self._pending[msg.msg_id] = _Pending(msg, waiter, slot)
        self._send_copy(rec)

    def _send_copy(self, rec: _Pending) -> None:
        """Transmit ``rec.msg`` and arm its timer.

        Every transmitted copy — including the final retransmission — gets a
        full timeout for its ack/reply to come back before
        :class:`RequestError` is raised, so ``max_retries + 1`` copies hit
        the wire in the worst case and each one can complete the send.  The
        timer names its record by id: holding the record would tie record
        and timer handle into a cycle only the (paused) collector could free.
        """
        msg = rec.msg
        self.nic.send(msg)
        rec.timer = self.sim.schedule_timer(
            self.cfg.rexmit_timeout, self._on_timeout, msg.msg_id
        )

    def _on_timeout(self, msg_id: int) -> None:
        """A transmitted copy's timeout ran out: retransmit or give up.  An
        answered record's timer was cancelled, so the record is pending."""
        rec = self._pending[msg_id]
        msg = rec.msg
        waiter = rec.waiter
        if not waiter.live():
            # another request of the same call failed it: nobody is left
            # to retransmit for
            del self._pending[msg_id]
        elif msg.attempt == self.cfg.max_retries:
            del self._pending[msg_id]
            waiter.left = 0
            waiter.proc._resume(None, RequestError(
                f"node {self.node_id}: {msg.kind} to {msg.dst} lost after "
                f"{self.cfg.max_retries} retries",
                node=self.node_id,
                dst=msg.dst,
                kind=msg.kind.name,
                attempts=self.cfg.max_retries,
                sim_time=self.sim.now,
            ))
        else:
            # the copy on the wire stays as sent; the retransmission is a new one
            rec.msg = msg = msg.wire_copy()
            msg.attempt += 1
            self.stats.count_rexmit(msg.size, msg.kind)
            tracer = self.sim.tracer
            if tracer is not None:
                tracer.instant(
                    self.node_id, "transport", "tx",
                    f"rexmit {msg.kind._name_}->{msg.dst}", self.sim.now,
                    {"attempt": msg.attempt, "bytes": msg.size},
                )
            self._send_copy(rec)

    def _answered(self, msg_id: int, cause: int, value: Any) -> None:
        """The ack or reply for pending record ``msg_id`` arrived (if it is
        still pending): disarm it and, once all are in, resume its sender in
        place — this runs inside the RX completion event that delivered it."""
        rec = self._pending.pop(msg_id, None)
        if rec is None:
            return  # stale or duplicate
        tracer = self.sim.tracer
        if tracer is not None:
            tracer.wake(self.node_id, self.sim.now, msg_id=cause)
        self.sim.cancel_timer(rec.timer)
        msg = rec.msg
        if not msg.need_ack and not msg.attempt:
            faults = self.sim.faults
            if faults is None or not faults.duplicating:
                # the server answered the only copy of this request, and no
                # timer is left to send another: its cached reply is dead.
                # It is still cached: the reply came back within one
                # timeout of the request, well inside the horizon.
                self._transports[msg.dst]._reply_cache.pop((self.node_id, msg_id))
        waiter = rec.waiter
        if not waiter.live():
            return  # a sibling request already failed the call
        waiter.results[rec.slot] = value
        waiter.left -= 1
        if not waiter.left:
            waiter.proc._resume(waiter.results)

    # -- receive path -------------------------------------------------------------

    def on_receive(self, msg: Message) -> Message | None:
        """Filter a received message; return it iff the protocol should see it."""
        if msg.kind is ACK:
            # the wake's cause is the *original* message (acks have no send
            # edge), whose edge points back at this very node — so the
            # critical-path walk charges the whole round trip to wire and
            # continues locally at the original send time
            self._answered(msg.payload, msg.payload, None)
            return None
        if msg.need_ack:
            ack = Message(self.node_id, msg.src, ACK, msg.msg_id,
                          self.cfg.ack_bytes, next(self._ids))
            self.stats.count_ack()
            self.post(ack)
            seen = self._seen_reliable
            if (msg.src, msg.msg_id) in seen:
                return None  # duplicate of an already-delivered reliable send
            now = self.sim.now
            seen[(msg.src, msg.msg_id)] = now
            if now < self._oldest:
                self._oldest = now
            elif self._oldest < now - self._dup_horizon:
                self._evict_expired(now)
            return msg
        if msg.is_reply:
            self._answered(msg.req_id, msg.msg_id, msg)
            return None
        if msg.req_id is not None:
            key = (msg.src, msg.req_id)
            cached = self._reply_cache.get(key)
            if cached is not None:
                # reply was lost: resend it without re-running the handler
                self.stats.count_rexmit(cached[1].size, cached[1].kind)
                self.nic.send(cached[1].wire_copy())
                return None
            if key in self._requests_in_progress:
                return None  # duplicate while the handler is still running
            self._requests_in_progress.add(key)
            now = self.sim.now
            if self._oldest < now - self._dup_horizon:
                self._evict_expired(now)
            return msg
        return msg

    def _evict_expired(self, now: float) -> None:
        """Drop duplicate-suppression entries older than the horizon.

        Both tables are insertion-ordered dicts stamped with monotone
        simulated time, so expired entries sit at the front and the oldest
        stamp is a front's.  A receipt calls this only when that stamp is
        older than ``now - _dup_horizon``.  That stamp is a lower bound (an
        early pop in :meth:`_answered` can remove the entry it came from),
        so a call may delete nothing; it then only tightens the bound.
        """
        cutoff = now - self._dup_horizon
        oldest = inf
        seen = self._seen_reliable
        while seen:
            key = next(iter(seen))
            stamp = seen[key]
            if stamp >= cutoff:
                oldest = stamp
                break
            del seen[key]
        cache = self._reply_cache
        while cache:
            key = next(iter(cache))
            stamp = cache[key][0]
            if stamp >= cutoff:
                oldest = min(oldest, stamp)
                break
            del cache[key]
        self._oldest = oldest
