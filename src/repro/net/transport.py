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

Retransmission waits use :meth:`Event.wait_timeout` — the kernel's
cancellable wait primitive — so each ack/timeout race costs zero auxiliary
event or callback allocations and the losing wake-up is deregistered.

Retransmission timing follows :meth:`NetConfig.retry_schedule`: a fixed
1 s timeout by default (the paper's observed behaviour), optionally
exponential backoff (``backoff_factor``/``backoff_max``) with deterministic
per-message jitter (``backoff_jitter``) derived from a run-local send
sequence number and the attempt — no RNG state, so runs stay
bit-reproducible even when replayed inside one process.

Duplicate-suppression state (``_seen_reliable``, ``_reply_cache``) is
bounded: entries are evicted once they are older than the *duplicate
horizon* — derived from the configured worst-case retry window
(:meth:`NetConfig.worst_case_retry_window`, every timeout at full jitter
stretch) plus one base timeout of slack for delivery delays — which keeps
the at-most-once guarantee under any backoff schedule while holding table
sizes proportional to in-flight traffic rather than run length.

Statistics: original sends are counted in ``NetStats.num_msg``/``data_bytes``
(replies too, acks not); every retransmission increments ``rexmit``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Generator

from repro.sim import Event, Simulator, TIMED_OUT

from repro.net.message import Message, MessageKind

if TYPE_CHECKING:  # pragma: no cover
    from repro.net.config import NetConfig
    from repro.net.nic import Nic
    from repro.net.stats import NetStats

__all__ = ["Transport", "RequestError"]


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


def _jitter_unit(key: int, attempt: int) -> float:
    """Deterministic pseudo-random fraction in [0, 1) for retry jitter.

    A cheap integer hash of (send key, attempt): no RNG object, no global
    state, so jittered schedules replay identically and perturb nothing
    else.  The key is a *run-local* per-endpoint sequence number (not the
    process-global message id, which would differ between two runs executed
    in the same process and break in-process replay).
    """
    x = (key * 2654435761 + attempt * 40503) & 0xFFFFFFFF
    x ^= x >> 16
    x = (x * 2246822519) & 0xFFFFFFFF
    x ^= x >> 13
    return x / 4294967296.0


class Transport:
    """Per-node reliable messaging endpoint.

    The dispatcher (in :mod:`repro.net.cluster`) feeds every received message
    through :meth:`on_receive`; messages consumed by the transport (acks,
    duplicate suppressions, reply matching) return ``None``, everything else
    is returned for protocol-level dispatch.
    """

    def __init__(self, sim: Simulator, node_id: int, nic: "Nic", cfg: "NetConfig", stats: "NetStats"):
        self.sim = sim
        self.node_id = node_id
        self.nic = nic
        self.cfg = cfg
        self.stats = stats
        self._ack_events: dict[int, Event] = {}
        self._pending_replies: dict[int, Event] = {}
        # (src, id) -> simulated time of first receipt; insertion order ==
        # time order.  Keyed by source as well as id: the receiver only
        # relies on ids being unique per sender.
        self._seen_reliable: dict[tuple[int, int], float] = {}
        # (src, req_id) -> (time cached, reply); insertion order == time order
        self._reply_cache: dict[tuple[int, int], tuple[float, Message]] = {}
        self._requests_in_progress: set[tuple[int, int]] = set()
        # per-attempt ack/reply timeouts (fixed by default, backed-off when
        # configured); cached once — the config never changes mid-run
        self._schedule = cfg.retry_schedule()
        self._jitter = cfg.backoff_jitter
        self._send_seq = 0  # jitter key source; run-local, replay-stable
        # a duplicate of a message first received at t can arrive no later
        # than t + the worst-case retry window (every timeout at full jitter
        # stretch) plus delivery delays; one base timeout of slack absorbs
        # those delays.  Derived, not hard-coded: a backoff schedule widens
        # the window and the horizon must widen with it or at-most-once
        # silently breaks.
        self._dup_horizon = cfg.worst_case_retry_window() + cfg.rexmit_timeout

    # -- send paths -------------------------------------------------------------

    def post(self, msg: Message) -> None:
        """Fire-and-forget, unreliable, uncounted except for acks."""
        self.nic.send(msg)

    def send_reliable(
        self,
        dst: int,
        kind: MessageKind,
        payload: Any,
        size: int,
    ) -> Generator:
        """One-way reliable send; completes when the receiver acked.

        Usage: ``yield from transport.send_reliable(...)``.
        """
        msg = Message(
            src=self.node_id, dst=dst, kind=kind, payload=payload, size=size, need_ack=True
        )
        self.stats.count_send(kind, size)
        tracer = self.sim.tracer
        if tracer is not None:
            tracer.causal_send(msg.msg_id, self.node_id, self.sim.now, kind.name)
        acked = Event(self.sim)
        self._ack_events[msg.msg_id] = acked
        try:
            yield from self._retry_until(msg, acked)
        finally:
            self._ack_events.pop(msg.msg_id, None)

    def request(
        self,
        dst: int,
        kind: MessageKind,
        payload: Any,
        size: int,
    ) -> Generator:
        """Request/reply RPC; resumes with the reply :class:`Message`."""
        msg = Message(
            src=self.node_id, dst=dst, kind=kind, payload=payload, size=size, need_ack=False
        )
        msg.req_id = msg.msg_id
        self.stats.count_send(kind, size)
        tracer = self.sim.tracer
        if tracer is not None:
            tracer.causal_send(msg.msg_id, self.node_id, self.sim.now, kind.name)
        replied = Event(self.sim)
        self._pending_replies[msg.req_id] = replied
        try:
            reply = yield from self._retry_until(msg, replied)
        finally:
            self._pending_replies.pop(msg.req_id, None)
        return reply

    def reply_to(self, req: Message, kind: MessageKind, payload: Any, size: int) -> None:
        """Send (and cache) the reply to a request message."""
        reply = Message(
            src=self.node_id,
            dst=req.src,
            kind=kind,
            payload=payload,
            size=size,
            req_id=req.req_id,
            is_reply=True,
        )
        self.stats.count_send(kind, size)
        tracer = self.sim.tracer
        if tracer is not None:
            tracer.causal_send(reply.msg_id, self.node_id, self.sim.now, kind.name)
        key = (req.src, req.req_id)
        self._reply_cache[key] = (self.sim.now, reply)
        self._requests_in_progress.discard(key)
        self.nic.send(reply)

    def _wait_for(self, key: int, attempt: int) -> float:
        """The (possibly backed-off, possibly jittered) timeout after
        transmission ``attempt`` (0 = the original send)."""
        base = self._schedule[attempt]
        if self._jitter:
            return base * (1.0 + self._jitter * _jitter_unit(key, attempt))
        return base

    def _retry_until(self, msg: Message, done: Event) -> Generator:
        """Transmit ``msg``, retransmitting until ``done`` fires.

        Every transmitted copy — including the final retransmission — gets a
        full schedule slot for its ack/reply to come back before
        :class:`RequestError` is raised, so ``max_retries + 1`` copies hit
        the wire in the worst case and each one can complete the send.
        """
        if self._jitter:
            self._send_seq += 1
            jkey = (self._send_seq << 6) + self.node_id
        else:
            jkey = 0  # unused: _wait_for skips the jitter term entirely
        self.nic.send(msg.wire_copy())
        for attempt in range(1, self.cfg.max_retries + 1):
            result = yield done.wait_timeout(self._wait_for(jkey, attempt - 1))
            if result is not TIMED_OUT:
                return result
            self.stats.count_rexmit(msg.size, msg.kind)
            tracer = self.sim.tracer
            if tracer is not None:
                tracer.instant(
                    self.node_id, "transport", "tx",
                    f"rexmit {msg.kind.name}->{msg.dst}", self.sim.now,
                    {"attempt": attempt, "bytes": msg.size},
                )
            retry = msg.wire_copy()
            retry.attempt = attempt
            self.nic.send(retry)
        result = yield done.wait_timeout(
            self._wait_for(jkey, self.cfg.max_retries)
        )
        if result is not TIMED_OUT:
            return result
        raise RequestError(
            f"node {self.node_id}: {msg.kind} to {msg.dst} lost after "
            f"{self.cfg.max_retries} retries",
            node=self.node_id,
            dst=msg.dst,
            kind=msg.kind.name,
            attempts=self.cfg.max_retries,
            sim_time=self.sim.now,
        )

    # -- receive path -------------------------------------------------------------

    def on_receive(self, msg: Message) -> Message | None:
        """Filter a received message; return it iff the protocol should see it."""
        if msg.kind is MessageKind.ACK:
            evt = self._ack_events.get(msg.payload)
            if evt is not None:
                tracer = self.sim.tracer
                if tracer is not None:
                    # the cause is the *original* message (acks have no send
                    # edge), whose edge points back at this very node — so
                    # the critical-path walk charges the whole round trip to
                    # wire and continues locally at the original send time
                    tracer.wake(self.node_id, self.sim.now, msg_id=msg.payload)
                evt.set()
            return None
        if msg.need_ack:
            ack = Message(
                src=self.node_id,
                dst=msg.src,
                kind=MessageKind.ACK,
                payload=msg.msg_id,
                size=self.cfg.ack_bytes,
            )
            self.stats.count_ack()
            self.post(ack)
            seen = self._seen_reliable
            if (msg.src, msg.msg_id) in seen:
                return None  # duplicate of an already-delivered reliable send
            now = self.sim.now
            seen[(msg.src, msg.msg_id)] = now
            self._evict_expired(now)
            return msg
        if msg.is_reply:
            evt = self._pending_replies.get(msg.req_id)
            if evt is not None:
                tracer = self.sim.tracer
                if tracer is not None:
                    tracer.wake(self.node_id, self.sim.now, msg_id=msg.msg_id)
                evt.set(msg)
            return None  # stale/duplicate reply
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
            self._evict_expired(self.sim.now)
            return msg
        return msg

    def _evict_expired(self, now: float) -> None:
        """Drop duplicate-suppression entries older than the horizon.

        Both tables are insertion-ordered dicts stamped with monotone
        simulated time, so expired entries sit at the front and eviction is
        O(evicted) amortised per receive.
        """
        cutoff = now - self._dup_horizon
        seen = self._seen_reliable
        while seen:
            msg_id = next(iter(seen))
            if seen[msg_id] >= cutoff:
                break
            del seen[msg_id]
        cache = self._reply_cache
        while cache:
            key = next(iter(cache))
            if cache[key][0] >= cutoff:
                break
            del cache[key]
