"""Network interface model: rate-limited TX/RX with a finite receive buffer.

Each node owns one :class:`Nic` modelling one full-duplex port:

* the **TX side** serialises outbound messages onto the wire at link rate
  (plus the fixed per-message send overhead), then hands them to the switch;
* the **RX side** drains the inbound buffer at link rate (plus receive
  overhead) and delivers messages to the node's dispatcher.

A frame costs **two** events: its arrival at the destination port and the
timed RX completion that delivers it.  The TX side needs none — a
rate-limited FIFO server whose completions nobody observes is one number,
the instant it is next free: ``send`` computes the frame's transmission
``start = max(now, free-at)`` and its departure ``done = start + (send
overhead + wire time)`` on the spot (the float expression a completion event
would evaluate, so every departure instant is bit-equal to an event-driven
TX queue's) and hands the frame to the switch at once, stamped with that
future departure.  The RX side keeps its completion event because that event
*is* the delivery: where it falls among the destination node's other
same-instant events decides what that node does next.  The switch queues
each arrival under a canonical key (see :class:`Switch`); cross-node order
within an instant is unobservable by construction, and the tie-permutation
witness (``tests/sim/ties.py``) is the evidence: it reorders those events
per seed and every run stays bit-identical.  When traced,
each side's busy period is one complete (``X``) row written as it begins: its
end is the ``done`` above, or the float the RX completion is scheduled at.

Messages arriving while the inbound buffer is full are **dropped** — this is
the congestion-loss mechanism: a burst of n-1 simultaneous senders into one
port (the centralised LRC barrier pattern) overflows the buffer and the lost
messages each cost a ~1 s retransmission timeout.
"""

from __future__ import annotations

from collections import defaultdict, deque
from typing import TYPE_CHECKING, Callable

import numpy as np

from repro.sim import Simulator

if TYPE_CHECKING:  # pragma: no cover
    from repro.net.config import NetConfig
    from repro.net.message import Message
    from repro.net.stats import NetStats

__all__ = ["Nic", "Switch"]


class Nic:
    """One full-duplex 100 Mbps port."""

    __slots__ = (
        "sim", "node_id", "cfg", "stats", "_deliver", "_switch",
        "_tx_free", "_frame_key", "_rx_busy", "_rx_backlog",
        "rx_bytes", "_rng",
    )

    def __init__(
        self,
        sim: Simulator,
        node_id: int,
        cfg: "NetConfig",
        stats: "NetStats",
        deliver: Callable[["Message"], None],
    ):
        self.sim = sim
        self.node_id = node_id
        self.cfg = cfg
        self.stats = stats
        self._deliver = deliver  # hand a fully-received message to the node
        self._switch: "Switch | None" = None
        self._tx_free = 0.0  # when the TX side finishes what it was handed
        # canonical arrival-order key of the next frame handed to the switch:
        # (this node, frames handed over so far) packed into one int
        self._frame_key = node_id << 40
        self._rx_busy = False  # a receive completion event is in flight
        self._rx_backlog: deque["Message"] = deque()
        self.rx_bytes = 0  # bytes currently held in the receive buffer
        # per-NIC deterministic stream: node id decorrelates ports, the
        # config seed makes whole runs reproducible.  Created lazily — the
        # stream is only drawn from on RED drops, and eagerly building 256+
        # RandomStates dominated cluster construction time.
        self._rng: "np.random.RandomState | None" = None

    def attach(self, switch: "Switch") -> None:
        self._switch = switch

    # -- outbound --------------------------------------------------------------

    def send(self, msg: "Message") -> None:
        """Queue a message for transmission (never blocks the caller).

        Serialises at link rate: transmission starts when the TX side is next
        idle and takes the software send overhead plus the wire time.  The
        frame goes to the switch now, carrying the instant it will leave.
        """
        switch = self._switch
        if switch is None:
            raise RuntimeError(f"NIC {self.node_id} is not attached to a switch")
        sim = self.sim
        start = self._tx_free
        if start < sim.now:
            start = sim.now
        wire = self.cfg.tx_time(msg.size)
        faults = sim.faults
        if faults is not None:
            wire *= faults.bandwidth_factor(self.node_id, start)
        self._tx_free = done = start + (self.cfg.send_overhead + wire)
        tracer = sim.tracer
        if tracer is not None:
            tracer.span(
                self.node_id, "nic-tx", "tx", f"{msg.kind.name}->{msg.dst}",
                start, done,
                {"bytes": msg.size, "dst": msg.dst, "msg": tracer.norm(msg.msg_id)},
            )
        key = self._frame_key
        self._frame_key = key + 1
        switch.forward(msg, done, key)

    # -- inbound ---------------------------------------------------------------

    def on_arrival(self, msg: "Message") -> None:
        """Called by the switch when a frame reaches this port.

        RED-style congestion loss over *byte* occupancy: above the soft
        threshold, arrivals are dropped with probability rising linearly to 1
        at the hard buffer limit.  Bursts of large messages (diff/page
        replies converging on a central node) fill the buffer; bursts of tiny
        control messages never do.
        """
        wire = msg.size + self.cfg.header_bytes
        soft = self.cfg.red_threshold_bytes
        cap = self.cfg.recv_buffer_bytes
        faults = self.sim.faults
        if faults is not None:
            # receive-buffer shrink episodes scale both limits together
            factor = faults.buffer_factor(self.node_id)
            if factor != 1.0:
                soft *= factor
                cap *= factor
        if self.rx_bytes > 0 and self.rx_bytes + wire > cap:
            # an oversized message is only accepted into an empty buffer
            # (standing in for the fragmentation a real stack would do)
            self.stats.count_drop("overflow")
            self._trace_drop(msg, "overflow")
            return
        if self.rx_bytes > soft and cap > soft:
            p_drop = (self.rx_bytes - soft) / (cap - soft)
            rng = self._rng
            if rng is None:
                rng = self._rng = np.random.RandomState(
                    self.cfg.drop_seed + 7919 * self.node_id
                )
            if rng.random_sample() < p_drop:
                self.stats.count_drop("red")
                self._trace_drop(msg, "red")
                return
        self.rx_bytes += wire
        if self._rx_busy:
            self._rx_backlog.append(msg)
            return
        self._rx_busy = True
        self._rx_start(msg)

    def _trace_drop(self, msg: "Message", why: str) -> None:
        tracer = self.sim.tracer
        if tracer is not None:
            tracer.instant(
                self.node_id, "nic-rx", "rx", f"drop {msg.kind.name} ({why})",
                self.sim.now, {"bytes": msg.size, "src": msg.src},
            )

    def _rx_start(self, msg: "Message") -> None:
        sim = self.sim
        # inbound wire time (the port is shared by all senders) + software
        # receive overhead
        wire = self.cfg.tx_time(msg.size)
        faults = sim.faults
        if faults is not None:
            wire *= faults.bandwidth_factor(self.node_id, sim.now)
        busy = wire + self.cfg.recv_overhead
        tracer = sim.tracer
        if tracer is not None:
            # ``schedule`` computes this very float: the row ends on the delivery
            tracer.span(
                self.node_id, "nic-rx", "rx", f"{msg.kind.name}<-{msg.src}",
                sim.now, sim.now + busy,
                {"bytes": msg.size, "src": msg.src, "msg": tracer.norm(msg.msg_id)},
            )
        sim.schedule(busy, self._rx_done, msg)

    def _rx_done(self, msg: "Message") -> None:
        self.rx_bytes -= msg.size + self.cfg.header_bytes
        self._deliver(msg)
        if self._rx_backlog:
            self._rx_start(self._rx_backlog.popleft())
        else:
            self._rx_busy = False


class Switch:
    """Store-and-forward switch connecting all NICs.

    The switch adds a fixed forwarding latency and optionally applies seeded
    uniform random loss (off by default; buffer overflow at the receiving NIC
    is the primary loss mechanism).

    A frame handed over by its source NIC becomes one queue entry keyed
    ``(arrival, departure, 1, source * 2**40 + per-source frame number)`` (see
    :meth:`repro.sim.Simulator.schedule_keyed`).  Class 1 sorts it after
    every ordinary event scheduled at the departure instant, and the last
    component is canonical: it depends only on the source's own transmit
    history, never on how the simulator interleaved *other* nodes' events.
    Keyed by push order instead, same-instant arrivals at one port would
    follow the order their sources ran in, which the tie-permutation witness
    catches on most cells of the benchmark matrix.

    Only a verdict that draws a *shared* random stream needs a place in
    global event order: ``random_drop_prob > 0``, or a fault plan with
    transfer-level episodes (loss, latency, reordering, duplication).  Such
    runs — and only they — pay a **departure event** per frame, at which the
    verdict is drawn.  The events are chained per source (frame k's schedules
    frame k+1's), which gives each the key ``(departure, transmission start,
    0, sequence number drawn at the start)`` of an event-driven TX queue's
    completion, so the streams are consumed in that queue's order.
    """

    def __init__(self, sim: Simulator, cfg: "NetConfig", node_stats: "list[NetStats]"):
        self.sim = sim
        self.cfg = cfg
        # per-node stat shards, indexed by node id; the switch attributes its
        # drops to the *sending* node (frames are handed over by the source NIC)
        self.node_stats = node_stats
        self.ports: dict[int, Nic] = {}
        # lazy for the same reason as Nic._rng: only drawn when
        # random_drop_prob > 0, which the default model never sets
        self._rng: "np.random.RandomState | None" = None
        # src -> [(departure time, frame key, msg), ...] awaiting their
        # departure events; stays empty unless verdicts are drawn
        self._departing: dict[int, deque] = defaultdict(deque)

    def register(self, nic: Nic) -> None:
        self.ports[nic.node_id] = nic
        nic.attach(self)

    def forward(self, msg: "Message", t_dep: float, key: int) -> None:
        """Take ``msg`` from its source NIC, which it leaves at ``t_dep``;
        ``key`` is its canonical place among same-instant arrivals."""
        faults = self.sim.faults
        if self.cfg.random_drop_prob > 0.0 or (
                faults is not None and faults.transfer_level):
            queue = self._departing[msg.src]
            queue.append((t_dep, key, msg))
            if len(queue) == 1:  # the TX side was idle: it starts now
                self.sim.schedule_at(t_dep, self._depart, queue)
            return
        self.sim.schedule_keyed(
            t_dep + self.cfg.switch_latency, t_dep, 1, key,
            self.ports[msg.dst].on_arrival, msg,
        )

    def _depart(self, queue: deque) -> None:
        """Departure event: draw the frame's verdict, start the next frame."""
        t_dep, key, msg = queue.popleft()
        self._transfer(msg, t_dep, key)
        if queue:
            self.sim.schedule_at(queue[0][0], self._depart, queue)

    def _transfer(self, msg: "Message", t_dep: float, key: int) -> None:
        cfg = self.cfg
        if cfg.random_drop_prob > 0.0:
            rng = self._rng
            if rng is None:
                rng = self._rng = np.random.RandomState(cfg.drop_seed)
            if rng.random_sample() < cfg.random_drop_prob:
                self.node_stats[msg.src].count_drop("random")
                return
        on_arrival = self.ports[msg.dst].on_arrival
        faults = self.sim.faults
        if faults is not None:
            # scripted fault episodes: loss, extra latency / bounded
            # reordering, duplication (see repro.faults.injector).  Only an
            # actually *perturbed* delivery leaves the canonical order (its
            # arrival time is the point).
            verdict = faults.on_transfer(msg)
            if verdict is None:
                return  # dropped; the injector counted and traced it
            extra, dup = verdict
            if dup is not None:
                self.sim.schedule(cfg.switch_latency + dup, on_arrival, msg.wire_copy())
            if extra > 0.0:
                self.sim.schedule(cfg.switch_latency + extra, on_arrival, msg)
                return
        self.sim.schedule_keyed(t_dep + cfg.switch_latency, t_dep, 1, key, on_arrival, msg)
