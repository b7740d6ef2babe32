"""Network interface model: rate-limited TX/RX with a finite receive buffer.

Each node owns one :class:`Nic` modelling one full-duplex port:

* the **TX side** serialises outbound messages onto the wire at link rate
  (plus the fixed per-message send overhead), then hands them to the switch;
* the **RX side** drains the inbound buffer at link rate (plus receive
  overhead) and delivers messages to the node's dispatcher.

Both sides are *flattened* rate-limited queues: plain callback chains, no
daemon process, no channel.  A frame costs three events — timed TX
completion, the switch's arrival pump, timed RX completion — and an idle side
starts its next frame inside the call that made it runnable, with no
zero-delay hand-off event.  That moves a completion's tie-breaking sequence
number relative to *other* nodes' same-instant events only, which nothing
observes: arrivals at one ``(dst, instant)`` are delivered by one pump in
``(src, departure seq)`` order (see :class:`Switch`), and cross-node order
within an instant is unobservable by construction — the partition-determinism
harness (:mod:`repro.sim.pdes`) runs those events on different simulators,
bit-identically.

Messages arriving while the inbound buffer is full are **dropped** — this is
the congestion-loss mechanism: a burst of n-1 simultaneous senders into one
port (the centralised LRC barrier pattern) overflows the buffer and the lost
messages each cost a ~1 s retransmission timeout.
"""

from __future__ import annotations

from collections import deque
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
        "_tx_busy", "_rx_busy", "_tx_backlog", "_rx_backlog",
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
        self._tx_busy = False  # a transmission completion event is in flight
        self._rx_busy = False  # a receive completion event is in flight
        self._tx_backlog: deque["Message"] = deque()
        self._rx_backlog: deque[tuple["Message", int]] = deque()
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
        idle and takes the software send overhead plus the wire time.
        """
        if self._tx_busy:
            self._tx_backlog.append(msg)
            return
        self._tx_busy = True
        self._tx_start(msg)

    def _tx_start(self, msg: "Message") -> None:
        tracer = self.sim.tracer
        if tracer is not None:
            tracer.begin(
                self.node_id, "nic-tx", "tx", f"{msg.kind.name}->{msg.dst}",
                self.sim.now,
                {"bytes": msg.size, "dst": msg.dst, "msg": tracer.norm(msg.msg_id)},
            )
        # software send overhead + wire serialisation at link rate
        wire = self.cfg.tx_time(msg.size)
        faults = self.sim.faults
        if faults is not None:
            wire *= faults.bandwidth_factor(self.node_id)
        self.sim.schedule(self.cfg.send_overhead + wire, self._tx_done, msg)

    def _tx_done(self, msg: "Message") -> None:
        assert self._switch is not None, "NIC not attached to a switch"
        tracer = self.sim.tracer
        if tracer is not None:
            tracer.end(self.node_id, "nic-tx", "tx", self.sim.now)
        self._switch.transfer(msg)
        if self._tx_backlog:
            self._tx_start(self._tx_backlog.popleft())
        else:
            self._tx_busy = False

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
        tracer = self.sim.tracer
        if tracer is not None:
            tracer.begin(
                self.node_id, "nic-rx", "rx", f"{msg.kind.name}<-{msg.src}",
                self.sim.now,
                {"bytes": msg.size, "src": msg.src, "msg": tracer.norm(msg.msg_id)},
            )
        # inbound wire time (the port is shared by all senders) + software
        # receive overhead
        wire = self.cfg.tx_time(msg.size)
        faults = self.sim.faults
        if faults is not None:
            wire *= faults.bandwidth_factor(self.node_id)
        self.sim.schedule(wire + self.cfg.recv_overhead, self._rx_done, msg)

    def _rx_done(self, msg: "Message") -> None:
        tracer = self.sim.tracer
        if tracer is not None:
            tracer.end(self.node_id, "nic-rx", "rx", self.sim.now)
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

    Frames for the same destination port arriving at the same instant are
    delivered through a single *arrival pump* event, in ``(source node,
    per-source departure number)`` order.  That order is canonical: it
    depends only on each source's own transmit history, never on how the
    simulator interleaved *other* nodes' events at the departure instant —
    which is what lets the partition-determinism harness reproduce serial
    delivery order exactly when the sources live in different partitions.
    The pump event carries ordering class 1 (see
    :meth:`repro.sim.Simulator.schedule_keyed`), sorting after every
    ordinary event scheduled at the departure instant in both serial and
    partitioned runs.
    """

    def __init__(self, sim: Simulator, cfg: "NetConfig", node_stats: "list[NetStats]"):
        self.sim = sim
        self.cfg = cfg
        # per-node stat shards, indexed by node id; the switch attributes its
        # drops to the *sending* node, which is always a local node even in a
        # partitioned run (transfer is invoked by the source NIC)
        self.node_stats = node_stats
        self.ports: dict[int, Nic] = {}
        # lazy for the same reason as Nic._rng: only drawn when
        # random_drop_prob > 0, which the default model never sets
        self._rng: "np.random.RandomState | None" = None
        # (dst, arrival time) -> [(src, per-src departure seq, msg), ...]
        self._staged: dict[tuple[int, float], list] = {}
        self._dep_seq: dict[int, int] = {}

    def register(self, nic: Nic) -> None:
        self.ports[nic.node_id] = nic
        nic.attach(self)

    def transfer(self, msg: "Message") -> None:
        if self.cfg.random_drop_prob > 0.0:
            rng = self._rng
            if rng is None:
                rng = self._rng = np.random.RandomState(self.cfg.drop_seed)
            if rng.random_sample() < self.cfg.random_drop_prob:
                self.node_stats[msg.src].count_drop("random")
                return
        dst_nic = self.ports[msg.dst]
        faults = self.sim.faults
        if faults is not None:
            # scripted fault episodes: loss, extra latency / bounded
            # reordering, duplication (see repro.faults.injector).  Only an
            # actually *perturbed* delivery bypasses the pump (its arrival
            # time is the point; fault runs are serial-only) — an unperturbed
            # verdict falls through to normal staging, so an armed-but-idle
            # injector changes neither event counts nor delivery order.
            verdict = faults.on_transfer(msg)
            if verdict is None:
                return  # dropped; the injector counted and traced it
            extra, dup = verdict
            if dup is not None:
                self.sim.schedule(
                    self.cfg.switch_latency + dup, dst_nic.on_arrival, msg.wire_copy()
                )
            if extra > 0.0:
                self.sim.schedule(
                    self.cfg.switch_latency + extra, dst_nic.on_arrival, msg
                )
                return
        self._stage(msg, self.sim.now + self.cfg.switch_latency, self.sim.now)

    def next_departure(self, src: int) -> int:
        dep = self._dep_seq.get(src, 0)
        self._dep_seq[src] = dep + 1
        return dep

    def _stage(self, msg: "Message", t_arr: float, t_dep: float) -> None:
        """Queue ``msg`` for pumped delivery at ``t_arr``.

        All frames for one ``(dst, t_arr)`` slot left their NICs at the same
        instant ``t_arr - switch_latency`` (the latency is constant), so the
        slot's membership is complete before its pump fires.
        """
        key = (msg.dst, t_arr)
        slot = self._staged.get(key)
        entry = (msg.src, self.next_departure(msg.src), msg)
        if slot is None:
            self._staged[key] = [entry]
            self.sim.schedule_keyed(t_arr, t_dep, 1, self._pump, key)
        else:
            slot.append(entry)

    def _pump(self, key: tuple[int, float]) -> None:
        batch = self._staged.pop(key)
        if len(batch) > 1:
            batch.sort(key=_dep_order)
        on_arrival = self.ports[key[0]].on_arrival
        for _, _, msg in batch:
            on_arrival(msg)


def _dep_order(entry: tuple) -> tuple[int, int]:
    return (entry[0], entry[1])
