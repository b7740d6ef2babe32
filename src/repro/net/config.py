"""Configuration for the cluster model.

Defaults are calibrated to the paper's testbed: 350 MHz PCs, 100 Mbps
switched Ethernet, Linux 2.4 UDP stack, 4 KB virtual-memory pages.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

__all__ = ["NetConfig", "NodeConfig", "is_count"]


def _require(cfg: object, rule: str, ok: Callable[[float], bool], *names: str) -> None:
    """Raise ``ValueError`` naming the first of ``names`` whose value is not
    ``ok`` (every test is written so that NaN fails it)."""
    for name in names:
        value = getattr(cfg, name)
        if not ok(value):
            raise ValueError(f"{name} must be {rule}, got {value!r}")


def is_count(value: object) -> bool:
    """An ``int`` that is not a ``bool``: a fractional retry budget is never
    reached, and ``True`` is a flag, not a count."""
    return isinstance(value, int) and not isinstance(value, bool)


@dataclass
class NetConfig:
    """Network-level parameters.

    Attributes
    ----------
    bandwidth_bps:
        Link rate of every NIC port, bits per second (finite, > 0; 100 Mbps
        Ethernet).
    switch_latency:
        Store-and-forward latency through the switch, seconds (finite, >= 0;
        it, ``send_overhead`` and ``header_bytes`` are not all 0, so no frame
        arrives at the instant it is sent).
    send_overhead / recv_overhead:
        Fixed per-message software cost (UDP/IP stack traversal, interrupt
        handling) on a 350 MHz CPU, seconds (finite, >= 0).  ~60 µs each way
        is typical for the era.
    header_bytes:
        Per-message framing added on the wire (Ethernet + IP + UDP headers);
        this and the other byte sizes are ints >= 0.
    recv_buffer_bytes:
        Receiver socket buffer capacity in bytes (Linux 2.4 default UDP
        rcvbuf: 64 KB); arrivals beyond this are dropped — the congestion
        mechanism that penalises centralised traffic (many diff replies or
        page replies converging on one node, e.g. the LRC barrier manager /
        accumulator).
    red_threshold_bytes:
        Early-drop threshold.  When a receiver's buffered bytes exceed this,
        arrivals are dropped with probability growing linearly from 0 at the
        threshold to 1 at the hard limit (RED-style).  Bursts of *large*
        messages fill the buffer; the tiny VC barrier messages never do —
        the paper's "Rexmit" asymmetry between LRC_d and VC_d.
    drop_seed:
        Seed (an int >= 0) of the RED drop stream, so congestion loss is
        reproducible.  Loss in this model comes from buffer congestion only;
        uniform loss is a ``loss`` episode of a :class:`repro.faults.FaultPlan`.
    rexmit_timeout:
        Retransmission timeout, seconds (finite, > 0), the same after every copy.
        The paper observes ~1 s of waiting per retransmission.
    max_retries:
        Retransmission attempts (an int >= 0) before the transport gives up.
    ack_bytes:
        Size of a transport-level acknowledgement.
    """

    bandwidth_bps: float = 100e6
    switch_latency: float = 20e-6
    send_overhead: float = 60e-6
    recv_overhead: float = 60e-6
    header_bytes: int = 42
    recv_buffer_bytes: int = 128 * 1024
    red_threshold_bytes: int = 80 * 1024
    drop_seed: int = 12345
    rexmit_timeout: float = 1.0
    max_retries: int = 20
    ack_bytes: int = 42

    def __post_init__(self) -> None:
        _require(self, "finite and > 0", lambda v: 0 < v < math.inf,
                 "bandwidth_bps", "rexmit_timeout")
        _require(self, "finite and >= 0", lambda v: 0 <= v < math.inf,
                 "switch_latency", "send_overhead", "recv_overhead")
        _require(self, "an int >= 0", lambda v: is_count(v) and v >= 0,
                 "header_bytes", "recv_buffer_bytes", "red_threshold_bytes",
                 "drop_seed", "max_retries", "ack_bytes")
        # a frame arrives send_overhead + tx_time(size + header) +
        # switch_latency after it starts: with all three 0 an empty frame
        # would arrive at the instant it was sent, ahead of the work made
        # ready at that instant
        if not (self.header_bytes or self.send_overhead or self.switch_latency):
            raise ValueError("header_bytes, send_overhead and switch_latency must "
                             "not all be 0: a frame would arrive as it is sent")

    def tx_time(self, payload_bytes: int) -> float:
        """Wire occupancy of a message of ``payload_bytes`` at link rate."""
        return (payload_bytes + self.header_bytes) * 8.0 / self.bandwidth_bps


@dataclass
class NodeConfig:
    """Per-node parameters.

    Attributes
    ----------
    cpu_hz:
        Processor clock, Hz (finite, > 0; paper: 350 MHz Pentium-class).
    mem_copy_bps:
        Memory bandwidth for page/diff copies (twin creation, diff apply),
        bytes per second (finite, > 0).
    page_size:
        Virtual-memory page size in bytes (an int > 0; paper: 4 KB).
    """

    cpu_hz: float = 350e6
    mem_copy_bps: float = 80e6  # ~80 MB/s copy bandwidth on a 350 MHz PC
    page_size: int = 4096

    def __post_init__(self) -> None:
        _require(self, "finite and > 0", lambda v: 0 < v < math.inf,
                 "cpu_hz", "mem_copy_bps")
        _require(self, "an int > 0", lambda v: is_count(v) and v > 0, "page_size")

    def cycles(self, n: float) -> float:
        """Seconds taken by ``n`` cycles on this node."""
        return n / self.cpu_hz

    def copy_time(self, nbytes: int) -> float:
        """Seconds to memcpy ``nbytes`` locally."""
        return nbytes / self.mem_copy_bps
