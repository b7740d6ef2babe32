"""Configuration for the cluster model.

Defaults are calibrated to the paper's testbed: 350 MHz PCs, 100 Mbps
switched Ethernet, Linux 2.4 UDP stack, 4 KB virtual-memory pages.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["NetConfig", "NodeConfig"]


@dataclass
class NetConfig:
    """Network-level parameters.

    Attributes
    ----------
    bandwidth_bps:
        Link rate of every NIC port, bits per second (> 0; 100 Mbps Ethernet).
    switch_latency:
        Store-and-forward latency through the switch, seconds (>= 0).
    send_overhead / recv_overhead:
        Fixed per-message software cost (UDP/IP stack traversal, interrupt
        handling) on a 350 MHz CPU.  ~60 µs each way is typical for the era.
    header_bytes:
        Per-message framing added on the wire (Ethernet + IP + UDP headers).
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
    drop_seed / random_drop_prob:
        Optional uniform random loss (seeded, deterministic).  Defaults to
        zero: loss in the default model comes from buffer congestion only,
        controlled by the same seed.
    rexmit_timeout:
        Retransmission timeout, seconds (> 0), the same after every copy.
        The paper observes ~1 s of waiting per retransmission.
    max_retries:
        Retransmission attempts (>= 0) before the transport gives up.
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
    random_drop_prob: float = 0.0
    drop_seed: int = 12345
    rexmit_timeout: float = 1.0
    max_retries: int = 20
    ack_bytes: int = 42

    def __post_init__(self) -> None:
        if not self.switch_latency >= 0:
            raise ValueError(f"switch_latency must be >= 0, got {self.switch_latency!r}")
        if not self.bandwidth_bps > 0:
            raise ValueError(f"bandwidth_bps must be > 0, got {self.bandwidth_bps!r}")
        if not self.rexmit_timeout > 0:
            raise ValueError(f"rexmit_timeout must be > 0, got {self.rexmit_timeout!r}")
        if self.max_retries < 0:
            raise ValueError(f"max_retries must be >= 0, got {self.max_retries!r}")

    def tx_time(self, payload_bytes: int) -> float:
        """Wire occupancy of a message of ``payload_bytes`` at link rate."""
        return (payload_bytes + self.header_bytes) * 8.0 / self.bandwidth_bps


@dataclass
class NodeConfig:
    """Per-node parameters.

    Attributes
    ----------
    cpu_hz:
        Processor clock (paper: 350 MHz Pentium-class).
    mem_copy_bps:
        Memory bandwidth for page/diff copies (twin creation, diff apply).
    page_size:
        Virtual-memory page size in bytes (paper: 4 KB).
    """

    cpu_hz: float = 350e6
    mem_copy_bps: float = 80e6  # ~80 MB/s copy bandwidth on a 350 MHz PC
    page_size: int = 4096

    def cycles(self, n: float) -> float:
        """Seconds taken by ``n`` cycles on this node."""
        return n / self.cpu_hz

    def copy_time(self, nbytes: int) -> float:
        """Seconds to memcpy ``nbytes`` locally."""
        return nbytes / self.mem_copy_bps
