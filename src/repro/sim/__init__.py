"""Deterministic discrete-event simulation kernel.

The whole reproduction runs inside a single-threaded, deterministic
discrete-event simulator.  Simulated processors, NICs, protocol daemons and
application processes are Python generators driven by :class:`Simulator`.

Blocking operations are expressed as ``yield``/``yield from`` of *effects*:

* :class:`Timeout` — sleep for a simulated duration,
* :data:`PARK` — suspend until the process's owner calls ``unpark``,
* :class:`Channel` operations — rendezvous message queues,
* :class:`Event` waits — a one-shot, value-carrying wake-up.

Determinism: events scheduled for the same simulated instant are processed in
FIFO scheduling order (a monotonically increasing sequence number breaks
ties), so a given program produces bit-identical traces on every run.
"""

from repro.sim.engine import Simulator, Process, Timeout, SimError, Interrupt, PARK
from repro.sim.channel import Channel, ChannelClosed
from repro.sim.resources import Event

__all__ = [
    "Simulator",
    "Process",
    "Timeout",
    "SimError",
    "Interrupt",
    "PARK",
    "Channel",
    "ChannelClosed",
    "Event",
]
