"""Deterministic discrete-event simulation kernel.

The whole reproduction runs inside a single-threaded, deterministic
discrete-event simulator.  Simulated processors, NICs, protocol daemons and
application processes are Python generators driven by :class:`Simulator`.

Blocking operations are expressed as ``yield``/``yield from`` of *effects*:

* :class:`Timeout` — sleep for a simulated duration,
* :data:`PARK` — suspend until the process's owner calls ``unpark``,
* :class:`Channel` operations — rendezvous message queues,
* :class:`Event` waits — a one-shot, value-carrying wake-up.

Each wait registers one wake-up, which resumes the process exactly once.

Determinism: a network arrival is keyed by its frame's (source, departure
number), so its place among same-instant events does not depend on the
order other nodes' events ran in; every other tie breaks by scheduling
order.  The only randomness comes from two seeded streams (RED drops and
the fault plan), so a given program produces bit-identical traces on every
run.  The tie-permutation witness (``tests/sim/ties.py``) permutes
same-instant events of different nodes and demands the same bits.
"""

from repro.sim.engine import Simulator, Process, Timeout, SimError, PARK
from repro.sim.channel import Channel
from repro.sim.resources import Event

__all__ = [
    "Simulator",
    "Process",
    "Timeout",
    "SimError",
    "PARK",
    "Channel",
    "Event",
]
