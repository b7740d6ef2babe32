"""The event tracer: categories, the event tuple, and the recording API.

Design constraints, in order of importance:

1. **Zero overhead when disabled.**  There is no null-object tracer on the
   hot paths: the simulator's ``tracer`` attribute is simply ``None`` by
   default and every emission site guards with ``if tracer is not None``.
   The engine's event loop itself is never instrumented — only operation
   boundaries (faults, acquires, barriers, NIC frames, process lifecycle)
   are, so the per-event cost of tracing-off is literally nothing.
2. **Observational purity.**  Recording never charges simulated time,
   schedules events, or perturbs any tie-break, so a traced run's simulated
   statistics are bit-identical to an untraced run's.
3. **Determinism.**  Events are appended in recording order, which is
   deterministic; two identical runs produce identical event lists (and
   therefore byte-identical exports).
4. **Time order per lane, not globally.**  A lane is a sequential context, so
   its rows are recorded in non-decreasing ``t`` — what every consumer
   (breakdown, critical path, exporters) relies on.  The list as a whole is
   *not* sorted: a site that knows a span's end when it begins writes the
   whole span at once (:meth:`EventTracer.span`), ahead of rows other lanes
   will stamp with earlier instants (both NIC sides; :mod:`repro.net.nic`),
   and a handler's row is written when it ends, after rows other lanes
   stamped while it ran (:meth:`EventTracer.end_dispatch`).

Event representation
--------------------

Events are plain tuples (allocation-light, trivially picklable)::

    (ph, t, pid, lane, cat, name, args, end)

``ph`` is the phase, borrowed from the Chrome trace-event format: ``"B"``
(span begin), ``"E"`` (span end), ``"X"`` (complete span), ``"i"`` (instant),
``"C"`` (counter).  ``t`` is simulated seconds; ``end`` is the span's last
instant on ``X`` and ``None`` otherwise (one shape for consumers to unpack).
``pid`` is the node id (``-1`` for engine-global events).  ``lane`` names the
execution context within the node — ``"app"`` for the application process,
``"nic-tx"``/``"nic-rx"`` for the NIC sides, ``"dispatch"`` for the node's
serial message-handler daemon, ``"fetch-*"`` for concurrent fault fetchers —
and maps to a Perfetto thread.
Spans on one lane are properly nested (each lane is a sequential context),
which is what makes both the Chrome ``B``/``E`` encoding and the stack-based
time attribution in :mod:`repro.obs.breakdown` exact.  ``args`` is an
optional dict of JSON-serialisable details.

``X`` is one row per span on a lane whose spans never nest: the NIC lanes,
which state a frame's *scheduled* extent (a run aborted mid-receive shows it
whole), and the serial dispatcher, one row per handler that ended.  The app
and fetch lanes stay ``B``/``E``: their waits nest (the breakdown's stack).

Causal edges
------------

Alongside the flat event list the tracer records the **causal graph** the
critical-path analysis (:mod:`repro.obs.critical_path`) walks:

* ``sends[msg_id] = (src, t, kind)`` — one entry per *logical* message send
  (recorded at the transport's three entry points; retransmissions reuse the
  original edge, so wire segments naturally absorb retransmission delay);
* ``wakes = [(pid, t, cause_msg_id), ...]`` — a blocked process on ``pid``
  was resumed at ``t`` because message ``cause_msg_id`` was delivered.

Message ids are the run's own (a cluster numbers its messages from 0), so
they are recorded as they are and identical runs record identical edges.

Wake sites inside protocol message handlers call :meth:`wake` without an
explicit cause: the dispatcher brackets every handler with
:meth:`begin_dispatch`/:meth:`end_dispatch`, so the tracer knows which
message a node is currently handling and attributes the wake to it.  A wake
with no known cause (a purely local ``Event.set``) records nothing — the
walker then stays on the same rank, which is the right causal answer.

Causal edges live *outside* ``events`` so every exporter and the
``validate_chrome_trace`` schema are unchanged by their presence.
"""

from __future__ import annotations

from typing import Any, Optional

__all__ = [
    "EventTracer",
    "COMPUTE",
    "BARRIER_WAIT",
    "ACQUIRE_WAIT",
    "DIFF_WAIT",
    "PAGE_FAULT",
    "RECV_WAIT",
    "TX",
    "RX",
    "RUN",
    "IDLE",
    "WAIT_CATEGORIES",
]

# -- categories --------------------------------------------------------------------

COMPUTE = "compute"  # application CPU time (and any unattributed remainder)
BARRIER_WAIT = "barrier-wait"  # inside barrier(), arrival to release
ACQUIRE_WAIT = "acquire-wait"  # inside acquire_view/acquire_lock
DIFF_WAIT = "diff-wait"  # waiting on DIFF_REQUEST/DIFF_REPLY round trips
PAGE_FAULT = "page-fault"  # fault handling (base-copy fetch + validation)
RECV_WAIT = "recv-wait"  # MPI blocking receive
TX = "tx"  # NIC transmit occupancy
RX = "rx"  # NIC receive occupancy
RUN = "run"  # one application process, start to finish
IDLE = "idle"  # after this process finished, before the run's last one did

# wait categories that may appear (nested) on a process's "app" lane; the
# breakdown attributes each instant to the innermost open one
WAIT_CATEGORIES = (BARRIER_WAIT, ACQUIRE_WAIT, PAGE_FAULT, DIFF_WAIT, RECV_WAIT)


class EventTracer:
    """Collects trace events from one simulated run.

    Install by assigning to the simulator *before* running::

        tracer = EventTracer()
        system.sim.tracer = tracer
        system.run_program(body)
        print(flame_summary(tracer))

    (or pass ``tracer=`` to :func:`repro.apps.common.run_app`, which does
    this).  The analyses read ``events``: :func:`repro.obs.compute_breakdown`,
    :func:`repro.obs.flame_summary`, :func:`repro.obs.compute_critical_path`.
    """

    __slots__ = ("events", "sends", "wakes", "_dispatch")

    def __init__(self) -> None:
        self.events: list[tuple] = []
        # causal edges (see module docstring)
        self.sends: dict[int, tuple[int, float, str]] = {}
        self.wakes: list[tuple[int, float, int]] = []
        # pid -> (msg_id, t0, kind, args) of the handler being run
        self._dispatch: dict[int, tuple[int, float, str, dict]] = {}

    # -- recording (called from instrumentation sites) ----------------------------

    def begin(
        self,
        pid: int,
        lane: str,
        cat: str,
        name: str,
        t: float,
        args: Optional[dict] = None,
    ) -> None:
        """Open a span on ``(pid, lane)``; must be closed by :meth:`end`."""
        self.events.append(("B", t, pid, lane, cat, name, args, None))

    def end(self, pid: int, lane: str, cat: str, t: float) -> None:
        """Close the innermost open span on ``(pid, lane)``."""
        self.events.append(("E", t, pid, lane, cat, None, None, None))

    def span(self, pid: int, lane: str, cat: str, name: str, t0: float, t1: float,
             args: Optional[dict] = None) -> None:
        """Record a whole span ``[t0, t1]`` on ``(pid, lane)`` as one row."""
        self.events.append(("X", t0, pid, lane, cat, name, args, t1))

    def instant(
        self,
        pid: int,
        lane: str,
        cat: str,
        name: str,
        t: float,
        args: Optional[dict] = None,
    ) -> None:
        """Record a point event (drops, retransmissions, merges)."""
        self.events.append(("i", t, pid, lane, cat, name, args, None))

    def counter(self, pid: int, name: str, t: float, value: Any) -> None:
        """Record a counter sample (rendered as a track in Perfetto)."""
        self.events.append(("C", t, pid, "counters", None, name, value, None))

    # -- causal edges (critical-path analysis) ------------------------------------

    def causal_send(self, msg_id: int, src: int, t: float, kind: str) -> None:
        """Record the logical send of message ``msg_id`` (once per message)."""
        self.sends[msg_id] = (src, t, kind)

    def wake(self, pid: int, t: float, msg_id: Optional[int] = None) -> None:
        """A blocked process on ``pid`` is being resumed at ``t``.

        ``msg_id`` names the causing message explicitly (transport reply/ack
        matching); without it, the message the node's dispatcher is currently
        handling is the cause.  Purely local wake-ups record nothing.
        """
        cause = msg_id if msg_id is not None else self._dispatch.get(pid, (None,))[0]
        if cause is not None:
            self.wakes.append((pid, t, cause))

    def begin_dispatch(self, pid: int, msg_id: int, kind: str, src: int, t: float) -> None:
        """The node's dispatcher starts running the handler for ``msg_id``."""
        self._dispatch[pid] = (msg_id, t, kind, {"msg": msg_id, "src": src})

    def end_dispatch(self, pid: int, t: float) -> None:
        """The handler the dispatcher was running finished: its ``X`` row."""
        _msg_id, t0, kind, args = self._dispatch.pop(pid)
        self.events.append(("X", t0, pid, "dispatch", "handler", kind, args, t))

    # -- convenience --------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.events)
