"""The one-shot :class:`Event` a blocked process waits on.

A *simulator-local* primitive used to structure the implementation (a
process parks on an event until a handler sets it).  It is distinct from the
*protocol-level* locks, barriers and views in :mod:`repro.protocols`, which
cost network messages; an event is free of charge and only orders events.

All wait registrations carry the waiting process's resumption token
(:attr:`Process._epoch`).  A registration whose token no longer matches is
*stale* — the process was resumed by something else (an interrupt, a
competing wake-up) — and is skipped on signal and pruned on the next
registration, so losers of a race are deregistered instead of leaking or
firing into the wrong yield.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, Tuple

from repro.sim.engine import Effect, Process, Simulator

__all__ = ["Event"]


class _Wait(Effect):
    __slots__ = ("evt",)

    def __init__(self, evt: "Event"):
        self.evt = evt

    def apply(self, sim: Simulator, proc: Process) -> None:
        evt = self.evt
        if evt._set:
            sim.call_soon(proc._resume, evt._value, None, proc._epoch)
        else:
            evt._register(proc)


class Event:
    """One-shot level-triggered event carrying an optional value."""

    __slots__ = ("sim", "_set", "_value", "_waiters")

    def __init__(self, sim: Simulator):
        self.sim = sim
        self._set = False
        self._value: Any = None
        self._waiters: Deque[Tuple[Process, int]] = deque()

    def _register(self, proc: Process) -> None:
        # prune stale registrations (interrupted waiters) so a loop
        # re-waiting on the same event cannot grow the deque
        w = self._waiters
        while w:
            head, token = w[0]
            if token == head._epoch and not head.finished:
                break
            w.popleft()
        w.append((proc, proc._epoch))

    def set(self, value: Any = None) -> None:
        if self._set:
            return
        self._set = True
        self._value = value
        while self._waiters:
            proc, token = self._waiters.popleft()
            if token == proc._epoch and not proc.finished:
                self.sim.call_soon(proc._resume, value, None, token)

    def wait(self) -> Effect:
        return _Wait(self)
