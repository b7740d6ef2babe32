"""The one-shot :class:`Event` a blocked process waits on.

A *simulator-local* primitive used to structure the implementation (a
process parks on an event until a handler sets it).  It is distinct from the
*protocol-level* locks, barriers and views in :mod:`repro.protocols`, which
cost network messages; an event is free of charge and only orders events.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque

from repro.sim.engine import Effect, Process, Simulator

__all__ = ["Event"]


class _Wait(Effect):
    __slots__ = ("evt",)

    def __init__(self, evt: "Event"):
        self.evt = evt

    def apply(self, sim: Simulator, proc: Process) -> None:
        evt = self.evt
        if evt._set:
            sim.call_soon(proc._resume, evt._value)
        else:
            evt._waiters.append(proc)


class Event:
    """One-shot level-triggered event carrying an optional value."""

    __slots__ = ("sim", "_set", "_value", "_waiters")

    def __init__(self, sim: Simulator):
        self.sim = sim
        self._set = False
        self._value: Any = None
        self._waiters: Deque[Process] = deque()

    def set(self, value: Any = None) -> None:
        if self._set:
            return
        self._set = True
        self._value = value
        while self._waiters:
            self.sim.call_soon(self._waiters.popleft()._resume, value)

    def wait(self) -> Effect:
        return _Wait(self)
