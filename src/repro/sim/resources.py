"""Synchronisation resources living in simulated time.

These are *simulator-local* primitives used to structure the implementation
(e.g. serialising a NIC).  They are distinct from the *protocol-level* locks,
barriers and views in :mod:`repro.protocols`, which cost network messages; the
primitives here are free of charge and only order events.

All wait registrations carry the waiting process's resumption token
(:attr:`Process._epoch`).  A registration whose token no longer matches is
*stale* — the process was resumed by something else (an interrupt, a
competing wake-up) — and is skipped on signal and pruned on the next
registration, so losers of a race are deregistered instead of leaking or
firing into the wrong yield.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, Generator, Optional, Tuple

from repro.sim.engine import Effect, Process, SimError, Simulator

__all__ = ["Mutex", "Semaphore", "Condition", "Event", "Barrier"]


class _Acquire(Effect):
    __slots__ = ("res",)

    def __init__(self, res: "Semaphore"):
        self.res = res

    def apply(self, sim: Simulator, proc: Process) -> None:
        res = self.res
        if res._count > 0:
            res._count -= 1
            sim.call_soon(proc._resume, None, None, proc._epoch)
        else:
            res._waiters.append((proc, proc._epoch))


class Semaphore:
    """Counting semaphore. ``yield sem.acquire()`` / ``sem.release()``."""

    def __init__(self, sim: Simulator, value: int = 1):
        if value < 0:
            raise SimError("semaphore initial value must be >= 0")
        self.sim = sim
        self._count = value
        self._waiters: Deque[Tuple[Process, int]] = deque()

    def acquire(self) -> Effect:
        return _Acquire(self)

    def release(self) -> None:
        while self._waiters:
            proc, token = self._waiters.popleft()
            if token == proc._epoch and not proc.finished:
                self.sim.call_soon(proc._resume, None, None, token)
                return
        self._count += 1

    def locked(self) -> bool:
        return self._count == 0


class Mutex(Semaphore):
    """Binary semaphore with a context-style helper.

    ``yield from mutex.holding(gen)`` runs ``gen`` with the mutex held.
    """

    def __init__(self, sim: Simulator):
        super().__init__(sim, value=1)

    def holding(self, gen: Generator) -> Generator:
        yield self.acquire()
        try:
            result = yield from gen
        finally:
            self.release()
        return result


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

    @property
    def is_set(self) -> bool:
        return self._set

    @property
    def value(self) -> Any:
        """The value passed to :meth:`set` (None while unset)."""
        return self._value

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


class Condition:
    """Condition variable over an explicit :class:`Mutex`.

    ``yield from cond.wait()`` atomically releases the mutex, blocks until
    notified, then reacquires the mutex before returning.
    """

    def __init__(self, sim: Simulator, mutex: Optional[Mutex] = None):
        self.sim = sim
        self.mutex = mutex or Mutex(sim)
        self._waiters: Deque[Event] = deque()

    def wait(self) -> Generator:
        evt = Event(self.sim)
        self._waiters.append(evt)
        self.mutex.release()
        yield evt.wait()
        yield self.mutex.acquire()

    def notify(self, n: int = 1) -> None:
        for _ in range(min(n, len(self._waiters))):
            self._waiters.popleft().set()

    def notify_all(self) -> None:
        self.notify(len(self._waiters))


class Barrier:
    """Simulator-local barrier for ``parties`` processes (zero message cost)."""

    def __init__(self, sim: Simulator, parties: int):
        if parties <= 0:
            raise SimError("barrier needs at least one party")
        self.sim = sim
        self.parties = parties
        self._count = 0
        self._generation = 0
        self._event = Event(sim)

    def wait(self) -> Generator:
        gen = self._generation
        self._count += 1
        if self._count == self.parties:
            self._count = 0
            self._generation += 1
            evt, self._event = self._event, Event(self.sim)
            evt.set(gen)
            return gen
        evt = self._event
        arrived = yield evt.wait()
        return arrived
