"""Message channels for inter-process communication inside the simulator.

A :class:`Channel` is an unbounded FIFO queue with blocking ``get`` and
non-blocking ``put``, for daemons with several feeders or several consumers
(the one-feeder node dispatcher uses ``PARK`` instead).
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque

from repro.sim.engine import Effect, Process, Simulator

__all__ = ["Channel"]


class _Get(Effect):
    __slots__ = ("chan",)

    def __init__(self, chan: "Channel"):
        self.chan = chan

    def apply(self, sim: Simulator, proc: Process) -> None:
        chan = self.chan
        if chan._items:
            sim.call_soon(proc._resume, chan._items.popleft())
        else:
            chan._getters.append(proc)


class Channel:
    """FIFO queue with blocking receive; ``put`` never blocks."""

    def __init__(self, sim: Simulator):
        self.sim = sim
        self._items: Deque[Any] = deque()
        self._getters: Deque[Process] = deque()
        self._get_effect = _Get(self)  # stateless, shared by every get()

    def __len__(self) -> int:
        return len(self._items)

    def put(self, item: Any) -> None:
        """Hand ``item`` to the oldest blocked getter, or enqueue it."""
        if self._getters:
            self.sim.call_soon(self._getters.popleft()._resume, item)
        else:
            self._items.append(item)

    def get(self) -> Effect:
        """Effect: block until an item is available, resume with it."""
        return self._get_effect
