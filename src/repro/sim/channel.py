"""Message channels for inter-process communication inside the simulator.

A :class:`Channel` is an unbounded (or optionally bounded) FIFO queue with
blocking ``get`` and non-blocking ``put``, for daemons with several feeders
or several consumers (the one-feeder node dispatcher uses ``PARK`` instead).

Blocked getters are registered together with their resumption token
(:attr:`Process._epoch`); a getter that was interrupted while waiting is
skipped when an item arrives, so the item goes to the next live getter
instead of being lost to a dropped wake-up.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, Optional, Tuple

from repro.sim.engine import Effect, Process, SimError, Simulator

__all__ = ["Channel", "ChannelClosed"]


class ChannelClosed(Exception):
    """Raised from a blocked ``get`` when the channel is closed and drained."""


class _Get(Effect):
    __slots__ = ("chan",)

    def __init__(self, chan: "Channel"):
        self.chan = chan

    def apply(self, sim: Simulator, proc: Process) -> None:
        chan = self.chan
        if chan._items:
            item = chan._items.popleft()
            sim.call_soon(proc._resume, item, None, proc._epoch)
        elif chan.closed:
            sim.call_soon(proc._resume, None, ChannelClosed(), proc._epoch)
        else:
            chan._getters.append((proc, proc._epoch))


class Channel:
    """FIFO queue with blocking receive.

    ``put`` never blocks (capacity, when set, raises instead — the network
    layer models backpressure explicitly by *dropping*, not by blocking, to
    mirror a real NIC buffer).
    """

    def __init__(self, sim: Simulator, capacity: Optional[int] = None, name: str = ""):
        self.sim = sim
        self.capacity = capacity
        self.name = name
        self.closed = False
        self._items: Deque[Any] = deque()
        self._getters: Deque[Tuple[Process, int]] = deque()
        self._get_effect = _Get(self)  # stateless, shared by every get()

    def __len__(self) -> int:
        return len(self._items)

    def put(self, item: Any) -> bool:
        """Enqueue ``item``; returns False iff dropped due to capacity."""
        if self.closed:
            raise SimError(f"put on closed channel {self.name!r}")
        getters = self._getters
        while getters:
            proc, token = getters.popleft()
            if token == proc._epoch and not proc.finished:
                self.sim.call_soon(proc._resume, item, None, token)
                return True
        if self.capacity is not None and len(self._items) >= self.capacity:
            return False
        self._items.append(item)
        return True

    def get(self) -> Effect:
        """Effect: block until an item is available, resume with it."""
        return self._get_effect

    def try_get(self) -> tuple[bool, Any]:
        """Non-blocking receive: ``(True, item)`` or ``(False, None)``."""
        if self._items:
            return True, self._items.popleft()
        return False, None

    def close(self) -> None:
        """Close the channel; blocked getters receive :class:`ChannelClosed`."""
        self.closed = True
        while self._getters:
            proc, token = self._getters.popleft()
            if token == proc._epoch and not proc.finished:
                self.sim.call_soon(proc._resume, None, ChannelClosed(), token)
