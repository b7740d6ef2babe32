"""Per-node memory manager: page copies, fault routing, interval bookkeeping.

The manager is the boundary between applications and the consistency
protocol.  Applications (through :class:`repro.core.shared_array.SharedArray`)
call :meth:`read_bytes`/:meth:`write_bytes`; the manager detects which pages
are not in the right state and hands them to the protocol's fault handlers —
the software analogue of an mprotect fault.

Interval bookkeeping (twins, write sets, the pending diffs a release closes)
also lives here because every protocol shares it, and so does every change to
a page's bytes: a closed interval's after-image is shared with its pending
diff, so a page is detached before anything writes it in place.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Generator, Iterable, Optional, Protocol as TypingProtocol

import numpy as np

from repro.memory.address_space import AddressSpace
from repro.memory.diff import Diff, apply_diff, pending_diff
from repro.memory.page import NO_COPY, RO, RW, PageCopy, PageState

if TYPE_CHECKING:  # pragma: no cover
    from repro.net.cluster import Node

__all__ = ["MemoryManager", "FaultHandler"]


class FaultHandler(TypingProtocol):
    """What a consistency protocol must provide to a memory manager."""

    def read_fault(self, pids: list[int]) -> Generator:  # pragma: no cover
        ...

    def write_fault(self, pids: list[int]) -> Generator:  # pragma: no cover
        ...


class MemoryManager:
    """One node's view of the shared address space."""

    def __init__(self, node: "Node", space: AddressSpace):
        self.node = node
        self.space = space
        self.pages: dict[int, PageCopy] = {}
        self.write_set: set[int] = set()
        self.fault_handler: Optional[FaultHandler] = None
        # (addr, nbytes) -> ((pid, page_off, out_off, take), ...): applications
        # re-read the same spans (rows, buckets) every iteration, so the page
        # translation + bounds validation is done once per distinct span
        self._span_cache: dict[tuple[int, int], tuple[tuple[int, int, int, int], ...]] = {}

    def _segments(self, addr: int, nbytes: int) -> tuple[tuple[int, int, int, int], ...]:
        """Cached page-segment decomposition of the byte range ``[addr, addr+nbytes)``."""
        key = (addr, nbytes)
        segs = self._span_cache.get(key)
        if segs is None:
            self.space.pages_of_range(addr, nbytes)  # bounds validation
            psz = self.space.page_size
            out = []
            pos = addr
            end = addr + nbytes
            while pos < end:
                off = pos % psz
                take = min(end - pos, psz - off)
                out.append((pos // psz, off, pos - addr, take))
                pos += take
            segs = self._span_cache[key] = tuple(out)
        return segs

    # -- page table ------------------------------------------------------------

    def page(self, pid: int) -> PageCopy:
        copy = self.pages.get(pid)
        if copy is None:
            copy = PageCopy(pid, self.space.page_size)
            self.pages[pid] = copy
        return copy

    def state(self, pid: int) -> PageState:
        copy = self.pages.get(pid)
        return copy.state if copy is not None else NO_COPY

    # -- application access path -------------------------------------------------

    def read_bytes(self, addr: int, nbytes: int) -> Generator:
        """Read ``nbytes`` at ``addr`` (``yield from``); returns a uint8 array."""
        segs = self._segments(addr, nbytes)
        pages = self.pages
        faulting = [
            pid for pid, _, _, _ in segs
            if (copy := pages.get(pid)) is None
            or (state := copy.state) is not RO and state is not RW
        ]
        if faulting:
            if self.fault_handler is None:
                raise RuntimeError("no protocol attached to memory manager")
            yield from self.fault_handler.read_fault(faulting)
        oracle = self.node.sim.oracle
        if oracle is not None:
            now = self.node.sim.now
            nid = self.node.id
            for pid in dict.fromkeys(s[0] for s in segs):
                oracle.read(now, nid, pid, pages[pid].data)
        return self._gather(segs, nbytes)

    def write_bytes(self, addr: int, data: np.ndarray) -> Generator:
        """Write ``data`` (uint8 array/bytes) at ``addr`` (``yield from``)."""
        data = np.asarray(data, dtype=np.uint8).ravel()
        nbytes = data.shape[0]
        segs = self._segments(addr, nbytes)
        pages = self.pages
        faulting = [
            pid for pid, _, _, _ in segs
            if (copy := pages.get(pid)) is None or copy.state is not RW
        ]
        if faulting:
            if self.fault_handler is None:
                raise RuntimeError("no protocol attached to memory manager")
            yield from self.fault_handler.write_fault(faulting)
        self._scatter(segs, data)
        oracle = self.node.sim.oracle
        if oracle is not None:
            now = self.node.sim.now
            nid = self.node.id
            for pid in dict.fromkeys(s[0] for s in segs):
                oracle.write(now, nid, pid, pages[pid].data)
        return None

    def _gather(self, segs: tuple[tuple[int, int, int, int], ...], nbytes: int) -> np.ndarray:
        pages = self.pages
        if len(segs) == 1:
            pid, off, _, take = segs[0]
            copy = pages[pid]
            if (state := copy.state) is not RO and state is not RW:
                raise RuntimeError(f"page {pid} not readable after fault handling")
            return copy.data[off : off + take].copy()
        out = np.empty(nbytes, dtype=np.uint8)
        for pid, off, out_off, take in segs:
            copy = pages[pid]
            if (state := copy.state) is not RO and state is not RW:
                raise RuntimeError(f"page {pid} not readable after fault handling")
            out[out_off : out_off + take] = copy.data[off : off + take]
        return out

    def _scatter(self, segs: tuple[tuple[int, int, int, int], ...], data: np.ndarray) -> None:
        pages = self.pages
        for pid, off, out_off, take in segs:
            copy = pages[pid]
            if copy.state is not RW:
                raise RuntimeError(f"page {pid} not writable after fault handling")
            copy.data[off : off + take] = data[out_off : out_off + take]

    # -- interval bookkeeping (used by protocols) ----------------------------------

    def start_writing(self, pid: int) -> None:
        """Twin the page and mark it RW + in the current write set."""
        copy = self.page(pid)
        copy.make_twin()
        copy.state = RW
        self.write_set.add(pid)

    def _close_twin(self, pid: int) -> Optional[Diff]:
        """Close one written page: drop its twin, leave it RO.

        Returns the pending diff of the page against its twin (its runs are
        built when first read), or ``None`` if nothing actually changed.
        """
        copy = self.pages[pid]
        twin, after = copy.twin, copy.data
        if twin is None:
            raise RuntimeError(f"page {pid} written without twin")
        copy.drop_twin()
        copy.state = RO
        if twin.tobytes() == after.tobytes():
            return None
        after.flags.writeable = False  # the diff's after-image from now on
        return pending_diff(pid, twin, after)

    def end_interval(self) -> dict[int, Diff]:
        """Close the current interval: one pending diff per written page.

        Pages downgrade RW→RO and twins are dropped.  Returns only non-empty
        diffs (a twinned page that was never actually modified produces none).
        """
        diffs: dict[int, Diff] = {}
        for pid in sorted(self.write_set):
            diff = self._close_twin(pid)
            if diff is not None:
                diffs[pid] = diff
        self.write_set.clear()
        return diffs

    def flush_page(self, pid: int) -> Optional[Diff]:
        """Early-flush one written page (invalidation arrived while RW).

        Closes the page's twin and removes the page from the write set (the
        caller will invalidate it).  Returns the pending diff, or ``None`` if
        nothing actually changed.
        """
        diff = self._close_twin(pid)
        self.write_set.discard(pid)
        return diff

    # -- protocol data movement helpers ---------------------------------------------

    def install_full_page(self, pid: int, content: bytes | np.ndarray, state: PageState = RO) -> None:
        copy = self.page(pid)
        copy.detach()[:] = np.frombuffer(content, dtype=np.uint8) if isinstance(content, bytes) else content
        copy.state = state

    def apply_diffs(self, pid: int, diffs: Iterable[Diff], state: PageState = RO) -> None:
        copy = self.page(pid)
        data = copy.detach()
        for diff in diffs:
            apply_diff(data, diff)
        copy.state = state

    def zero_fill(self, pid: int, state: PageState = RO) -> None:
        """First-touch materialisation of an untouched (all-zero) page."""
        copy = self.page(pid)
        copy.materialise()
        copy.state = state

    def snapshot_page(self, pid: int) -> bytes:
        copy = self.pages.get(pid)
        if copy is None or copy.data is None:
            raise KeyError(f"node {self.node.id} has no copy of page {pid}")
        return copy.data.tobytes()
