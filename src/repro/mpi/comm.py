"""MPI-style communicator over the simulated cluster.

Point-to-point ``send``/``recv`` with ``(source, tag)`` matching, plus the
collectives the applications need (``bcast``, ``reduce``, ``allreduce``,
``gather``, ``allgather``, ``scatter``, ``barrier``), implemented with the
binomial-tree algorithms of MPICH's era.  Payloads are numpy arrays (the
accounted size is ``arr.nbytes``) or small picklable objects with an explicit
size.

All calls are generators (``yield from``), like everything else in the
simulator.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Generator, Optional

import numpy as np

from repro.net.cluster import Cluster, Node
from repro.net.config import NetConfig, NodeConfig
from repro.net.message import Message, MessageKind
from repro.net.transport import Waiter

__all__ = ["MpiComm", "MpiSystem"]

MPI_HEADER_BYTES = 16


def _payload_size(data: Any, size: Optional[int]) -> int:
    if size is not None:
        return size + MPI_HEADER_BYTES
    if isinstance(data, np.ndarray):
        return int(data.nbytes) + MPI_HEADER_BYTES
    if isinstance(data, (int, float, np.integer, np.floating)):
        return 8 + MPI_HEADER_BYTES
    if isinstance(data, (list, tuple)):
        return sum(_payload_size(item, None) for item in data) + MPI_HEADER_BYTES
    if data is None:
        return MPI_HEADER_BYTES
    raise TypeError(
        f"cannot infer wire size of {type(data).__name__}; pass size= explicitly"
    )


class MpiComm:
    """Per-rank communicator endpoint."""

    def __init__(self, node: Node, size: int):
        self.node = node
        self.rank = node.id
        self.size = size
        self._queues: dict[tuple[int, int], deque] = {}
        self._waiters: dict[tuple[int, int], deque] = {}
        node.register_handler(MessageKind.MPI_DATA, self._on_data, cost=0.0)

    # -- point to point -----------------------------------------------------------

    def send(self, data: Any, dest: int, tag: int = 0, size: Optional[int] = None) -> Generator:
        """Blocking-ish send (``yield from``; completes when the transport acks)."""
        if dest == self.rank:
            raise ValueError("MPI self-sends are not supported in the simulator")
        nbytes = _payload_size(data, size)
        return self.node.transport.send_reliable(
            dest, MessageKind.MPI_DATA, {"tag": tag, "data": data, "src": self.rank}, nbytes
        )

    def recv(self, source: int, tag: int = 0) -> Generator:
        """Blocking receive matched on ``(source, tag)``."""
        if source == self.rank or not 0 <= source < self.size:
            raise ValueError(
                f"rank {self.rank} cannot receive from {source}: "
                f"not another rank of {self.size}"
            )
        key = (source, tag)
        queue = self._queues.get(key)
        if queue:
            return queue.popleft()
        waiter = Waiter(1)
        self._waiters.setdefault(key, deque()).append(waiter)
        tracer = self.node.sim.tracer
        if tracer is None:
            return (yield waiter)
        tracer.begin(
            self.rank, "app", "recv-wait", f"recv {source}:{tag}",
            self.node.sim.now, {"src": source, "tag": tag},
        )
        data = yield waiter
        tracer.end(self.rank, "app", "recv-wait", self.node.sim.now)
        return data

    def _on_data(self, msg: Message) -> None:
        """Resume the oldest live ``recv`` of the message's ``(source, tag)``
        in place, or queue the data if none is left (an interrupted recv's
        registration is skipped, never handed the message)."""
        key = (msg.payload["src"], msg.payload["tag"])
        waiters = self._waiters.get(key)
        while waiters:
            waiter = waiters.popleft()
            if waiter.live():
                tracer = self.node.sim.tracer
                if tracer is not None:
                    tracer.wake(self.rank, self.node.sim.now)
                waiter.proc._resume(msg.payload["data"], None, waiter.token)
                return
        self._queues.setdefault(key, deque()).append(msg.payload["data"])

    # -- collectives (binomial trees rooted at ``root``) ------------------------------

    def _vrank(self, rank: int, root: int) -> int:
        return (rank - root) % self.size

    def _rrank(self, vrank: int, root: int) -> int:
        return (vrank + root) % self.size

    def bcast(self, data: Any, root: int = 0, tag: int = -1, size: Optional[int] = None) -> Generator:
        """Binomial-tree broadcast; every rank returns the data."""
        v = self._vrank(self.rank, root)
        mask = 1
        while mask < self.size:
            if v & mask:
                parent = self._rrank(v & ~mask, root)
                data = yield from self.recv(parent, tag)
                break
            mask <<= 1
        # forward down the tree: children are v | m for m below our recv bit
        mask >>= 1
        while mask > 0:
            child_v = v | mask
            if child_v != v and child_v < self.size:
                yield from self.send(data, self._rrank(child_v, root), tag, size=size)
            mask >>= 1
        return data

    def reduce(
        self,
        data: np.ndarray,
        op: Callable[[np.ndarray, np.ndarray], np.ndarray] = np.add,
        root: int = 0,
        tag: int = -2,
    ) -> Generator:
        """Binomial-tree reduction; ``root`` returns the result, others None."""
        v = self._vrank(self.rank, root)
        acc = np.asarray(data)
        mask = 1
        while mask < self.size:
            if v & mask:
                parent = self._rrank(v & ~mask, root)
                yield from self.send(acc, parent, tag)
                return None
            peer_v = v | mask
            if peer_v < self.size:
                child = self._rrank(peer_v, root)
                other = yield from self.recv(child, tag)
                acc = op(acc, other)
            mask <<= 1
        return acc

    def allreduce(self, data: np.ndarray, op=np.add, tag: int = -3) -> Generator:
        """reduce-to-0 followed by bcast (the classic MPICH composition)."""
        result = yield from self.reduce(data, op=op, root=0, tag=tag)
        result = yield from self.bcast(result, root=0, tag=tag - 100)
        return result

    def gather(self, data: Any, root: int = 0, tag: int = -4, size: Optional[int] = None) -> Generator:
        """Linear gather; ``root`` returns the rank-ordered list, others None."""
        if self.rank == root:
            out: list[Any] = [None] * self.size
            out[root] = data
            for src in range(self.size):
                if src != root:
                    out[src] = yield from self.recv(src, tag)
            return out
        yield from self.send(data, root, tag, size=size)
        return None

    def allgather(self, data: Any, tag: int = -5, size: Optional[int] = None) -> Generator:
        gathered = yield from self.gather(data, root=0, tag=tag, size=size)
        gathered = yield from self.bcast(gathered, root=0, tag=tag - 100, size=size)
        return gathered

    def scatter(self, chunks: Optional[list], root: int = 0, tag: int = -6, size: Optional[int] = None) -> Generator:
        """Linear scatter of a rank-indexed list from ``root``."""
        if self.rank == root:
            assert chunks is not None and len(chunks) == self.size
            for dst in range(self.size):
                if dst != root:
                    yield from self.send(chunks[dst], dst, tag, size=size)
            return chunks[root]
        data = yield from self.recv(root, tag)
        return data

    def barrier(self, tag: int = -7) -> Generator:
        """Reduce + bcast of an empty token."""
        token = np.zeros(1, dtype=np.int8)
        tracer = self.node.sim.tracer
        if tracer is not None:
            tracer.begin(
                self.rank, "app", "barrier-wait", "mpi barrier",
                self.node.sim.now, {"tag": tag},
            )
        t0 = self.node.sim.now
        yield from self.allreduce(token, op=np.add, tag=tag)
        if tracer is not None:
            tracer.end(self.rank, "app", "barrier-wait", self.node.sim.now)
        metrics = self.node.sim.metrics
        if metrics is not None:
            metrics.observe(
                "barrier_wait_seconds", self.node.sim.now - t0, node=self.rank
            )
        return None

    def compute(self, seconds: float) -> Generator:
        """Charge application CPU time (``yield from``)."""
        return self.node.app_compute(seconds)


class MpiSystem:
    """A cluster running a message-passing program (no DSM layer)."""

    def __init__(
        self,
        nprocs: int,
        netcfg: Optional[NetConfig] = None,
        nodecfg: Optional[NodeConfig] = None,
        sim=None,
    ):
        self.cluster = Cluster(nprocs, netcfg=netcfg, nodecfg=nodecfg, sim=sim)
        self.comms = [MpiComm(node, nprocs) for node in self.cluster.nodes]
        self.app_output = None  # rank 0 stashes the program read-out here

    @property
    def nprocs(self) -> int:
        return self.cluster.n

    @property
    def sim(self):
        return self.cluster.sim

    @property
    def stats(self):
        return self.cluster.stats

    @property
    def time(self) -> float:
        """Simulated seconds the last ``run_program`` took."""
        return self.cluster.run_time

    def run_program(self, body: Callable[..., Generator], *args, **kwargs) -> list:
        """Run ``body(comm, *args, **kwargs)`` on every node; results by rank."""
        return self.cluster.run_program(
            lambda rank: body(self.comms[rank], *args, **kwargs)
        )
