"""Cluster: nodes, dispatcher daemons, and wiring.

A :class:`Node` is one simulated PC: a CPU (time charged through
:meth:`Node.compute`), a NIC, a reliable transport endpoint, and a
**dispatcher** that processes incoming protocol messages *serially* —
exactly like a SIGIO handler in TreadMarks.  Serial handler execution is what
turns the LRC barrier manager into the bottleneck the paper measures: 2(n-1)
messages must be handled one after another at node 0.  It has no mailbox: the
NIC's receive completion serves the message in place, or backlogs it while a
handler runs.

Protocol layers register one handler per :class:`MessageKind`, in one of two
forms.  A handler that can only charge a fixed CPU cost and then act (answer
a diff or page request, queue MPI data) is a *plain function* registered with
that cost: the node charges it and calls the function from the event, with no
process involved.  A handler that must wait in the middle — charge compute
time that depends on what it found, send and await acks — is a *generator*,
run by the node's dispatcher process.  Neither may block on a remote request
(one-way sends only), which makes the system deadlock-free by construction.

The :class:`Cluster` is also the program runner: ``run_program`` spawns one
application process per rank, drives the simulation and measures the run.
The DSM facades and the MPI system only say what a rank's process is; there
is no second runner.
"""

from __future__ import annotations

import itertools
import math
from collections import deque
from typing import Any, Callable, Generator, Iterator, Optional

from repro.sim import PARK, Simulator, Timeout
from repro.net.config import NetConfig, NodeConfig
from repro.net.message import Message, MessageKind
from repro.net.nic import Nic, Switch
from repro.net.stats import NetStats
from repro.net.transport import Transport

__all__ = ["Cluster", "Node"]

Handler = Callable[[Message], Any]  # a generator function, or plain with a cost
_UNREGISTERED = (None, None)


class Node:
    """One simulated cluster node."""

    def __init__(self, sim: Simulator, node_id: int, netcfg: NetConfig, nodecfg: NodeConfig,
                 stats: NetStats, ids: Iterator[int], transports: list[Transport]):
        self.sim = sim
        self.id = node_id
        self.netcfg = netcfg
        self.cfg = nodecfg
        self.stats = stats
        self.nic = Nic(sim, node_id, netcfg, stats, self._on_frame)
        self.transport = Transport(sim, node_id, self.nic, netcfg, stats, ids, transports)
        self._handlers: dict[MessageKind, tuple[Handler, Optional[float]]] = {}
        self._backlog: deque[Message] = deque()  # arrived while a handler ran
        self._busy = False  # a handler of either form is running
        self._proc = sim.spawn(self._dispatcher(), name=f"dispatch-{node_id}")

    # -- protocol plumbing -------------------------------------------------------

    def register_handler(self, kind: MessageKind, handler: Handler,
                         cost: Optional[float] = None) -> None:
        """Install ``handler`` for messages of ``kind`` (one per kind).

        Without ``cost`` the handler is a generator function, run to
        completion by the dispatcher process.  With ``cost`` it is a plain
        function: the node charges ``cost`` seconds of CPU, then calls it.
        """
        if kind in self._handlers:
            raise ValueError(f"node {self.id}: handler for {kind} already registered")
        self._handlers[kind] = (handler, cost)

    def _on_frame(self, msg: Message) -> None:
        filtered = self.transport.on_receive(msg)
        if filtered is not None:
            self._backlog.append(filtered)
            if not self._busy:
                self._busy = True
                self._drain()

    def _drain(self, handler: Optional[Handler] = None,
               msg: Optional[Message] = None) -> Optional[Message]:
        """Serve plain kinds from the backlog, in arrival order, until one
        has to wait — after finishing plain ``handler(msg)``, if given: its
        cost was just charged.  The node is marked busy.

        It ends idle, charging a plain handler's cost (this method is that
        timer's callback), or facing a message for the dispatcher process: a
        generator kind, or an unregistered one for it to raise from.  The
        parked dispatcher is resumed with that message — or with an
        exception, so a failing plain handler or a fail-stop raised by the
        cost charge fails the run the way a failing generator handler does.
        Called *by* the dispatcher, which cannot be resumed while it runs,
        the message is returned and the exception raised to it instead.
        """
        backlog = self._backlog
        tracer = self.sim.tracer
        try:
            while True:
                if handler is not None:
                    handler(msg)
                    if tracer is not None:
                        tracer.end_dispatch(self.id, self.sim.now)
                if not backlog:
                    self._busy = False
                    return None
                msg = backlog.popleft()
                handler, cost = self._handlers.get(msg.kind, _UNREGISTERED)
                if cost is None:
                    break
                if tracer is not None:
                    tracer.begin_dispatch(
                        self.id, msg.msg_id, msg.kind._name_, msg.src, self.sim.now
                    )
                if cost > 0:
                    faults = self.sim.faults
                    if faults is not None:
                        # CPU slowdown / pause episodes stretch the charged slice
                        cost = faults.compute_seconds(self.id, cost)
                    self.sim.schedule(cost, self._drain, handler, msg)
                    return None
        except Exception as exc:
            if not self._proc.unpark(exc=exc):
                raise
            return None
        return None if self._proc.unpark(msg) else msg

    def _dispatcher(self) -> Generator:
        msg = None
        while True:
            if msg is None:
                msg = yield PARK
            handler = self._handlers.get(msg.kind, _UNREGISTERED)[0]
            if handler is None:
                raise LookupError(
                    f"node {self.id}: no handler for message kind {msg.kind!r}"
                )
            tracer = self.sim.tracer
            if tracer is not None:
                # dispatch-lane span + handler context for causal wake
                # attribution (see repro.obs.tracer, "Causal edges")
                tracer.begin_dispatch(
                    self.id, msg.msg_id, msg.kind._name_, msg.src, self.sim.now
                )
            yield from handler(msg)
            if tracer is not None:
                tracer.end_dispatch(self.id, self.sim.now)
            msg = self._drain()

    # -- communication helpers -----------------------------------------------------

    def send_reliable(self, dst: int, kind: MessageKind, payload: Any, size: int) -> Generator:
        """Reliable one-way send (``yield from``)."""
        if dst == self.id:
            raise ValueError("use local calls, not network sends, to self")
        return self.transport.send_reliable(dst, kind, payload, size)

    def request(self, dst: int, kind: MessageKind, payload: Any, size: int) -> Generator:
        """RPC (``yield from``); resumes with the reply message."""
        if dst == self.id:
            raise ValueError("use local calls, not network requests, to self")
        return self.transport.request(dst, kind, payload, size)

    def reply_to(self, req: Message, kind: MessageKind, payload: Any, size: int) -> None:
        self.transport.reply_to(req, kind, payload, size)

    # -- local costs -----------------------------------------------------------------

    def compute(self, seconds: float) -> Generator:
        """Charge ``seconds`` of CPU time to simulated time (``yield from``)."""
        if not 0 <= seconds < math.inf:
            raise ValueError(f"node {self.id}: cannot charge {seconds!r} s of compute")
        if seconds:
            faults = self.sim.faults
            if faults is not None:
                # CPU slowdown / pause episodes stretch the charged slice
                seconds = faults.compute_seconds(self.id, seconds)
            yield Timeout(seconds)
        return None

    def app_compute(self, seconds: float) -> Generator:
        """:meth:`compute` on behalf of the application process: a traced run
        shows it as a ``compute`` span (both runtimes' ``compute`` is this)."""
        if self.sim.tracer is None:
            return self.compute(seconds)
        return self._traced_compute(seconds)

    def _traced_compute(self, seconds: float) -> Generator:
        tracer = self.sim.tracer
        tracer.begin(
            self.id, "app", "compute", f"compute {seconds:g}s",
            self.sim.now, {"seconds": seconds},
        )
        yield from self.compute(seconds)
        tracer.end(self.id, "app", "compute", self.sim.now)

    def compute_cycles(self, cycles: float) -> Generator:
        return self.compute(self.cfg.cycles(cycles))

    def copy_cost(self, nbytes: int) -> Generator:
        """Charge the local memcpy cost of moving ``nbytes``."""
        return self.compute(self.cfg.copy_time(nbytes))


class Cluster:
    """A simulated cluster of ``n`` nodes behind one switch.

    Also owns the simulator and the global statistics object.  Higher layers
    (DSM protocols, the VOPP runtime, MPI) attach themselves to the nodes.
    """

    def __init__(
        self,
        n: int,
        netcfg: Optional[NetConfig] = None,
        nodecfg: Optional[NodeConfig] = None,
        sim: Optional[Simulator] = None,
    ):
        if n < 1:
            raise ValueError("cluster needs at least one node")
        self.sim = sim or Simulator()
        self.netcfg = netcfg or NetConfig()
        self.nodecfg = nodecfg or NodeConfig()
        # one NetStats shard per node, merged in node order: the counters
        # stay attributable per node, and the merged by_kind key order does
        # not depend on how events of different nodes interleaved
        self.node_stats = [NetStats() for _ in range(n)]
        self.switch = Switch(self.sim, self.netcfg)
        ids = itertools.count()  # message ids belong to the run: 0, 1, ...
        transports: list[Transport] = []  # the run's, by node id
        self.nodes = [
            Node(self.sim, i, self.netcfg, self.nodecfg, self.node_stats[i], ids, transports)
            for i in range(n)
        ]
        for node in self.nodes:
            self.switch.register(node.nic)
            transports.append(node.transport)
        self.run_time = 0.0  # simulated seconds the last run took

    @property
    def stats(self) -> NetStats:
        """Cluster-wide counters: the node shards merged in node order.

        A fresh snapshot per access — mutate the per-node shards, not this.
        """
        return NetStats.merged(self.node_stats)

    @property
    def n(self) -> int:
        return len(self.nodes)

    def __getitem__(self, i: int) -> Node:
        return self.nodes[i]

    def install_faults(self, plan):
        """Install a :class:`repro.faults.FaultPlan` (or injector) on this
        cluster; returns the installed :class:`~repro.faults.FaultInjector`."""
        from repro.faults.injector import install_faults

        return install_faults(self, plan)

    def run(self, until: Optional[float] = None) -> float:
        self.run_time = self.sim.run(until=until)
        return self.run_time

    # -- the program runner ------------------------------------------------------------

    def run_program(self, program: Callable[[int], Generator]) -> list:
        """Run ``program(rank)`` on every node to completion; results by rank.

        Surfaces any worker exception (a deadlock shows up as workers that
        never finish) and records the simulated duration in ``run_time``.
        """
        sim = self.sim
        start = sim.now
        finish_times: list[float] = []

        def timed(rank: int) -> Generator:
            tracer = sim.tracer
            if tracer is not None:
                tracer.begin(rank, "app", "run", f"rank {rank}", sim.now)
            result = yield from program(rank)
            if tracer is not None:
                tracer.end(rank, "app", "run", sim.now)
            finish_times.append(sim.now)
            return result

        procs = [sim.spawn(timed(rank), name=f"app-{rank}") for rank in range(self.n)]
        self.run()
        stuck = [p.name for p in procs if not p.finished]
        if stuck:
            raise RuntimeError(
                f"workers never finished (deadlock or lost wakeup): {stuck}"
            )
        # the run ends when the last application process finishes; what the
        # event heap drains afterwards (fire-and-forget senders' acks) must
        # not count towards the measured time
        self.run_time = max(finish_times) - start
        return [p.result for p in procs]
