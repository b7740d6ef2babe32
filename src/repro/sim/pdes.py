"""Partition-determinism harness: K in-process replicas against the serial run.

The serial engine processes one global event queue, so two events on
different nodes at the same simulated instant run in *some* order.  The
network and protocol layers are written so that order is unobservable
(see :class:`repro.net.nic.Switch`, :mod:`repro.protocols.versioned`); this
module is the executable evidence.  It splits the simulated nodes into
``workers`` contiguous partitions, runs each partition on its own
:class:`~repro.sim.Simulator` — where same-instant events of different
partitions are not ordered against each other at all — and the result must
equal the serial run bit for bit: output, statistics row, simulated time.
``python -m repro.bench.pdes`` checks that over the whole benchmark matrix.

It is a test harness, not an engine.  Everything runs in one OS process and
is slower than serial; a forked, lease-batched version of this loop was
measured at 0.19-0.23x serial on the paper's applications and deleted
(``docs/simulator.md``, "Why there is no parallel engine").

How it works
------------

* Each partition builds a **full replica** of the simulated system — all
  ``n`` nodes, the same allocations, the same t=0 construction order — but
  spawns application processes only for the ranks it owns; foreign nodes'
  dispatcher daemons stay parked forever.  Replication keeps every sequence
  number, RNG stream and data structure identical to the serial run.
* The replica's switch is a :class:`PartitionSwitch`: a frame for an owned
  destination becomes its arrival event as usual; a frame for a foreign
  destination is captured at hand-off into an **outbox** with its canonical
  ordering coordinates ``(dst, t_arrival, t_departure, key)``, the key being
  the source NIC's ``(src, departure#)`` packed into one integer.
* The loop exploits the switch's fixed forwarding latency λ
  (:meth:`repro.net.config.NetConfig.lookahead`) as lookahead.  At each
  barrier it drains every outbox and every shared-oracle delta (page
  directory + view registry mutations), computes ``T = min`` over every
  partition's next event time and every routed frame's arrival time,
  injects each frame into the partition owning its destination, applies the
  foreign deltas, and runs every partition through the half-open window
  ``[T, T + λ)`` with ``sim.run(until=T + λ, inclusive=False)``.

Why that is exact:

* **No missed events.**  A frame handed to the switch at ``t`` inside the
  window leaves its NIC at some ``t_dep ≥ t`` and arrives at ``t_dep + λ ≥
  T + λ`` — outside the window, collected at the next barrier — and an
  oracle mutation at ``t_m ≥ T`` is λ-visible only at
  ``t_m + λ``, so no reader inside the window may select it.  The loop
  checks the first half itself: a collected frame arriving before the end
  of the window just executed raises :class:`PdesError`.
* **Identical delivery order.**  An arrival's whole queue key is ``(t_arrival,
  t_departure, class 1, (src, departure#))``
  (:meth:`repro.sim.Simulator.schedule_keyed`) — nothing in it depends on
  which partition the frame came from or when it was pushed, so an injected
  frame sits exactly where the serial switch put it.
* **Identical metadata reads.**  The shared oracles are read under the
  λ-visibility rule in serial runs too, and a partition executing
  ``[T, T + λ)`` already holds every foreign mutation the rule can select.
* **Identical statistics.**  Every counter lives in a per-node shard
  (:mod:`repro.net.stats`, :mod:`repro.protocols.runstats`); merging the
  owned shards in node order reproduces the serial float-summation order.

``events`` exceeds the serial count by exactly ``(workers - 1) * nprocs``:
one dispatcher start-up per foreign node per replica.

What it refuses (:class:`PdesError`): ``random_drop_prob`` (one global RNG
stream drawn in cross-node event order), ``hlrc_d`` (its home assignment
needs an instantaneous directory read, see
:meth:`repro.protocols.directory.PageDirectory.origin_any`) and a
non-positive ``switch_latency`` (no lookahead).  Fault plans and observers
are simply not parameters.

Not imported from ``repro.sim.__init__``: this module imports the network
and application layers, which import ``repro.sim``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any

from repro.core.program import make_system
from repro.net.config import NetConfig
from repro.net.nic import Switch
from repro.sim.engine import SimError, Simulator

__all__ = [
    "PdesError",
    "PartitionSwitch",
    "PdesOutcome",
    "partition_ranks",
    "run_partitioned",
]


class PdesError(SimError):
    """The run cannot be partitioned, or the window invariant was violated."""


def partition_ranks(nprocs: int, workers: int) -> list[range]:
    """Contiguous block decomposition of ``range(nprocs)`` into partitions.

    ``workers`` is clamped to ``nprocs`` so every partition owns at least one
    rank.  Contiguity puts rank 0 in partition 0, which is where application
    outputs are collected.
    """
    if workers < 1:
        raise PdesError(f"need at least one partition, got {workers}")
    workers = min(workers, nprocs)
    base, extra = divmod(nprocs, workers)
    out, lo = [], 0
    for p in range(workers):
        hi = lo + base + (1 if p < extra else 0)
        out.append(range(lo, hi))
        lo = hi
    return out


class PartitionSwitch(Switch):
    """A switch delivering to a subset of the ports, with an outbox for the rest.

    Every NIC keys its own frames — foreign-destination frames included — so
    the canonical keys recorded in the outbox equal the serial ones.
    """

    def __init__(self, sim, cfg, node_stats, owned):
        super().__init__(sim, cfg, node_stats)
        self.owned = frozenset(owned)
        #: frames awaiting the next barrier:
        #: ``(dst, t_arrival, t_departure, key, msg)``
        self.outbox: list[tuple] = []

    def forward(self, msg, t_dep, key) -> None:
        if msg.dst in self.owned:
            super().forward(msg, t_dep, key)
        else:
            self.outbox.append(
                (msg.dst, t_dep + self.cfg.switch_latency, t_dep, key, msg))

    def take_outbox(self) -> list[tuple]:
        out, self.outbox = self.outbox, []
        return out

    def inject(self, frames) -> None:
        """Queue cross-partition arrivals handed over at a barrier: the same
        push, under the same key, the serial switch makes at hand-off."""
        for dst, t_arr, t_dep, key, msg in frames:
            self.sim.schedule_keyed(
                t_arr, t_dep, 1, key, self.ports[dst].on_arrival, msg)


@dataclass
class _World:
    """One partition: a full system replica running only its owned ranks."""

    sim: Simulator
    system: Any  # whatever make_system returns for the protocol
    switch: PartitionSwitch
    pending: Any  # PendingRun of the owned ranks


def _build_world(owned, app_module, protocol, nprocs, config, variant,
                 netcfg, nodecfg) -> _World:
    """Construct one partition's replica by the same code path as serial."""
    sim = Simulator()
    system = make_system(nprocs, protocol, netcfg=netcfg, nodecfg=nodecfg, sim=sim)
    body = app_module.build(system, config, variant)
    cluster = system.cluster
    # swapped in after construction, at t=0 before any traffic, rather than
    # threading a switch parameter through every layer
    switch = PartitionSwitch(sim, cluster.netcfg, cluster.node_stats, owned)
    for node in cluster.nodes:
        switch.register(node.nic)
    cluster.switch = switch
    for oracle in system.shared_oracles:
        oracle.capture_deltas()
    pending = system.start_program(body, ranks=owned)
    return _World(sim, system, switch, pending)


@dataclass
class PdesOutcome:
    """Merged results of a partitioned run, mirroring the serial observables."""

    output: Any
    stats: Any  # merged RunStats (DSM) or NetStats (MPI)
    time: float
    results: dict  # rank -> program return value
    events: int  # sum of per-partition executed callbacks
    windows: int  # barrier rounds performed
    workers: int  # partitions actually used (after clamping to nprocs)


def run_partitioned(
    app_module,
    protocol: str,
    nprocs: int,
    config=None,
    variant: str = "default",
    workers: int = 2,
    netcfg=None,
    nodecfg=None,
) -> PdesOutcome:
    """Run one application as ``workers`` partitions, all in this process.

    The outcome must be bit-identical to the serial ``run_app`` path: same
    output arrays, same merged statistics (and therefore the same benchmark
    fingerprint), same simulated time; ``events`` differs from serial by
    exactly ``(workers - 1) * nprocs``.  Raises :class:`PdesError` for the
    configurations listed in the module docstring and when a frame is
    collected that should already have been delivered.
    """
    if protocol == "hlrc_d":
        raise PdesError(
            "hlrc_d needs an instantaneous home-assignment read "
            "(PageDirectory.origin_any); run it serially"
        )
    netcfg = netcfg or NetConfig()
    if netcfg.random_drop_prob > 0.0:
        raise PdesError("random_drop_prob draws a global RNG stream; run serially")
    try:
        lam = netcfg.lookahead()
    except ValueError as exc:
        raise PdesError(str(exc)) from None
    config = config if config is not None else app_module.default_config()

    parts = partition_ranks(nprocs, workers)
    owner_of = {r: p for p, ranks in enumerate(parts) for r in ranks}
    worlds = [
        _build_world(owned, app_module, protocol, nprocs, config, variant,
                     netcfg, nodecfg)
        for owned in parts
    ]

    windows = 0
    window_end = 0.0  # every partition has executed everything before this
    while True:
        inboxes: list[list] = [[] for _ in worlds]
        deltas = []
        T = math.inf
        for w in worlds:
            for frame in w.switch.take_outbox():
                t_arr = frame[1]
                if t_arr < window_end:
                    raise PdesError(
                        f"frame {frame[-1].src}->{frame[0]} arrives at {t_arr!r}, "
                        f"inside the window already executed (end {window_end!r})"
                    )
                if t_arr < T:
                    T = t_arr
                inboxes[owner_of[frame[0]]].append(frame)
            deltas.append([o.drain_deltas() for o in w.system.shared_oracles])
            T = min(T, w.sim.peek_next_time())
        if T == math.inf:
            break
        windows += 1
        window_end = T + lam
        for i, w in enumerate(worlds):
            w.switch.inject(inboxes[i])
            for j, foreign in enumerate(deltas):
                if j != i:
                    for oracle, d in zip(w.system.shared_oracles, foreign):
                        oracle.apply_deltas(d)
            w.sim.run(until=window_end, inclusive=False)

    results = {}
    for w in worlds:
        results.update(w.pending.finish())
    # read the merged observables off partition 0's replica (it ran rank 0,
    # so it holds the application output) the way a serial run reads them,
    # after handing it every other rank's statistics shards
    home = worlds[0].system
    for rank in range(nprocs):
        home.adopt_rank(rank, worlds[owner_of[rank]].system)
    home.cluster.run_time = max(  # start is t=0
        t for w in worlds for t in w.pending.finish_times)
    return PdesOutcome(
        output=app_module.extract(home, config),
        stats=home.stats,
        time=home.time,
        results=results,
        events=sum(w.sim.events_processed for w in worlds),
        windows=windows,
        workers=len(parts),
    )
