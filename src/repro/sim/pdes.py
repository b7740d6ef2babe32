"""Conservative windowed parallel discrete-event execution (PDES).

The serial engine processes one global event queue.  This driver partitions
the *simulated nodes* across OS processes and advances them in lock-step
windows, exploiting the switch's fixed forwarding latency λ as lookahead —
the classical conservative null-message/window scheme (Chandy–Misra–Bryant
family), specialised to a star topology where every cross-node interaction
takes at least λ.

Architecture
------------

* Ranks are split into contiguous blocks, one per partition.  Each partition
  builds a **full replica** of the simulated system — all ``n`` nodes, the
  same allocations, the same t=0 construction order — but spawns application
  processes only for its owned ranks; foreign nodes' dispatcher daemons stay
  parked forever.  Replication is what keeps every sequence
  number, RNG stream and data structure bit-identical to the serial run.
* The replica's switch is a :class:`PartitionSwitch`: frames for co-resident
  destinations take the normal staged arrival pump; frames for foreign
  destinations go to an **outbox** carrying their canonical ordering
  coordinates ``(dst, t_arrival, t_departure, src, departure#)``.  Foreign
  frames are captured the moment their *transmission starts* (a NIC TX-start
  probe): the hand-off instant ``t_dep = now + send_overhead + wire`` and
  the per-source departure number are already fully determined then (TX is
  serialised per NIC and the driver refuses every non-deterministic
  transfer perturbation), so a frame whose wire time spans a barrier ships
  one barrier *earlier* than its simulated hand-off — the destination holds
  it before any window that could need it, and an in-flight transmission
  never forces a minimal-width window.
* Execution alternates windows and barriers.  At each barrier the
  coordinator collects every partition's report — next-event time ``N``,
  output bound ``O`` (see below), struct-packed outbound frames
  (:func:`repro.net.message.encode_frames`) and shared-oracle deltas (page
  directory + view registry mutations, see
  :mod:`repro.protocols.versioned`) — routes the frame bytes to the
  destination partitions (:func:`repro.net.message.route_frames`, which
  never unpickles a relayed payload), and computes ``T = min`` next-event
  time over partitions and in-flight frames.  Each partition then injects
  its inbound frames, applies the foreign oracle deltas, and runs
  ``sim.run(until=H, inclusive=False)`` — the half-open window ``[T, H)``.

Three fast paths cut the per-barrier cost (``docs/simulator.md`` carries
the full protocol description and safety argument):

* **Null-barrier elision** — a partition with an empty outbox and no oracle
  deltas uploads a 3-tuple ``("r", N, O)``; when nothing routes to a
  partition it downloads a bare ``("s", H)``.  A round in which *every*
  partition reported null skips the frame/delta exchange entirely and is
  counted in ``elided_windows``.
* **Window leases** — each report carries an *output bound* ``O``: a lower
  bound on the earliest future simulated time at which that partition can
  put a new (not-yet-captured) frame on the switch or mutate a shared
  oracle.  ``O`` comes from a scan of the partition's pending event set
  (:meth:`PartitionWorld._output_bound`): arrival pumps cannot influence
  anything before their frames clear the receive wire and overhead, a TX
  completion's remaining chain is committed and its hand-off instants are
  computable from the backlog, and any other event is assumed to send
  immediately (costing ``δ_send = NetConfig.min_send_delay()`` to reach
  the switch) or — for DSM partitions — to mutate an oracle at its own
  instant.  The coordinator additionally bounds influence *induced* by the
  frames it routes this round (``arrival + δ_recv`` for DSM, ``+ δ_send``
  more for MPI) and grants the window ``[T, H)`` with ``H = λ + min`` over
  all bounds, clamped to at least ``T + λ`` — one round-trip covering what
  would otherwise be ``(H - T)/λ`` barriers (the extras are counted in
  ``leased_windows``).
* **Compact frames** — outboxes cross the pipe as struct-packed buffers
  with per-frame pickled payloads instead of pickled tuple lists; the
  coordinator routes by scanning fixed-offset headers and slicing bytes.

Why this is exact (not just approximately synchronised):

* **No missed events.**  Every cross-partition influence during ``[T, H)``
  happens at or after ``H - λ``: a partition's own pending work influences
  no earlier than its reported ``O ≥ H - λ``, and work triggered by frames
  injected this round no earlier than the induced bound — both folded into
  ``H``.  A frame placed on the switch at ``t ≥ H - λ`` arrives at
  ``t + λ ≥ H`` — outside the window, collected at the next barrier — and
  an oracle mutation at ``t_m ≥ H - λ`` is λ-visible only at
  ``t_m + λ ≥ H``, so no reader inside the window may select it.  Frames
  collected at a barrier all arrive inside the window about to run:
  ``t_arr = t_dep + λ`` with ``t_dep ≥ H_prev - λ`` gives
  ``t_arr ≥ H_prev``, and ``t_arr < H'`` because the arrival time is
  folded into the next ``T``.
* **Identical delivery order.**  Same-instant frames to one port are
  delivered by the switch's arrival pump in ``(src, departure#)`` order, and
  the pump event carries the explicit ``(t_sched, class)`` key via
  :meth:`repro.sim.Simulator.schedule_keyed` — both independent of which
  partition the frames came from, so injection rebuilds the exact serial
  pump slot.
* **Identical metadata reads.**  The shared oracles are read under the
  λ-visibility rule in serial runs too, and a partition executing ``[T,
  H)`` already holds every foreign mutation the rule can select (all have
  ``t_m + λ < H``, hence ``t_m < H - λ``, hence shipped at an earlier
  barrier by the influence bound above).
* **Identical statistics.**  Every counter lives in a per-node shard
  (:mod:`repro.net.stats`, :mod:`repro.protocols.runstats`); merging the
  owned shards in node order reproduces the serial float-summation order.

What the driver refuses (``PdesError``): fault plans and ``random_drop_prob``
(perturbed arrivals bypass the pump by design), and ``hlrc_d`` (its home
assignment needs an instantaneous directory read — see
:meth:`repro.protocols.directory.PageDirectory.origin_any`).  Contention
metrics, the consistency-oracle recorder and the VOPP view tracer *are*
supported: each partition records its own shard (metrics and view tracers
journal every operation with its sim-time) and the driver k-way merges the
shards in serial event order, the same way stats and tracers merge.

Host-time observability: pass ``host`` (a
:class:`repro.obs.host.HostProfiler`) to record wall-clock spans around the
coordinator's real work — pre-fork ``setup``, ``barrier-wait`` (blocking on
partition reports), frame ``route``, ``pipe-send`` and final ``merge`` —
while each partition worker records its own ``build`` / ``execute`` /
``decode`` / ``encode`` / ``sync-wait`` / ``finalize`` spans and ships them
back with its result (``perf_counter`` is system-wide on Linux, so no clock
translation is needed).  ``profile=True`` additionally runs each forked
worker under ``cProfile`` and returns the picklable per-partition stats
tables on ``PdesOutcome.profiles`` — without it, a profile of a fork-mode
run silently shows coordinator-only time.  Both are observers: they never
touch the simulated state.

``mode="fork"`` runs each partition in a forked OS process (pipes carry the
barrier traffic); ``mode="inline"`` runs all partitions in-process — same
window protocol, same frame codec (payloads are pickle-copied, not shared),
no parallelism — which is what the conformance tests use.
``batching=False`` disables leases and elision accounting (every window is
``[T, T+λ)``), reproducing the pre-lease barrier schedule; the conformance
suite runs both settings.

This module is deliberately *not* imported from ``repro.sim.__init__`` — it
imports the network and application layers, which import ``repro.sim``.
"""

from __future__ import annotations

import gc
import math
import multiprocessing
import traceback
from dataclasses import dataclass
from typing import Any, Callable, Optional

from repro.net.message import decode_frames, encode_frames, route_frames
from repro.net.nic import Switch
from repro.sim.engine import SimError, Simulator

__all__ = [
    "PdesError",
    "PartitionSwitch",
    "PartitionWorld",
    "PdesOutcome",
    "partition_ranks",
    "run_partitioned",
]

#: raw message-id stride between forked partitions (each process has its own
#: counter; disjoint bases keep ids globally unique, see
#: :func:`repro.net.message.set_msg_id_base`)
MSG_ID_STRIDE = 1 << 48


class PdesError(SimError):
    """The requested run cannot be executed by the partitioned driver."""


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


# -- the partitioned switch -------------------------------------------------------


def _make_partition_switch(cluster, owned):
    """Replace ``cluster.switch`` with a :class:`PartitionSwitch`.

    Done post-construction (rather than threading a parameter through every
    layer) so partition replicas are built by the exact same code path as
    serial systems; the swap happens at t=0 before any traffic.
    """
    switch = PartitionSwitch(cluster.sim, cluster.netcfg, cluster.node_stats, owned)
    for node in cluster.nodes:
        switch.register(node.nic)
    cluster.switch = switch
    return switch


class PartitionSwitch(Switch):
    """A switch owning a subset of the ports, with an outbox for the rest.

    The per-source departure counter is inherited from :class:`Switch` and
    advanced for *every* frame a source transmits — foreign-destination
    frames included — so the ``(src, departure#)`` coordinates recorded in
    the outbox equal the serial ones: TX is serialised per NIC, so a
    source's TX-start order (where :meth:`stage_tx` numbers foreign frames)
    equals its hand-off order (where :meth:`Switch.transfer` numbers
    co-resident frames), which is the source's own transmit order.
    """

    def __init__(self, sim, cfg, node_stats, owned):
        super().__init__(sim, cfg, node_stats)
        self.owned = frozenset(owned)
        #: frames awaiting the next window barrier:
        #: ``(dst, t_arrival, t_departure, src, departure#, msg)``
        self.outbox: list[tuple] = []

    def stage_tx(self, msg, t_dep: float) -> None:
        """NIC TX-start probe: capture foreign frames at transmission start.

        ``t_dep`` is the (already determined) instant the frame will be
        handed to the switch; the driver refuses every configuration that
        could perturb the transfer (faults, random drops), so the outbox
        record written here is exactly what :meth:`transfer` would have
        recorded ``send_overhead + wire`` later — shipping it up to one
        barrier earlier.
        """
        if msg.dst in self.owned:
            return
        self.outbox.append(
            (msg.dst, t_dep + self.cfg.switch_latency, t_dep,
             msg.src, self.next_departure(msg.src), msg)
        )

    def transfer(self, msg) -> None:
        if msg.dst in self.owned:
            super().transfer(msg)
        # foreign frames were already captured by stage_tx at TX start

    def take_outbox(self) -> list[tuple]:
        out, self.outbox = self.outbox, []
        return out

    def inject(self, frames) -> None:
        """Stage cross-partition arrivals handed over at a window barrier.

        Rebuilds the serial pump slot: a frame joins the ``(dst, t_arr)``
        slot if a co-resident sender already created it (same arrival
        instant ⇒ same departure instant, λ being constant), otherwise the
        pump event is scheduled with the frame's *departure* time as its
        ordering key — exactly what the serial switch would have used.  An
        early-shipped frame may arrive beyond the window about to run; its
        slot then waits in the queue, and a co-resident frame staged into
        the same ``(dst, t_arr)`` slot later simply appends (the pump sorts
        each slot by ``(src, departure#)`` before delivering).
        """
        for dst, t_arr, t_dep, src, dep, msg in frames:
            key = (dst, t_arr)
            slot = self._staged.get(key)
            entry = (src, dep, msg)
            if slot is None:
                self._staged[key] = [entry]
                self.sim.schedule_keyed(t_arr, t_dep, 1, self._pump, key)
            else:
                slot.append(entry)


def _deltas_empty(deltas) -> bool:
    """True when no oracle recorded any mutation (each delta is a tuple of
    record lists, see ``drain_deltas`` in :mod:`repro.protocols.versioned`)."""
    for d in deltas:
        for records in d:
            if records:
                return False
    return True


# -- one partition's world --------------------------------------------------------


@dataclass
class PartitionResult:
    """What one partition reports after the last window."""

    index: int
    owned: list
    finish_times: list
    results: dict  # rank -> program return value
    rank_stats: Optional[dict]  # rank -> RunStats shard (DSM) or None (MPI)
    node_stats: dict  # node -> NetStats shard
    events: int
    timer_spills: int
    output: Any  # extract() read-out (only from the partition owning rank 0)
    tracer: Any  # per-partition EventTracer, or None
    oracle: Any = None  # per-partition AccessRecorder, or None
    metrics: Any = None  # per-partition logged Metrics shard, or None
    view_tracer: Any = None  # per-partition logged ViewTracer shard, or None
    host: Any = None  # per-partition HostProfiler, or None
    profile: Any = None  # picklable cProfile stats table (fork mode), or None


class PartitionWorld:
    """One partition: a full system replica plus its window-protocol hooks."""

    def __init__(self, index, owned, sim, cluster, switch, oracles, pending,
                 extract_fn, rank_stats_fn, view_tracer=None, host=None):
        self.index = index
        self.owned = list(owned)
        self.sim = sim
        self.cluster = cluster
        self.switch = switch
        self.oracles = oracles
        self.pending = pending
        self._extract = extract_fn
        self._rank_stats = rank_stats_fn
        self._cfg = cluster.netcfg
        self._d_send = self._cfg.min_send_delay()
        self.view_tracer = view_tracer
        self.host = host  # per-partition HostProfiler, or None

    def report(self) -> tuple:
        """Barrier upload: ``("r", N, O)`` or ``("R", N, O, frames, deltas)``.

        ``N`` is the next pending event time, ``O`` the output bound — the
        earliest future instant this partition can influence another beyond
        what this report already ships (start transmitting a new frame, or
        mutate a shared oracle).  The short ``"r"`` form is the null-barrier
        fast path: empty outbox, no oracle deltas.
        """
        host = self.host
        if host is not None:
            host.begin("serve", "encode")
        n = self.sim.peek_next_time()
        outbox = self.switch.take_outbox()
        deltas = [o.drain_deltas() for o in self.oracles]
        out = ("r", n, self._output_bound()) if not outbox and \
            _deltas_empty(deltas) else \
            ("R", n, self._output_bound(), encode_frames(outbox), deltas)
        if host is not None:
            host.end()
        return out

    def _output_bound(self) -> float:
        """Earliest future instant this partition can influence another.

        Every future cross-partition influence — a new frame reaching the
        switch, or a shared-oracle mutation — originates at some *pending*
        event, and the pending set is fully enumerable at a barrier (the
        ready deque is always drained before a window breaks).  Walking it
        and bounding each event by its mechanics beats the naive
        ``N + δ_send``, because during communication phases the earliest
        pending events are NIC bookkeeping that *cannot* act immediately:

        * an arrival pump at ``t`` only hands its frame to a protocol
          handler after the receive wire time (known — the staged frames
          carry their sizes) plus ``recv_overhead``;
        * a TX completion's whole remaining chain is committed — hand-off
          instants follow from the backlog contents (TX is serialised per
          NIC, nothing can preempt or reorder it), see
          :meth:`_tx_chain_bound`;
        * everything else (process resumptions, timers, receive
          completions — which run delivery handlers) may call ``send()`` at
          its own instant, costing ``δ_send`` to reach the switch (MPI), or
          mutate an oracle right there (DSM, where the margin is zero).

        Each rule is a lower bound under every admissible behaviour (busy
        NICs and receive backlogs only delay things further), so the lease
        the coordinator derives from it can never reach an influence.
        """
        sim = self.sim
        cfg = self._cfg
        d_send = 0.0 if self.oracles else self._d_send
        recv = cfg.recv_overhead
        tx_time = cfg.tx_time
        staged = self.switch._staged
        best = math.inf
        if sim._ready:
            # zero-delay work at the current instant: only the first report
            # sees any (program start-ups are queued before the first
            # window; every later report happens at a window break, where
            # the run loop has drained the deque)
            best = sim.now + d_send
        for entry in sim._heap:
            t = entry[0]
            if t + d_send >= best:  # no rule can bound below t + δ_send
                continue
            if entry[2] == 1:  # arrival pump (sole class-1 event)
                slot = staged.get(entry[5][0])
                if slot:
                    c = t + min(tx_time(m.size) for _, _, m in slot) \
                        + recv + d_send
                else:  # pragma: no cover - defensive (slot already drained)
                    c = t + d_send
            else:
                fn = entry[4]
                if getattr(fn, "__name__", None) == "_tx_done":
                    c = self._tx_chain_bound(fn.__self__, t, entry[5][0], best)
                else:
                    c = t + d_send
            if c < best:
                best = c
        theads = sim._timer_heads
        if theads:
            c = theads[0][0] + d_send
            if c < best:
                best = c
        return best

    def _tx_chain_bound(self, nic, t_done, msg, best) -> float:
        """Earliest foreign influence of one NIC's committed TX chain.

        ``t_done`` is the pending completion of the in-flight frame ``msg``.
        A *foreign* in-flight frame was already captured at TX start (it
        ships with this very report, so the coordinator bounds it through
        the routed arrival times instead); a foreign *backlogged* frame's
        hand-off instant is its influence bound — it will be captured when
        its TX starts inside a window and shipped at the next barrier, so
        the lease must stop λ short of its arrival.  An *internal* hand-off
        influences other partitions only once its delivery handler runs,
        λ + wire + recv_overhead later (plus δ_send for MPI, where the
        handler must reach the switch through its own NIC).
        """
        cfg = self._cfg
        owned = self.switch.owned
        tail = cfg.switch_latency + cfg.recv_overhead
        if not self.oracles:
            tail += self._d_send
        tx_time = cfg.tx_time
        overhead = cfg.send_overhead
        if msg.dst in owned:
            c = t_done + tx_time(msg.size) + tail
            if c < best:
                best = c
        handoff = t_done
        for m in nic._tx_backlog:
            handoff += overhead + tx_time(m.size)
            if handoff >= best:  # chain instants only grow
                break
            c = handoff + tx_time(m.size) + tail if m.dst in owned else handoff
            if c < best:
                best = c
        return best

    def advance(self, window_end: float, frames_buf: bytes = b"",
                foreign_deltas=()) -> None:
        """Barrier download + one window: inject, apply, run ``[now, W)``."""
        host = self.host
        if frames_buf or foreign_deltas:
            if host is not None:
                host.begin("serve", "decode")
            if frames_buf:
                self.switch.inject(decode_frames(frames_buf))
            for deltas in foreign_deltas:
                for oracle, d in zip(self.oracles, deltas):
                    oracle.apply_deltas(d)
            if host is not None:
                host.end()
        if host is not None:
            host.begin("serve", "execute")
        self.sim.run(until=window_end, inclusive=False)
        if host is not None:
            host.end()

    def finalize(self, want_output: bool) -> PartitionResult:
        host = self.host
        if host is not None:
            host.begin("serve", "finalize")
        results = self.pending.finish()
        rank_stats = None
        if self._rank_stats is not None:
            rank_stats = {r: self._rank_stats(r) for r in self.owned}
        metrics = self.sim.metrics
        if metrics is not None:
            metrics.detach_clock()  # the shard crosses the pipe; sims don't pickle
        view_tracer = self.view_tracer
        if view_tracer is not None:
            view_tracer.detach_clock()
        result = PartitionResult(
            index=self.index,
            owned=self.owned,
            finish_times=list(self.pending.finish_times),
            results=results,
            rank_stats=rank_stats,
            node_stats={i: self.cluster.node_stats[i] for i in self.owned},
            events=self.sim.events_processed,
            timer_spills=self.sim.timer_spills,
            output=self._extract() if want_output else None,
            tracer=self.sim.tracer,
            oracle=self.sim.oracle,
            metrics=metrics,
            view_tracer=view_tracer,
        )
        if host is not None:
            host.end()  # finalize
            host.end()  # the "total" span opened by _build_world
            result.host = host
        return result


def _build_world(index, owned, app_module, protocol, nprocs, config, variant,
                 netcfg, nodecfg, trace, oracle=False, metrics=False,
                 view_trace=False, host_trace=False) -> PartitionWorld:
    """Construct one partition's replica (identical code path to serial)."""
    host = None
    if host_trace:
        from repro.obs.host import HostProfiler

        host = HostProfiler(f"partition-{index}")
        host.begin("serve", "total")  # closed by finalize()
        host.begin("serve", "build")
    sim = Simulator(queue="auto")

    def _observers() -> None:
        # same None-default contract as serial: installed before the program
        # starts, each partition records only its own nodes' activity
        if trace:
            from repro.obs.tracer import EventTracer

            sim.tracer = EventTracer()
        if oracle:
            from repro.obs.oracle import AccessRecorder

            sim.oracle = AccessRecorder()
        if metrics:
            from repro.obs.metrics import Metrics

            sim.metrics = Metrics(sim=sim)

    view_tracer = None
    if protocol == "mpi":
        from repro.mpi.comm import MpiSystem

        system = MpiSystem(nprocs, netcfg=netcfg, nodecfg=nodecfg, sim=sim)
        cluster = system.cluster
        _observers()
        switch = _make_partition_switch(cluster, owned)
        body = app_module.build_mpi(system, config)
        oracles = ()
        rank_stats_fn = None
        extract_fn = lambda: system.app_output  # noqa: E731
    else:
        from repro.core.program import make_system

        system = make_system(nprocs, protocol, netcfg=netcfg, nodecfg=nodecfg, sim=sim)
        cluster = system.dsm.cluster
        _observers()
        if view_trace:
            from repro.tools.tracer import ViewTracer

            view_tracer = ViewTracer(sim=sim)
            system.dsm.tracer = view_tracer
        switch = _make_partition_switch(cluster, owned)
        body = app_module.build(system, config, variant)
        oracles = (system.dsm.directory, system.dsm.views)
        rank_stats_fn = system.dsm.stats_for
        extract_fn = lambda: app_module.extract(system, config)  # noqa: E731
    # owned NICs feed the TX-start probe so cross-partition frames ship at
    # transmission start (foreign replicas never transmit — no probe needed)
    for i in owned:
        cluster.nodes[i].nic.tx_probe = switch.stage_tx
    for oracle in oracles:
        oracle.capture_deltas()
    pending = system.start_program(body, ranks=owned)
    if host is not None:
        host.end()  # build
    return PartitionWorld(index, owned, sim, cluster, switch, oracles, pending,
                          extract_fn, rank_stats_fn,
                          view_tracer=view_tracer, host=host)


# -- coordinator ports ------------------------------------------------------------


class _InlinePort:
    """All partitions in one process: commands execute synchronously.

    Dispatches the same ``("s",)/("S",)/("finish",)`` command tuples the
    fork pipes carry, so inline mode exercises the identical wire protocol
    (including the frame codec — payloads are pickle-copied, not shared).
    """

    def __init__(self, build: Callable[[], PartitionWorld], want_output: bool):
        self.world = build()
        self.want_output = want_output
        self._reply: Any = self.world.report()

    def send(self, cmd) -> None:
        tag = cmd[0]
        if tag == "s":
            self.world.advance(cmd[1])
            self._reply = self.world.report()
        elif tag == "S":
            self.world.advance(cmd[1], cmd[2], cmd[3])
            self._reply = self.world.report()
        else:  # "finish"
            self._reply = ("done", self.world.finalize(self.want_output))

    def recv(self):
        reply, self._reply = self._reply, None
        return reply

    def close(self) -> None:
        pass


def _worker_main(conn, index, build, want_output, msg_id_base,
                 profile=False) -> None:
    """Forked partition process: build the world, serve barrier commands.

    ``profile`` wraps the whole serve loop in a cProfile session and ships
    the picklable stats table back on the final :class:`PartitionResult`
    (the parent's profiler never observes forked children).
    """
    prof = None
    try:
        from repro.net.message import set_msg_id_base

        set_msg_id_base(msg_id_base)
        if profile:
            import cProfile

            prof = cProfile.Profile()
            prof.enable()
        world = build()
        host = world.host
        conn.send(world.report())
        while True:
            if host is not None:
                host.begin("serve", "sync-wait")
            cmd = conn.recv()
            if host is not None:
                host.end()
            tag = cmd[0]
            if tag == "s":  # bare window grant: nothing to download
                world.advance(cmd[1])
                conn.send(world.report())
            elif tag == "S":  # window grant + frame bytes + foreign deltas
                world.advance(cmd[1], cmd[2], cmd[3])
                conn.send(world.report())
            elif tag == "finish":
                final = world.finalize(want_output)
                if prof is not None:
                    prof.disable()
                    prof.create_stats()  # makes .stats a plain picklable dict
                    final.profile = prof.stats
                    prof = None
                conn.send(("done", final))
                return
            else:  # pragma: no cover - protocol bug
                raise RuntimeError(f"unknown PDES command {tag!r}")
    except BaseException:
        if prof is not None:
            prof.disable()
        try:
            conn.send(("error", traceback.format_exc()))
        except Exception:  # pragma: no cover - parent already gone
            pass
    finally:
        conn.close()


class _ForkPort:
    """One forked partition process behind a pipe."""

    def __init__(self, ctx, index, build, want_output, profile=False):
        self.index = index
        self.conn, child = ctx.Pipe()
        # fork start method: the build closure is inherited, never pickled
        self.proc = ctx.Process(
            target=_worker_main,
            args=(child, index, build, want_output,
                  1 + index * MSG_ID_STRIDE, profile),
            name=f"pdes-{index}",
        )
        self.proc.start()
        child.close()

    def send(self, cmd) -> None:
        self.conn.send(cmd)

    def recv(self):
        try:
            return self.conn.recv()
        except EOFError:
            raise PdesError(
                f"partition {self.index} exited without reporting "
                f"(exit code {self.proc.exitcode})"
            ) from None

    def close(self) -> None:
        self.conn.close()
        self.proc.join(timeout=30)
        if self.proc.is_alive():  # pragma: no cover - defensive
            self.proc.terminate()
            self.proc.join()


# -- the window loop --------------------------------------------------------------


def _drive(ports, owner_of, netcfg, has_oracles, batching, observer=None,
           host=None):
    """Run the window protocol over a set of ports.

    Returns ``(finals, stats)`` with ``stats`` carrying the barrier
    accounting: ``windows`` (barrier round-trips actually performed),
    ``elided_windows`` (rounds in which every partition reported null and
    the frame/delta exchange was skipped), ``leased_windows`` (extra
    λ-windows granted beyond the first by multi-window leases) and
    ``frame_bytes`` (encoded cross-partition frame bytes routed, counted
    once per frame on the download side).

    ``observer``, when given, is called once per round with a dict
    ``{"T", "window_end", "arrivals", "null"}`` — the property tests use it
    to check the lease-safety invariant (every injected arrival lies at or
    beyond the previous round's window end).
    """
    nparts = len(ports)
    lam = netcfg.lookahead()
    # earliest further influence induced by an injected frame: its handler
    # runs only once the frame clears the receive wire (size-dependent —
    # route_frames folds the per-byte part into load_mins) plus the header
    # wire time and receive overhead; a DSM handler can mutate an oracle
    # right there, an MPI handler must pay δ_send to reach the switch
    byte_seconds = 8.0 / netcfg.bandwidth_bps
    d_induced = netcfg.min_deliver_delay()
    if not has_oracles:
        d_induced += netcfg.min_send_delay()
    if host is not None:
        host.begin("run", "barrier-wait")
    replies = [_expect(port.recv(), i) for i, port in enumerate(ports)]
    if host is not None:
        host.end()
    windows = elided = leased = 0
    frame_bytes = 0
    while True:
        buffers = []
        delta_of: list = [None] * nparts
        null_round = True
        for i, r in enumerate(replies):
            if r[0] == "R":
                null_round = False
                buffers.append(r[3])
                if not _deltas_empty(r[4]):
                    delta_of[i] = r[4]
        T = min(r[1] for r in replies)
        if buffers:
            if host is not None:
                host.begin("run", "route")
            inboxes, arrival_mins, load_mins = route_frames(
                buffers, owner_of, nparts, byte_seconds)
            if host is not None:
                host.end()
            t = min(arrival_mins)
            if t < T:
                T = t
        else:
            inboxes = arrival_mins = load_mins = None
        if T == math.inf:
            break
        windows += 1
        if batching:
            # lease horizon: λ past the earliest possible cross-partition
            # influence, from each partition's own bound O and from the
            # frames injected this round (see module docstring)
            horizon = math.inf
            for i, r in enumerate(replies):
                b = r[2]
                if load_mins is not None:
                    induced = load_mins[i] + d_induced
                    if induced < b:
                        b = induced
                if b < horizon:
                    horizon = b
            window_end = horizon + lam
            floor = T + lam
            if window_end < floor:
                window_end = floor
            if window_end == math.inf:
                # terminal lease: no partition can ever influence another
                # again (every pending chain is influence-free), so everyone
                # runs to completion in this one window
                leased += 1
            else:
                extra = int((window_end - T) / lam) - 1
                if extra > 0:
                    leased += extra
            if null_round:
                elided += 1
        else:
            window_end = T + lam
        if observer is not None:
            observer({
                "T": T,
                "window_end": window_end,
                "arrivals": [] if arrival_mins is None
                else [t for t in arrival_mins if t != math.inf],
                "null": null_round,
            })
        if host is not None:
            host.begin("run", "pipe-send")
        for i, port in enumerate(ports):
            buf = inboxes[i] if inboxes is not None else b""
            foreign = [d for j, d in enumerate(delta_of)
                       if j != i and d is not None]
            if buf or foreign:
                frame_bytes += len(buf)
                port.send(("S", window_end, buf, foreign))
            else:
                port.send(("s", window_end))
        if host is not None:
            host.end()
            host.begin("run", "barrier-wait")
        replies = [_expect(port.recv(), i) for i, port in enumerate(ports)]
        if host is not None:
            host.end()
    if host is not None:
        host.begin("run", "barrier-wait", "finish")
    for port in ports:
        port.send(("finish",))
    finals = [_expect(port.recv(), i, tag="done") for i, port in enumerate(ports)]
    if host is not None:
        host.end()
    stats = {
        "windows": windows,
        "elided_windows": elided,
        "leased_windows": leased,
        "frame_bytes": frame_bytes,
    }
    return finals, stats


def _expect(reply, index, tag=None):
    if reply[0] == "error":
        raise PdesError(f"partition {index} failed:\n{reply[1]}")
    if tag is not None:
        if reply[0] != tag:  # pragma: no cover - protocol bug
            raise PdesError(f"partition {index}: expected {tag!r}, got {reply[0]!r}")
        return reply[1]
    if reply[0] not in ("r", "R"):  # pragma: no cover - protocol bug
        raise PdesError(f"partition {index}: expected a report, got {reply[0]!r}")
    return reply


# -- public driver ----------------------------------------------------------------


@dataclass
class PdesOutcome:
    """Merged results of a partitioned run, mirroring the serial observables."""

    output: Any
    stats: Any  # merged RunStats (DSM) or NetStats (MPI)
    time: float
    results: dict  # rank -> program return value
    events: int  # sum of per-partition executed callbacks
    windows: int  # barrier round-trips performed
    workers: int
    tracer: Any  # merged EventTracer, or None
    timer_spills: int
    oracle: Any = None  # merged AccessRecorder, or None
    metrics: Any = None  # merged Metrics registry, or None
    view_tracer: Any = None  # merged ViewTracer, or None
    profiles: Any = None  # {partition: cProfile stats table} (fork+profile), or None
    elided_windows: int = 0  # rounds that skipped the frame/delta exchange
    leased_windows: int = 0  # extra λ-windows granted by multi-window leases
    frame_bytes: int = 0  # encoded cross-partition frame bytes routed


def run_partitioned(
    app_module,
    protocol: str,
    nprocs: int,
    config=None,
    variant: str = "default",
    workers: int = 2,
    mode: str = "fork",
    netcfg=None,
    nodecfg=None,
    trace: bool = False,
    oracle: bool = False,
    view_trace: bool = False,
    metrics: bool = False,
    faults=None,
    batching: bool = True,
    observer=None,
    host=None,
    profile: bool = False,
) -> PdesOutcome:
    """Run one application under the partitioned driver.

    Produces observables bit-identical to the serial ``run_app`` path:
    same output arrays, same merged statistics (and therefore the same
    benchmark fingerprint), same simulated time.  ``events`` differs from
    serial by exactly ``(workers - 1) * nprocs`` replica dispatcher
    start-ups.  ``batching=False`` turns off window leases (every window is
    the minimal ``[T, T+λ)``) for conformance comparison.  Raises
    :class:`PdesError` for configurations the conservative scheme cannot
    replay (see module docstring).

    ``host`` is an optional :class:`repro.obs.host.HostProfiler`: the
    coordinator records setup/barrier-wait/route/pipe-send/merge spans into
    it and absorbs each partition's own span shard shipped back over the
    result pipe.  ``profile=True`` runs a cProfile session inside each
    forked worker and returns the picklable stats tables on
    ``PdesOutcome.profiles`` (inline mode returns no shards — the caller's
    own profiler already observes everything).
    """
    from repro.net.config import NetConfig

    if faults is not None:
        raise PdesError("fault injection perturbs arrivals; PDES runs are serial-only")
    if view_trace and protocol == "mpi":
        raise PdesError("view tracing needs a DSM protocol; mpi has no views")
    if protocol == "hlrc_d":
        raise PdesError(
            "hlrc_d needs an instantaneous home-assignment read "
            "(PageDirectory.origin_any); run it serially"
        )
    netcfg = netcfg or NetConfig()
    if netcfg.random_drop_prob > 0.0:
        raise PdesError("random_drop_prob draws a global RNG stream; run serially")
    try:
        netcfg.lookahead()
    except ValueError as exc:
        raise PdesError(str(exc)) from None
    if mode not in ("fork", "inline"):
        raise PdesError(f"unknown PDES mode {mode!r} (use 'fork' or 'inline')")
    config = config if config is not None else app_module.default_config()

    if host is not None:
        host.begin("run", "setup")
    parts = partition_ranks(nprocs, workers)
    owner_of = {}
    for p, ranks in enumerate(parts):
        for r in ranks:
            owner_of[r] = p

    want_oracle = bool(oracle)
    want_metrics = bool(metrics)
    want_views = bool(view_trace)
    host_trace = host is not None

    def make_builder(index: int):
        owned = parts[index]
        return lambda: _build_world(index, owned, app_module, protocol, nprocs,
                                    config, variant, netcfg, nodecfg, trace,
                                    oracle=want_oracle, metrics=want_metrics,
                                    view_trace=want_views,
                                    host_trace=host_trace)

    ports: list = []
    try:
        if mode == "inline":
            if host is not None:
                host.end()  # setup: inline build happens inside the port loop
            for p in range(len(parts)):
                ports.append(_InlinePort(make_builder(p), want_output=(p == 0)))
        else:
            ctx = multiprocessing.get_context("fork")
            # collect + freeze before forking (the standard fork-server
            # recipe): the children inherit the parent's heap copy-on-write,
            # so parent garbage — e.g. a serial reference run the caller just
            # finished — would otherwise be walked by every child's first GC
            # pass, dirtying pages and stalling all partitions
            gc.collect()
            gc.freeze()
            try:
                for p in range(len(parts)):
                    ports.append(
                        _ForkPort(ctx, p, make_builder(p), want_output=(p == 0),
                                  profile=profile))
            finally:
                gc.unfreeze()
            if host is not None:
                host.end()  # setup: GC freeze + fork of every partition
        finals, wstats = _drive(ports, owner_of, netcfg,
                                has_oracles=(protocol != "mpi"),
                                batching=batching, observer=observer, host=host)
    finally:
        for port in ports:
            port.close()

    if host is not None:
        host.begin("run", "merge")
    outcome = _merge(finals, wstats, protocol, nprocs, len(parts), trace)
    if host is not None:
        host.end()
        for f in finals:
            if f.host is not None:
                host.absorb(f.host)
    return outcome


def _merge(finals, wstats, protocol, nprocs, nparts, trace) -> PdesOutcome:
    """Assemble the serial-equivalent observables from partition results."""
    from repro.net.stats import NetStats

    finish = max(t for f in finals for t in f.finish_times)
    time = finish  # all runs start at t=0
    node_shards = {}
    results = {}
    for f in finals:
        node_shards.update(f.node_stats)
        results.update(f.results)
    net = NetStats.merged(node_shards[i] for i in range(nprocs))
    if protocol == "mpi":
        stats: Any = net
    else:
        from repro.protocols.runstats import RunStats

        rank_shards = {}
        for f in finals:
            rank_shards.update(f.rank_stats)
        stats = RunStats.merged(
            (rank_shards[r] for r in range(nprocs)), net=net
        )
        stats.time = time
    tracer = None
    if trace:
        from repro.obs.tracer import EventTracer

        tracer = EventTracer.merged([f.tracer for f in finals])
    oracle = None
    if finals and finals[0].oracle is not None:
        from repro.obs.oracle import AccessRecorder

        oracle = AccessRecorder.merged([f.oracle for f in finals])
    metrics = None
    if finals and finals[0].metrics is not None:
        from repro.obs.metrics import Metrics

        metrics = Metrics.merged([f.metrics for f in finals])
    view_tracer = None
    if finals and finals[0].view_tracer is not None:
        from repro.tools.tracer import ViewTracer

        view_tracer = ViewTracer.merged([f.view_tracer for f in finals])
    profiles = None
    if any(f.profile is not None for f in finals):
        profiles = {f.index: f.profile for f in finals if f.profile is not None}
    return PdesOutcome(
        output=finals[0].output,
        stats=stats,
        time=time,
        results=results,
        events=sum(f.events for f in finals),
        windows=wstats["windows"],
        workers=nparts,
        tracer=tracer,
        oracle=oracle,
        metrics=metrics,
        view_tracer=view_tracer,
        profiles=profiles,
        timer_spills=sum(f.timer_spills for f in finals),
        elided_windows=wstats["elided_windows"],
        leased_windows=wstats["leased_windows"],
        frame_bytes=wstats["frame_bytes"],
    )
