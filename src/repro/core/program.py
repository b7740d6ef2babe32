"""System facades and the parallel program runner.

A *system* bundles a :class:`repro.protocols.system.DsmSystem` with typed
array allocation and a runner that spawns one application process per node.
Program bodies are generators taking the per-rank runtime::

    def body(rt):
        yield from rt.barrier()
        ...

``run_program`` drives the simulation to completion, records the run time in
the statistics, and surfaces any worker exception (deadlocks show up as
workers that never finish).
"""

from __future__ import annotations

from typing import Callable, Generator, Optional, Type

import numpy as np

from repro.core.shared_array import SharedArray
from repro.core.vopp import BaseRuntime, TraditionalRuntime, VoppRuntime
from repro.net.config import NetConfig, NodeConfig
from repro.protocols.system import DsmSystem

__all__ = ["BaseSystem", "VoppSystem", "TraditionalSystem", "PendingRun", "make_system"]


class PendingRun:
    """A spawned-but-not-yet-driven program.

    ``start_program`` spawns the per-rank application processes and returns
    one of these; whoever drives the simulation (the serial ``run_program``
    or the PDES window loop, which alternates ``sim.run(until=...)`` with
    barrier exchanges) calls :meth:`finish` once the event queues drain.
    """

    def __init__(self, start: float, procs: list, finish_times: list):
        self.start = start
        self.procs = procs  # [(rank, Process), ...]
        self.finish_times = finish_times  # appended by the timed() wrappers

    def finish(self) -> dict:
        """Verify every spawned process completed; return results by rank."""
        stuck = [p.name for _, p in self.procs if not p.finished]
        if stuck:
            raise RuntimeError(
                f"workers never finished (deadlock or lost wakeup): {stuck}"
            )
        return {rank: p.result for rank, p in self.procs}


class BaseSystem:
    """Common facade over a DSM deployment."""

    runtime_cls: Type[BaseRuntime] = BaseRuntime

    def __init__(
        self,
        nprocs: int,
        protocol: str,
        netcfg: Optional[NetConfig] = None,
        nodecfg: Optional[NodeConfig] = None,
        page_size: Optional[int] = None,
        manager_offset: int = 0,
        sim=None,
    ):
        self.dsm = DsmSystem(
            nprocs,
            protocol=protocol,
            netcfg=netcfg,
            nodecfg=nodecfg,
            page_size=page_size,
            manager_offset=manager_offset,
            sim=sim,
        )
        self.arrays: dict[str, SharedArray] = {}
        self.app_output = None  # applications stash their rank-0 read-out here

    # -- convenience properties ----------------------------------------------------

    @property
    def nprocs(self) -> int:
        return self.dsm.nprocs

    @property
    def stats(self):
        return self.dsm.stats

    @property
    def sim(self):
        return self.dsm.sim

    # -- allocation -------------------------------------------------------------------

    def alloc_array(
        self,
        name: str,
        shape: "tuple[int, ...] | int",
        dtype: str = "float64",
        page_aligned: bool = False,
    ) -> SharedArray:
        """Allocate a typed shared array.

        VOPP code should pass ``page_aligned=True`` for each view's data so
        views never share pages; traditional code packs allocations (and may
        false-share) exactly like the original programs.
        """
        if isinstance(shape, int):
            shape = (shape,)
        dt = np.dtype(dtype)
        nbytes = int(np.prod(shape)) * dt.itemsize
        region = self.dsm.alloc(name, nbytes, page_aligned=page_aligned)
        arr = SharedArray(region, shape, dt)
        self.arrays[name] = arr
        return arr

    def array(self, name: str) -> SharedArray:
        return self.arrays[name]

    # -- running ---------------------------------------------------------------------------

    def runtime(self, rank: int) -> BaseRuntime:
        return self.runtime_cls(self, rank)

    def start_program(
        self, body: Callable[..., Generator], *args, ranks=None, **kwargs
    ) -> PendingRun:
        """Spawn ``body(rt, *args, **kwargs)`` for ``ranks`` without running.

        ``ranks`` defaults to every rank; the PDES driver passes each
        partition's owned subset (the replica holds all nodes, but only the
        owned ranks' application processes execute there).
        """
        start = self.sim.now
        finish_times: list[float] = []

        def timed(rank: int) -> Generator:
            rt = self.runtime(rank)
            tracer = self.sim.tracer
            if tracer is not None:
                tracer.begin(rank, "app", "run", f"rank {rank}", self.sim.now)
            result = yield from body(rt, *args, **kwargs)
            if tracer is not None:
                tracer.end(rank, "app", "run", self.sim.now)
            finish_times.append(self.sim.now)
            return result

        if ranks is None:
            ranks = range(self.nprocs)
        procs = [
            (rank, self.sim.spawn(timed(rank), name=f"app-{rank}")) for rank in ranks
        ]
        return PendingRun(start, procs, finish_times)

    def run_program(self, body: Callable[..., Generator], *args, **kwargs) -> list:
        """Run ``body(rt, *args, **kwargs)`` on every node; return results by rank.

        The simulated duration is recorded in ``stats.time``.
        """
        pending = self.start_program(body, *args, **kwargs)
        self.dsm.run()
        results = pending.finish()
        # the run ends when the last application process finishes; what the
        # event heap drains afterwards (fire-and-forget senders' acks) must
        # not count towards the measured time
        self.dsm.run_time = max(pending.finish_times) - pending.start
        return [results[rank] for rank in range(self.nprocs)]


class VoppSystem(BaseSystem):
    """A cluster running a VC protocol with the VOPP runtime.

    ``protocol`` is ``"vc_sd"`` (default, the optimal implementation) or
    ``"vc_d"``.
    """

    runtime_cls = VoppRuntime

    def __init__(self, nprocs: int, protocol: str = "vc_sd", **kw):
        if protocol not in ("vc_d", "vc_sd"):
            raise ValueError(f"VOPP runs on vc_d or vc_sd, not {protocol!r}")
        super().__init__(nprocs, protocol, **kw)


class TraditionalSystem(BaseSystem):
    """A cluster running an LRC variant with the lock/barrier runtime.

    ``protocol`` is ``"lrc_d"`` (homeless, diff-based — the paper's baseline)
    or ``"hlrc_d"`` (home-based — the comparison protocol from the authors'
    companion work).
    """

    runtime_cls = TraditionalRuntime

    def __init__(self, nprocs: int, protocol: str = "lrc_d", **kw):
        if protocol not in ("lrc_d", "hlrc_d"):
            raise ValueError(
                f"traditional programs run on lrc_d or hlrc_d, not {protocol!r}"
            )
        super().__init__(nprocs, protocol, **kw)


def make_system(nprocs: int, protocol: str, **kw) -> BaseSystem:
    """Factory choosing the right facade for a protocol name."""
    if protocol in ("lrc_d", "hlrc_d"):
        return TraditionalSystem(nprocs, protocol=protocol, **kw)
    return VoppSystem(nprocs, protocol=protocol, **kw)
