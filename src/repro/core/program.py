"""System facades: what a program is built against and run on.

A DSM *system* bundles a :class:`repro.protocols.system.DsmSystem` with typed
array allocation and hands each rank's process its runtime.  Program bodies
are generators taking the per-rank runtime::

    def body(rt):
        yield from rt.barrier()
        ...

Running is the cluster's job (:meth:`repro.net.cluster.Cluster.run_program`:
drive the simulation to completion, record the run time, surface any worker
exception); a system only says what ``rt`` is.  :func:`make_system` returns
the right kind for a protocol name — a DSM facade, or the
:class:`repro.mpi.MpiSystem`, which exposes the same ``cluster`` / ``sim`` /
``stats`` / ``time`` / ``app_output`` / ``run_program`` surface.
"""

from __future__ import annotations

from typing import Callable, Generator, Optional, Type

import numpy as np

from repro.core.shared_array import SharedArray
from repro.core.vopp import BaseRuntime, TraditionalRuntime, VoppRuntime
from repro.mpi import MpiSystem
from repro.net.cluster import PendingRun
from repro.net.config import NetConfig, NodeConfig
from repro.protocols.system import DsmSystem

__all__ = ["BaseSystem", "VoppSystem", "TraditionalSystem", "make_system"]


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
    def cluster(self):
        return self.dsm.cluster

    @property
    def sim(self):
        return self.dsm.sim

    @property
    def stats(self):
        return self.dsm.stats

    @property
    def time(self) -> float:
        """Simulated seconds the last ``run_program`` took."""
        return self.cluster.run_time

    @property
    def shared_oracles(self) -> tuple:
        """Cross-node metadata kept outside the message layer; the partition
        harness replicates these and ships their mutations between replicas."""
        return (self.dsm.directory, self.dsm.views)

    def adopt_rank(self, rank: int, replica: "BaseSystem") -> None:
        """Take ``rank``'s statistics shards from the replica that ran it."""
        self.cluster.node_stats[rank] = replica.cluster.node_stats[rank]
        self.dsm.rank_stats[rank] = replica.dsm.rank_stats[rank]

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
        """Spawn ``body(rt, *args, **kwargs)`` for ``ranks`` (default all)
        without running; see :meth:`repro.net.cluster.Cluster.start_program`."""
        return self.cluster.start_program(
            lambda rank: body(self.runtime(rank), *args, **kwargs), ranks
        )

    def run_program(self, body: Callable[..., Generator], *args, **kwargs) -> list:
        """Run ``body(rt, *args, **kwargs)`` on every node; return results by rank.

        The simulated duration is recorded in ``time`` (and ``stats.time``).
        """
        return self.cluster.run_program(
            lambda rank: body(self.runtime(rank), *args, **kwargs)
        )


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


def make_system(nprocs: int, protocol: str, **kw) -> "BaseSystem | MpiSystem":
    """Factory choosing the right kind of system for a protocol name."""
    if protocol == "mpi":
        return MpiSystem(nprocs, **kw)
    if protocol in ("lrc_d", "hlrc_d"):
        return TraditionalSystem(nprocs, protocol=protocol, **kw)
    return VoppSystem(nprocs, protocol=protocol, **kw)
