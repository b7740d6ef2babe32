"""System facades: what a program is built against and run on.

A DSM *system* is a :class:`repro.protocols.system.DsmSystem` with typed
array allocation that hands each rank's process its runtime.  Program bodies
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

from typing import Callable, Generator, Type

import numpy as np

from repro.core.shared_array import SharedArray
from repro.core.vopp import BaseRuntime, TraditionalRuntime, VoppRuntime
from repro.mpi import MpiSystem
from repro.protocols.system import DsmSystem

__all__ = ["MODELS", "BaseSystem", "VoppSystem", "TraditionalSystem", "make_system"]

# the programming model each protocol runs; an app's ``PROGRAMS`` table is
# keyed by it (:func:`repro.apps.common.program_builder`)
MODELS = {
    "lrc_d": "traditional",
    "hlrc_d": "traditional",
    "vc_d": "vopp",
    "vc_sd": "vopp",
    "mpi": "mpi",
}


class BaseSystem(DsmSystem):
    """A DSM deployment with typed array allocation and a per-rank runtime;
    a subclass names the programming ``model`` whose protocols it accepts."""

    runtime_cls: Type[BaseRuntime] = BaseRuntime
    model = ""

    def __init__(self, nprocs: int, protocol: str, **kw):
        if MODELS.get(protocol) != self.model:
            runs = " or ".join(p for p, m in MODELS.items() if m == self.model)
            raise ValueError(f"{self.model} programs run on {runs}, not {protocol!r}")
        super().__init__(nprocs, protocol=protocol, **kw)
        self.arrays: dict[str, SharedArray] = {}
        self.app_output = None  # applications stash their rank-0 read-out here

    @property
    def time(self) -> float:
        """Simulated seconds the last ``run_program`` took."""
        return self.cluster.run_time

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
        region = self.alloc(name, nbytes, page_aligned=page_aligned)
        arr = SharedArray(region, shape, dt)
        self.arrays[name] = arr
        return arr

    def array(self, name: str) -> SharedArray:
        return self.arrays[name]

    # -- running ---------------------------------------------------------------------------

    def runtime(self, rank: int) -> BaseRuntime:
        return self.runtime_cls(self, rank)

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
    model = "vopp"

    def __init__(self, nprocs: int, protocol: str = "vc_sd", **kw):
        super().__init__(nprocs, protocol, **kw)


class TraditionalSystem(BaseSystem):
    """A cluster running an LRC variant with the lock/barrier runtime.

    ``protocol`` is ``"lrc_d"`` (homeless, diff-based — the paper's baseline)
    or ``"hlrc_d"`` (home-based — the comparison protocol from the authors'
    companion work).
    """

    runtime_cls = TraditionalRuntime
    model = "traditional"

    def __init__(self, nprocs: int, protocol: str = "lrc_d", **kw):
        super().__init__(nprocs, protocol, **kw)


def make_system(nprocs: int, protocol: str, **kw) -> "BaseSystem | MpiSystem":
    """Factory choosing the right kind of system for a protocol name."""
    model = MODELS.get(protocol)
    if model == "mpi":
        return MpiSystem(nprocs, **kw)
    return (TraditionalSystem if model == "traditional" else VoppSystem)(nprocs, protocol, **kw)
