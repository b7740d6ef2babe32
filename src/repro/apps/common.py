"""Shared application scaffolding: configs, results, the run driver.

Compute-cost modelling
----------------------

Applications charge CPU time through ``charge(rt, ops, cycles_per_op)``.
Problem sizes are scaled down from the paper's (a 350 MHz cluster ran
minutes-long jobs; the simulator runs in seconds), which would distort the
compute-to-communication ratio — so each config carries a ``work_factor``
that multiplies charged compute time by (paper size / scaled size).  Data
*volume* (diffs, pages) uses the scaled sizes; compute time uses the paper's.
The EXPERIMENTS.md notes record this calibration per experiment.
"""

from __future__ import annotations

import gc
import math
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field, fields
from time import perf_counter
from typing import Any, Callable, Generator, Optional

import numpy as np

from repro.core.program import MODELS, make_system
from repro.obs.gcpause import gc_paused
from repro.obs.tracer import EventTracer
from repro.net.config import NetConfig, NodeConfig, is_count
from repro.protocols.runstats import RunStats

__all__ = ["AppConfig", "AppResult", "charge", "chunk_bounds", "program_builder", "run_app"]


@dataclass
class AppConfig:
    """Base class for per-application configs."""

    work_factor: float = 1.0

    def __post_init__(self) -> None:
        # NaN fails the test too: a NaN or negative factor would charge no compute
        if not 0 <= self.work_factor < math.inf:
            raise ValueError(f"work_factor must be finite and >= 0, got {self.work_factor!r}")
        # a count that is not an int dies mid-run in ``range()``, a bool runs
        # as 1, and one below 1 does nothing (``reps=0`` verified) or fails
        # late; only ``seed`` may be 0
        for f in fields(self):
            if f.type in ("int", int):
                value, least = getattr(self, f.name), 0 if f.name == "seed" else 1
                if not (is_count(value) and value >= least):
                    raise ValueError(f"{f.name} must be an int >= {least}, got {value!r}")

    def charge_seconds(self, ops: float, cycles_per_op: float, cpu_hz: float) -> float:
        return self.work_factor * ops * cycles_per_op / cpu_hz


def charge(rt, config: AppConfig, ops: float, cycles_per_op: float) -> Generator:
    """Charge ``ops`` operations of application compute (``yield from``)."""
    seconds = config.charge_seconds(ops, cycles_per_op, rt.node.cfg.cpu_hz)
    yield from rt.compute(seconds)
    return None


def chunk_bounds(total: int, nprocs: int, rank: int) -> tuple[int, int]:
    """Contiguous block decomposition ``[lo, hi)`` of ``total`` items."""
    base = total // nprocs
    extra = total % nprocs
    lo = rank * base + min(rank, extra)
    hi = lo + base + (1 if rank < extra else 0)
    return lo, hi


def _run_or_abort(cluster, run: Callable[[], Any]) -> Any:
    """Run the simulation; escalate expected fault outcomes to RunAborted.

    A :class:`repro.net.transport.RequestError` (retry budget exhausted) or
    :class:`repro.faults.NodeCrashed` (fail-stop episode) anywhere in the
    exception's cause chain becomes a structured
    :class:`repro.faults.RunFailure`; everything else re-raises untouched.

    Called inside :func:`run_app`'s collector pause, it first collects once:
    that releases the previous run's cyclic cluster/system graph before this
    run allocates, inside the ``execute`` host phase.
    """
    from repro.faults.failure import NodeCrashed, RunAborted, describe_failure
    from repro.sim import SimError

    gc.collect()
    try:
        return run()
    except (SimError, NodeCrashed) as exc:
        failure = describe_failure(exc, cluster)
        if failure is None:
            raise
        raise RunAborted(failure) from exc


@dataclass
class AppResult:
    """Outcome of one application run."""

    protocol: str
    nprocs: int
    output: Any
    stats: Any  # RunStats (DSM) or NetStats-like (MPI)
    time: float
    verified: bool = False
    events: int = 0  # simulator callbacks executed (reported, never gated)
    metrics: Any = None  # repro.obs.Metrics folded from the trace (metered runs only)
    consistency: Any = None  # oracle report JSON dict (checked sweep cells only)
    failure: Any = None  # RunFailure of an aborted run (faulted sweep cells only)
    injected: Any = None  # FaultInjector.injected counters (faulted sweep cells only)

    @property
    def net(self):
        """The run's ``NetStats``: a DSM run's ``RunStats`` embeds it, an MPI
        run's stats *are* it, an aborted cell (no stats) has none."""
        stats = self.stats
        return stats.net if isinstance(stats, RunStats) else stats

    def table_row(self) -> dict:
        if self.net is self.stats:  # MPI or aborted: no protocol counters
            return {"Time (Sec.)": round(self.time, 3)}
        return self.stats.table_row()


def program_builder(app_module, protocol: str, variant: str = "default") -> Callable:
    """``app_module``'s builder for ``variant`` in ``protocol``'s programming
    model: its ``PROGRAMS[MODELS[protocol], variant]``.

    A pair the app has no program for raises ``ValueError`` naming the
    variants it has in that model.
    """
    model = MODELS.get(protocol)
    if model is None:
        raise ValueError(f"unknown protocol {protocol!r}; expected one of {sorted(MODELS)}")
    programs = app_module.PROGRAMS
    build = programs.get((model, variant))
    if build is not None:
        return build
    from repro.apps import APPS

    name = next((k for k, m in APPS.items() if m is app_module), app_module.__name__)
    variants = [v for m, v in programs if m == model]
    if not variants and model == "mpi":
        raise ValueError(f"{name} has no MPI version (only nn does)")
    raise ValueError(
        f"{name} has no {model} variant {variant!r} "
        f"(its {model} variants: {', '.join(variants)})"
    )


@gc_paused()
def run_app(
    app_module,
    protocol: str,
    nprocs: int,
    config: Optional[AppConfig] = None,
    variant: str = "default",
    verify: bool = True,
    netcfg: Optional[NetConfig] = None,
    nodecfg: Optional[NodeConfig] = None,
    tracer: Any = None,
    metrics: Any = None,
    oracle: Any = None,
    faults: Any = None,
    host: Any = None,
) -> AppResult:
    """Build, run and (optionally) verify one application.

    ``app_module`` must expose ``default_config()``, ``sequential(config)``,
    ``outputs_match(got, expected)`` and ``PROGRAMS``, its table of programs
    (:func:`program_builder` picks the one for ``protocol`` and
    ``variant``).  A program's builder allocates on ``system`` — whatever
    :func:`repro.core.program.make_system` returns for ``protocol``, an
    :class:`repro.mpi.MpiSystem` for ``"mpi"`` — and returns the body every
    rank runs; rank 0 leaves the comparable output on ``system.app_output``.

    The two recorder hooks: ``tracer`` (a :class:`repro.obs.EventTracer`)
    records structured events for the caller to analyse
    (:func:`repro.obs.compute_breakdown` over ``tracer.events``); ``oracle``
    (a :class:`repro.obs.oracle.AccessRecorder`) records the access history
    for the consistency oracle.  ``metrics`` (a :class:`repro.obs.Metrics`)
    gets the contention metrics folded from the run's (or a private) trace
    and comes back on ``AppResult.metrics``; ``faults`` (a
    :class:`repro.faults.FaultPlan` or pre-built
    :class:`~repro.faults.FaultInjector`) injects scripted network and node
    faults.

    ``host`` (a second :class:`repro.obs.EventTracer`) records the
    *wall-clock* phases of the real work — build/execute/extract/verify, one
    ``X`` row each on pid :data:`repro.obs.host.HOST_PID`, closed on every way
    out — without ever touching the simulation (simulated observables stay
    bit-identical).

    A protocol or variant the app has no program for raises ``ValueError``
    before anything is built.  An exhausted retransmission budget or a
    fail-stop crash episode raises :class:`repro.faults.RunAborted` carrying
    a structured :class:`~repro.faults.RunFailure`; any other exception
    propagates unchanged (it is a bug, not a fault outcome).

    The cycle collector is paused over the whole call and put back as it was
    found on every way out (:func:`repro.obs.gcpause.gc_paused` says why).
    """
    build = program_builder(app_module, protocol, variant)
    unprofiled = nullcontext()
    span = _host_phases(host) if host is not None else (lambda cat: unprofiled)
    config = config or app_module.default_config()

    with span("build"):
        system = make_system(nprocs, protocol, netcfg=netcfg, nodecfg=nodecfg)
        # the two recorder hooks; None (off) is the simulator's default, and
        # a metered run is traced (its metrics are folded from the rows).
        # MPI has no shared pages: its oracle history stays empty and the
        # checker reports "not-applicable"
        sim = system.sim
        sim.tracer = tracer if tracer is not None or metrics is None else EventTracer()
        sim.oracle = oracle
        if faults is not None:
            system.cluster.install_faults(faults)
        body = build(system, config)
    with span("execute"):
        _run_or_abort(system.cluster, lambda: system.run_program(body))
    with span("extract"):
        output = system.app_output
        metrics = None if metrics is None else metrics.fold(sim.tracer.events)
    result = AppResult(
        protocol, nprocs, output, system.stats, system.time,
        events=sim.events_processed, metrics=metrics,
    )
    if verify:
        with span("verify"):
            expected = app_module.sequential(config)
            result.verified = app_module.outputs_match(output, expected)
        if not result.verified:
            raise AssertionError(
                f"{app_module.__name__} on {protocol}/{nprocs}p produced wrong output"
            )
    return result


def _host_phases(host):
    """``span(cat)`` for :func:`run_app`: a context that appends one ``X`` row
    ``(HOST_PID, "run", cat, cat, t0, t1)`` to the ``host`` tracer when it
    closes, on every way out, in ``perf_counter`` seconds since this call."""
    from repro.obs.host import HOST_PID

    origin = perf_counter()

    @contextmanager
    def span(cat: str):
        t0 = perf_counter() - origin
        try:
            yield
        finally:
            host.span(HOST_PID, "run", cat, cat, t0, perf_counter() - origin)

    return span
