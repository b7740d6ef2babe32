"""Parallel sweep engine with a content-addressed on-disk result cache.

A :class:`SweepCell` is the whole name of a run — (app, protocol, variant,
nprocs, seed) plus the two things that can make two such runs differ, a
fault plan and an app-config override — and :func:`_execute_cell` is the
one function that runs and checks it.  Everything that runs cells in bulk
(the matrix, the table drivers, the degradation grid) submits cells to
:func:`run_sweep`, which fans them over a ``ProcessPoolExecutor`` and
collects one :class:`CellResult` each.  Every simulation is self-contained
and deterministic, so parallel execution is **bit-identical** to serial:
the table rows of a cell do not depend on which worker ran it or in what
order (``tests/bench/test_sweep.py`` asserts this).

Results are cached on disk, keyed by a SHA-256 over the *content* that
determines the outcome:

* the cell itself (app, protocol, variant, nprocs, seed, fault plan),
* the app's full resolved config (``dataclasses.asdict`` — the default, or
  the cell's override), and
* a fingerprint of every ``src/repro`` source file.

Any change to the simulator, protocols or app code changes the code
fingerprint and silently invalidates every cached entry; changing a seed or
config field invalidates exactly the affected cells.  A cache hit returns
the unpickled :class:`~repro.apps.common.AppResult` without re-running the
simulation, which makes warm re-runs of a whole sweep near-instant.

CLI: ``python -m repro sweep`` (see docs/benchmarks.md).  The consolidated
report is written to ``BENCH_sweep.json``.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import pickle
import resource
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Optional, Sequence

from repro.apps import APPS
from repro.apps.common import AppConfig, AppResult, run_app
from repro.faults import FaultInjector, FaultPlan, RunAborted
from repro.obs import AccessRecorder, check_history

__all__ = [
    "SweepCell",
    "CellResult",
    "SweepReport",
    "ResultCache",
    "code_fingerprint",
    "row_fingerprint",
    "cell_key",
    "run_sweep",
    "default_cells",
    "write_report",
    "DEFAULT_OUTPUT",
    "DEFAULT_CACHE_DIR",
]

DEFAULT_OUTPUT = "BENCH_sweep.json"
DEFAULT_CACHE_DIR = os.path.join(".cache", "sweep")


def row_fingerprint(table_row: dict) -> str:
    """The 16-hex determinism fingerprint of one simulated statistics row."""
    return hashlib.sha256(
        json.dumps(table_row, sort_keys=True).encode()
    ).hexdigest()[:16]


@dataclass(frozen=True)
class SweepCell:
    """The whole name of one run.  ``app`` is a name from
    :data:`repro.apps.APPS` (module objects don't pickle; names do)."""

    app: str
    protocol: str
    nprocs: int
    variant: str = "default"
    seed: Optional[int] = None  # None = the config's own seed
    faults: Optional[FaultPlan] = None  # installed on the cluster; None = none
    # replaces the app's default config (app configs are mutable, so unhashed)
    app_config: Optional[AppConfig] = field(default=None, hash=False)

    def config(self):
        """The resolved app config this cell runs with."""
        config = self.app_config or APPS[self.app].default_config()
        if self.seed is not None:
            config = dataclasses.replace(config, seed=self.seed)
        return config


@dataclass
class CellResult:
    """One executed (or cache-recalled) cell."""

    cell: SweepCell
    result: AppResult
    wall_seconds: float  # host seconds of the run that *produced* the result
    peak_rss_kb: int
    cache_hit: bool

    @property
    def events_per_sec(self) -> int:
        if self.wall_seconds <= 0:
            return 0
        return round(self.result.events / self.wall_seconds)

    def fingerprint(self) -> str:
        """Determinism fingerprint: hash of the simulated statistics row."""
        return row_fingerprint(self.result.table_row())


@dataclass
class SweepReport:
    """All cells of one sweep plus totals."""

    cells: list[CellResult]
    jobs: int
    wall_seconds: float  # wall clock of the whole sweep (this process)
    code_fingerprint: str
    manifest: Optional[dict] = None  # run-manifest block (repro.bench.manifest)

    @property
    def hits(self) -> int:
        return sum(1 for c in self.cells if c.cache_hit)

    def to_json(self) -> dict:
        import platform

        return {
            "benchmark": "sweep",
            "jobs": self.jobs,
            "wall_seconds": round(self.wall_seconds, 4),
            "cache_hits": self.hits,
            "cache_misses": len(self.cells) - self.hits,
            "code_fingerprint": self.code_fingerprint,
            "python": platform.python_version(),
            **({"manifest": self.manifest} if self.manifest is not None else {}),
            "cells": [
                {
                    "app": c.cell.app,
                    "protocol": c.cell.protocol,
                    "variant": c.cell.variant,
                    "nprocs": c.cell.nprocs,
                    "seed": c.cell.config().seed,
                    "wall_seconds": round(c.wall_seconds, 4),
                    "events": c.result.events,
                    "events_per_sec": c.events_per_sec,
                    "peak_rss_kb": c.peak_rss_kb,
                    "sim_time_seconds": round(c.result.time, 6),
                    "verified": c.result.verified,
                    "cache_hit": c.cache_hit,
                    "fingerprint": c.fingerprint(),
                    "table_row": c.result.table_row(),
                    **(
                        {"consistency": c.result.consistency}
                        if getattr(c.result, "consistency", None) is not None
                        else {}
                    ),
                }
                for c in self.cells
            ],
        }


# -- cache keying ---------------------------------------------------------------


_CODE_FP: Optional[str] = None


def code_fingerprint(refresh: bool = False) -> str:
    """SHA-256 over every ``src/repro`` Python source (path + content).

    Computed once per process; any code change — engine, protocol, app —
    yields a new fingerprint and therefore a cold cache.
    """
    global _CODE_FP
    if _CODE_FP is not None and not refresh:
        return _CODE_FP
    import repro

    pkg_root = os.path.dirname(os.path.abspath(repro.__file__))
    digest = hashlib.sha256()
    for dirpath, dirnames, filenames in sorted(os.walk(pkg_root)):
        dirnames.sort()
        for name in sorted(filenames):
            if not name.endswith(".py"):
                continue
            path = os.path.join(dirpath, name)
            digest.update(os.path.relpath(path, pkg_root).encode())
            with open(path, "rb") as fh:
                digest.update(fh.read())
    _CODE_FP = digest.hexdigest()
    return _CODE_FP


def cell_key(
    cell: SweepCell,
    code_fp: Optional[str] = None,
    check: bool = False,
) -> str:
    """Content-addressed cache key for one cell.

    Consistency-checked runs (``check``) key separately: their results carry
    the oracle verdict the unchecked ones lack.  The cell's fault plan is
    hashed in by its JSON form, so equal plans built separately share an
    entry.
    """
    material = {
        "app": cell.app,
        "protocol": cell.protocol,
        "variant": cell.variant,
        "nprocs": cell.nprocs,
        "seed": cell.seed,
        "config": dataclasses.asdict(cell.config()),
        "code": code_fp if code_fp is not None else code_fingerprint(),
    }
    if check:
        material["check"] = True
    if cell.faults is not None:
        material["faults"] = cell.faults.to_json()
    return hashlib.sha256(
        json.dumps(material, sort_keys=True, default=repr).encode()
    ).hexdigest()


class ResultCache:
    """Pickle-per-key result store under ``root`` (one file per cell)."""

    def __init__(self, root: str = DEFAULT_CACHE_DIR):
        self.root = root

    def _path(self, key: str) -> str:
        return os.path.join(self.root, key[:2], key + ".pkl")

    def get(self, key: str) -> Optional[tuple[AppResult, float, int]]:
        """Return ``(result, wall_seconds, peak_rss_kb)`` or ``None``."""
        try:
            with open(self._path(key), "rb") as fh:
                return pickle.load(fh)
        except (OSError, pickle.UnpicklingError, EOFError):
            return None

    def put(self, key: str, result: AppResult, wall: float, rss_kb: int) -> None:
        path = self._path(key)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        tmp = path + f".tmp.{os.getpid()}"
        with open(tmp, "wb") as fh:
            pickle.dump((result, wall, rss_kb), fh, protocol=pickle.HIGHEST_PROTOCOL)
        os.replace(tmp, path)  # atomic: concurrent workers can't torn-write


# -- execution -------------------------------------------------------------------


def _execute_cell(
    cell: SweepCell,
    verify: bool,
    check: bool = False,
) -> tuple[AppResult, float, int]:
    """Run and check one cell; returns (result, wall seconds, peak RSS KiB).

    The one checked run body outside the interactive CLI — a new recorder,
    checker or fault kind is wired into every bulk run here.  Module-level
    so a ``ProcessPoolExecutor`` worker can pickle it.  With ``check``
    the run records its access history, the consistency oracle verifies it,
    and the result carries the report on ``result.consistency`` (the history
    itself is not kept).  The cell's fault plan is installed and its
    ``injected`` counters come back on the result.  A run hostile enough to
    abort is a value, not a crashed sweep: the result carries the
    :class:`~repro.faults.RunFailure` (``failure``, time of the abort, no
    output or stats), and its partial history is still checked — a fault may
    cost time, never consistency.
    """
    t0 = time.perf_counter()
    oracle = AccessRecorder() if check else None
    injector = FaultInjector(cell.faults) if cell.faults is not None else None
    try:
        result = run_app(
            APPS[cell.app],
            cell.protocol,
            cell.nprocs,
            config=cell.config(),
            variant=cell.variant,
            verify=verify,
            oracle=oracle,
            faults=injector,
        )
    except RunAborted as exc:
        result = AppResult(cell.protocol, cell.nprocs, None, None,
                           exc.failure.sim_time, failure=exc.failure)
    if injector is not None:
        result.injected = dict(injector.injected)
    if oracle is not None:
        report = check_history(oracle, nprocs=cell.nprocs, protocol=cell.protocol,
                               aborted=result.failure is not None)
        result.consistency = report.to_json()
    wall = time.perf_counter() - t0
    rss_kb = int(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
    return result, wall, rss_kb


def _worker(
    args: tuple[SweepCell, bool, Optional[str], str, bool]
) -> tuple[AppResult, float, int]:
    """Pool worker: run + cache one cell; returns what :func:`_execute_cell` does."""
    cell, verify, cache_root, code_fp, check = args
    out = _execute_cell(cell, verify, check)
    if cache_root is not None:
        ResultCache(cache_root).put(cell_key(cell, code_fp, check), *out)
    return out


def run_sweep(
    cells: Sequence[SweepCell],
    jobs: int = 1,
    cache_dir: Optional[str] = DEFAULT_CACHE_DIR,
    verify: bool = True,
    check: bool = False,
) -> SweepReport:
    """Run every cell, using the cache and up to ``jobs`` worker processes.

    Cache hits are resolved first (in this process); only misses are
    dispatched to the pool.  ``jobs <= 1`` executes misses serially in this
    process — the results are identical either way.
    ``check`` runs every cell under the consistency oracle and attaches the
    verdict to each result (see :mod:`repro.obs.oracle`).
    """
    t_start = time.perf_counter()
    code_fp = code_fingerprint()
    cache = ResultCache(cache_dir) if cache_dir is not None else None
    keys = [cell_key(cell, code_fp, check) for cell in cells]
    slots: list[Optional[CellResult]] = [None] * len(cells)
    misses: list[int] = []
    for i, (cell, key) in enumerate(zip(cells, keys)):
        hit = cache.get(key) if cache is not None else None
        if hit is not None:
            result, wall, rss_kb = hit
            slots[i] = CellResult(cell, result, wall, rss_kb, cache_hit=True)
        else:
            misses.append(i)

    if misses and jobs > 1:
        work = [
            (cells[i], verify, cache_dir, code_fp, check)
            for i in misses
        ]
        with ProcessPoolExecutor(max_workers=min(jobs, len(misses))) as pool:
            for i, (result, wall, rss_kb) in zip(misses, pool.map(_worker, work)):
                slots[i] = CellResult(cells[i], result, wall, rss_kb, cache_hit=False)
    else:
        for i in misses:
            result, wall, rss_kb = _execute_cell(cells[i], verify, check)
            if cache is not None:
                cache.put(keys[i], result, wall, rss_kb)
            slots[i] = CellResult(cells[i], result, wall, rss_kb, cache_hit=False)

    wall_total = time.perf_counter() - t_start
    from repro.bench.manifest import run_manifest

    manifest = run_manifest(
        config=[dataclasses.asdict(c) for c in cells], wall_seconds=wall_total
    )
    return SweepReport(
        cells=[s for s in slots if s is not None],
        jobs=jobs,
        wall_seconds=wall_total,
        code_fingerprint=code_fp,
        manifest=manifest,
    )


def _app_name(app_module) -> str:
    for name, module in APPS.items():
        if module is app_module:
            return name
    raise KeyError(f"{app_module!r} is not a registered application")


# -- the default benchmark matrix -------------------------------------------------


def default_cells() -> list[SweepCell]:
    """The committed ``BENCH_sweep.json`` matrix.

    Covers every app under every DSM protocol at 8 processors, the paper's
    headline IS-on-16 cells (Table 1) and the fewer-barrier IS variant
    (Table 2), plus NN's MPI twin — small enough to run in well under a
    minute, broad enough to touch every protocol code path.
    """
    cells: list[SweepCell] = []
    for app in ("is", "gauss", "sor", "nn"):
        for protocol in ("lrc_d", "vc_d", "vc_sd"):
            cells.append(SweepCell(app=app, protocol=protocol, nprocs=8))
    for protocol in ("lrc_d", "vc_d", "vc_sd"):
        cells.append(SweepCell(app="is", protocol=protocol, nprocs=16))
    for protocol in ("vc_d", "vc_sd"):
        cells.append(SweepCell(app="is", protocol=protocol, nprocs=16, variant="lb"))
    cells.append(SweepCell(app="nn", protocol="mpi", nprocs=8))
    return cells


def write_report(report: SweepReport, path: str = DEFAULT_OUTPUT) -> None:
    with open(path, "w") as fh:
        json.dump(report.to_json(), fh, indent=1)
        fh.write("\n")


def main() -> None:  # pragma: no cover - exercised via CLI
    report = run_sweep(default_cells(), jobs=os.cpu_count() or 1)
    write_report(report)
    print(json.dumps(report.to_json(), indent=1))
    print(f"wrote {DEFAULT_OUTPUT}")


if __name__ == "__main__":  # pragma: no cover
    main()
