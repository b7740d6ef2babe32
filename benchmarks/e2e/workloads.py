"""The six workloads: inputs from a seed, one repetition, what it produced.

Sizes are fixed here and never scaled by time.  Inputs are generated in the
harness from ``--seed``; ``repro`` receives only the generated configs,
cells and fault plan.  Seed 0 means the committed seeds (IS 42, SOR 3,
NN 11, fault plan 7), so the pins in ``expected.json`` apply.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import statistics
from dataclasses import dataclass, field
from typing import Any, Callable, Optional

from benchmarks.e2e import surface

WARM_SWEEPS = 5

CHAOS_PLAN = {
    "seed": 7,
    "episodes": [
        {"kind": "loss", "drop_prob": 0.02},
        {"kind": "duplicate", "dup_prob": 0.05},
        {"kind": "reorder", "reorder_prob": 0.1, "reorder_delay": 0.002},
    ],
}


def derive(seed: int, tag: str) -> int:
    """A stable per-purpose seed from the benchmark's ``--seed``."""
    digest = hashlib.sha256(f"{seed}:{tag}".encode()).digest()
    return 1 + int.from_bytes(digest[:4], "big") % (2**31 - 2)


@dataclass
class Op:
    """One validated unit of work: a repetition, or one cell of a sweep."""

    id: str
    fingerprint: str
    verified: bool
    events: int
    msgs: int
    error: Optional[str] = None  # a check the op itself failed (oracle, hits)


@dataclass
class Rep:
    ops: list
    counts: dict  # exact simulated counts, summed over the ops
    extras: dict = field(default_factory=dict)  # workload-specific metrics


@dataclass(frozen=True)
class Workload:
    name: str
    make_inputs: Callable[[int], Any]
    rep: Callable[[Any, Any, str], Rep]  # (inputs, spans, scratch dir)
    warmup: Optional[Callable[[Any, Any, str], Rep]] = None
    after: Optional[Callable[[Any, Any, str], dict]] = None  # traced run only


def fingerprint(table_row: dict) -> str:
    """Same hash as ``CellResult.fingerprint()`` in ``repro.bench.sweep``."""
    return hashlib.sha256(
        json.dumps(table_row, sort_keys=True).encode()
    ).hexdigest()[:16]


def _counts(result) -> dict:
    stats = result.stats
    net = getattr(stats, "net", stats)  # RunStats embeds NetStats; MPI is NetStats
    return {
        "sim.events": result.events,
        "net.msgs": net.num_msg,
        "net.bytes": net.data_bytes,
        "net.rexmit": net.rexmit,
        "net.drops": net.drops,
        "protocols.barriers": getattr(stats, "barriers", 0),
        "protocols.acquires": getattr(stats, "acquires", 0),
        "protocols.diff_requests": getattr(stats, "diff_requests", 0),
    }


def _op(op_id: str, result, error: Optional[str] = None) -> Op:
    counts = _counts(result)
    return Op(op_id, fingerprint(result.table_row()), result.verified is True,
              counts["sim.events"], counts["net.msgs"], error)


# -- single-application workloads ---------------------------------------------------


def _app_inputs(app: str, protocol: str, nprocs: int, config, plan=None):
    def make(seed: int) -> dict:
        cfg = config
        faults = None
        if seed != 0:
            cfg = dataclasses.replace(config, seed=derive(seed, "config"))
        if plan is not None:
            plan_seed = plan["seed"] if seed == 0 else derive(seed, "plan")
            faults = surface.FaultPlan.from_json({**plan, "seed": plan_seed})
        return {"app_module": surface.APPS[app], "protocol": protocol,
                "nprocs": nprocs, "config": cfg, "faults": faults}

    return make


def _plain(name: str):
    def rep(inputs, spans, scratch) -> Rep:
        result = surface.run_app(**inputs)
        return Rep([_op(name, result)], _counts(result))

    return rep


def _observed(inputs, spans, scratch) -> Rep:
    """IS/8 with tracer, metrics and access recorder attached, then the three
    analyses a user of ``repro trace``/``check`` pays for."""
    tracer = surface.EventTracer()
    recorder = surface.AccessRecorder()
    with spans.span("run"):
        result = surface.run_app(**inputs, tracer=tracer,
                                 metrics=surface.Metrics(), oracle=recorder)
    with spans.span("check"):
        report = surface.check_history(
            recorder, nprocs=inputs["nprocs"], protocol=inputs["protocol"])
    with spans.span("critpath"):
        surface.compute_critical_path(tracer)
    path = os.path.join(scratch, "trace.json")
    with spans.span("export"):
        surface.write_chrome_trace(tracer, path)
    error = None if report.verdict == "clean" else f"oracle verdict {report.verdict}"
    return Rep([_op("is8_observed", result, error)], _counts(result),
               {"obs.export_mb": os.path.getsize(path) / 1e6})


# -- the cold sweep -------------------------------------------------------------------


def _sweep_inputs(seed: int) -> dict:
    cells = surface.default_cells()
    if seed != 0:
        cells = [dataclasses.replace(cell, seed=derive(seed, f"cell{i}"))
                 for i, cell in enumerate(cells)]
    return {"cells": cells, "jobs": min(2, os.cpu_count() or 1)}


def _cell_id(cell) -> str:
    return f"sweep_cold:{cell.app}/{cell.protocol}/{cell.nprocs}/{cell.variant}"


def _sweep_cold(inputs, spans, scratch) -> Rep:
    cache = os.path.join(scratch, "cache")
    with spans.span("cold") as cold:
        report = surface.run_sweep(inputs["cells"], jobs=inputs["jobs"], cache_dir=cache)
    wall = cold["end"] - cold["start"]
    ops = []
    counts: dict = {}
    for cell in report.cells:
        error = "unexpected cache hit in a fresh cache" if cell.cache_hit else None
        cell_counts = _counts(cell.result)
        ops.append(Op(_cell_id(cell.cell), cell.fingerprint(),
                      cell.result.verified is True, cell.result.events,
                      cell_counts["net.msgs"], error))
        for key, value in cell_counts.items():
            counts[key] = counts.get(key, 0) + value
    walls = [cell.wall_seconds for cell in report.cells]
    cache_bytes = sum(
        os.path.getsize(os.path.join(root, name))
        for root, _, names in os.walk(cache) for name in names
    )
    return Rep(ops, counts, {
        "bench.cells": len(report.cells),
        "bench.cell_wall_sum_s": sum(walls),
        "bench.slowest_cell_s": max(walls),
        "bench.pool_efficiency": sum(walls) / (inputs["jobs"] * wall),
        "bench.cache_mb": cache_bytes / 1e6,
        "worker_rss_kb": max(cell.peak_rss_kb for cell in report.cells),
    })


def _sweep_warm(inputs, spans, scratch) -> dict:
    """All-hit re-runs on the cache the cold repetition just filled."""
    cache = os.path.join(scratch, "cache")
    times = []
    for _ in range(WARM_SWEEPS):
        with spans.span("warm") as warm:
            report = surface.run_sweep(inputs["cells"], jobs=inputs["jobs"], cache_dir=cache)
        times.append(warm["end"] - warm["start"])
        if report.hits != len(inputs["cells"]):
            raise AssertionError(
                f"warm sweep recalled {report.hits} of {len(inputs['cells'])} cells")
    return {"bench.warm_sweep_ms": statistics.median(times) * 1e3,
            "bench.warm_hits": report.hits}


# -- the table -------------------------------------------------------------------------

_TABLE = (
    Workload("is16_vcd",
             _app_inputs("is", "vc_d", 16, surface.IsConfig()),
             _plain("is16_vcd"), _plain("is16_vcd")),
    Workload("sor8_lrc",
             _app_inputs("sor", "lrc_d", 8, surface.SorConfig(rows=512, cols=256)),
             _plain("sor8_lrc"), _plain("sor8_lrc")),
    Workload("nn32_mpi",
             _app_inputs("nn", "mpi", 32, surface.NnConfig(epochs=600)),
             _plain("nn32_mpi"), _plain("nn32_mpi")),
    Workload("is16_vcsd_chaos",
             _app_inputs("is", "vc_sd", 16, surface.IsConfig(), CHAOS_PLAN),
             _plain("is16_vcsd_chaos"), _plain("is16_vcsd_chaos")),
    # warm-up is the plain run: obs.overhead_ratio compares against it
    Workload("is8_observed",
             _app_inputs("is", "vc_d", 8, surface.IsConfig()),
             _observed, _plain("is8_observed")),
    # no warm-up: cold is the point
    Workload("sweep_cold", _sweep_inputs, _sweep_cold, None, _sweep_warm),
)
BY_NAME = {w.name: w for w in _TABLE}
