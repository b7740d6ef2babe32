"""Fault-degradation grid: slowdown vs loss rate, per protocol.

The paper's headline robustness asymmetry — LRC_d's barrier congestion costs
~1 s retransmission stalls while VC_sd's distributed barrier keeps Rexmit
near zero — is a *graceful degradation* story.  This bench charts it: each
protocol runs the same application under a sweep of scripted uniform-loss
fault plans (``repro.faults``), and the grid records how simulated time and
Rexmit grow with the loss rate, normalised to the protocol's own zero-loss
baseline.

Every grid cell is a :class:`~repro.bench.sweep.SweepCell` carrying its
fault plan, run by the sweep engine like any other cell, and still
**verifies against the sequential reference**: faults change timing and
Rexmit, never answers (the loss-invariance property the chaos tests pin).
A cell hostile enough to exhaust the retry budget is reported as a
structured failure row instead of killing the sweep.

CLI: ``python -m repro sweep --faults`` (see docs/robustness.md); the
report is written to ``BENCH_faults.json``.
"""

from __future__ import annotations

import json
import math
from typing import Optional, Sequence

from repro.bench.sweep import CellResult, SweepCell, run_sweep
from repro.faults import Episode, FaultPlan

__all__ = [
    "DEFAULT_FAULTS_OUTPUT",
    "DEFAULT_LOSS_RATES",
    "DEFAULT_PROTOCOLS",
    "grid_cells",
    "run_degradation_grid",
    "format_degradation_grid",
    "write_degradation_report",
]

DEFAULT_FAULTS_OUTPUT = "BENCH_faults.json"
DEFAULT_LOSS_RATES = (0.0, 0.002, 0.005, 0.01, 0.02)
DEFAULT_PROTOCOLS = ("lrc_d", "vc_d", "vc_sd")


def _grid_row(done: CellResult, loss_rate: float) -> dict:
    """One ``BENCH_faults.json`` row, read off an executed (or recalled) cell."""
    cell, result = done.cell, done.result
    row = {
        "app": cell.app,
        "protocol": cell.protocol,
        "nprocs": cell.nprocs,
        "loss_rate": loss_rate,
        "seed": cell.faults.seed,
    }
    if result.failure is not None:
        # hostile enough to exhaust the retry budget: report, don't crash
        row.update({"failed": True, "failure": result.failure.to_json()})
    else:
        net = result.net
        row.update(
            {
                "failed": False,
                "time": round(result.time, 6),
                "rexmit": net.rexmit,
                "drops": net.drops,
                "drops_by_cause": dict(sorted(net.drops_by_cause.items())),
                "num_msg": net.num_msg,
                "injected": result.injected,
                "verified": result.verified,
            }
        )
    if result.consistency is not None:
        # on an aborted cell this is the verdict on the partial history
        row["consistency"] = {
            "verdict": result.consistency["verdict"],
            "findings": len(result.consistency["findings"]),
        }
    return row


def grid_cells(
    app: str = "is",
    nprocs: int = 8,
    protocols: Sequence[str] = DEFAULT_PROTOCOLS,
    loss_rates: Sequence[float] = DEFAULT_LOSS_RATES,
    seed: int = 7,
    base_plan: Optional[FaultPlan] = None,
) -> list[tuple[float, SweepCell]]:
    """The grid's cells, protocol-major, each beside its loss rate: the
    ``base_plan`` episodes plus a uniform loss episode at that rate (none at
    rate 0), under the fault seed ``seed``.  The defaults are the committed
    ``BENCH_faults.json`` grid."""
    base = base_plan.episodes if base_plan is not None else ()
    return [
        (rate, SweepCell(app=app, protocol=protocol, nprocs=nprocs, faults=FaultPlan(
            base + ((Episode(kind="loss", drop_prob=rate),) if rate > 0.0 else ()),
            seed=seed,
        )))
        for protocol in protocols
        for rate in loss_rates
    ]


def run_degradation_grid(
    app: str = "is",
    nprocs: int = 8,
    protocols: Sequence[str] = DEFAULT_PROTOCOLS,
    loss_rates: Sequence[float] = DEFAULT_LOSS_RATES,
    seed: int = 7,
    base_plan: Optional[FaultPlan] = None,
    verify: bool = True,
    check: bool = False,
    jobs: int = 1,
    cache_dir: Optional[str] = None,
) -> dict:
    """Run the grid and return the report dict (``BENCH_faults.json`` shape).

    ``base_plan`` episodes (e.g. a duplication + reorder background from a
    ``--faults PLAN.json`` file) apply to every cell; the loss episode sweep
    is layered on top.  Slowdown is relative to each protocol's rate-0 cell
    (with the same base plan), so the curves isolate the *loss* response.
    ``check`` runs every cell — including aborted ones, on their partial
    history — under the consistency oracle and attaches the verdict.  The
    protocol x loss-rate cells go through :func:`~repro.bench.sweep.run_sweep`
    (``jobs`` workers, ``cache_dir`` result cache), so the rows are
    bit-identical serial, pooled or recalled.  A loss rate outside [0, 1]
    raises ``ValueError`` before any cell runs.
    """
    import time

    t_start = time.perf_counter()
    for rate in loss_rates:
        if not 0 <= rate <= 1:  # NaN fails too
            raise ValueError(f"loss rate must be a probability in [0, 1], got {rate!r}")
    loss_rates = tuple(sorted(set(float(r) for r in loss_rates)))
    if not loss_rates:
        raise ValueError("need at least one loss rate")
    cells = [cell for _, cell in
             grid_cells(app, nprocs, protocols, loss_rates, seed, base_plan)]
    done = iter(
        run_sweep(cells, jobs=jobs, cache_dir=cache_dir, verify=verify,
                  check=check).cells
    )
    grid: list[dict] = []
    for protocol in protocols:
        baseline_time: Optional[float] = None
        for rate in loss_rates:
            row = _grid_row(next(done), rate)
            if not row["failed"]:
                if baseline_time is None and rate == loss_rates[0]:
                    baseline_time = row["time"]
                row["slowdown"] = (
                    round(row["time"] / baseline_time, 4)
                    if baseline_time
                    else math.nan
                )
            grid.append(row)
    from repro.bench.manifest import run_manifest

    return {
        "benchmark": "faults_degradation",
        "app": app,
        "nprocs": nprocs,
        "seed": seed,
        "loss_rates": list(loss_rates),
        "protocols": list(protocols),
        "base_plan": base_plan.to_json() if base_plan is not None else None,
        "grid": grid,
        "manifest": run_manifest(
            config={"app": app, "nprocs": nprocs, "seed": seed,
                    "loss_rates": list(loss_rates),
                    "protocols": list(protocols)},
            wall_seconds=time.perf_counter() - t_start,
        ),
    }


def format_degradation_grid(report: dict) -> str:
    """Terminal rendering: one row per (protocol, loss rate)."""
    lines = [
        f"Degradation grid — {report['app']} x {report['nprocs']}p "
        f"(seed {report['seed']})",
        f"{'protocol':<8} {'loss':>6}  {'time (s)':>10} {'slowdown':>9} "
        f"{'rexmit':>7} {'drops':>6}  verified",
    ]
    for cell in report["grid"]:
        if cell["failed"]:
            reason = cell["failure"]["reason"]
            lines.append(
                f"{cell['protocol']:<8} {cell['loss_rate']:>6.3f}  "
                f"{'-':>10} {'-':>9} {'-':>7} {'-':>6}  FAILED ({reason})"
            )
            continue
        lines.append(
            f"{cell['protocol']:<8} {cell['loss_rate']:>6.3f}  "
            f"{cell['time']:>10.4f} {cell.get('slowdown', float('nan')):>9.3f} "
            f"{cell['rexmit']:>7} {cell['drops']:>6}  "
            f"{'yes' if cell['verified'] else 'NO'}"
        )
    return "\n".join(lines)


def write_degradation_report(report: dict, path: str = DEFAULT_FAULTS_OUTPUT) -> None:
    with open(path, "w") as fh:
        json.dump(report, fh, indent=1, sort_keys=True)
        fh.write("\n")
