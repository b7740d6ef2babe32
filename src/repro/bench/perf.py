"""Wall-clock performance harness for the simulator hot path.

Everything else in :mod:`repro.bench` measures *simulated* quantities; this
module measures the **host**: how fast the discrete-event kernel, transport
and diff machinery push events through a fixed, seeded workload.  The
workload is the Table-1 experiment — IS on 16 processors under each of
LRC_d, VC_d and VC_sd — because it exercises every hot path at once (page
faults, diffs, diff integration, barriers, retransmissions under congestion
loss).

Determinism makes the harness a regression baseline: the same seed must
produce the same simulated statistics on every commit, so any change in
``wall_seconds``/``events_per_sec`` is a host-side performance change, not a
workload change.  ``python -m repro.bench.perf`` records the baseline to
``BENCH_hotpath.json`` in the repo root; see docs/simulator.md ("Performance")
for how to read it.
"""

from __future__ import annotations

import json
import platform
import resource
import time
from typing import Optional, Sequence

from repro.apps import is_sort
from repro.apps.common import run_app
from repro.bench.manifest import run_manifest
from repro.bench.runner import STATS_ENTRIES, Entry

__all__ = ["run_hotpath_benchmark", "write_report", "DEFAULT_OUTPUT"]

DEFAULT_OUTPUT = "BENCH_hotpath.json"


def _peak_rss_kb() -> int:
    """Peak resident set size of this process, in KiB (Linux semantics)."""
    return int(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)


def _message_mix(stats) -> dict:
    """Per-kind message mix with breakdown percentages.

    ``stats`` is a DSM :class:`~repro.protocols.runstats.RunStats` (which
    embeds the shared :class:`~repro.net.stats.NetStats`) or a bare NetStats
    (MPI).  Kind keys are normalised from ``"MessageKind.DIFF_REQUEST"`` to
    ``"DIFF_REQUEST"``; kinds are sorted by descending message count (then
    name) so the report reads top-contributor first.
    """
    net = getattr(stats, "net", stats).snapshot()
    total_msg = net["num_msg"] or 1
    total_bytes = net["data_bytes"] or 1
    mix = {}
    by_kind = net["by_kind"]
    for k in sorted(by_kind, key=lambda k: (-by_kind[k]["count"], k)):
        rec = by_kind[k]
        mix[k.split(".", 1)[-1]] = {
            "count": rec["count"],
            "bytes": rec["bytes"],
            "pct_msgs": round(100.0 * rec["count"] / total_msg, 2),
            "pct_bytes": round(100.0 * rec["bytes"] / total_bytes, 2),
        }
    return {
        "num_msg": net["num_msg"],
        "data_bytes": net["data_bytes"],
        "rexmit": net["rexmit"],
        "drops": net["drops"],
        "by_kind": mix,
    }


def run_hotpath_benchmark(
    nprocs: int = 16,
    config: Optional[is_sort.IsConfig] = None,
    entries: Sequence[Entry] = STATS_ENTRIES,
    verify: bool = True,
    host=None,
) -> dict:
    """Run the fixed IS workload under each entry, timing the host.

    Returns a JSON-serialisable report: per-protocol wall seconds, executed
    simulator events, events/sec and the simulated statistics row (the
    fingerprint that must not change for a fixed seed), plus process-wide
    totals and peak RSS.  ``host`` (a
    :class:`repro.obs.host.HostProfiler`) additionally records one phase
    span per protocol entry under the ``bench`` lane.
    """
    config = config or is_sort.default_config()
    protocols = {}
    total_wall = 0.0
    total_events = 0
    for entry in entries:
        if host is not None:
            host.begin("bench", "phase", entry.label)
        t0 = time.perf_counter()
        result = run_app(
            is_sort, entry.protocol, nprocs,
            config=config, variant=entry.variant, verify=verify,
        )
        wall = time.perf_counter() - t0
        if host is not None:
            host.end()
        total_wall += wall
        total_events += result.events
        protocols[entry.label] = {
            "wall_seconds": round(wall, 4),
            "events": result.events,
            "events_per_sec": round(result.events / wall) if wall > 0 else 0,
            "sim_time_seconds": round(result.time, 6),
            "verified": result.verified,
            "table_row": result.stats.table_row(),
            "message_mix": _message_mix(result.stats),
        }
    return {
        "benchmark": "hotpath_is",
        "app": "is_sort",
        "nprocs": nprocs,
        "seed": config.seed,
        "config": {
            "n_keys": config.n_keys,
            "b_max": config.b_max,
            "reps": config.reps,
            "bucket_views": config.bucket_views,
            "work_factor": config.work_factor,
        },
        "protocols": protocols,
        "wall_seconds": round(total_wall, 4),
        "events": total_events,
        "events_per_sec": round(total_events / total_wall) if total_wall > 0 else 0,
        # the named regression metric: VC_d dominates the workload's event
        # volume, so its throughput is the most sensitive host-side signal
        "vc_d_events_per_sec": protocols.get("VC_d", {}).get("events_per_sec", 0),
        "peak_rss_kb": _peak_rss_kb(),
        "python": platform.python_version(),
        "manifest": run_manifest(config=config, wall_seconds=total_wall,
                                 peak_rss_kb=_peak_rss_kb()),
    }


def write_report(report: dict, path: str = DEFAULT_OUTPUT) -> None:
    with open(path, "w") as fh:
        json.dump(report, fh, indent=1, sort_keys=False)
        fh.write("\n")


def main() -> None:  # pragma: no cover - exercised via CLI
    report = run_hotpath_benchmark()
    write_report(report)
    print(json.dumps(report, indent=1))
    print(f"wrote {DEFAULT_OUTPUT}")


if __name__ == "__main__":  # pragma: no cover
    main()
