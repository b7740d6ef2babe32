"""Names, units and scopes of every metric the benchmark reports.

``BENCHMARK.json`` lists the same names (``test_e2e_smoke.py`` asserts the
two agree); later issues refer to workloads and metrics by exactly these
names.  No ``repro`` import here: the harness process reads this module.
"""

from __future__ import annotations

WORKLOADS = (
    "is16_vcd",
    "sor8_lrc",
    "nn32_mpi",
    "is16_vcsd_chaos",
    "is8_observed",
    "sweep_cold",
)
ALL = frozenset(WORKLOADS)
PROFILED = ALL - {"sweep_cold"}  # cProfile does not follow pool workers
OBSERVED = frozenset({"is8_observed"})
SWEEP = frozenset({"sweep_cold"})
KERNEL = ALL  # workload-independent; reported with every traced run

# The workloads BENCHMARK.json lists, so the builder's driver runs and gates
# them.  Its time limit leaves room for four runs long enough to be steady;
# the issue named the chaos run as the first to go, and the sweep fills both
# cores of the reference host, so its time is the neighbours' as much as its
# own.  Both stay in the report.
GATED = ("is16_vcd", "sor8_lrc", "nn32_mpi", "is8_observed")

# Fresh children per workload and run.  Each pays set-up once, then starts
# timed repetitions until its third of --seconds has passed since its spawn.
# Sizes never scale by time: --seconds only changes how many repetitions fit.
ROUNDS = 3

LAYERS = ("sim", "net", "memory", "protocols", "core", "apps", "mpi",
          "faults", "obs", "bench", "other")

# name -> (unit, better, bound): what a user of the simulator sees.  Seconds
# are corrected for the sampled speed of the host (hostspeed.py); the time
# bounds are still the widest the builder's contract allows, because the
# correction leaves a residue; see README.md, "How steady it is".
END_TO_END = {
    "wall_s": ("s", "lower", 0.25),
    "peak_rss_mb": ("MiB", "lower", 0.10),
    "setup_s": ("s", "lower", 0.25),
}

# name -> (unit, better, workloads it is defined on).  On a workload outside
# its scope a metric is reported as 0 by `run.py --trace 1` (the contract
# wants every name on every run) and omitted from the report.
PER_LAYER: dict[str, tuple[str, str, frozenset]] = {}
for _layer in LAYERS:
    PER_LAYER[f"{_layer}.self_s"] = ("s", "lower", PROFILED)
    PER_LAYER[f"{_layer}.calls"] = ("count", "lower", PROFILED)
PER_LAYER.update({
    "trace.overhead_ratio": ("ratio", "lower", PROFILED),
    "host.cpu_s": ("s", "lower", ALL),
    "host.noisy_reps": ("count", "lower", ALL),
    "host.speed": ("ratio", "higher", ALL),
    # exact simulated counts: all but sim.events must stay bit-identical
    "sim.events": ("count", "lower", ALL),
    "net.msgs": ("count", "lower", ALL),
    "net.bytes": ("count", "lower", ALL),
    "net.rexmit": ("count", "lower", ALL),
    "net.drops": ("count", "lower", ALL),
    "protocols.barriers": ("count", "lower", ALL),
    "protocols.acquires": ("count", "lower", ALL),
    "protocols.diff_requests": ("count", "lower", ALL),
    "memory.make_diff_calls": ("count", "lower", PROFILED),
    "memory.apply_diff_calls": ("count", "lower", PROFILED),
    "memory.integrate_calls": ("count", "lower", PROFILED),
    # derived from the untraced repetition of the traced run
    "sim.events_per_s": ("1/s", "higher", ALL),
    "sim.ns_per_event": ("ns", "lower", ALL),
    "net.events_per_msg": ("ratio", "lower", ALL),
    "net.rexmit_ratio": ("ratio", "lower", ALL),
    # harness spans inside is8_observed
    "obs.run_s": ("s", "lower", OBSERVED),
    "obs.check_s": ("s", "lower", OBSERVED),
    "obs.critpath_s": ("s", "lower", OBSERVED),
    "obs.export_s": ("s", "lower", OBSERVED),
    "obs.export_mb": ("MB", "lower", OBSERVED),
    "obs.overhead_ratio": ("ratio", "lower", OBSERVED),
    # sweep_cold, from CellResult.wall_seconds and the harness spans
    "bench.cells": ("count", "higher", SWEEP),
    "bench.cell_wall_sum_s": ("s", "lower", SWEEP),
    "bench.slowest_cell_s": ("s", "lower", SWEEP),
    "bench.pool_efficiency": ("ratio", "higher", SWEEP),
    "bench.cache_mb": ("MB", "lower", SWEEP),
    "bench.warm_sweep_ms": ("ms", "lower", SWEEP),
})
for _name, _unit in (
    ("sim.kernel.heap_1e3_ns", "ns"),
    ("sim.kernel.heap_1e5_ns", "ns"),
    ("sim.kernel.calendar_1e5_ns", "ns"),
    ("sim.kernel.call_soon_ns", "ns"),
    ("sim.kernel.resume_ns", "ns"),
    ("sim.kernel.channel_pingpong_ns", "ns"),
    ("net.kernel.rtt_host_us", "us"),
    ("net.kernel.rtt_events", "count"),
    ("net.kernel.page_send_host_us", "us"),
    ("memory.kernel.make_diff_sparse_ns", "ns"),
    ("memory.kernel.make_diff_striped_ns", "ns"),
    ("memory.kernel.make_diff_dense_ns", "ns"),
    ("memory.kernel.apply_diff_striped_ns", "ns"),
    ("memory.kernel.integrate8_striped_ns", "ns"),
    ("memory.kernel.read_hit_ns", "ns"),
    ("mpi.kernel.allreduce8_host_us", "us"),
    ("mpi.kernel.allreduce8_events", "count"),
    ("bench.kernel.cache_put_us", "us"),
    ("bench.kernel.cache_get_us", "us"),
    ("bench.kernel.code_fingerprint_ms", "ms"),
    ("obs.kernel.page_digest_ns", "ns"),
):
    PER_LAYER[_name] = (_unit, "lower", KERNEL)

# What BENCHMARK.json lists and `run.py --workload W --trace 1` prints: the
# per-layer metrics defined on at least one gated workload.
GATED_PER_LAYER = {name: row for name, row in PER_LAYER.items() if row[2] & set(GATED)}

# simulated counts every repetition reports; they repeat exactly for one
# code version and seed, and all but sim.events must survive perf PRs
SIM_COUNTS = (
    "sim.events", "net.msgs", "net.bytes", "net.rexmit", "net.drops",
    "protocols.barriers", "protocols.acquires", "protocols.diff_requests",
)


def is_kernel(name: str) -> bool:
    return ".kernel." in name


def defined_on(workload: str) -> list[str]:
    """Per-layer metric names defined on ``workload`` (kernels excluded)."""
    return [
        name for name, (_, _, scope) in PER_LAYER.items()
        if workload in scope and not is_kernel(name)
    ]
