"""One fresh interpreter per workload and round, so heap state and peak RSS
do not leak between workloads.  Started by ``run.py`` as
``python -m benchmarks.e2e.child``; prints one JSON document as its last line.

Modes: ``timed`` (set-up, then untraced repetitions until ``--seconds`` have
passed since the harness spawned this child, at least one), ``traced``
(set-up, one untraced repetition, the workload's ``after`` hook, one
repetition under cProfile folded by layer) and ``kernels``.  Outside the
profile a ``SpeedSampler`` runs, so every untraced time comes with the speed
the host had meanwhile (hostspeed.py).
"""

from __future__ import annotations

import argparse
import cProfile
import dataclasses
import gc
import json
import os
import pstats
import resource
import sys
import tempfile
import time
import traceback

from benchmarks.e2e.hostspeed import SpeedSampler
from benchmarks.e2e.metrics import PROFILED
from benchmarks.e2e.spans import Spans


def _cpu_seconds() -> float:
    """User + system CPU of this process and the children it has reaped."""
    t = os.times()
    return t.user + t.system + t.children_user + t.children_system


def _run_rep(fn, workload, inputs, spans, sampler, scratch_root, label, rep=None,
             after=None, profile=None) -> dict:
    """Time one repetition in a scratch directory of its own, with the host
    speed ``sampler`` saw meanwhile and under ``profile`` if given; a
    repetition that raises is one failed op, not a dead benchmark.  ``after``
    runs untimed in the same scratch directory and adds to the extras."""
    from benchmarks.e2e.workloads import Op

    with tempfile.TemporaryDirectory(dir=scratch_root) as scratch:
        gc.collect()  # untimed: every repetition starts from the same heap state
        cpu0 = _cpu_seconds()
        first_inner = len(spans.rows) + 1
        first_probe = len(sampler.probe_ns)
        try:
            with spans.span(label, rep) as row:
                out = (fn(inputs, spans, scratch) if profile is None
                       else profile.runcall(fn, inputs, spans, scratch))
            cpu = _cpu_seconds() - cpu0
            ops, counts, extras = out.ops, out.counts, out.extras
            if after is not None:
                extras = {**extras, **after(inputs, spans, scratch)}
        except Exception as exc:  # boundary: report and keep measuring
            traceback.print_exc(file=sys.stderr)
            cpu = _cpu_seconds() - cpu0
            ops = [Op(workload, "", False, 0, 0, f"{type(exc).__name__}: {exc}")]
            counts, extras = {}, {}
    return {
        "wall_s": row["end"] - row["start"],
        "speed": sampler.speed_since(first_probe),
        "cpu_s": cpu,
        "ops": [dataclasses.asdict(op) for op in ops],
        "counts": counts,
        "extras": extras,
        # the spans the repetition opened directly under its own
        "inner_s": {r["name"]: r["end"] - r["start"]
                    for r in spans.rows[first_inner:] if r["parent"] == row["id"]},
    }


def _profiled(fn, workload, inputs, spans, sampler, scratch_root) -> dict:
    from benchmarks.e2e.fold import fold_stats

    sampler.stop()  # the probe is not the program: keep it out of the profile
    profile = cProfile.Profile()
    rep = _run_rep(fn, workload, inputs, spans, sampler, scratch_root, "profiled",
                   profile=profile)
    folded = fold_stats(pstats.Stats(profile).stats)
    return {**rep, **folded}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="benchmarks.e2e.child")
    parser.add_argument("--mode", choices=("timed", "traced", "kernels"), required=True)
    parser.add_argument("--workload", default="kernels")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0,
                        help="timed mode: start repetitions until this long after --spawned")
    parser.add_argument("--scale", type=int, default=1)
    parser.add_argument("--spawned", type=float, required=True,
                        help="the harness's perf_counter just before the spawn")
    parser.add_argument("--scratch", required=True)
    parser.add_argument("--parent-span", default=None)
    args = parser.parse_args(argv)

    spans = Spans(args.workload, args.parent_span)
    doc: dict = {}

    if args.mode == "kernels":
        from benchmarks.e2e.kernels import run_kernels

        with spans.span("kernels"):
            doc["kernels"] = run_kernels(args.seed, args.scale, args.scratch)
    else:
        # sampling from the start of set-up to the last untraced repetition
        sampler = SpeedSampler()
        sampler.start()
        with spans.span("setup") as setup:
            setup["start"] = args.spawned  # spawn, interpreter start and imports count
            from benchmarks.e2e.workloads import BY_NAME

            workload = BY_NAME[args.workload]
            inputs = workload.make_inputs(args.seed)
            doc["warmup"] = None
            if workload.warmup is not None:
                doc["warmup"] = _run_rep(workload.warmup, workload.name, inputs,
                                         spans, sampler, args.scratch, "warmup")
        doc["setup_s"] = setup["end"] - setup["start"]
        doc["setup_speed"] = sampler.speed_since(0)
        traced = args.mode == "traced"
        doc["reps"] = []
        while not doc["reps"] or time.perf_counter() - args.spawned < args.seconds:
            doc["reps"].append(_run_rep(
                workload.rep, workload.name, inputs, spans, sampler, args.scratch, "rep",
                len(doc["reps"]), after=workload.after if traced else None))
        if traced:
            doc["profile"] = None
            if workload.name in PROFILED:
                doc["profile"] = _profiled(workload.rep, workload.name, inputs,
                                           spans, sampler, args.scratch)
        sampler.stop()
    doc["rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    doc["spans"] = spans.rows
    print(json.dumps(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main())
