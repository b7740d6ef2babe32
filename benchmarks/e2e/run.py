"""Harness of the host-time benchmark (see README.md).

Two ways in:

* the builder's contract — one gated workload per call, one JSON line out::

      python3 benchmarks/e2e/run.py --workload W --seed N --seconds S --trace 0|1

* the full report — all six workloads in interleaved rounds, then the traced
  pass and the kernels, every metric printed by name with its unit::

      PYTHONPATH=src python -m benchmarks.e2e [--seed S] [--quick] [--selfcheck] [--no-trace]

The harness is closed-loop with one client: one child interpreter at a time,
one repetition in flight.  It never imports ``repro``; children do.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
if str(ROOT) not in sys.path:  # script mode: make `benchmarks.e2e` importable
    sys.path.insert(0, str(ROOT))

from benchmarks.e2e.fold import closure_error  # noqa: E402
from benchmarks.e2e.metrics import (  # noqa: E402
    END_TO_END, GATED, GATED_PER_LAYER, LAYERS, OBSERVED, PER_LAYER, ROUNDS,
    SIM_COUNTS, SWEEP, WORKLOADS, defined_on,
)
from benchmarks.e2e.spans import Spans  # noqa: E402

SRC = ROOT / "src"
OUT = HERE / "out"
SCRATCH = OUT / "tmp"
NOMINAL_SECONDS = 26  # BENCHMARK.json's run_seconds
CHILD_TIMEOUT_S = 170
NOISY_WALL_PER_CPU = 1.15
KERNEL_QUICK_SCALE = 10


class HarnessError(RuntimeError):
    """A child could not be run or did not report; not a failed op."""


# -- children -------------------------------------------------------------------------


def spawn_child(mode: str, workload: str, seed: int, spans: Spans,
                seconds: float = 0.0, scale: int = 1) -> dict:
    """Run one child interpreter to completion and return its document.  A
    timed child starts repetitions until ``seconds`` after this spawn."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT), str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    with spans.span("child") as row:
        cmd = [
            sys.executable, "-m", "benchmarks.e2e.child",
            "--mode", mode, "--workload", workload, "--seed", str(seed),
            "--seconds", repr(seconds), "--scale", str(scale),
            "--scratch", str(SCRATCH), "--parent-span", row["id"],
            "--spawned", repr(time.perf_counter()),
        ]
        # own session: a timeout must also stop the sweep's pool workers
        proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                                text=True, start_new_session=True)
        try:
            stdout, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
        except BaseException:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            raise
    if proc.returncode != 0 or not stdout.strip():
        raise HarnessError(f"{mode} child for {workload} exited with {proc.returncode}")
    doc = json.loads(stdout.strip().splitlines()[-1])
    row["workload"] = workload
    spans.rows.extend(doc.pop("spans"))
    return doc


# -- the failure account ----------------------------------------------------------------


class Validator:
    """An op fails if it raised, is not verified, failed a check of its own,
    or its fingerprint differs from the pin (seed 0) or from the first
    fingerprint this run saw for the same op (any other seed)."""

    def __init__(self, seed: int):
        self.reference: dict[str, str] = {}
        if seed == 0:
            with open(HERE / "expected.json") as fh:
                pins = json.load(fh)["ops"]
            self.reference = {op: pin["fingerprint"] for op, pin in pins.items()}
        self.ops = 0
        self.failures: list[str] = []

    def check(self, op: dict) -> None:
        self.ops += 1
        reason = op["error"]
        if reason is None and not op["verified"]:
            reason = "output not verified against the sequential reference"
        if reason is None:
            want = self.reference.setdefault(op["id"], op["fingerprint"])
            if op["fingerprint"] != want:
                reason = f"fingerprint {op['fingerprint']} != expected {want}"
        if reason is not None:
            self.failures.append(f"{op['id']}: {reason}")
            print(f"FAILED OP {op['id']}: {reason}", file=sys.stderr)

    def check_doc(self, doc: dict) -> None:
        reps = ([doc["warmup"]] if doc["warmup"] else []) + doc["reps"]
        if doc.get("profile"):
            reps.append(doc["profile"])
        for rep in reps:
            for op in rep["ops"]:
                self.check(op)


# -- the timed pass ---------------------------------------------------------------------


def is_noisy(workload: str, rep: dict) -> bool:
    """Wall well above CPU: the repetition was descheduled.  The sweep is
    exempt, its pool legitimately burns more CPU than wall."""
    return workload not in SWEEP and rep["wall_s"] > NOISY_WALL_PER_CPU * rep["cpu_s"]


def quartiles(values: list[float]) -> list[float]:
    return statistics.quantiles(values, n=4) if len(values) > 1 else [values[0]] * 3


def summarise_timed(workload: str, docs: list[dict]) -> dict:
    """End-to-end metrics of one workload from its rounds' child documents.
    Seconds are at the reference speed: measured wall seconds times the host
    speed sampled over the same interval (hostspeed.py)."""
    reps = [rep for doc in docs for rep in doc["reps"]]
    walls = [rep["wall_s"] * rep["speed"] for rep in reps]
    q1, _, q3 = quartiles(walls)
    return {
        "wall_s": statistics.median(walls),
        "wall_q1_s": q1,
        "wall_q3_s": q3,
        "n": len(walls),
        "wall_raw_s": statistics.median(rep["wall_s"] for rep in reps),
        "host_speed": statistics.fmean(rep["speed"] for rep in reps),
        # the child's own peak plus, for the sweep, its largest pool worker
        "peak_rss_mb": max(
            (doc["rss_kb"] + max(rep["extras"].get("worker_rss_kb", 0)
                                 for rep in doc["reps"])) / 1024
            for doc in docs),
        "setup_s": statistics.median(doc["setup_s"] * doc["setup_speed"] for doc in docs),
        "noisy_reps": sum(is_noisy(workload, rep) for rep in reps),
        "counts": reps[0]["counts"],
    }


# -- the traced pass --------------------------------------------------------------------


def per_layer_metrics(workload: str, doc: dict) -> dict:
    """Per-layer metrics of one workload from its traced child's document."""
    rep = doc["reps"][0]
    counts, extras, wall = rep["counts"], rep["extras"], rep["wall_s"]
    out = {name: counts.get(name, 0) for name in SIM_COUNTS}
    events, msgs = out["sim.events"], out["net.msgs"]
    out["host.cpu_s"] = rep["cpu_s"]
    out["host.noisy_reps"] = int(is_noisy(workload, rep))
    out["host.speed"] = rep["speed"]
    out["sim.events_per_s"] = events / wall
    out["sim.ns_per_event"] = wall / events * 1e9 if events else 0.0
    out["net.events_per_msg"] = events / msgs if msgs else 0.0
    out["net.rexmit_ratio"] = out["net.rexmit"] / msgs if msgs else 0.0
    profile = doc.get("profile")
    if profile is not None:
        for layer in LAYERS:
            out[f"{layer}.self_s"] = profile["layers"][layer]["self_s"]
            out[f"{layer}.calls"] = profile["layers"][layer]["calls"]
        out.update(profile["counted"])
        out["trace.overhead_ratio"] = profile["wall_s"] / wall
    if workload in OBSERVED:
        # .get: a repetition that raised has no spans or extras, only a failed op
        for name in ("run", "check", "critpath", "export"):
            out[f"obs.{name}_s"] = rep["inner_s"].get(name, 0.0)
        out["obs.export_mb"] = extras.get("obs.export_mb", 0.0)
        out["obs.overhead_ratio"] = out["obs.run_s"] / doc["warmup"]["wall_s"]
    if workload in SWEEP:
        out.update({k: v for k, v in extras.items() if k in PER_LAYER})
        out["_warm_hits"] = extras.get("bench.warm_hits", 0)
    return out


def trace_workload(workload: str, seed: int, spans: Spans, validator: Validator) -> dict:
    doc = spawn_child("traced", workload, seed, spans)
    validator.check_doc(doc)
    metrics = per_layer_metrics(workload, doc)
    if doc.get("profile"):
        metrics["_closure"] = closure_error(doc["profile"], doc["profile"]["wall_s"])
    return metrics


def run_kernels(seed: int, spans: Spans, quick: bool) -> dict:
    scale = KERNEL_QUICK_SCALE if quick else 1
    return spawn_child("kernels", "kernels", seed, spans, scale=scale)["kernels"]


# -- reporting --------------------------------------------------------------------------


def host_info() -> dict:
    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy_version, "machine": platform.machine()}


def timed_pass(workloads, seed: int, seconds: float, spans: Spans,
               validator: Validator, quick: bool = False, passes: int = 1) -> list[dict]:
    """One result set per pass.  Rounds are interleaved (every workload, then
    every workload again) so a noisy half-minute on a shared host cannot own
    one workload's samples; the passes of a self-check alternate child by
    child for the same reason."""
    docs = [{w: [] for w in workloads} for _ in range(passes)]
    for _ in range(1 if quick else ROUNDS):
        for w in workloads:
            for pass_docs in docs:
                doc = spawn_child("timed", w, seed, spans,
                                  seconds=0.0 if quick else seconds / ROUNDS)
                validator.check_doc(doc)
                pass_docs[w].append(doc)
    return [{w: summarise_timed(w, pass_docs[w]) for w in workloads}
            for pass_docs in docs]


def print_timed(results: dict) -> None:
    print("== end-to-end (untraced; host clock) ==")
    for workload, r in results.items():
        print(f"{workload:16s} wall_s       {r['wall_s']:10.4f} s    "
              f"(median of n={r['n']}; q1 {r['wall_q1_s']:.4f}  q3 {r['wall_q3_s']:.4f}; "
              f"uncorrected {r['wall_raw_s']:.4f} at host speed {r['host_speed']:.2f}; "
              f"noisy_reps={r['noisy_reps']})")
        print(f"{workload:16s} peak_rss_mb  {r['peak_rss_mb']:10.2f} MiB")
        print(f"{workload:16s} setup_s      {r['setup_s']:10.4f} s")


def print_per_layer(workload: str, metrics: dict) -> None:
    print(f"== per-layer: {workload} ==")
    for name in defined_on(workload):
        unit = PER_LAYER[name][0]
        print(f"{workload:16s} {name:28s} {metrics[name]:16.6g} {unit}")
    if "_closure" in metrics:
        print(f"{workload:16s} (fold closure error {metrics['_closure']:.4%} of profiled wall)")
    if "_warm_hits" in metrics:
        print(f"{workload:16s} (each warm sweep recalled {metrics['_warm_hits']} cells)")


def selfcheck(first: dict, second: dict) -> bool:
    """Two timed passes of the same code must agree within the bounds."""
    ok = True
    print("== selfcheck: pass 1 vs pass 2 ==")
    for workload in first:
        a, b = first[workload], second[workload]
        for name, (unit, _, bound) in END_TO_END.items():
            diff = abs(b[name] - a[name]) / a[name]
            verdict = "ok" if diff <= bound else "FAIL"
            ok &= diff <= bound
            print(f"{workload:16s} {name:12s} {a[name]:10.4f} {b[name]:10.4f} {unit:4s} "
                  f"diff {diff:6.2%}  bound {bound:.0%}  {verdict}")
        for name in SIM_COUNTS:
            if a["counts"].get(name) != b["counts"].get(name):
                ok = False
                print(f"{workload:16s} {name:12s} {a['counts'].get(name)} != "
                      f"{b['counts'].get(name)}  FAIL (exact count)")
        print(f"{workload:16s} host.noisy_reps {a['noisy_reps']} / {b['noisy_reps']}")
    return ok


def report(args) -> int:
    spans = Spans("harness")
    validator = Validator(args.seed)
    results: dict = {"host": host_info(), "seed": args.seed, "quick": args.quick}
    ok = True
    try:
        timed = timed_pass(WORKLOADS, args.seed, args.seconds, spans, validator,
                           args.quick, passes=2 if args.selfcheck else 1)
        print_timed(timed[0])
        results["end_to_end"] = timed[0]
        if args.selfcheck:
            results["end_to_end_second_pass"] = timed[1]
            ok = selfcheck(*timed)
        if not args.no_trace:
            results["per_layer"] = {}
            # --quick keeps the kernels but skips the cProfile pass to stay short
            for workload in () if args.quick else WORKLOADS:
                metrics = trace_workload(workload, args.seed, spans, validator)
                print_per_layer(workload, metrics)
                results["per_layer"][workload] = metrics
            kernels = run_kernels(args.seed, spans, args.quick)
            print("== kernels ==")
            for name, value in kernels.items():
                print(f"{'kernels':16s} {name:36s} {value:14.4f} {PER_LAYER[name][0]}")
            results["kernels"] = kernels
    finally:
        finish(spans)
    results["ops"], results["failed_ops"] = validator.ops, len(validator.failures)
    print(f"ops {validator.ops}  failed_ops {len(validator.failures)}")
    with open(OUT / "results.json", "w") as fh:
        json.dump(results, fh, indent=1)
        fh.write("\n")
    return 0 if ok and not validator.failures else 1


def contract(args) -> int:
    """One workload, one JSON line: the builder's driver calls this."""
    spans = Spans("harness")
    validator = Validator(args.seed)
    try:
        if args.trace:
            values = trace_workload(args.workload, args.seed, spans, validator)
            values.update(run_kernels(args.seed, spans, args.quick))
            metrics = {name: {"value": values.get(name, 0), "unit": unit}
                       for name, (unit, _, _) in GATED_PER_LAYER.items()}
        else:
            timed = timed_pass([args.workload], args.seed, args.seconds, spans,
                               validator, args.quick)[0][args.workload]
            metrics = {name: {"value": timed[name], "unit": unit}
                       for name, (unit, _, _) in END_TO_END.items()}
    finally:
        finish(spans)
    failed = len(validator.failures)
    print(json.dumps({"correct": failed == 0, "attempted": validator.ops,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


def prepare() -> None:
    if not (SRC / "repro").is_dir():
        raise SystemExit(f"benchmark needs the simulator sources under {SRC}/repro")
    SCRATCH.mkdir(parents=True, exist_ok=True)
    # build step: byte-compile once so the first child's set-up is not an outlier
    compileall.compile_dir(str(SRC / "repro"), quiet=2)


def finish(spans: Spans) -> None:
    shutil.rmtree(SCRATCH, ignore_errors=True)
    with open(OUT / "spans.json", "w") as fh:
        json.dump(spans.rows, fh)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=GATED,
                        help="contract mode: run this workload, print one JSON line")
    parser.add_argument("--seed", type=int, default=0,
                        help="0 = the apps' committed seeds, so expected.json applies")
    parser.add_argument("--seconds", type=float, default=NOMINAL_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true",
                        help="1 round, 1 timed repetition, kernels at 1/10, no cProfile pass")
    parser.add_argument("--selfcheck", action="store_true",
                        help="take the timed pass twice, alternating, and compare "
                             "the two within the bounds")
    parser.add_argument("--no-trace", action="store_true")
    args = parser.parse_args(argv)
    # a terminated harness must still stop its child: unwind through spawn_child
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    prepare()
    return contract(args) if args.workload else report(args)


if __name__ == "__main__":
    sys.exit(main())
