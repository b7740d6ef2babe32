"""Smoke tests of the benchmark itself; run explicitly with
``PYTHONPATH=src python -m pytest benchmarks/e2e`` (tier-1 stays ``tests``)."""

from __future__ import annotations

import json
import re
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from benchmarks.e2e import fold, hostspeed, run
from benchmarks.e2e.metrics import (
    END_TO_END, GATED, GATED_PER_LAYER, LAYERS, PER_LAYER, PROFILED, WORKLOADS,
    defined_on, is_kernel,
)

ROOT = Path(__file__).resolve().parents[2]
HERE = Path(__file__).resolve().parent
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def _synthetic_stats() -> dict:
    """A hand-built ``pstats`` table: repro frames, a builtin under one of
    them, a numpy frame between a repro frame and a builtin, and a root."""
    root = ("~", 0, "<built-in method builtins.exec>")
    run_app = ("/x/src/repro/apps/common.py", 100, "run_app")
    engine = ("/x/src/repro/sim/engine.py", 485, "run")
    make_diff = ("/x/src/repro/memory/diff.py", 160, "make_diff")
    heappop = ("~", 0, "<built-in method _heapq.heappop>")
    np_diff = ("/site-packages/numpy/lib/function_base.py", 1, "diff")
    np_sub = ("~", 0, "<method 'subtract' of 'numpy.ufunc' objects>")
    return {
        root: (1, 1, 0.5, 10.0, {}),
        run_app: (1, 1, 1.0, 9.5, {root: (1, 1, 1.0, 9.5)}),
        engine: (1, 1, 3.0, 8.5, {run_app: (1, 1, 3.0, 8.5)}),
        make_diff: (7, 7, 1.5, 4.0, {engine: (7, 7, 1.5, 4.0)}),
        heappop: (50, 50, 1.5, 1.5, {engine: (50, 50, 1.5, 1.5)}),
        np_diff: (7, 7, 1.0, 2.5, {make_diff: (7, 7, 1.0, 2.5)}),
        np_sub: (7, 7, 1.5, 1.5, {np_diff: (7, 7, 1.5, 1.5)}),
    }


def test_fold_closes_and_charges_builtins_to_the_nearest_repro_caller():
    folded = fold.fold_stats(_synthetic_stats())
    layers = folded["layers"]
    assert folded["total_s"] == pytest.approx(10.0)
    assert fold.closure_error(folded, 10.0) < 1e-9
    assert layers["sim"]["self_s"] == pytest.approx(3.0 + 1.5)  # run + heappop
    assert layers["memory"]["self_s"] == pytest.approx(1.5 + 1.0 + 1.5)  # + numpy chain
    assert layers["apps"]["self_s"] == pytest.approx(1.0)
    assert layers["other"]["self_s"] == pytest.approx(0.5)  # the root only
    assert layers["memory"]["calls"] == 7 and layers["sim"]["calls"] == 1
    assert folded["counted"]["memory.make_diff_calls"] == 7
    assert fold.layer_of("/x/src/repro/cli.py") is None


def test_metric_names_and_benchmark_json_agree():
    with open(ROOT / "BENCHMARK.json") as fh:
        bench = json.load(fh)
    assert set(bench) == {"command", "paths", "run_seconds", "workloads",
                          "end_to_end", "per_layer"}
    assert bench["paths"] == ["benchmarks/e2e"]
    assert bench["run_seconds"] == run.NOMINAL_SECONDS
    assert [w["name"] for w in bench["workloads"]] == list(GATED)
    assert set(GATED) <= set(WORKLOADS)
    assert {m["name"]: (m["unit"], m["better"], m["bound"])
            for m in bench["end_to_end"]} == END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in bench["per_layer"]} == {
        name: (unit, better) for name, (unit, better, _) in GATED_PER_LAYER.items()}
    assert set(PER_LAYER) - set(GATED_PER_LAYER) == set(defined_on("sweep_cold")) - set(
        defined_on("is16_vcsd_chaos"))  # only the sweep's own ledger is report-only
    names = list(WORKLOADS) + list(END_TO_END) + list(PER_LAYER)
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) for name in names)
    assert 1 <= len(GATED_PER_LAYER) <= 128


def _traced_doc(workload: str) -> dict:
    """The shape ``child.py --mode traced`` prints, with made-up numbers."""
    rep = {
        "wall_s": 2.0, "speed": 0.8, "cpu_s": 1.9,
        "counts": {"sim.events": 1000, "net.msgs": 100, "net.rexmit": 5},
        "extras": {}, "ops": [],
        "inner_s": {"run": 1.0, "check": 0.1, "critpath": 0.2, "export": 0.6},
    }
    if workload == "is8_observed":
        rep["extras"] = {"obs.export_mb": 15.5}
    if workload == "sweep_cold":
        rep["extras"] = {"bench.cells": 18, "bench.cell_wall_sum_s": 15.0,
                         "bench.slowest_cell_s": 3.0, "bench.pool_efficiency": 0.9,
                         "bench.cache_mb": 1.0, "bench.warm_sweep_ms": 6.0,
                         "bench.warm_hits": 18, "worker_rss_kb": 1}
    profile = None
    if workload in PROFILED:
        folded = fold.fold_stats(_synthetic_stats())
        profile = {**rep, "wall_s": 5.0, **folded}
    return {"warmup": {"wall_s": 0.8, "ops": []}, "reps": [rep], "profile": profile}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_defined_on_a_workload_is_emitted_exactly_once(workload):
    metrics = run.per_layer_metrics(workload, _traced_doc(workload))
    emitted = [name for name in metrics if not name.startswith("_")]
    assert sorted(emitted) == sorted(defined_on(workload))
    assert not any(is_kernel(name) for name in emitted)


def test_layer_names_are_the_packages_under_src_repro():
    packages = {p.name for p in (ROOT / "src" / "repro").iterdir()
                if p.is_dir() and (p / "__init__.py").exists()}
    assert set(LAYERS) - {"other"} <= packages


def test_sweep_pins_equal_the_committed_bench_sweep_fingerprints():
    with open(HERE / "expected.json") as fh:
        pins = json.load(fh)["ops"]
    with open(ROOT / "BENCH_sweep.json") as fh:
        cells = json.load(fh)["cells"]
    assert len(cells) == 18
    for cell in cells:
        key = (f"sweep_cold:{cell['app']}/{cell['protocol']}/"
               f"{cell['nprocs']}/{cell['variant']}")
        assert pins[key]["fingerprint"] == cell["fingerprint"]
    assert set(pins) == {k for k in pins if k.startswith("sweep_cold:")} | (
        set(WORKLOADS) - {"sweep_cold"})


def test_surface_imports_and_workload_table_matches():
    from benchmarks.e2e import surface, workloads

    assert all(hasattr(surface, name) for name in surface.__all__)
    assert tuple(workloads.BY_NAME) == WORKLOADS
    assert workloads.derive(5, "config") == workloads.derive(5, "config")
    assert workloads.derive(5, "config") != workloads.derive(6, "config")


def test_validator_fails_an_op_whose_fingerprint_leaves_the_pin():
    good = {"id": "is16_vcd", "fingerprint": "b5cff316350e2625", "verified": True,
            "events": 1, "msgs": 1, "error": None}
    validator = run.Validator(seed=0)
    validator.check(good)
    validator.check({**good, "fingerprint": "0" * 16})
    validator.check({**good, "verified": False})
    assert validator.ops == 3 and len(validator.failures) == 2
    other_seed = run.Validator(seed=9)  # no pins: the first sighting is the reference
    other_seed.check({**good, "fingerprint": "a" * 16})
    other_seed.check({**good, "fingerprint": "b" * 16})
    assert len(other_seed.failures) == 1


def test_speed_sampler_probes_while_code_runs_and_stops_when_told():
    sampler = hostspeed.SpeedSampler()
    assert sampler.speed_since(0) == 1.0  # nothing sampled: no correction
    sampler.start()
    try:
        deadline = time.perf_counter() + 10 * hostspeed.PERIOD_S
        while time.perf_counter() < deadline:
            pass
    finally:
        sampler.stop()
    probes = len(sampler.probe_ns)
    assert probes >= 3 and 0.01 < sampler.speed_since(0) < 10
    time.sleep(3 * hostspeed.PERIOD_S)
    assert len(sampler.probe_ns) == probes
    assert signal.getsignal(signal.SIGALRM) == signal.SIG_DFL


def test_contract_run_prints_one_result_line_per_trace_mode():
    """The cheapest gated workload end to end, both trace modes, kernels at 1/10."""
    for trace, want in ((0, set(END_TO_END)), (1, set(GATED_PER_LAYER))):
        proc = subprocess.run(
            [sys.executable, "benchmarks/e2e/run.py", "--workload", "sor8_lrc",
             "--seed", "3", "--seconds", "3", "--trace", str(trace), "--quick"],
            cwd=ROOT, capture_output=True, text=True, timeout=170)
        assert proc.returncode == 0, proc.stderr
        line = json.loads(proc.stdout.strip().splitlines()[-1])
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert line["correct"] is True and line["failed"] == 0 and line["attempted"] >= 1
        assert set(line["metrics"]) == want
        if trace:
            total = sum(line["metrics"][f"{layer}.self_s"]["value"] for layer in LAYERS)
            assert total > 0 and line["metrics"]["memory.self_s"]["value"] > 0.4 * total
            assert line["metrics"]["obs.self_s"]["value"] == 0
