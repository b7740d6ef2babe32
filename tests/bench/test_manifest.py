"""The common run-manifest block every BENCH writer embeds.

A BENCH file must be self-describing: which host/python/git revision
produced it, a hash of the resolved configuration, and what the run cost.
The manifest never participates in simulated fingerprints (those hash only
``table_row``), so stamping it cannot change committed results.
"""

import json
import os

import pytest

from repro.bench.manifest import MANIFEST_SCHEMA, config_hash, run_manifest

REPO_ROOT = os.path.join(os.path.dirname(__file__), "..", "..")

MANIFEST_KEYS = {
    "schema", "host", "python", "git_rev", "config_hash",
    "wall_seconds", "peak_rss_kb",
}


def test_run_manifest_shape():
    m = run_manifest(config={"a": 1}, wall_seconds=1.23456, peak_rss_kb=777)
    assert set(m) == MANIFEST_KEYS
    assert m["schema"] == MANIFEST_SCHEMA == 1
    assert set(m["host"]) == {"system", "machine", "cpus"}
    assert m["python"].count(".") == 2
    assert m["wall_seconds"] == 1.2346
    assert m["peak_rss_kb"] == 777
    assert len(m["config_hash"]) == 16


def test_run_manifest_fills_rss_and_allows_missing_config():
    m = run_manifest()
    assert m["config_hash"] is None
    assert m["wall_seconds"] is None
    # auto-filled from getrusage on POSIX
    assert m["peak_rss_kb"] is not None and m["peak_rss_kb"] > 0


def test_run_manifest_git_rev_matches_head():
    m = run_manifest()
    if m["git_rev"] is None:
        pytest.skip("not a git checkout")
    assert len(m["git_rev"]) == 40


def test_config_hash_stable_and_sensitive():
    assert config_hash({"a": 1, "b": 2}) == config_hash({"b": 2, "a": 1})
    assert config_hash({"a": 1}) != config_hash({"a": 2})
    # non-JSON objects hash through repr — just needs to be deterministic
    class Cfg:
        def __repr__(self):
            return "Cfg(n=3)"

    assert config_hash(Cfg()) == config_hash(Cfg())


# -- the live writers stamp it ----------------------------------------------------


def test_sweep_report_carries_manifest():
    from repro.bench.sweep import SweepCell, run_sweep

    report = run_sweep(
        [SweepCell(app="is", protocol="vc_sd", nprocs=2)],
        jobs=1, cache_dir=None, verify=False,
    )
    m = report.manifest
    assert m["schema"] == MANIFEST_SCHEMA
    assert m["config_hash"] is not None  # hashes the cell list
    # to_json returns the document dict; the manifest survives serialisation
    parsed = json.loads(json.dumps(report.to_json()))
    assert parsed["manifest"] == m


def test_degradation_report_carries_manifest():
    from repro.bench.degradation import run_degradation_grid

    report = run_degradation_grid(
        app="is", nprocs=2, protocols=("vc_sd",), loss_rates=(0.0,),
        verify=False,
    )
    m = report["manifest"]
    assert m["schema"] == MANIFEST_SCHEMA
    assert m["wall_seconds"] is not None and m["wall_seconds"] > 0


# -- the committed BENCH files ----------------------------------------------------


@pytest.mark.parametrize(
    "name",
    ["BENCH_sweep.json", "BENCH_faults.json"],
)
def test_committed_bench_files_have_manifests(name):
    path = os.path.join(REPO_ROOT, name)
    if not os.path.exists(path):
        pytest.skip(f"no committed {name} in this checkout")
    with open(path) as fh:
        doc = json.load(fh)
    m = doc.get("manifest")
    assert m is not None, f"{name} lacks the run-manifest block"
    assert m["schema"] == MANIFEST_SCHEMA
    assert set(m) == MANIFEST_KEYS
