"""Non-perturbation: fault support must cost nothing when unused.

Two guarantees, checked against the committed ``BENCH_sweep.json`` reference
(produced before a plan is ever installed):

* a run with **no plan** is bit-identical to the committed fingerprints —
  the ``if faults is not None`` hook sites perturb nothing;
* a run with an **empty plan installed** is bit-identical too — an armed
  but quiescent injector draws no randomness and changes no event ordering;
* so is a run under a plan of **node-level episodes only** whose windows
  never open: only transfer-level episodes (loss, latency, reorder,
  duplicate) give frames a departure event.

Identity covers the statistics row (the fingerprint hashes ``table_row``,
asserted first) *and* the executed-event count — a count of this engine's
callbacks, so it moves whenever the host implementation sheds events and
``BENCH_sweep.json`` is regenerated, but within one revision it is the
strictest cheap proxy for "the same simulation happened".  The fingerprints
themselves are anchored outside that file: they must equal the benchmark's
own pins, which a PR that regenerates ``BENCH_sweep.json`` may not touch.
"""

import hashlib
import json
import pathlib

import pytest

from repro.apps import APPS
from repro.apps.common import run_app
from repro.bench.sweep import default_cells
from repro.faults import Episode, FaultPlan

REPO = pathlib.Path(__file__).resolve().parents[2]

# cheap-to-run subset of the committed 18-cell matrix (one per app, mixed
# protocols); the full matrix is re-verified by the CI chaos-smoke job
CHECKED_CELLS = [
    ("is", "lrc_d", 8),
    ("gauss", "vc_sd", 8),
    ("sor", "vc_d", 8),
    ("nn", "lrc_d", 8),
]


def _fingerprint(result) -> str:
    return hashlib.sha256(
        json.dumps(result.table_row(), sort_keys=True).encode()
    ).hexdigest()[:16]


def _committed():
    path = REPO / "BENCH_sweep.json"
    if not path.exists():
        pytest.skip("no committed BENCH_sweep.json in this checkout")
    cells = {}
    for cell in json.loads(path.read_text())["cells"]:
        cells[(cell["app"], cell["protocol"], cell["nprocs"], cell["variant"])] = cell
    return cells


@pytest.mark.parametrize("app,protocol,nprocs", CHECKED_CELLS)
def test_no_plan_matches_committed_sweep(app, protocol, nprocs):
    committed = _committed()
    reference = committed[(app, protocol, nprocs, "default")]
    result = run_app(APPS[app], protocol, nprocs)
    assert _fingerprint(result) == reference["fingerprint"]
    assert result.events == reference["events"]
    assert result.table_row() == reference["table_row"]


@pytest.mark.parametrize("app,protocol,nprocs", CHECKED_CELLS)
def test_empty_plan_matches_committed_sweep(app, protocol, nprocs):
    committed = _committed()
    reference = committed[(app, protocol, nprocs, "default")]
    result = run_app(APPS[app], protocol, nprocs, faults=FaultPlan())
    assert _fingerprint(result) == reference["fingerprint"]
    assert result.events == reference["events"]
    assert result.table_row() == reference["table_row"]


NEVER = 1e6  # simulated seconds; no cell runs a minute

NODE_LEVEL_ONLY = FaultPlan((
    Episode(kind="buffer", start=NEVER, buffer_factor=0.5),
    Episode(kind="degrade", start=NEVER, bandwidth_factor=2.0),
    Episode(kind="slowdown", start=NEVER, cpu_factor=2.0),
    Episode(kind="pause", start=NEVER, end=2 * NEVER, node=0),
))


@pytest.mark.parametrize("app,protocol,nprocs", CHECKED_CELLS[:2])
def test_idle_node_level_plan_matches_committed_sweep(app, protocol, nprocs):
    reference = _committed()[(app, protocol, nprocs, "default")]
    result = run_app(APPS[app], protocol, nprocs, faults=NODE_LEVEL_ONLY)
    assert _fingerprint(result) == reference["fingerprint"]
    assert result.events == reference["events"]


@pytest.mark.parametrize(
    "cell", default_cells(),
    ids=lambda c: f"{c.app}-{c.protocol}-{c.nprocs}-{c.variant}")
def test_committed_sweep_fingerprint_equals_the_benchmark_pin(cell):
    pins_path = REPO / "benchmarks" / "e2e" / "expected.json"
    if not pins_path.exists():
        pytest.skip("no benchmarks/e2e/expected.json in this checkout")
    pins = json.loads(pins_path.read_text())["ops"]
    committed = _committed()[(cell.app, cell.protocol, cell.nprocs, cell.variant)]
    pin = pins[f"sweep_cold:{cell.app}/{cell.protocol}/{cell.nprocs}/{cell.variant}"]
    assert committed["fingerprint"] == pin["fingerprint"]


def test_dup_horizon_is_one_timeout_past_the_retry_window():
    """The duplicate horizon is the ``max_retries + 1`` timeouts a sender can
    still retransmit in, plus one timeout of slack — a silent change would
    move eviction timing (and with it, nothing observable, but the
    invariant is cheap to pin)."""
    from repro.net import Cluster, NetConfig

    cfg = NetConfig()
    c = Cluster(2, netcfg=cfg)
    assert c[0].transport._dup_horizon == (cfg.max_retries + 2) * cfg.rexmit_timeout
