"""Consistency-oracle tests: clean passes, seeded mutations, report shape.

The oracle's value rests on two properties, and both are pinned here:

* **no false positives** — a correct run of every app/protocol combination
  checks CLEAN (the full 18-cell matrix is covered by
  ``tests/obs/test_oracle_matrix.py`` and the CI oracle-smoke job);
* **no silent false negatives** — seeded mutations of a recorded history
  (drop a diff application, drop a barrier arrival, reorder an acquire,
  corrupt a digest, drop a piggyback update) are each detected as the
  expected finding kind.
"""

import numpy as np
import pytest

from repro.apps import APPS
from repro.apps.common import run_app
from repro.obs.oracle import (
    EXIT_CONSISTENCY,
    MAX_FINDINGS,
    AccessRecorder,
    check_history,
    format_oracle_report,
    page_digest,
)


def _record(app, protocol, nprocs):
    oracle = AccessRecorder()
    run_app(APPS[app], protocol, nprocs, oracle=oracle)
    return oracle.events


@pytest.fixture(scope="module")
def lrc_history():
    return _record("is", "lrc_d", 4)


@pytest.fixture(scope="module")
def vc_history():
    return _record("is", "vc_d", 4)


@pytest.fixture(scope="module")
def vc_sd_history():
    return _record("is", "vc_sd", 4)


def _kinds(report):
    return {f.kind for f in report.findings}


# -- clean passes ------------------------------------------------------------------


@pytest.mark.parametrize(
    "app,protocol",
    [("gauss", "vc_sd"), ("sor", "vc_d"), ("nn", "lrc_d"), ("is", "hlrc_d")],
)
def test_clean_run_checks_clean(app, protocol):
    report = check_history(_record(app, protocol, 4), nprocs=4, protocol=protocol)
    assert report.verdict == "clean"
    assert report.ok
    assert report.counts["reads"] > 0 and report.counts["writes"] > 0


def test_fixture_histories_check_clean(lrc_history, vc_history, vc_sd_history):
    for history, protocol in (
        (lrc_history, "lrc_d"),
        (vc_history, "vc_d"),
        (vc_sd_history, "vc_sd"),
    ):
        report = check_history(history, nprocs=4, protocol=protocol)
        assert report.verdict == "clean", format_oracle_report(report)


def test_mpi_is_not_applicable():
    oracle = AccessRecorder()
    run_app(APPS["nn"], "mpi", 4, oracle=oracle)
    report = check_history(oracle, nprocs=4, protocol="mpi")
    assert report.verdict == "not-applicable"
    assert report.family is None
    assert report.ok
    assert oracle.events == []  # MPI has no shared pages: nothing recorded


# -- seeded mutations: every one must be detected ----------------------------------


@pytest.mark.parametrize("proto_fixture", ["lrc_history", "vc_history"])
def test_dropped_diff_apply_is_a_stale_read(proto_fixture, request):
    """Deleting a diff application leaves a causally-required write missing.

    Not every "ap" deletion is detectable: the checker's happens-before is a
    conservative lower bound, and the protocols deliver notices *eagerly*
    beyond it — an apply that precedes the horizon leaves no provable gap.
    At least one deletion must be caught, and no deletion may crash.
    """
    history = request.getfixturevalue(proto_fixture)
    protocol = {"lrc_history": "lrc_d", "vc_history": "vc_d"}[proto_fixture]
    ap_indices = [i for i, ev in enumerate(history) if ev[0] == "ap"]
    assert ap_indices, "history records no diff applications"
    detected = 0
    for i in ap_indices:
        mutated = history[:i] + history[i + 1 :]
        report = check_history(mutated, nprocs=4, protocol=protocol)
        if not report.ok:
            assert "stale-read" in _kinds(report), format_oracle_report(report)
            finding = next(f for f in report.findings if f.kind == "stale-read")
            assert finding.missing is not None  # names the racing (writer, idx)
            assert finding.page is not None
            detected += 1
            break
    assert detected, "no ap deletion was detected as a stale read"


def test_dropped_piggyback_update_is_detected(vc_sd_history):
    """VC_sd delivers consistency data on the grant; dropping one must show."""
    up_indices = [
        i
        for i, ev in enumerate(vc_sd_history)
        if ev[0] == "up" and (ev[4] or ev[5])  # non-empty fulls or diffs
    ]
    assert up_indices, "history records no piggyback updates with payload"
    detected = 0
    for i in up_indices:
        mutated = vc_sd_history[:i] + vc_sd_history[i + 1 :]
        report = check_history(mutated, nprocs=4, protocol="vc_sd")
        if not report.ok:
            detected += 1
            break
    assert detected, "no up deletion was detected"


def test_dropped_barrier_arrival_is_a_broken_barrier(lrc_history):
    i = next(i for i, ev in enumerate(lrc_history) if ev[0] == "ba")
    mutated = lrc_history[:i] + lrc_history[i + 1 :]
    report = check_history(mutated, nprocs=4, protocol="lrc_d")
    assert "broken-barrier" in _kinds(report)
    assert report.verdict == "violations"


def test_dropped_barrier_arrival_vc_family(vc_history):
    i = next(i for i, ev in enumerate(vc_history) if ev[0] == "ba")
    mutated = vc_history[:i] + vc_history[i + 1 :]
    report = check_history(mutated, nprocs=4, protocol="vc_d")
    assert "broken-barrier" in _kinds(report)


def test_reordered_acquire_is_an_overlapping_critical_section(vc_history):
    """Moving an exclusive acquire before the prior holder's release."""
    held = {}  # (kind, obj) -> releasing index of current exclusive holder
    mutation = None
    for j, ev in enumerate(vc_history):
        if ev[0] == "rel" and ev[5] == "w":
            held[(ev[3], ev[4])] = j
        elif ev[0] == "acq" and ev[5] == "w":
            i = held.get((ev[3], ev[4]))
            if i is not None and vc_history[i][2] != ev[2]:
                mutation = (i, j)
                break
    assert mutation is not None, "no release->acquire handoff found"
    i, j = mutation
    acq = vc_history[j]
    mutated = (
        vc_history[:i] + [acq] + vc_history[i:j] + vc_history[j + 1 :]
    )
    report = check_history(mutated, nprocs=4, protocol="vc_d")
    assert "overlapping-critical-section" in _kinds(report)


def test_corrupted_read_digest_is_a_value_mismatch(lrc_history):
    # pick a read whose node already produced a content event on the page,
    # so the checker has a reference digest to compare against
    content = set()
    target = None
    for i, ev in enumerate(lrc_history):
        if ev[0] in ("w", "ap", "in", "zf"):
            content.add((ev[2], ev[3]))
        elif ev[0] == "r" and (ev[2], ev[3]) in content:
            target = i
            break
    assert target is not None
    ev = lrc_history[target]
    mutated = list(lrc_history)
    mutated[target] = ("r", ev[1], ev[2], ev[3], "f" * 16)
    report = check_history(mutated, nprocs=4, protocol="lrc_d")
    assert "value-mismatch" in _kinds(report)
    finding = next(f for f in report.findings if f.kind == "value-mismatch")
    assert finding.node == ev[2] and finding.page == ev[3]


# -- report shape ------------------------------------------------------------------


def test_findings_are_capped_and_suppressed_counted():
    t = 0.0
    history = []
    for p in range(MAX_FINDINGS + 20):
        history.append(("w", t, 0, p, "aa" * 8))
        t += 1.0
        history.append(("r", t, 0, p, "bb" * 8))
        t += 1.0
    report = check_history(history, nprocs=1, protocol="lrc_d")
    assert len(report.findings) == MAX_FINDINGS
    assert report.counts["suppressed"] == 20


def test_report_json_and_span_shape(lrc_history):
    i = next(i for i, ev in enumerate(lrc_history) if ev[0] == "ba")
    report = check_history(
        lrc_history[:i] + lrc_history[i + 1 :], nprocs=4, protocol="lrc_d"
    )
    doc = report.to_json()
    assert doc["verdict"] == "violations"
    assert doc["protocol"] == "lrc_d" and doc["family"] == "lrc"
    assert doc["counts"]["events"] == len(lrc_history) - 1
    f = doc["findings"][0]
    assert set(f) >= {"kind", "node", "t", "detail", "span"}
    # the span reference matches the Chrome-trace export convention:
    # pid = node, ts = simulated microseconds
    assert f["span"]["pid"] == f["node"]
    assert f["span"]["ts_us"] == pytest.approx(f["t"] * 1e6)


def test_aborted_history_is_checkable_and_flagged(lrc_history):
    report = check_history(
        lrc_history[: len(lrc_history) // 2],
        nprocs=4,
        protocol="lrc_d",
        aborted=True,
    )
    assert report.aborted
    assert report.verdict == "clean"  # a truncated prefix of a correct run
    assert "truncated" in format_oracle_report(report)


def test_exit_code_is_pinned():
    assert EXIT_CONSISTENCY == 4


# -- recorder mechanics ------------------------------------------------------------


def test_page_digest_accepts_arrays_and_bytes():
    arr = np.arange(16, dtype=np.uint8)
    assert page_digest(arr) == page_digest(arr.tobytes())
    assert page_digest(arr) != page_digest(b"\x00" * 16)
    assert len(page_digest(arr)) == 16  # blake2b, digest_size=8, hex
