"""Tests for cross-run regression reporting (repro.obs.report).

There is one comparison path — ``compute_trend`` over N >= 2 same-kind
reports ordered oldest -> newest, gated per consecutive pair by the
``SCHEMA`` table (exact simulated metrics, tolerance-gated host totals,
report-only counts and rates) — so there is one test module.  Fixtures:
``sweep_doc``, ``degradation_doc`` and the committed, read-only
``benchmarks/e2e/baseline.json``.  Covered with N = 2 and N = 3: the gates,
lost and added rows, refused kinds, ``git:REV[:path]`` loading and the
legacy-manifest backfill, the terminal table, and the CLI's exit codes 0/1/2.
"""

import copy
import json
import math
import os
import subprocess
import warnings

import pytest

from repro.cli import main
from repro.obs import (
    GATE_EXACT,
    GATE_INFO,
    GATE_THROUGHPUT,
    compute_trend,
    format_trend,
    load_report,
)
from repro.obs.report import OK, REGRESSED, SCHEMA

E2E_BASELINE = os.path.join(os.path.dirname(__file__), "..", "..",
                            "benchmarks", "e2e", "baseline.json")
CELL = "is/vc_sd/default/4/42"


def sweep_doc():
    return {
        "benchmark": "sweep",
        "wall_seconds": 0.21,
        "cells": [
            {
                "app": "is", "protocol": "vc_sd", "variant": "default",
                "nprocs": 4, "seed": 42, "events": 500,
                "sim_time_seconds": 2.5, "verified": True,
                "fingerprint": "ab12cd34ef56ab12",
                "table_row": {"Time (Sec.)": 2.5, "Num. Msg": 64},
                "wall_seconds": 0.2, "events_per_sec": 2500,
                "peak_rss_kb": 50000,
            },
        ],
    }


def degradation_doc():
    return {
        "benchmark": "faults_degradation",
        "app": "is", "nprocs": 4, "seed": 7,
        "loss_rates": [0.0, 0.01], "protocols": ["vc_sd"],
        "base_plan": None,
        "grid": [
            {"app": "is", "protocol": "vc_sd", "nprocs": 4, "loss_rate": 0.0,
             "seed": 7, "failed": False, "time": 1.5, "rexmit": 0,
             "drops": 0, "slowdown": 1.0},
            {"app": "is", "protocol": "vc_sd", "nprocs": 4, "loss_rate": 0.01,
             "seed": 7, "failed": False, "time": 1.8, "rexmit": 4,
             "drops": 2, "slowdown": 1.2},
        ],
    }


def e2e_doc():
    with open(E2E_BASELINE) as fh:
        return json.load(fh)


def compare(old, new, **kw):
    return compute_trend([old, new], ["old", "new"], **kw)


def statuses(trend):
    return {(s.key, s.metric): s.worst for s in trend.series}


def slowed(factor):
    doc = sweep_doc()
    doc["cells"][0]["wall_seconds"] *= factor
    return doc


# -- two reports ------------------------------------------------------------------


def test_identical_sweep_reports_are_ok():
    trend = compare(sweep_doc(), sweep_doc())
    assert trend.kind == "sweep"
    assert not trend.regressions
    assert set(statuses(trend).values()) == {"ok"}
    # every field and total the schema names for the kind is tracked
    want = {(CELL, f) for f in SCHEMA["sweep"]["fields"]}
    want |= {("(total)", t) for t in SCHEMA["sweep"]["totals"]}
    assert set(statuses(trend)) == want
    assert "verdict: ok" in format_trend(trend)


def test_changed_table_row_is_a_regression():
    new = sweep_doc()
    new["cells"][0]["table_row"]["Num. Msg"] = 65
    trend = compare(sweep_doc(), new)
    [s] = trend.regressions
    assert (s.key, s.metric) == (CELL, "table_row")
    assert s.notes == ["differs in: Num. Msg"]
    assert "verdict: REGRESSED" in format_trend(trend)


def test_throughput_within_tolerance_is_not_a_regression():
    new = sweep_doc()
    new["cells"][0]["wall_seconds"] = 0.23  # +15%
    trend = compare(sweep_doc(), new, tolerance=0.25)
    assert not trend.regressions
    assert statuses(trend)[("(total)", "cell_wall_sum_s")] == "changed"


def test_throughput_beyond_tolerance_regresses():
    new = sweep_doc()
    new["wall_seconds"] = 0.42  # the sweep's own wall clock is informational
    assert not compare(sweep_doc(), new, tolerance=0.25).regressions
    new["cells"][0]["wall_seconds"] = 0.4  # twice as slow
    trend = compare(sweep_doc(), new, tolerance=0.25)
    assert [(s.key, s.metric) for s in trend.regressions] == [
        ("(total)", "cell_wall_sum_s")]
    assert "-100.0% (tol ±25%)" in trend.regressions[0].notes[0]


def test_fewer_events_and_lower_events_per_sec_never_gate():
    """A change that deletes zero-work events: the run gets faster while the
    event count *and* events/sec fall — informational, not a regression."""
    new = sweep_doc()
    cell = new["cells"][0]
    cell["events"] = 300  # -40%
    cell["wall_seconds"] = 0.176  # -12%
    cell["events_per_sec"] = 1705  # -32%
    cell["peak_rss_kb"] = 5_000_000
    for tolerance in (0.25, 0.0):
        trend = compare(sweep_doc(), new, tolerance=tolerance)
        assert not trend.regressions
    by = statuses(trend)
    assert by[(CELL, "events")] == "improved"
    assert by[(CELL, "wall_seconds")] == "improved"
    assert by[(CELL, "events_per_sec")] == "changed"
    assert by[(CELL, "peak_rss_kb")] == "changed"
    # more events is reported, and still does not gate a faster run
    cell["wall_seconds"] = 0.2
    back = compare(new, sweep_doc(), tolerance=0.0)
    assert not back.regressions
    assert statuses(back)[(CELL, "events")] == "changed"


def test_sweep_events_are_informational_wall_is_gated():
    """The gated host number is the one steady total, not the per-cell wall:
    a 40 ms cell swings 40% on scheduling noise alone (the recorded nn/mpi/8
    walls of three committed BENCH_sweep.json revisions are below)."""
    docs = []
    for wall in (0.0585, 0.0384, 0.0545):
        doc = sweep_doc()
        doc["cells"].append(dict(doc["cells"][0], app="nn", protocol="mpi",
                                 nprocs=8, wall_seconds=wall))
        docs.append(doc)
    key = "nn/mpi/default/8/42"
    trend = compute_trend(docs, ["r1", "r2", "r3"], tolerance=0.4)
    assert not trend.regressions
    by = {(s.key, s.metric): s for s in trend.series}
    assert by[(key, "wall_seconds")].gate == "info"
    assert by[(key, "wall_seconds")].notes[1] == "-41.9%"  # beyond the tolerance
    assert by[("(total)", "cell_wall_sum_s")].values == [0.2585, 0.2384, 0.2545]
    # a real slowdown moves every cell, and the total catches it — alone
    for cell in docs[2]["cells"]:
        cell["wall_seconds"] *= 2
    trend = compute_trend(docs, ["r1", "r2", "r3"], tolerance=0.4)
    [bad] = trend.regressions
    assert (bad.key, bad.metric) == ("(total)", "cell_wall_sum_s")
    assert bad.statuses == ["improved", "regressed"]


def test_missing_entry_regresses_added_entry_changes():
    base, new = sweep_doc(), sweep_doc()
    new["cells"].append(dict(new["cells"][0], protocol="vc_d", wall_seconds=0.01))
    added = "is/vc_d/default/4/42"
    trend = compare(base, new)
    assert not trend.regressions
    assert {s.worst for s in trend.series if s.key == added} == {"changed"}
    trend = compare(new, base)
    gone = [s for s in trend.series if s.key == added]
    assert {s.metric for s in gone if s.regressed} == {
        "fingerprint", "table_row", "sim_time_seconds", "verified"}
    assert all("coverage lost" in s.notes[0] for s in gone if s.regressed)
    assert {s.worst for s in gone if not s.regressed} == {"changed"}


def test_sweep_fingerprint_drift_regresses():
    new = sweep_doc()
    new["cells"][0]["fingerprint"] = "0000000000000000"
    trend = compare(sweep_doc(), new)
    [s] = trend.regressions
    assert (s.key, s.metric, s.gate) == (CELL, "fingerprint", "exact")


def test_mismatched_kinds_rejected():
    with pytest.raises(ValueError, match="kinds"):
        compare(sweep_doc(), degradation_doc())
    with pytest.raises(ValueError, match="kinds"):
        compare(e2e_doc(), sweep_doc())
    with pytest.raises(ValueError, match="unrecognised"):
        compare({"benchmark": "mystery"}, sweep_doc())
    with pytest.raises(ValueError, match="unrecognised"):
        compare({"protocols": {}}, {"protocols": {}})


# -- the e2e kind: benchmarks/e2e/baseline.json, read-only -------------------------


def test_e2e_counts_are_exact_events_are_info_host_numbers_gated():
    base = e2e_doc()
    trend = compare(base, e2e_doc())
    assert trend.kind == "e2e" and not trend.regressions
    by = {(s.key, s.metric): s for s in trend.series}
    assert set(base["end_to_end"]) == {key for key, _metric in by}
    assert by[("is16_vcd", "counts")].gate == "exact"
    assert "sim.events" not in by[("is16_vcd", "counts")].values[0]
    assert by[("is16_vcd", "sim.events")].gate == "info"
    for metric in ("wall_s", "setup_s", "peak_rss_mb"):
        assert by[("sor8_lrc", metric)].gate == "throughput"

    new = copy.deepcopy(base)
    new["end_to_end"]["is16_vcd"]["counts"]["sim.events"] -= 1000
    new["end_to_end"]["is16_vcd"]["wall_s"] *= 0.9
    assert not compare(base, new).regressions
    new["end_to_end"]["is16_vcd"]["counts"]["net.msgs"] += 1
    [bad] = compare(base, new).regressions
    assert (bad.key, bad.metric) == ("is16_vcd", "counts")
    assert bad.notes == ["differs in: net.msgs"]
    new = copy.deepcopy(base)
    new["end_to_end"]["sor8_lrc"]["peak_rss_mb"] *= 1.5
    [bad] = compare(base, new, tolerance=0.25).regressions
    assert (bad.key, bad.metric) == ("sor8_lrc", "peak_rss_mb")


# -- three reports: every consecutive pair is gated -------------------------------


def test_steady_trend_has_no_regressions():
    docs = [sweep_doc(), sweep_doc(), sweep_doc()]
    trend = compute_trend(docs, ["r1", "r2", "r3"])
    assert trend.kind == "sweep"
    assert trend.labels == ["r1", "r2", "r3"]
    assert trend.regressions == []
    assert all(s.worst == OK for s in trend.series)
    # every series carries one value per revision, one status per pair
    for s in trend.series:
        assert len(s.values) == 3
        assert len(s.statuses) == 2


def test_throughput_drop_beyond_tolerance_regresses_last_pair():
    docs = [sweep_doc(), sweep_doc(), slowed(2)]
    trend = compute_trend(docs, ["a", "b", "c"], tolerance=0.25)
    [bad] = trend.regressions
    assert (bad.key, bad.metric) == ("(total)", "cell_wall_sum_s")
    assert bad.gate == GATE_THROUGHPUT
    assert bad.statuses == [OK, REGRESSED]


def test_throughput_drop_within_tolerance_is_ok():
    trend = compute_trend([sweep_doc(), slowed(1.1), slowed(1.2)],
                          ["a", "b", "c"], tolerance=0.25)
    assert trend.regressions == []


@pytest.mark.parametrize("tolerance", [math.nan, -1.0, math.inf])
def test_tolerance_must_be_finite_and_non_negative(tolerance):
    """A NaN tolerance passed every slowdown (the gate switched off) and a
    negative one flagged identical reports: both are refused."""
    with pytest.raises(ValueError, match="tolerance must be finite and >= 0"):
        compare(sweep_doc(), slowed(100), tolerance=tolerance)


def test_any_exact_simulated_change_regresses():
    old, new = sweep_doc(), sweep_doc()
    new["cells"][0]["sim_time_seconds"] = 2.5000001
    trend = compute_trend([old, new], ["a", "b"])
    bad = [s for s in trend.regressions if s.metric == "sim_time_seconds"]
    assert bad and bad[0].gate == GATE_EXACT


def test_info_metrics_never_gate():
    """Event counts and rates across a revision that removed events: both
    fall while the run gets faster, and neither fails the check."""
    old, new = sweep_doc(), sweep_doc()
    new["cells"][0]["events"] = 300
    new["cells"][0]["events_per_sec"] = 1500
    new["cells"][0]["peak_rss_kb"] = 5_000_000
    new["wall_seconds"] = 9.0
    trend = compute_trend([old, old, new], ["a", "b", "c"], tolerance=0.0)
    assert trend.regressions == []
    by = {(s.key, s.metric): s for s in trend.series}
    for km in ((CELL, "events"), (CELL, "events_per_sec"), (CELL, "wall_seconds"),
               (CELL, "peak_rss_kb"), ("(total)", "wall_seconds")):
        assert by[km].gate == GATE_INFO
    assert by[(CELL, "events")].statuses == [OK, "improved"]
    assert by[(CELL, "events_per_sec")].statuses == [OK, "changed"]


def test_mixed_kinds_refused():
    with pytest.raises(ValueError, match="kind"):
        compute_trend([sweep_doc(), sweep_doc(), degradation_doc()],
                      ["a", "b", "c"])


def test_trend_needs_two_reports():
    with pytest.raises(ValueError, match="two"):
        compute_trend([sweep_doc()], ["a"])


def test_degradation_compares_two_and_trends_three():
    for n in (2, 3):
        trend = compute_trend([degradation_doc() for _ in range(n)],
                              [f"r{i}" for i in range(n)])
        assert trend.kind == "degradation"
        assert trend.regressions == []
        assert {s.key for s in trend.series} == {
            "vc_sd/loss=0.0", "vc_sd/loss=0.01"}


def test_degradation_exact_metrics_gate():
    old, new = degradation_doc(), degradation_doc()
    new["grid"][1]["rexmit"] = 9
    new["grid"][1]["slowdown"] = 1.3
    trend = compute_trend([old, new], ["a", "b"])
    assert [s.metric for s in trend.regressions] == ["rexmit"]


def test_e2e_trends_over_three_results():
    faster = e2e_doc()
    for row in faster["end_to_end"].values():
        row["wall_s"] *= 0.8
    trend = compute_trend([e2e_doc(), e2e_doc(), faster], ["a", "b", "c"])
    assert trend.kind == "e2e" and trend.regressions == []
    walls = [s for s in trend.series if s.metric == "wall_s"]
    assert walls and all(s.statuses == [OK, "improved"] for s in walls)


# -- rendering --------------------------------------------------------------------


def test_format_trend_terminal():
    trend = compute_trend([sweep_doc(), slowed(50)], ["base.json", "cand.json"])
    text = format_trend(trend)
    assert "base.json -> cand.json" in text
    assert "REGRESSED" in text
    assert "cell_wall_sum_s" in text
    steady = compute_trend([sweep_doc(), sweep_doc()], ["a", "b"])
    assert "verdict: ok" in format_trend(steady)


def test_trend_collects_manifests():
    old, new = sweep_doc(), sweep_doc()
    old["manifest"] = {"schema": 1, "git_rev": "a" * 40}
    trend = compute_trend([old, new], ["a", "b"])
    assert trend.manifests[0]["git_rev"] == "a" * 40
    assert trend.manifests[1] == {"schema": 0}  # backfilled placeholder
    assert "revisions: a [aaaaaaaaaa] -> b\n" in format_trend(trend)


# -- loading: files, git:REV[:path] specs, the legacy-manifest backfill ------------


def test_load_report_backfills_legacy_manifest(tmp_path):
    doc = sweep_doc()
    assert "manifest" not in doc
    path = tmp_path / "old.json"
    path.write_text(json.dumps(doc))
    with pytest.warns(UserWarning, match="schema 0"):
        loaded = load_report(str(path))
    assert loaded["manifest"] == {"schema": 0}


def test_load_report_keeps_real_manifest(tmp_path):
    doc = sweep_doc()
    doc["manifest"] = {"schema": 1, "git_rev": "f" * 40}
    path = tmp_path / "new.json"
    path.write_text(json.dumps(doc))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        loaded = load_report(str(path))
        # an e2e document has a host block instead: nothing to warn about
        assert "manifest" not in load_report(E2E_BASELINE)
    assert loaded["manifest"]["schema"] == 1


def test_load_report_git_spec():
    """git:REV[:path] specs drive trend inputs straight from history."""
    try:
        subprocess.run(
            ["git", "rev-parse", "HEAD"], capture_output=True, check=True,
            cwd=".",
        )
    except (OSError, subprocess.CalledProcessError):
        pytest.skip("not a git checkout")
    doc = load_report("git:HEAD:BENCH_sweep.json")
    assert doc["benchmark"] == "sweep"
    assert doc == load_report("git:HEAD")  # the default path


def test_load_report_git_spec_from_any_cwd(tmp_path, monkeypatch):
    """A git: spec reads the checkout that holds the running package, not the
    caller's cwd (outside a checkout, ``git show`` used to exit 128)."""
    monkeypatch.chdir(tmp_path)
    assert len(load_report("git:HEAD")["cells"]) == 18


def test_load_report_from_file_and_git(tmp_path):
    path = tmp_path / "r.json"
    path.write_text(json.dumps(sweep_doc()))
    with pytest.warns(UserWarning, match="schema 0"):
        assert load_report(str(path))["benchmark"] == "sweep"
    # a bare git:REV reads the committed sweep ledger
    doc = load_report("git:HEAD")
    assert doc["benchmark"] == "sweep" and len(doc["cells"]) == 18
    assert load_report("git:HEAD:BENCH_faults.json")["benchmark"] == "faults_degradation"


# -- CLI exit codes (the CI gate contract) ------------------------------------------


def _write(tmp_path, name, doc):
    p = tmp_path / name
    p.write_text(json.dumps(doc))
    return str(p)


def test_cli_report_identical_inputs_exit_zero(tmp_path, capsys):
    a = _write(tmp_path, "a.json", sweep_doc())
    assert main(["report", a, a, "--check"]) == 0
    assert "verdict: ok" in capsys.readouterr().out


def test_cli_report_injected_regression_exits_nonzero(tmp_path, capsys):
    base = _write(tmp_path, "base.json", sweep_doc())
    bad = sweep_doc()
    bad["cells"][0]["sim_time_seconds"] = 9.99
    new = _write(tmp_path, "new.json", bad)
    assert main(["report", base, new, "--check"]) == 1
    out = capsys.readouterr()
    assert "FAIL" in out.out
    assert "regression" in out.err


def test_cli_report_regression_without_check_exits_zero(tmp_path):
    base = _write(tmp_path, "base.json", sweep_doc())
    bad = sweep_doc()
    bad["cells"][0]["sim_time_seconds"] = 9.99
    new = _write(tmp_path, "new.json", bad)
    assert main(["report", base, new]) == 0


def test_cli_report_unreadable_input_exits_two(tmp_path, capsys):
    a = _write(tmp_path, "a.json", sweep_doc())
    assert main(["report", a, str(tmp_path / "missing.json")]) == 2
    assert "error" in capsys.readouterr().err


def test_cli_report_e2e_names_the_drifted_count(tmp_path, capsys):
    assert main(["report", E2E_BASELINE, E2E_BASELINE, "--check"]) == 0
    bad = e2e_doc()
    bad["end_to_end"]["nn32_mpi"]["counts"]["net.msgs"] += 1
    new = _write(tmp_path, "results.json", bad)
    capsys.readouterr()
    assert main(["report", E2E_BASELINE, new, "--check"]) == 1
    assert "differs in: net.msgs" in capsys.readouterr().out


def test_cli_trend_check_exits_1_on_regression(tmp_path, capsys):
    old = _write(tmp_path, "a.json", sweep_doc())
    mid = _write(tmp_path, "b.json", sweep_doc())
    bad = _write(tmp_path, "c.json", slowed(50))
    code = main(["report", old, mid, bad, "--check"])
    out = capsys.readouterr().out
    assert code == 1
    assert "verdict: REGRESSED" in out


def test_cli_trend_ok_exits_0(tmp_path, capsys):
    a = _write(tmp_path, "a.json", sweep_doc())
    b = _write(tmp_path, "b.json", sweep_doc())
    c = _write(tmp_path, "c.json", sweep_doc())
    assert main(["report", a, b, c, "--check"]) == 0
    assert "verdict: ok" in capsys.readouterr().out


@pytest.mark.parametrize("value", ["nan", "-1", "inf", "fast"])
def test_cli_tolerance_outside_its_range_is_a_usage_error(value, tmp_path, capsys):
    base = _write(tmp_path, "a.json", sweep_doc())
    slow = _write(tmp_path, "b.json", slowed(100))
    assert main(["report", base, slow, "--check"]) == 1  # the gate a bad value hid
    with pytest.raises(SystemExit) as exc:
        main(["report", base, slow, "--check", "--throughput-tolerance", value])
    assert exc.value.code == 2
    assert "usage:" in capsys.readouterr().err


def test_cli_trend_needs_two_specs(tmp_path, capsys):
    a = _write(tmp_path, "a.json", sweep_doc())
    code = main(["report", a])
    assert code == 2
    assert "at least two" in capsys.readouterr().err


def test_cli_trend_flag_is_gone(tmp_path, capsys):
    a = _write(tmp_path, "a.json", sweep_doc())
    with pytest.raises(SystemExit) as exc:
        main(f"report {a} {a} --trend".split())
    assert exc.value.code == 2
    assert "unrecognized arguments: --trend" in capsys.readouterr().err


def test_cli_degradation_report_just_works(tmp_path, capsys):
    a = _write(tmp_path, "a.json", degradation_doc())
    b = _write(tmp_path, "b.json", degradation_doc())
    assert main(["report", a, b, "--check"]) == 0
    assert "Trend report (degradation)" in capsys.readouterr().out
