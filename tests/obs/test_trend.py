"""N-revision trend tracking (``repro report --trend``) and run manifests.

The two-way regression report generalises to a trend: the same flattening
and gating semantics (exact simulated metrics, tolerance-gated wall seconds,
report-only event counts and rates) applied over every *consecutive* pair of N
reports, rendered as per-metric trend tables and standalone HTML with
inline SVG sparklines.  Legacy BENCH files written before the run-manifest
block loads with a warning and a backfilled ``schema: 0`` manifest.
"""

import json
import subprocess
import sys

import pytest

from repro.cli import main
from repro.obs import (
    GATE_EXACT,
    GATE_INFO,
    GATE_THROUGHPUT,
    compare_reports,
    compute_trend,
    format_trend,
    format_trend_html,
    load_report,
)
from repro.obs.report import OK, REGRESSED

from tests.obs.test_report import hotpath_doc, sweep_doc


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


# -- compute_trend ----------------------------------------------------------------


def test_steady_trend_has_no_regressions():
    docs = [hotpath_doc(), hotpath_doc(), hotpath_doc()]
    trend = compute_trend(docs, ["r1", "r2", "r3"])
    assert trend.kind == "hotpath"
    assert trend.labels == ["r1", "r2", "r3"]
    assert trend.regressions == []
    assert all(s.worst == OK for s in trend.series)
    # every series carries one value per revision, one status per pair
    for s in trend.series:
        assert len(s.values) == 3
        assert len(s.statuses) == 2


def test_throughput_drop_beyond_tolerance_regresses_last_pair():
    old, mid, new = hotpath_doc(), hotpath_doc(), hotpath_doc()
    new["wall_seconds"] = 1.0  # twice the 0.5 s of the other two
    trend = compute_trend([old, mid, new], ["a", "b", "c"], tolerance=0.25)
    [bad] = trend.regressions
    assert (bad.key, bad.metric) == ("(total)", "wall_seconds")
    assert bad.gate == GATE_THROUGHPUT
    assert bad.statuses == [OK, REGRESSED]


def test_throughput_drop_within_tolerance_is_ok():
    old, new = hotpath_doc(), hotpath_doc()
    new["wall_seconds"] = 0.55  # +10%
    trend = compute_trend([old, new], ["a", "b"], tolerance=0.25)
    assert trend.regressions == []


def test_any_exact_simulated_change_regresses():
    old, new = hotpath_doc(), hotpath_doc()
    new["protocols"]["LRC_d"]["sim_time_seconds"] = 1.2500001
    trend = compute_trend([old, new], ["a", "b"])
    bad = [s for s in trend.regressions if s.metric == "sim_time_seconds"]
    assert bad and bad[0].gate == GATE_EXACT


def test_info_metrics_never_gate():
    """Event counts and rates across a revision that removed events: both
    fall while the run gets faster, and neither fails the check."""
    old, new = hotpath_doc(), hotpath_doc()
    new["protocols"]["LRC_d"]["events"] = 600
    new["protocols"]["LRC_d"]["events_per_sec"] = 1364
    new["events_per_sec"] = new["vc_d_events_per_sec"] = 1364
    new["peak_rss_kb"] = 5_000_000
    trend = compute_trend([old, new], ["a", "b"], tolerance=0.0)
    assert trend.regressions == []
    by = {(s.key, s.metric): s for s in trend.series}
    for km in (("LRC_d", "events"), ("LRC_d", "events_per_sec"),
               ("(total)", "vc_d_events_per_sec"), ("(total)", "peak_rss_kb")):
        assert by[km].gate == GATE_INFO
    assert by[("LRC_d", "events")].statuses == ["improved"]
    assert by[("LRC_d", "events_per_sec")].statuses == ["changed"]


def test_mixed_kinds_refused():
    with pytest.raises(ValueError, match="kind"):
        compute_trend([hotpath_doc(), sweep_doc()], ["a", "b"])


def test_trend_needs_two_reports():
    with pytest.raises(ValueError, match="two"):
        compute_trend([hotpath_doc()], ["a"])


def test_degradation_trends_but_refuses_two_way():
    docs = [degradation_doc(), degradation_doc()]
    trend = compute_trend(docs, ["a", "b"])
    assert trend.kind == "degradation"
    assert trend.regressions == []
    with pytest.raises(ValueError, match="trend"):
        compare_reports(degradation_doc(), degradation_doc())


def test_degradation_exact_metrics_gate():
    old, new = degradation_doc(), degradation_doc()
    new["grid"][1]["rexmit"] = 9
    trend = compute_trend([old, new], ["a", "b"])
    assert any(s.metric == "rexmit" for s in trend.regressions)


# -- rendering --------------------------------------------------------------------


def test_format_trend_terminal():
    old, new = hotpath_doc(), hotpath_doc()
    new["wall_seconds"] = 10.0
    trend = compute_trend([old, new], ["base.json", "cand.json"])
    text = format_trend(trend)
    assert "base.json -> cand.json" in text
    assert "REGRESSED" in text
    assert "wall_seconds" in text
    steady = compute_trend([hotpath_doc(), hotpath_doc()], ["a", "b"])
    assert "verdict: ok" in format_trend(steady)


def test_format_trend_html_has_sparklines():
    docs = [hotpath_doc(), hotpath_doc(), hotpath_doc()]
    html = format_trend_html(compute_trend(docs, ["a", "b", "c"]))
    assert html.lower().startswith("<!doctype html>")
    assert "<svg" in html and "polyline" in html


def test_trend_collects_manifests():
    old, new = hotpath_doc(), hotpath_doc()
    old["manifest"] = {"schema": 1, "git_rev": "a" * 40}
    trend = compute_trend([old, new], ["a", "b"])
    assert trend.manifests[0]["git_rev"] == "a" * 40
    assert trend.manifests[1] == {"schema": 0}  # backfilled placeholder


# -- manifest backfill on load ----------------------------------------------------


def test_load_report_backfills_legacy_manifest(tmp_path):
    doc = hotpath_doc()
    assert "manifest" not in doc
    path = tmp_path / "old.json"
    path.write_text(json.dumps(doc))
    with pytest.warns(UserWarning, match="schema 0"):
        loaded = load_report(str(path))
    assert loaded["manifest"] == {"schema": 0}


def test_load_report_keeps_real_manifest(tmp_path):
    doc = hotpath_doc()
    doc["manifest"] = {"schema": 1, "git_rev": "f" * 40}
    path = tmp_path / "new.json"
    path.write_text(json.dumps(doc))
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        loaded = load_report(str(path))
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
    doc = load_report("git:HEAD:BENCH_hotpath.json")
    assert doc["benchmark"].startswith("hotpath")


# -- the CLI ----------------------------------------------------------------------


def _write(tmp_path, name, doc):
    p = tmp_path / name
    p.write_text(json.dumps(doc))
    return str(p)


def test_cli_trend_check_exits_1_on_regression(tmp_path, capsys):
    old = _write(tmp_path, "a.json", hotpath_doc())
    mid = _write(tmp_path, "b.json", hotpath_doc())
    bad_doc = hotpath_doc()
    bad_doc["wall_seconds"] = 10.0
    bad = _write(tmp_path, "c.json", bad_doc)
    code = main(["report", old, mid, bad, "--trend", "--check"])
    out = capsys.readouterr().out
    assert code == 1
    assert "verdict: REGRESSED" in out


def test_cli_trend_ok_exits_0_and_writes_html(tmp_path, capsys):
    a = _write(tmp_path, "a.json", hotpath_doc())
    b = _write(tmp_path, "b.json", hotpath_doc())
    html = tmp_path / "trend.html"
    code = main(["report", a, b, "--trend", "--check", "--html", str(html)])
    assert code == 0
    assert "<svg" in html.read_text()


def test_cli_trend_needs_two_specs(tmp_path, capsys):
    a = _write(tmp_path, "a.json", hotpath_doc())
    code = main(["report", a, "--trend"])
    assert code == 2
    assert "at least two" in capsys.readouterr().err


def test_cli_two_way_needs_exactly_two_specs(tmp_path, capsys):
    a = _write(tmp_path, "a.json", hotpath_doc())
    b = _write(tmp_path, "b.json", hotpath_doc())
    c = _write(tmp_path, "c.json", hotpath_doc())
    code = main(["report", a, b, c])
    assert code == 2
    assert "exactly two" in capsys.readouterr().err


def test_cli_two_way_degradation_suggests_trend(tmp_path, capsys):
    a = _write(tmp_path, "a.json", degradation_doc())
    b = _write(tmp_path, "b.json", degradation_doc())
    code = main(["report", a, b])
    assert code == 2
    assert "--trend" in capsys.readouterr().err
    code = main(["report", a, b, "--trend", "--check"])
    assert code == 0
