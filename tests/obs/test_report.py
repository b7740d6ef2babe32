"""Tests for cross-run regression reporting (repro.obs.report)."""

import copy
import json

import pytest

from repro.cli import main
from repro.obs import compare_reports, format_html, format_report, load_report


def hotpath_doc():
    return {
        "benchmark": "hotpath_is",
        "nprocs": 3,
        "seed": 42,
        "protocols": {
            "LRC_d": {
                "wall_seconds": 0.5,
                "events": 1000,
                "events_per_sec": 2000,
                "sim_time_seconds": 1.25,
                "verified": True,
                "table_row": {"Num. Msg": 64, "Data": 4096},
                "message_mix": {
                    "num_msg": 64,
                    "data_bytes": 4096,
                    "rexmit": 0,
                    "drops": 0,
                    "by_kind": {"DIFF_REQUEST": {"count": 64, "bytes": 4096,
                                                 "pct_msgs": 100.0, "pct_bytes": 100.0}},
                },
            },
        },
        "wall_seconds": 0.5,
        "events": 1000,
        "events_per_sec": 2000,
        "vc_d_events_per_sec": 2000,
        "peak_rss_kb": 50000,
    }


def sweep_doc():
    return {
        "benchmark": "sweep",
        "cells": [
            {
                "app": "is", "protocol": "vc_sd", "variant": "default",
                "nprocs": 4, "seed": 42, "events": 500,
                "sim_time_seconds": 2.5, "verified": True,
                "fingerprint": "ab12cd34ef56ab12",
                "table_row": {"Time (Sec.)": 2.5},
                "wall_seconds": 0.2, "events_per_sec": 2500,
            },
        ],
    }


def test_identical_hotpath_reports_are_identical():
    cmp = compare_reports(hotpath_doc(), hotpath_doc())
    assert cmp.kind == "hotpath"
    assert cmp.identical and not cmp.regressions
    assert "verdict: identical" in format_report(cmp)


def test_changed_table_row_is_a_regression():
    new = hotpath_doc()
    new["protocols"]["LRC_d"]["table_row"]["Num. Msg"] = 65
    cmp = compare_reports(hotpath_doc(), new)
    assert cmp.regressions
    [d] = [d for d in cmp.regressions if d.metric == "table_row"]
    assert "Num. Msg" in d.note
    assert "verdict: REGRESSED" in format_report(cmp)


def test_throughput_within_tolerance_is_not_a_regression():
    new = hotpath_doc()
    new["protocols"]["LRC_d"]["wall_seconds"] = 0.575  # +15%
    new["wall_seconds"] = 0.575
    cmp = compare_reports(hotpath_doc(), new, tolerance=0.25)
    assert not cmp.regressions and not cmp.identical


def test_throughput_beyond_tolerance_regresses():
    new = hotpath_doc()
    new["wall_seconds"] = 1.0  # twice as slow
    cmp = compare_reports(hotpath_doc(), new, tolerance=0.25)
    assert [(d.key, d.metric) for d in cmp.regressions] == [("(total)", "wall_seconds")]
    new["protocols"]["LRC_d"]["wall_seconds"] = 1.0
    cmp = compare_reports(hotpath_doc(), new, tolerance=0.25)
    assert ("LRC_d", "wall_seconds") in [(d.key, d.metric) for d in cmp.regressions]


def test_fewer_events_and_lower_events_per_sec_never_gate():
    """A change that deletes zero-work events: the run gets faster while the
    event count *and* events/sec fall — informational, not a regression."""
    new = hotpath_doc()
    entry = new["protocols"]["LRC_d"]
    entry["events"] = new["events"] = 600  # -40%
    entry["wall_seconds"] = new["wall_seconds"] = 0.44  # -12%
    entry["events_per_sec"] = new["events_per_sec"] = 1364  # -32%
    new["vc_d_events_per_sec"] = 1364
    for tolerance in (0.25, 0.0):
        cmp = compare_reports(hotpath_doc(), new, tolerance=tolerance)
        assert not cmp.regressions
    by = {(d.key, d.metric): d.status for d in cmp.deltas}
    assert by[("LRC_d", "events")] == "improved"
    assert by[("LRC_d", "wall_seconds")] == "improved"
    assert by[("LRC_d", "events_per_sec")] == "changed"
    assert by[("(total)", "vc_d_events_per_sec")] == "changed"
    # more events is reported, and still does not gate
    cmp = compare_reports(new, hotpath_doc(), tolerance=0.25)
    assert [(d.key, d.metric) for d in cmp.regressions] == []
    assert {(d.key, d.metric): d.status for d in cmp.deltas}[("LRC_d", "events")] == "changed"


def test_sweep_events_are_informational_wall_is_gated():
    new = sweep_doc()
    new["cells"][0]["events"] = 350
    cmp = compare_reports(sweep_doc(), new)
    assert not cmp.regressions and not cmp.identical
    new["cells"][0]["wall_seconds"] = 0.5  # 2.5x slower
    cmp = compare_reports(sweep_doc(), new)
    assert [d.metric for d in cmp.regressions] == ["wall_seconds"]


def test_missing_entry_regresses_added_entry_changes():
    base, new = hotpath_doc(), hotpath_doc()
    new["protocols"]["VC_d"] = copy.deepcopy(new["protocols"]["LRC_d"])
    cmp = compare_reports(base, new)
    assert [d.status for d in cmp.deltas if d.key == "VC_d"] == ["changed"]
    cmp = compare_reports(new, base)
    assert [d.status for d in cmp.deltas if d.key == "VC_d"] == ["regressed"]


def test_message_mix_on_one_side_only_is_not_a_regression():
    base = hotpath_doc()
    del base["protocols"]["LRC_d"]["message_mix"]
    cmp = compare_reports(base, hotpath_doc())
    assert not cmp.regressions
    [d] = [d for d in cmp.deltas if d.metric == "message_mix"]
    assert d.status == "changed"


def test_sweep_fingerprint_drift_regresses():
    new = sweep_doc()
    new["cells"][0]["fingerprint"] = "0000000000000000"
    cmp = compare_reports(sweep_doc(), new)
    assert cmp.kind == "sweep"
    assert any(d.metric == "fingerprint" for d in cmp.regressions)
    assert cmp.regressions[0].key == "is/vc_sd/default/4/42"


def test_mismatched_kinds_rejected():
    with pytest.raises(ValueError):
        compare_reports(hotpath_doc(), sweep_doc())
    with pytest.raises(ValueError):
        compare_reports({"benchmark": "mystery"}, hotpath_doc())


def test_format_html_is_standalone(tmp_path):
    new = hotpath_doc()
    new["protocols"]["LRC_d"]["sim_time_seconds"] = 1.26
    html = format_html(compare_reports(hotpath_doc(), new))
    assert html.startswith("<!doctype html>")
    assert "REGRESSED" in html
    assert "<style>" in html and "http" not in html.split("</style>")[1]


def test_load_report_from_file_and_git(tmp_path):
    path = tmp_path / "r.json"
    path.write_text(json.dumps(hotpath_doc()))
    assert load_report(str(path))["benchmark"] == "hotpath_is"
    doc = load_report("git:HEAD:BENCH_hotpath.json")
    assert doc["benchmark"] == "hotpath_is"


# -- CLI exit codes (the CI gate contract) ------------------------------------------


def _write(tmp_path, name, doc):
    p = tmp_path / name
    p.write_text(json.dumps(doc))
    return str(p)


def test_cli_report_identical_inputs_exit_zero(tmp_path, capsys):
    a = _write(tmp_path, "a.json", hotpath_doc())
    assert main(["report", a, a, "--check"]) == 0
    assert "verdict: identical" in capsys.readouterr().out


def test_cli_report_injected_regression_exits_nonzero(tmp_path, capsys):
    base = _write(tmp_path, "base.json", hotpath_doc())
    bad = hotpath_doc()
    bad["protocols"]["LRC_d"]["sim_time_seconds"] = 9.99
    new = _write(tmp_path, "new.json", bad)
    assert main(["report", base, new, "--check"]) == 1
    out = capsys.readouterr()
    assert "FAIL" in out.out
    assert "regression" in out.err


def test_cli_report_regression_without_check_exits_zero(tmp_path):
    base = _write(tmp_path, "base.json", hotpath_doc())
    bad = hotpath_doc()
    bad["protocols"]["LRC_d"]["sim_time_seconds"] = 9.99
    new = _write(tmp_path, "new.json", bad)
    assert main(["report", base, new]) == 0


def test_cli_report_writes_html(tmp_path, capsys):
    a = _write(tmp_path, "a.json", hotpath_doc())
    out_html = tmp_path / "report.html"
    assert main(["report", a, a, "--html", str(out_html)]) == 0
    assert out_html.read_text().startswith("<!doctype html>")


def test_cli_report_unreadable_input_exits_two(tmp_path, capsys):
    a = _write(tmp_path, "a.json", hotpath_doc())
    assert main(["report", a, str(tmp_path / "missing.json")]) == 2
    assert "error" in capsys.readouterr().err
