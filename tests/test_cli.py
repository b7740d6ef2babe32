"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


def test_list_command(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    assert "is" in out and "gauss" in out and "sor" in out and "nn" in out
    assert "vc_sd" in out


def test_run_command_prints_stats(capsys):
    assert main(["run", "sor", "--protocol", "vc_sd", "--nprocs", "2"]) == 0
    out = capsys.readouterr().out
    assert "verified against sequential reference" in out
    assert "Time (Sec.)" in out
    assert "Num. Msg" in out


def test_run_with_variant(capsys):
    assert main(["run", "is", "--protocol", "vc_sd", "--nprocs", "2", "--variant", "lb"]) == 0
    assert "verified" in capsys.readouterr().out


def test_run_mpi_on_non_nn_rejected(capsys):
    assert main(["run", "is", "--protocol", "mpi", "--nprocs", "2"]) == 2
    assert "no MPI version" in capsys.readouterr().err


def test_sweep_command(capsys):
    assert main(["sweep", "sor", "--protocols", "vc_sd", "--procs", "2", "3"]) == 0
    out = capsys.readouterr().out
    assert "2-p" in out and "3-p" in out
    assert "vc_sd" in out


def test_sweep_app_honours_the_cache_flags(capsys, tmp_path, monkeypatch):
    """`sweep APP` used to compute cache_dir and then drop it: --no-cache
    still filled .cache/sweep and --cache-dir was ignored."""
    monkeypatch.chdir(tmp_path)
    argv = ["sweep", "sor", "--procs", "2", "--protocols", "vc_sd", "--jobs", "1"]
    assert main([*argv, "--no-cache"]) == 0
    assert not (tmp_path / ".cache").exists()
    assert main([*argv, "--cache-dir", "X"]) == 0
    assert not (tmp_path / ".cache").exists()
    entries = sorted((tmp_path / "X").rglob("*.pkl"))
    assert len(entries) == 2  # the 1-processor baseline and the 2-processor run
    first = capsys.readouterr().out
    assert main([*argv, "--cache-dir", "X"]) == 0  # warm: same table, no new entry
    assert capsys.readouterr().out in first
    assert sorted((tmp_path / "X").rglob("*.pkl")) == entries
    # the degradation grid takes the same flags
    grid = [*argv, "--loss-rates", "0", "--faults-out", "grid.json", "--faults"]
    assert main([*grid, "--no-cache"]) == 0
    assert not (tmp_path / ".cache").exists()
    assert main([*grid, "--cache-dir", "X"]) == 0
    assert len(sorted((tmp_path / "X").rglob("*.pkl"))) == 3


def test_sweep_mpi_on_non_nn_rejected(capsys):
    assert main(["sweep", "gauss", "--protocols", "mpi", "--procs", "2"]) == 2


@pytest.mark.parametrize("argv,message", [
    (["run", "is", "--variant", "bogus"], "is has no vopp variant 'bogus'"),
    (["run", "sor", "--variant", "no_rview"], "sor has no vopp variant 'no_rview'"),
    (["run", "is", "--protocol", "lrc_d", "--variant", "lb"],
     "is has no traditional variant 'lb'"),
    (["check", "gauss", "--variant", "lb"], "gauss has no vopp variant 'lb'"),
    (["profile", "nn", "--protocol", "mpi", "--variant", "no_rview"],
     "nn has no mpi variant 'no_rview'"),
    (["sweep", "is", "--faults", "--protocols", "vc_sd", "mpi"],
     "is has no MPI version (only nn does)"),
])
def test_a_variant_the_app_lacks_is_refused_before_running(argv, message, capsys):
    """An unknown variant used to run the default program, print
    "verified" and exit 0."""
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: {message}")
    assert captured.err.count("\n") == 1 and captured.out == ""


@pytest.mark.parametrize("top", ["-3", "0"])
def test_profile_top_below_one_is_a_usage_error(top, capsys):
    """``--top -3`` printed all but the last three functions, ``--top 0``
    none, both with exit 0."""
    with pytest.raises(SystemExit) as exc:
        main(["profile", "sor", "--nprocs", "2", "--top", top])
    assert exc.value.code == 2
    assert "must be at least 1" in capsys.readouterr().err


def test_sweep_faults_refuses_more_than_one_procs_value(capsys, tmp_path):
    """The grid used to run at 8 ranks whenever --procs had two values."""
    out = tmp_path / "f.json"
    assert main(["sweep", "--faults", "--procs", "4", "16",
                 "--faults-out", str(out)]) == 2
    assert "one --procs value, got 2" in capsys.readouterr().err
    assert not out.exists()


def test_sweep_app_refuses_check_consistency(capsys):
    """A speedup table has no oracle: the flag used to be dropped, exit 0."""
    assert main(["sweep", "sor", "--procs", "2", "--protocols", "vc_sd",
                 "--check-consistency", "--no-cache"]) == 2
    captured = capsys.readouterr()
    assert "--check-consistency" in captured.err and captured.out == ""


def test_trace_command_prints_breakdown_and_mix(capsys, tmp_path):
    import json

    from repro.obs import validate_chrome_trace

    out_path = tmp_path / "t.json"
    assert main([
        "trace", "is", "--nprocs", "4", "--protocol", "vc_d",
        "--trace-out", str(out_path),
    ]) == 0
    out = capsys.readouterr().out
    assert "Where the time went" in out
    assert "Breakdown" in out
    assert "Message mix" in out
    assert "bytes" in out
    summary = validate_chrome_trace(json.loads(out_path.read_text()))
    assert summary["spans"] > 0


@pytest.mark.parametrize("extra", [[], ["--host-trace"]])
def test_trace_out_failing_validation_leaves_no_file(monkeypatch, tmp_path, extra):
    """An unbalanced trace is refused with the schema error and nothing —
    no partial file, no temp file — is left at ``--trace-out``."""
    from repro.obs import EventTracer

    # fault-fetcher spans that never close (an unclosed app-lane span would
    # fail the breakdown before the export is written)
    end = EventTracer.end
    monkeypatch.setattr(EventTracer, "end", lambda self, pid, lane, cat, t:
                        end(self, pid, lane, cat, t) if lane == "app" else None)
    out_path = tmp_path / "t.json"
    with pytest.raises(SystemExit) as exc:
        main(["run", "sor", "--protocol", "lrc_d", "--nprocs", "2",
              "--trace-out", str(out_path), *extra])
    assert str(exc.value).startswith(
        "error: trace failed schema validation: unclosed spans at end of trace")
    assert list(tmp_path.iterdir()) == []


def test_host_trace_rows_reach_both_exports(capsys, tmp_path):
    """The host rows reach both outputs of a run: the printed host-time
    breakdown and the Chrome trace, after every simulated row."""
    import json

    from repro.obs import HOST_PID

    trace_out = tmp_path / "t.json"
    assert main([
        "run", "sor", "--protocol", "vc_sd", "--nprocs", "2", "--host-trace",
        "--trace-out", str(trace_out),
    ]) == 0
    assert "Host-time breakdown" in capsys.readouterr().out
    events = [e for e in json.loads(trace_out.read_text())["traceEvents"]
              if e["ph"] != "M"]
    phases = ["build", "execute", "extract", "verify"]
    assert [e["cat"] for e in events[-4:]] == phases
    assert [e["pid"] for e in events].count(HOST_PID) == 4


def test_run_critical_path_implies_trace(capsys):
    assert main(["run", "sor", "--protocol", "vc_sd", "--nprocs", "2"]) == 0
    assert "Critical path" not in capsys.readouterr().out
    assert main([
        "run", "sor", "--protocol", "vc_sd", "--nprocs", "2", "--critical-path",
    ]) == 0
    out = capsys.readouterr().out
    assert "Critical path" in out and "Where the time went" in out


@pytest.mark.parametrize("cmd, nprocs, trace, check", [
    ("run", 16, False, False),
    ("check", 8, False, True),
    ("trace", 8, True, False),
    ("profile", 16, None, None),
])
def test_run_check_trace_are_presets_of_one_body(cmd, nprocs, trace, check):
    """argparse cannot check this: flag actions shared between subparsers
    (one ``parents=[...]`` object) would hand every name the last preset."""
    import repro.cli as cli

    args = build_parser().parse_args([cmd, "sor"])
    assert args.nprocs == nprocs
    assert getattr(args, "trace", None) is trace
    assert getattr(args, "check_consistency", None) is check
    if cmd == "profile":
        assert args.fn is cli._cmd_profile
        assert not hasattr(args, "faults") and not hasattr(args, "host_trace")
    else:
        assert args.fn is cli._cmd_run
        assert (args.trace_out, args.critical_path, args.findings_out) == (
            None, False, None)


def test_every_run_name_takes_the_union_and_keeps_its_exits(capsys, tmp_path):
    import json

    from repro.obs import validate_chrome_trace

    trace_out = tmp_path / "t.json"
    assert main(["check", "sor", "--nprocs", "2", "--trace-out", str(trace_out)]) == 0
    assert validate_chrome_trace(json.loads(trace_out.read_text()))["spans"] > 0
    out = capsys.readouterr().out
    assert "Where the time went" in out and "CLEAN" in out
    assert main(["trace", "sor", "--nprocs", "2", "--check-consistency"]) == 0
    out = capsys.readouterr().out
    assert "Where the time went" in out and "CLEAN" in out
    # an aborted run: 3 bare, 3 with the partial history checked
    blackout = tmp_path / "blackout.json"
    blackout.write_text('{"episodes": [{"kind": "loss", "drop_prob": 1.0}]}')
    assert main(["run", "is", "--nprocs", "2", "--faults", str(blackout)]) == 3
    assert "Consistency oracle" not in capsys.readouterr().out
    assert main(["check", "is", "--protocol", "lrc_d", "--nprocs", "2",
                 "--faults", str(blackout)]) == 3
    assert "Consistency oracle" in capsys.readouterr().out


def test_trace_command_critical_path_and_metrics(capsys, tmp_path):
    import json

    mpath = tmp_path / "metrics.json"
    assert main([
        "trace", "sor", "--protocol", "vc_sd", "--nprocs", "2",
        "--critical-path", "--metrics-out", str(mpath),
    ]) == 0
    out = capsys.readouterr().out
    assert "Critical path" in out
    assert "Contention metrics" in out
    assert "wrote metrics snapshot" in out
    snap = json.loads(mpath.read_text())
    assert snap["histograms"]


def test_run_with_metrics_flag(capsys):
    assert main([
        "run", "is", "--protocol", "vc_d", "--nprocs", "2", "--metrics",
    ]) == 0
    out = capsys.readouterr().out
    assert "Contention metrics" in out
    assert "acquire_wait_seconds" in out


def test_run_with_trace_flag(capsys):
    assert main([
        "run", "sor", "--protocol", "vc_sd", "--nprocs", "2", "--trace",
    ]) == 0
    out = capsys.readouterr().out
    assert "Time (Sec.)" in out
    assert "Breakdown" in out


def test_sweep_faults_runs_degradation_grid(capsys, tmp_path):
    import json

    out = tmp_path / "BENCH_faults.json"
    assert main([
        "sweep", "is", "--procs", "2", "--protocols", "vc_sd",
        "--loss-rates", "0", "0.01", "--faults-out", str(out), "--faults",
    ]) == 0
    printed = capsys.readouterr().out
    assert "Degradation grid" in printed
    report = json.loads(out.read_text())
    assert report["benchmark"] == "faults_degradation"
    assert len(report["grid"]) == 2
    assert all(c["verified"] for c in report["grid"])


@pytest.mark.parametrize("rate", ["nan", "1.5", "-0.5"])
def test_sweep_loss_rate_outside_0_1_is_a_usage_error(rate, capsys, tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["sweep", "is", "--procs", "2", "--protocols", "vc_sd", "--jobs", "1",
              "--no-cache", "--loss-rates", "0", rate,
              "--faults-out", str(tmp_path / "f.json"), "--faults"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "usage:" in err and "must be a probability in [0, 1]" in err
    assert list(tmp_path.iterdir()) == []


def test_sweep_faults_with_plan_file(capsys, tmp_path):
    import json

    from repro.faults import Episode, FaultPlan

    plan = tmp_path / "plan.json"
    FaultPlan((Episode(kind="duplicate", dup_prob=0.1),)).dump(str(plan))
    out = tmp_path / "BENCH_faults.json"
    assert main([
        "sweep", "is", "--procs", "2", "--protocols", "vc_sd",
        "--loss-rates", "0", "--faults-out", str(out), "--faults", str(plan),
    ]) == 0
    report = json.loads(out.read_text())
    assert report["base_plan"]["episodes"][0]["kind"] == "duplicate"


def test_check_command_reports_clean(capsys, tmp_path):
    import json

    findings = tmp_path / "findings.json"
    assert main([
        "check", "sor", "--protocol", "vc_sd", "--nprocs", "2",
        "--findings-out", str(findings),
    ]) == 0
    out = capsys.readouterr().out
    assert "Consistency oracle" in out and "CLEAN" in out
    doc = json.loads(findings.read_text())
    assert doc["verdict"] == "clean"
    assert doc["findings"] == []
    assert doc["counts"]["reads"] > 0


def test_check_command_mpi_not_applicable(capsys):
    assert main(["check", "nn", "--protocol", "mpi", "--nprocs", "2"]) == 0
    assert "NOT-APPLICABLE" in capsys.readouterr().out


def test_check_mpi_on_non_nn_rejected(capsys):
    assert main(["check", "is", "--protocol", "mpi", "--nprocs", "2"]) == 2
    assert "no MPI version" in capsys.readouterr().err


def test_run_with_check_consistency_flag(capsys):
    assert main([
        "run", "is", "--protocol", "vc_d", "--nprocs", "2",
        "--check-consistency",
    ]) == 0
    out = capsys.readouterr().out
    assert "Time (Sec.)" in out
    assert "Consistency oracle" in out and "CLEAN" in out


def test_sweep_faults_check_consistency(capsys, tmp_path):
    import json

    out = tmp_path / "BENCH_faults.json"
    assert main([
        "sweep", "is", "--procs", "2", "--protocols", "vc_sd",
        "--loss-rates", "0", "--faults-out", str(out), "--faults",
        "--check-consistency",
    ]) == 0
    printed = capsys.readouterr().out
    assert "grid cells clean" in printed
    report = json.loads(out.read_text())
    assert all(
        c["consistency"]["verdict"] == "clean" for c in report["grid"]
    )


def test_invalid_app_rejected():
    with pytest.raises(SystemExit):
        main(["run", "nosuchapp"])


def test_invalid_table_rejected():
    with pytest.raises(SystemExit):
        main(["table", "10"])


@pytest.mark.parametrize("argv", [
    ["run", "is", "--nprocs", "0"],
    ["run", "is", "--nprocs", "-2"],
    ["check", "is", "--nprocs", "0"],
    ["trace", "is", "--nprocs", "0"],
    ["profile", "is", "--nprocs", "0"],
    ["sweep", "is", "--procs", "2", "0"],
    ["sweep", "is", "--jobs", "0"],
    ["adversary", "is", "--nprocs", "0"],
    ["adversary", "is", "--budget", "0"],
], ids="_".join)
def test_count_below_one_is_a_usage_error(argv, capsys):
    """Every count flag takes an int >= 1: a zero or negative count is
    refused before anything runs, with a usage message and exit code 2."""
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "usage:" in err and "must be at least 1" in err


def test_parser_has_all_commands():
    parser = build_parser()
    text = parser.format_help()
    for cmd in ("run", "check", "table", "sweep", "trace", "list"):
        assert cmd in text


def test_profile_command_prints_hot_functions(capsys, tmp_path):
    pstats_path = tmp_path / "prof.pstats"
    assert main(["profile", "sor", "--protocol", "vc_sd", "--nprocs", "2",
                 "--top", "5", "--profile-out", str(pstats_path)]) == 0
    out = capsys.readouterr().out
    assert "cumulative" in out  # pstats header
    assert "run" in out
    assert pstats_path.exists()

    import pstats

    stats = pstats.Stats(str(pstats_path))
    assert stats.total_calls > 0


def test_cli_profile_serial_still_works(capsys):
    code = main([
        "profile", "is", "--protocol", "vc_sd", "--nprocs", "4", "--top", "5",
    ])
    out = capsys.readouterr().out
    assert code == 0
    assert "simulated seconds" in out


def test_profile_mpi_on_non_nn_rejected(capsys):
    assert main(["profile", "is", "--protocol", "mpi", "--nprocs", "2"]) == 2
    assert "no MPI version" in capsys.readouterr().err


# -- fault-plan plumbing: --faults-out, failure diagnostics, exit precedence -----


def _crash_plan(tmp_path):
    from repro.faults import Episode, FaultPlan

    path = tmp_path / "crash.json"
    FaultPlan((Episode(kind="crash", node=0, start=0.5),), seed=3).dump(str(path))
    return str(path)


def test_run_faults_out_round_trips_plan(capsys, tmp_path):
    import json

    from repro.faults import Episode, FaultPlan

    plan = tmp_path / "plan.json"
    FaultPlan((Episode(kind="duplicate", dup_prob=0.1),), seed=9).dump(str(plan))
    out = tmp_path / "active.json"
    assert main([
        "run", "sor", "--protocol", "vc_sd", "--nprocs", "2",
        "--faults", str(plan), "--faults-out", str(out),
    ]) == 0
    assert "wrote active fault plan" in capsys.readouterr().out
    assert json.loads(out.read_text()) == json.loads(plan.read_text())


def test_run_faults_out_without_plan_dumps_empty(capsys, tmp_path):
    import json

    out = tmp_path / "active.json"
    assert main([
        "run", "sor", "--protocol", "vc_sd", "--nprocs", "2",
        "--faults-out", str(out),
    ]) == 0
    assert json.loads(out.read_text())["episodes"] == []


def test_check_faults_out_written_even_when_run_aborts(capsys, tmp_path):
    # the dump happens *before* the run: an abort still leaves the artifact
    out = tmp_path / "active.json"
    code = main([
        "check", "sor", "--protocol", "vc_sd", "--nprocs", "2",
        "--faults", _crash_plan(tmp_path), "--faults-out", str(out),
    ])
    assert code == 3
    assert out.exists()
    err = capsys.readouterr().err
    assert "fault plan" in err  # diagnostic embeds the active plan summary
    assert "--faults-out" in err  # and points at the repro flags


def test_check_faults_crash_aborts_with_exit_3(capsys, tmp_path):
    assert main([
        "check", "sor", "--protocol", "vc_sd", "--nprocs", "2",
        "--faults", _crash_plan(tmp_path),
    ]) == 3
    # the partial history of an aborted run is still checked
    assert "Consistency oracle" in capsys.readouterr().out


def test_check_consistency_exit_4_beats_abort_exit_3(capsys, tmp_path, monkeypatch):
    # pinned precedence: a consistency violation (4) outranks a run
    # failure (3) — a protocol bug must never hide behind an abort
    import repro.cli as cli

    monkeypatch.setattr(
        cli, "_check_consistency",
        lambda oracle, protocol, nprocs, args, aborted=False: 4,
    )
    assert main([
        "check", "sor", "--protocol", "vc_sd", "--nprocs", "2",
        "--faults", _crash_plan(tmp_path),
    ]) == 4


def test_run_failure_diagnostic_embeds_plan_and_seeds(capsys, tmp_path):
    assert main([
        "run", "sor", "--protocol", "vc_sd", "--nprocs", "2",
        "--faults", _crash_plan(tmp_path),
    ]) == 3
    err = capsys.readouterr().err
    assert "fault plan" in err and "episode(s)" in err
    assert "faults_seed=3" in err


# -- adversary command ------------------------------------------------------------


def test_adversary_single_cell(capsys, tmp_path):
    import json

    plan_out = tmp_path / "winner.json"
    shrunk_out = tmp_path / "shrunk.json"
    assert main([
        "adversary", "is", "--protocol", "lrc_d", "--nprocs", "4",
        "--budget", "4", "--seed", "3", "--no-cache",
        "--plan-out", str(plan_out), "--shrunk-out", str(shrunk_out),
    ]) == 0
    out = capsys.readouterr().out
    assert "baseline" in out and "winner class" in out
    assert "winning plan" in out and "shrunk" in out
    winner = json.loads(plan_out.read_text())
    assert winner["episodes"]
    shrunk = json.loads(shrunk_out.read_text())
    assert len(shrunk["episodes"]) <= len(winner["episodes"])

    from repro.faults import FaultPlan

    FaultPlan.from_json(winner).validate()
    FaultPlan.from_json(shrunk).validate()


def test_adversary_exits_4_when_the_worst_plan_is_inconsistent(monkeypatch, capsys):
    """A consistency-class winner is a protocol bug: exit 4, whatever the
    magnitude of the slow or aborted plans beside it."""
    from repro.apps.common import AppResult
    from repro.faults.adversary import Evaluator

    def evaluate(self, plan):
        verdict = "clean" if plan is None else "violations"
        return AppResult("vc_d", 4, None, None, 1.0, consistency={
            "verdict": verdict, "findings": [] if plan is None else [{}]})

    monkeypatch.setattr(Evaluator, "evaluate", evaluate)
    assert main(["adversary", "is", "--nprocs", "4", "--budget", "2",
                 "--no-cache"]) == 4
    assert "consistency violations" in capsys.readouterr().err


@pytest.mark.parametrize("flag", [
    ["--grid"], ["--protocols", "vc_d"], ["--bench-out", "x.json"],
    ["--population", "6"], ["--verbose"],
], ids=lambda f: f[0])
def test_adversary_has_no_grid_or_population_flags(flag, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["adversary", "is", *flag])
    assert exc.value.code == 2


def test_adversary_in_parser_help():
    assert "adversary" in build_parser().format_help()
