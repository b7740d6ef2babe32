"""Graceful failure reporting: RunFailure structure and the pinned exit code.

A hostile network must end a run with a one-screen diagnostic and CLI exit
code 3 — never a traceback, never a hang.  The exit code is part of the CLI
contract (scripts and CI match on it), so it is pinned literally here.
"""

import json

import pytest

from repro.apps import APPS
from repro.apps.common import run_app
from repro.cli import main
from repro.faults import (
    EXIT_RUN_FAILURE,
    Episode,
    FaultPlan,
    RunAborted,
    describe_failure,
    format_failure,
)


def _blackout(tmp_path) -> str:
    """A one-episode plan file dropping every switch transfer."""
    path = tmp_path / "blackout.json"
    FaultPlan((Episode(kind="loss", drop_prob=1.0),)).dump(str(path))
    return str(path)


def test_exit_code_is_pinned():
    # 0 = success, 2 = argparse/user error, 3 = structured run failure
    assert EXIT_RUN_FAILURE == 3


# -- describe_failure ------------------------------------------------------------


def test_unrelated_exceptions_are_not_described():
    class FakeCluster:
        nodes = ()

    assert describe_failure(ValueError("a genuine bug"), FakeCluster()) is None


def test_crash_plan_aborts_run_app_with_structured_failure():
    plan = FaultPlan((Episode(kind="crash", node=1, start=0.005),))
    with pytest.raises(RunAborted) as exc_info:
        run_app(APPS["is"], "vc_sd", 4, faults=plan)
    failure = exc_info.value.failure
    assert failure.reason == "node-crash"
    assert failure.node == 1
    assert failure.sim_time == pytest.approx(0.005)
    assert failure.net is not None and failure.net["num_msg"] >= 0
    # JSON form round-trips for machine consumption (degradation grid, CI)
    assert json.loads(json.dumps(failure.to_json()))["reason"] == "node-crash"


def test_pending_ops_of_a_mid_storm_crash_are_pinned():
    """The per-node in-flight counts are part of a replayable diagnostic.
    Recorded before the transport kept one pending table (PR 19): a fault's
    gathered diff requests count one by one, as their fetcher processes did."""
    plan = FaultPlan((Episode(kind="crash", node=3, start=0.4),))
    with pytest.raises(RunAborted) as exc_info:
        run_app(APPS["is"], "vc_d", 8, faults=plan)
    failure = exc_info.value.failure
    assert (failure.reason, failure.sim_time, failure.net["num_msg"]) == ("node-crash", 0.4, 1532)
    assert failure.pending_ops == {
        0: {"pending_acks": 1, "pending_replies": 7},
        1: {"pending_acks": 0, "pending_replies": 4},
        2: {"pending_acks": 0, "pending_replies": 6},
        3: {"pending_acks": 0, "pending_replies": 6},
        4: {"pending_acks": 1, "pending_replies": 0},
    }


def test_retry_exhaustion_aborts_with_context():
    from repro.net.config import NetConfig

    # total blackout: every transfer dropped, so the first reliable send
    # burns its whole retry budget and must abort (not hang)
    plan = FaultPlan((Episode(kind="loss", drop_prob=1.0),))
    netcfg = NetConfig(rexmit_timeout=0.05, max_retries=3)
    with pytest.raises(RunAborted) as exc_info:
        run_app(APPS["is"], "vc_sd", 2, netcfg=netcfg, faults=plan)
    failure = exc_info.value.failure
    assert failure.reason == "retry-exhausted"
    assert failure.attempts == 3
    assert failure.kind is not None
    assert failure.node is not None and failure.dst is not None
    assert failure.net["drops_by_cause"].get("fault", 0) > 0


def test_format_failure_is_one_screen_and_informative():
    plan = FaultPlan((Episode(kind="crash", node=0, start=0.01),))
    with pytest.raises(RunAborted) as exc_info:
        run_app(APPS["sor"], "lrc_d", 2, faults=plan)
    text = format_failure(exc_info.value.failure)
    assert "run failed: node-crash" in text
    assert "failing node       0" in text
    assert "hint:" in text
    assert "backoff" not in text  # the hint names only real NetConfig fields
    assert len(text.splitlines()) <= 25, "diagnostic must fit one screen"


# -- CLI surface -----------------------------------------------------------------


def test_cli_hostile_network_exits_3(capsys, tmp_path):
    assert main(["run", "is", "--nprocs", "2", "--faults", _blackout(tmp_path)]) == 3
    captured = capsys.readouterr()
    assert "run failed: retry-exhausted" in captured.err
    assert "Traceback" not in captured.err


def test_cli_crash_plan_exits_3(capsys, tmp_path):
    path = tmp_path / "crash.json"
    FaultPlan((Episode(kind="crash", node=1, start=0.01),)).dump(str(path))
    code = main(
        ["run", "is", "--nprocs", "2", "--protocol", "vc_sd", "--faults", str(path)]
    )
    assert code == 3
    captured = capsys.readouterr()
    assert "run failed: node-crash" in captured.err
    assert "Traceback" not in captured.err


def test_cli_rejects_bad_plan_file(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text('{"episodes": [{"kind": "meteor"}]}')
    with pytest.raises(SystemExit) as exc_info:
        main(["run", "is", "--nprocs", "2", "--faults", str(path)])
    assert "unknown episode kind" in str(exc_info.value)


def test_cli_rejects_out_of_range_drop_prob(tmp_path):
    path = tmp_path / "over.json"
    path.write_text('{"episodes": [{"kind": "loss", "drop_prob": 1.5}]}')
    with pytest.raises(SystemExit) as exc_info:
        main(["run", "is", "--nprocs", "2", "--faults", str(path)])
    assert "episodes[0].drop_prob" in str(exc_info.value)


def test_cli_loss_abort_replays_from_its_dumped_plan(tmp_path, monkeypatch):
    """Loss comes from a plan only, so the plan ``--faults-out`` writes
    replays an abort exactly: same exit code, same failure record."""
    import repro.cli

    failures = []

    def recording(failure):
        failures.append(failure.to_json())
        return format_failure(failure)

    monkeypatch.setattr(repro.cli, "format_failure", recording)
    out = str(tmp_path / "out.json")
    assert main(["run", "is", "--nprocs", "2", "--faults", _blackout(tmp_path),
                 "--faults-out", out]) == 3
    assert main(["run", "is", "--nprocs", "2", "--faults", out]) == 3
    first, replay = failures
    assert first["reason"] == "retry-exhausted"
    assert first["faults"]["episodes"] == [{"kind": "loss", "drop_prob": 1.0}]
    assert first["net"]["drops_by_cause"]["fault"] > 0
    for key in ("reason", "faults", "seeds", "net"):
        assert replay[key] == first[key], key


def test_cli_benign_plan_still_succeeds(capsys, tmp_path):
    path = tmp_path / "mild.json"
    FaultPlan(
        (Episode(kind="loss", drop_prob=0.01),), seed=5
    ).dump(str(path))
    assert main(
        ["run", "is", "--nprocs", "2", "--protocol", "vc_sd", "--faults", str(path)]
    ) == 0
    out = capsys.readouterr().out
    assert "verified against sequential reference" in out


# -- plan + seed embedding (replayable forensics) ---------------------------------


def test_failure_embeds_active_plan_and_seeds():
    plan = FaultPlan((Episode(kind="crash", node=1, start=0.005),), seed=99)
    with pytest.raises(RunAborted) as exc_info:
        run_app(APPS["is"], "vc_sd", 4, faults=plan)
    failure = exc_info.value.failure
    assert failure.faults == plan.to_json()
    assert failure.seeds["faults_seed"] == 99
    assert "drop_seed" in failure.seeds
    doc = failure.to_json()
    assert doc["faults"]["episodes"][0]["kind"] == "crash"
    assert doc["seeds"]["faults_seed"] == 99
    # the dumped plan is directly replayable
    FaultPlan.from_json(failure.faults).validate()
    text = format_failure(failure)
    assert "fault plan" in text and "faults_seed=99" in text
    assert "--faults-out" in text


def test_failure_without_plan_omits_fault_block():
    from repro.net.config import NetConfig

    # no receive buffer and no retry: the first overflow drop aborts the run
    netcfg = NetConfig(recv_buffer_bytes=0, rexmit_timeout=0.05, max_retries=0)
    with pytest.raises(RunAborted) as exc_info:
        run_app(APPS["is"], "vc_sd", 2, netcfg=netcfg)
    failure = exc_info.value.failure
    assert failure.net["drops_by_cause"] == {"overflow": 1}
    assert failure.faults is None
    text = format_failure(failure)
    assert "--faults-out" not in text and "faults_seed" not in text
