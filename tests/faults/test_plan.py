"""FaultPlan schema: validation, JSON round-trips, targeting semantics."""

import json
import math

import pytest

from repro.faults import EPISODE_KINDS, Episode, FaultPlan, FaultPlanError


# -- episode validation ----------------------------------------------------------


def test_every_documented_kind_validates():
    ok = {
        "loss": dict(drop_prob=0.1),
        "degrade": dict(latency_add=0.01, bandwidth_factor=2.0),
        "buffer": dict(node=0, buffer_factor=0.25),
        "duplicate": dict(dup_prob=0.05),
        "reorder": dict(reorder_prob=0.1, reorder_delay=0.002),
        "slowdown": dict(node=1, cpu_factor=4.0),
        "pause": dict(node=1, start=1.0, end=2.0),
        "crash": dict(node=2, start=5.0),
    }
    assert set(ok) == set(EPISODE_KINDS)
    for kind, knobs in ok.items():
        Episode(kind=kind, **knobs).validate()


def test_unknown_kind_rejected():
    with pytest.raises(FaultPlanError, match="unknown episode kind"):
        Episode(kind="meteor").validate()


def test_empty_or_negative_window_rejected():
    with pytest.raises(FaultPlanError, match="empty window"):
        Episode(kind="loss", start=2.0, end=2.0).validate()
    with pytest.raises(FaultPlanError, match="start must be >= 0"):
        Episode(kind="loss", start=-1.0).validate()


@pytest.mark.parametrize(
    "kwargs, match",
    [
        (dict(kind="loss", drop_prob=1.5), "drop_prob"),
        (dict(kind="duplicate", dup_prob=-0.1), "dup_prob"),
        (dict(kind="degrade", bandwidth_factor=0.5), "bandwidth_factor"),
        (dict(kind="buffer", node=0, buffer_factor=0.0), "buffer_factor"),
        (dict(kind="buffer", node=0, buffer_factor=1.5), "buffer_factor"),
        (dict(kind="slowdown", node=0, cpu_factor=0.9), "cpu_factor"),
        (dict(kind="reorder", reorder_prob=0.5, reorder_delay=-1.0), "delays"),
        (dict(kind="degrade", latency_add=float("nan")), "delays"),
        (dict(kind="reorder", reorder_prob=0.5, reorder_delay=float("nan")), "delays"),
        (dict(kind="degrade", bandwidth_factor=float("nan")), "bandwidth_factor"),
        (dict(kind="slowdown", node=0, cpu_factor=float("nan")), "cpu_factor"),
        (dict(kind="loss", drop_prob=-0.1), "drop_prob"),
        (dict(kind="loss", drop_prob=float("nan")), "drop_prob"),
    ],
)
def test_out_of_range_knobs_rejected(kwargs, match):
    with pytest.raises(FaultPlanError, match=match):
        Episode(**kwargs).validate()


def test_knob_on_wrong_kind_rejected():
    # a loss episode has no business setting cpu_factor
    with pytest.raises(FaultPlanError, match="not valid for this kind"):
        Episode(kind="loss", drop_prob=0.1, cpu_factor=2.0).validate()


def test_pause_requires_finite_end():
    with pytest.raises(FaultPlanError, match="finite end"):
        Episode(kind="pause", node=0).validate()


def test_crash_requires_a_node():
    with pytest.raises(FaultPlanError, match="requires a node"):
        Episode(kind="crash", start=1.0).validate()


# -- targeting semantics ---------------------------------------------------------


def test_window_is_half_open():
    ep = Episode(kind="loss", start=1.0, end=2.0, drop_prob=1.0)
    assert not ep.active(0.999)
    assert ep.active(1.0)
    assert ep.active(1.999)
    assert not ep.active(2.0)


def test_matches_filters_src_dst_and_node():
    assert Episode(kind="loss").matches(0, 1)  # untargeted: everything
    link = Episode(kind="loss", src=0, dst=1)
    assert link.matches(0, 1)
    assert not link.matches(1, 0)  # directional
    node = Episode(kind="loss", node=2)
    assert node.matches(2, 5) and node.matches(5, 2)  # either endpoint
    assert not node.matches(0, 1)


# -- JSON round-trips ------------------------------------------------------------


def test_episode_to_json_is_minimal():
    ep = Episode(kind="loss", drop_prob=0.02)
    assert ep.to_json() == {"kind": "loss", "drop_prob": 0.02}
    # the open-ended default window never serialises an explicit infinity
    assert "end" not in ep.to_json() and "start" not in ep.to_json()


def test_plan_roundtrip(tmp_path):
    plan = FaultPlan(
        (
            Episode(kind="loss", drop_prob=0.01, start=0.5, end=1.5, node=3),
            Episode(kind="duplicate", dup_prob=0.05),
            Episode(kind="crash", node=1, start=9.0),
        ),
        seed=42,
    )
    path = tmp_path / "plan.json"
    plan.dump(str(path))
    again = FaultPlan.load(str(path))
    assert again == plan
    # and the on-disk form is plain JSON (hand-editable)
    data = json.loads(path.read_text())
    assert data["seed"] == 42
    assert len(data["episodes"]) == 3


def test_from_json_rejects_unknown_fields():
    with pytest.raises(FaultPlanError, match="unknown fault-plan field"):
        FaultPlan.from_json({"seed": 1, "surprise": True})
    with pytest.raises(FaultPlanError, match="unknown episode field"):
        FaultPlan.from_json({"episodes": [{"kind": "loss", "drop_probability": 0.1}]})
    with pytest.raises(FaultPlanError, match="must be a list"):
        FaultPlan.from_json({"episodes": {"kind": "loss"}})
    with pytest.raises(FaultPlanError, match="'kind'"):
        FaultPlan.from_json({"episodes": [{"drop_prob": 0.1}]})


def test_load_rejects_invalid_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(FaultPlanError, match="not valid JSON"):
        FaultPlan.load(str(path))


def test_infinite_window_survives_roundtrip():
    plan = FaultPlan((Episode(kind="loss", drop_prob=0.1),))
    again = FaultPlan.from_json(plan.to_json())
    assert again.episodes[0].end == math.inf


# -- plan helpers ----------------------------------------------------------------


def test_by_kind_and_extended():
    loss = Episode(kind="loss", drop_prob=0.1)
    dup = Episode(kind="duplicate", dup_prob=0.1)
    plan = FaultPlan((loss,), seed=9)
    assert plan.by_kind("loss") == (loss,)
    assert plan.by_kind("duplicate") == ()
    grown = plan.extended(dup)
    assert grown.episodes == (loss, dup)
    assert grown.seed == 9
    assert plan.episodes == (loss,)  # original untouched


def test_empty_plan_is_legal():
    FaultPlan().validate()
    assert FaultPlan.from_json({}) == FaultPlan()


# -- field-path error reporting ---------------------------------------------------


def test_plan_errors_name_episode_index_and_field_path():
    plan = FaultPlan((
        Episode(kind="loss", drop_prob=0.1),
        Episode(kind="loss", drop_prob=1.5),
    ))
    with pytest.raises(FaultPlanError, match=r"episodes\[1\]\.drop_prob"):
        plan.validate()


def test_from_json_errors_carry_field_path():
    doc = {"episodes": [
        {"kind": "loss", "drop_prob": 0.1},
        {"kind": "loss", "drop_prob": 0.1},
        {"kind": "slowdown", "node": 0, "cpu_factor": 0.5},
    ]}
    with pytest.raises(FaultPlanError, match=r"episodes\[2\]\.cpu_factor") as ei:
        FaultPlan.from_json(doc)
    assert ei.value.field == "cpu_factor"


def test_unknown_field_error_names_it():
    with pytest.raises(FaultPlanError, match=r"episodes\[0\]") as ei:
        FaultPlan.from_json({"episodes": [{"kind": "loss", "drop_probb": 0.1}]})
    assert ei.value.field == "drop_probb"


def test_episode_error_field_attribute():
    with pytest.raises(FaultPlanError) as ei:
        Episode(kind="pause", node=0).validate()  # pause needs a finite end
    assert ei.value.field == "end"
