"""Declarative, seeded fault plans: a schedule of fault episodes over time.

A :class:`FaultPlan` is the single scripted input describing *everything
hostile* the network and nodes do to a run beyond the baseline model's
congestion loss (the NIC's buffer overflow and RED drops); uniform loss is
a ``loss`` episode.  Plans are plain data — JSON-serialisable, hashable
into cache keys, and installed on a cluster through
:class:`repro.faults.injector.FaultInjector` with the same None-default,
zero-overhead contract as the tracer and the access recorder.

Episode kinds
-------------

``loss``
    Drop messages crossing the switch with ``drop_prob`` during the window.
    Filterable per link (``src``/``dst``) or per node (either endpoint).
``degrade``
    Add ``latency_add`` seconds of switch delay per matching message and/or
    stretch a node's wire time by ``bandwidth_factor`` (>1 = slower link).
``buffer``
    Shrink a node's receive buffer (capacity *and* RED threshold) by
    ``buffer_factor`` (<1 = smaller), amplifying congestion loss.
``duplicate``
    Deliver a second copy of matching messages with ``dup_prob`` — exercises
    the transport's duplicate suppression.
``reorder``
    With ``reorder_prob``, delay a matching message by a bounded extra
    ``U(0, reorder_delay)`` so later messages can overtake it.
``slowdown``
    Multiply compute time charged on ``node`` by ``cpu_factor`` during the
    window.
``pause``
    Suspend ``node``'s compute: work started inside the window additionally
    waits until the window ends (a GC stall / OS hiccup).  Requires a finite
    ``end``.
``crash``
    Fail-stop ``node`` at ``start``: the run aborts cleanly with a
    structured :class:`repro.faults.failure.RunFailure` diagnostic.

Determinism
-----------

All randomness (loss, duplication, reordering) draws from one
``numpy.random.RandomState`` seeded by ``FaultPlan.seed`` — a stream separate
from the NIC's RED stream (``NetConfig.drop_seed``), consumed in simulator
event order.  Replaying the same plan + seed on the same build reproduces
identical statistics, traces and timings, bit for bit.
"""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass
from typing import Any, Iterable, Optional

__all__ = ["Episode", "FaultPlan", "FaultPlanError", "EPISODE_KINDS"]

EPISODE_KINDS = (
    "loss",
    "degrade",
    "buffer",
    "duplicate",
    "reorder",
    "slowdown",
    "pause",
    "crash",
)

# per-kind knobs an episode of that kind is allowed to set (beyond the
# window and targeting fields shared by every kind)
_KIND_FIELDS = {
    "loss": ("drop_prob",),
    "degrade": ("latency_add", "bandwidth_factor"),
    "buffer": ("buffer_factor",),
    "duplicate": ("dup_prob",),
    "reorder": ("reorder_prob", "reorder_delay"),
    "slowdown": ("cpu_factor",),
    "pause": (),
    "crash": (),
}

_SHARED_FIELDS = ("kind", "start", "end", "node", "src", "dst")


class FaultPlanError(ValueError):
    """A fault plan failed validation (unknown kind, bad window, bad knob).

    ``field`` names the offending episode field when one is identifiable;
    plan-level validation prefixes it with the episode index to a full path
    like ``episodes[3].drop_prob``, so a refused plan file names the field
    to fix.
    """

    def __init__(self, message: str, field: Optional[str] = None):
        super().__init__(message)
        self.field = field


def _at_episode(exc: FaultPlanError, index: int) -> FaultPlanError:
    """Re-raise helper: prefix an episode-level error with its plan path."""
    path = f"episodes[{index}]" + (f".{exc.field}" if exc.field else "")
    return FaultPlanError(f"{path}: {exc}", field=exc.field)


@dataclass(frozen=True)
class Episode:
    """One fault episode: a kind, a time window, a target, and its knobs.

    Targeting: ``src``/``dst`` filter the link direction (message-level
    kinds); ``node`` matches either endpoint for message-level kinds and
    names the afflicted node for node-level kinds (``buffer``, ``slowdown``,
    ``pause``, ``crash``, and ``degrade``'s ``bandwidth_factor``).  ``None``
    means "any".
    """

    kind: str
    start: float = 0.0
    end: float = math.inf
    node: Optional[int] = None
    src: Optional[int] = None
    dst: Optional[int] = None
    drop_prob: float = 0.0
    latency_add: float = 0.0
    bandwidth_factor: float = 1.0
    buffer_factor: float = 1.0
    dup_prob: float = 0.0
    reorder_prob: float = 0.0
    reorder_delay: float = 0.0
    cpu_factor: float = 1.0

    def active(self, t: float) -> bool:
        return self.start <= t < self.end

    def matches(self, src: int, dst: int) -> bool:
        """Does a message ``src -> dst`` fall under this episode's target?"""
        if self.src is not None and self.src != src:
            return False
        if self.dst is not None and self.dst != dst:
            return False
        if self.node is not None and self.node not in (src, dst):
            return False
        return True

    def validate(self) -> None:
        if self.kind not in EPISODE_KINDS:
            raise FaultPlanError(
                f"unknown episode kind {self.kind!r}; expected one of {EPISODE_KINDS}",
                field="kind",
            )
        if not (self.start >= 0.0):
            raise FaultPlanError(
                f"{self.kind}: start must be >= 0, got {self.start!r}", field="start"
            )
        if not (self.end > self.start):
            raise FaultPlanError(
                f"{self.kind}: empty window [{self.start!r}, {self.end!r})",
                field="end",
            )
        allowed = set(_KIND_FIELDS[self.kind])
        for field in dataclasses.fields(self):
            if field.name in _SHARED_FIELDS or field.name in allowed:
                continue
            if getattr(self, field.name) != field.default:
                raise FaultPlanError(
                    f"{self.kind}: knob {field.name!r} is not valid for this kind",
                    field=field.name,
                )
        for prob in ("drop_prob", "dup_prob", "reorder_prob"):
            v = getattr(self, prob)
            if not (0.0 <= v <= 1.0):
                raise FaultPlanError(
                    f"{self.kind}: {prob} must be in [0, 1], got {v!r}", field=prob
                )
        if not (self.latency_add >= 0.0):
            raise FaultPlanError(f"{self.kind}: delays must be >= 0", field="latency_add")
        if not (self.reorder_delay >= 0.0):
            raise FaultPlanError(
                f"{self.kind}: delays must be >= 0", field="reorder_delay"
            )
        if not (self.bandwidth_factor >= 1.0):
            raise FaultPlanError(
                f"degrade: bandwidth_factor must be >= 1 (slower), "
                f"got {self.bandwidth_factor!r}",
                field="bandwidth_factor",
            )
        if not (0.0 < self.buffer_factor <= 1.0):
            raise FaultPlanError(
                f"buffer: buffer_factor must be in (0, 1], got {self.buffer_factor!r}",
                field="buffer_factor",
            )
        if not (self.cpu_factor >= 1.0):
            raise FaultPlanError(
                f"slowdown: cpu_factor must be >= 1, got {self.cpu_factor!r}",
                field="cpu_factor",
            )
        if self.kind == "pause" and not math.isfinite(self.end):
            raise FaultPlanError("pause: requires a finite end", field="end")
        if self.kind in ("slowdown", "pause", "crash", "buffer") and self.node is None:
            # whole-cluster slowdowns are legal; crash must name its victim
            if self.kind == "crash":
                raise FaultPlanError("crash: requires a node", field="node")

    def to_json(self) -> dict:
        """Minimal dict: only non-default fields, always including ``kind``."""
        out: dict[str, Any] = {"kind": self.kind}
        for field in dataclasses.fields(self):
            if field.name == "kind":
                continue
            value = getattr(self, field.name)
            if field.name == "end" and value == math.inf:
                continue
            if value != field.default:
                out[field.name] = value
        return out

    @classmethod
    def from_json(cls, data: dict) -> "Episode":
        if not isinstance(data, dict) or "kind" not in data:
            raise FaultPlanError(
                f"episode must be an object with a 'kind': {data!r}", field="kind"
            )
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise FaultPlanError(
                f"{data['kind']}: unknown episode field(s) {sorted(unknown)}",
                field=sorted(unknown)[0],
            )
        ep = cls(**data)
        ep.validate()
        return ep


@dataclass(frozen=True)
class FaultPlan:
    """A seeded schedule of fault episodes.

    ``seed`` drives every probabilistic episode; two runs of the same plan
    on the same build are bit-identical.  An empty plan is legal and
    behaves exactly like no plan at all (test-enforced).
    """

    episodes: tuple = ()
    seed: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "episodes", tuple(self.episodes))

    def validate(self) -> "FaultPlan":
        for i, ep in enumerate(self.episodes):
            try:
                ep.validate()
            except FaultPlanError as exc:
                raise _at_episode(exc, i) from exc
        return self

    def by_kind(self, *kinds: str) -> tuple:
        return tuple(ep for ep in self.episodes if ep.kind in kinds)

    def to_json(self) -> dict:
        return {
            "seed": self.seed,
            "episodes": [ep.to_json() for ep in self.episodes],
        }

    @classmethod
    def from_json(cls, data: dict) -> "FaultPlan":
        if not isinstance(data, dict):
            raise FaultPlanError(f"fault plan must be a JSON object, got {type(data)}")
        unknown = set(data) - {"seed", "episodes"}
        if unknown:
            raise FaultPlanError(f"unknown fault-plan field(s) {sorted(unknown)}")
        episodes = data.get("episodes", [])
        if not isinstance(episodes, list):
            raise FaultPlanError("'episodes' must be a list", field="episodes")
        parsed = []
        for i, ep in enumerate(episodes):
            try:
                parsed.append(Episode.from_json(ep))
            except FaultPlanError as exc:
                raise _at_episode(exc, i) from exc
        return cls(
            episodes=tuple(parsed),
            seed=int(data.get("seed", 0)),
        ).validate()

    @classmethod
    def load(cls, path: str) -> "FaultPlan":
        try:
            with open(path) as fh:
                data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise FaultPlanError(f"{path}: not valid JSON: {exc}") from exc
        return cls.from_json(data)

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_json(), fh, indent=1, sort_keys=True)
            fh.write("\n")
