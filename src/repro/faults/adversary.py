"""Adversarial fault sampling: the worst of N random fault plans per cell.

The random-loss grid (``BENCH_faults.json``) sweeps one knob, the uniform
loss rate.  :func:`search` samples the whole episode space instead: ``budget``
seeded plans of one to three random episodes each (any kind but ``crash``,
random windows, targets and knobs), evaluates each against one
(app, protocol, nprocs) cell, keeps the worst, and delta-debugs it down to a
1-minimal plan (:mod:`repro.faults.shrink`).

Fitness is **dual**, compared lexicographically as ``(rank, magnitude)``:

``consistency`` (rank 2)
    The consistency oracle (:mod:`repro.obs.oracle`) reports findings on the
    run's access history, or the answer fails sequential verification.  An
    immediate jackpot — this is a protocol bug, not a slow cell.
``abort`` (rank 1)
    The run died (:class:`~repro.faults.failure.RunAborted`): retry budget
    exhausted or congestion collapse.  Magnitude grows the *earlier* the
    abort lands (baseline time / abort time).
``slowdown`` (rank 0)
    The run completed; magnitude is simulated time over the clean baseline.

``crash`` episodes are deliberately **excluded**: a fail-stop trivially maxes
the abort class.  The interesting plan degrades the protocol through traffic
it is supposed to absorb.

Every candidate is a :class:`~repro.bench.sweep.SweepCell` carrying its plan
and evaluates through :func:`~repro.bench.sweep.run_sweep` and its
content-addressed cache (the plan JSON is hashed into the cell's key), so
restarts and shrink passes recall instead of re-running.  All randomness
draws from one ``random.Random(seed)`` in a fixed order: the same seed and
budget give the same plans, cache on or off
(``tests/faults/test_adversary.py`` pins this).

An evolutionary search over the plan space stood here until, on a catalogue
of one-line bugs, it killed none that this sampler missed at equal budget;
see docs/robustness.md ("Mutant kill matrix").  Surfaced as
``python -m repro adversary``.
"""

from __future__ import annotations

import dataclasses
import math
import random
from dataclasses import dataclass
from typing import Callable, Optional

from repro.apps.common import AppResult
from repro.bench.sweep import SweepCell, run_sweep
from repro.faults.plan import Episode, FaultPlan

__all__ = [
    "AdversaryLimits",
    "Evaluator",
    "Fitness",
    "SearchResult",
    "fitness_of",
    "random_episode",
    "random_plan",
    "search",
]

# kinds the sampler may emit: everything except fail-stop
GENERATED_KINDS = (
    "loss",
    "degrade",
    "buffer",
    "duplicate",
    "reorder",
    "slowdown",
    "pause",
)


@dataclass(frozen=True)
class AdversaryLimits:
    """Caps on the sampled space: how hostile a candidate plan may get.

    ``horizon`` is the clean baseline's simulated time; episode windows are
    sampled inside ``[0, horizon)`` (an episode that outlives the clean run
    still bites a degraded one — infinite ends are allowed too).  The knob
    caps keep the sampler away from plans that trivially exhaust the
    transport's retry budget everywhere; with the default ``max_retries=20``
    a ``drop_prob`` at ``max_drop`` still completes essentially always.
    """

    horizon: float
    nprocs: int
    max_drop: float = 0.35
    max_dup: float = 0.5
    max_reorder: float = 0.5
    max_reorder_delay: float = 0.01
    max_latency: float = 0.01
    max_bandwidth: float = 8.0
    min_buffer: float = 0.25
    max_cpu: float = 8.0

    def knob_range(self, knob: str) -> tuple[float, float]:
        """(benign, hostile) endpoints for one knob."""
        return {
            "drop_prob": (0.0, self.max_drop),
            "dup_prob": (0.0, self.max_dup),
            "reorder_prob": (0.0, self.max_reorder),
            "reorder_delay": (0.0, self.max_reorder_delay),
            "latency_add": (0.0, self.max_latency),
            "bandwidth_factor": (1.0, self.max_bandwidth),
            "buffer_factor": (1.0, self.min_buffer),  # hostile end is *small*
            "cpu_factor": (1.0, self.max_cpu),
        }[knob]


# knobs each generated kind draws
_KIND_KNOBS = {
    "loss": ("drop_prob",),
    "degrade": ("latency_add", "bandwidth_factor"),
    "buffer": ("buffer_factor",),
    "duplicate": ("dup_prob",),
    "reorder": ("reorder_prob", "reorder_delay"),
    "slowdown": ("cpu_factor",),
    "pause": (),
}


def _window(rng: random.Random, limits: AdversaryLimits,
            finite: bool = False) -> tuple[float, float]:
    """Sample a window inside the horizon; infinite ends unless ``finite``."""
    start = round(rng.uniform(0.0, limits.horizon), 6)
    if not finite and rng.random() < 0.3:
        return start, math.inf
    duration = rng.uniform(limits.horizon / 20.0, limits.horizon)
    return start, round(start + max(duration, 1e-6), 6)


def _target(rng: random.Random, kind: str, limits: AdversaryLimits) -> dict:
    """Sample targeting fields legal for ``kind``."""
    n = limits.nprocs
    if kind in ("buffer", "slowdown", "pause"):
        # node-level kinds: whole-cluster or one victim
        return {} if rng.random() < 0.4 else {"node": rng.randrange(n)}
    roll = rng.random()
    if roll < 0.4:
        return {}  # everywhere
    if roll < 0.7:
        return {"node": rng.randrange(n)}
    src = rng.randrange(n)
    dst = rng.randrange(n - 1)
    return {"src": src, "dst": dst if dst < src else dst + 1}


def random_episode(rng: random.Random, limits: AdversaryLimits) -> Episode:
    """One fresh episode of a random (non-crash) kind, knobs mid-hostile."""
    kind = rng.choice(GENERATED_KINDS)
    start, end = _window(rng, limits, finite=(kind == "pause"))
    knobs = {}
    for knob in _KIND_KNOBS[kind]:
        benign, hostile = limits.knob_range(knob)
        knobs[knob] = round(benign + (hostile - benign) * rng.uniform(0.2, 0.8), 6)
    return Episode(kind=kind, start=start, end=end,
                   **_target(rng, kind, limits), **knobs)


# -- fitness ----------------------------------------------------------------------


@dataclass(frozen=True, order=True)
class Fitness:
    """Lexicographic fitness: class rank first, magnitude second."""

    rank: int  # 2 = consistency finding (jackpot), 1 = abort, 0 = completed
    magnitude: float

    @property
    def cls(self) -> str:
        return ("slowdown", "abort", "consistency")[self.rank]


def fitness_of(result: AppResult, baseline_time: float) -> Fitness:
    """Fitness of one checked cell result (``result.consistency`` is set)."""
    findings = len(result.consistency["findings"])
    if findings or result.consistency["verdict"] == "wrong-answer":
        return Fitness(2, float(max(findings, 1)))
    if result.failure is not None:
        return Fitness(1, round(baseline_time / max(result.time, 1e-9), 4))
    return Fitness(0, round(result.time / baseline_time, 4))


def _outcome_summary(plan: FaultPlan, result: AppResult,
                     baseline_time: float) -> dict:
    f = fitness_of(result, baseline_time)
    net = result.net  # None when the run aborted
    return {
        "plan": plan.to_json(),
        "episodes": len(plan.episodes),
        "class": f.cls,
        "magnitude": f.magnitude,
        "sim_time": round(result.time, 6),
        "slowdown": (
            round(result.time / baseline_time, 4) if result.failure is None else None
        ),
        "rexmit": net.rexmit if net is not None else 0,
        "drops": net.drops if net is not None else 0,
        "findings": len(result.consistency["findings"]),
        "verdict": result.consistency["verdict"],
        **({"failure": result.failure.to_json()}
           if result.failure is not None else {}),
    }


# -- evaluation through the sweep cache -------------------------------------------


class Evaluator:
    """Runs candidate plans against one (app, protocol, nprocs) cell.

    A candidate is that cell with the plan in it, submitted to
    :func:`repro.bench.sweep.run_sweep` with the oracle on: the run records
    its access history and replays it under the consistency oracle — the
    jackpot signal — and verifies the answer against the sequential
    reference.  This class is the in-process memo (by the plan's canonical
    JSON) in front of that; with ``cache_dir`` set the sweep's
    content-addressed cache persists every result keyed by the plan itself,
    so a restarted or re-seeded search re-runs nothing it has already tried.
    """

    def __init__(self, app: str, protocol: str, nprocs: int,
                 cache_dir: Optional[str] = None, variant: str = "default"):
        self.cell = SweepCell(app=app, protocol=protocol, nprocs=nprocs,
                              variant=variant)
        self.cache_dir = cache_dir
        self.evals = 0  # cold evaluations actually simulated
        self._memo: dict[Optional[str], AppResult] = {}

    def evaluate(self, plan: Optional[FaultPlan]) -> AppResult:
        memo_key = plan.canonical() if plan is not None else None
        hit = self._memo.get(memo_key)
        if hit is not None:
            return hit
        cell = dataclasses.replace(self.cell, faults=plan)
        cold = True
        try:
            (done,) = run_sweep([cell], cache_dir=self.cache_dir, check=True).cells
            result, cold = done.result, not done.cache_hit
        except AssertionError:
            # the run finished but the answer is wrong: a protocol bug the
            # verifier caught before the oracle did — jackpot class
            result = AppResult(
                cell.protocol, cell.nprocs, None, None, 0.0,
                consistency={"verdict": "wrong-answer", "findings": []},
            )
        self._memo[memo_key] = result
        self.evals += cold
        return result


# -- the sampler ------------------------------------------------------------------


def random_plan(rng: random.Random, limits: AdversaryLimits) -> FaultPlan:
    """One to three random episodes under a fresh fault-RNG seed."""
    episodes = tuple(random_episode(rng, limits) for _ in range(rng.randint(1, 3)))
    return FaultPlan(episodes, seed=rng.randrange(2**31))


@dataclass
class SearchResult:
    """Everything one sampling run produced (JSON-stable: no host clocks, so
    a fixed seed+budget reproduces this bit-for-bit)."""

    app: str
    protocol: str
    nprocs: int
    seed: int
    budget: int
    baseline_time: float
    shrink_evals: int
    best: dict
    shrunk: Optional[dict]

    def to_json(self) -> dict:
        return {
            "app": self.app,
            "protocol": self.protocol,
            "nprocs": self.nprocs,
            "seed": self.seed,
            "budget": self.budget,
            "baseline_time": round(self.baseline_time, 6),
            "shrink_evals": self.shrink_evals,
            "best": self.best,
            "shrunk": self.shrunk,
        }


def search(
    app: str = "is",
    protocol: str = "vc_d",
    nprocs: int = 8,
    budget: int = 24,
    seed: int = 11,
    cache_dir: Optional[str] = None,
    limits: Optional[AdversaryLimits] = None,
    shrink: bool = True,
    shrink_keep_frac: float = 0.9,
    variant: str = "default",
    log: Optional[Callable[[str], None]] = None,
) -> SearchResult:
    """Evaluate ``budget`` random plans against one (app, protocol, nprocs)
    cell and keep the worst under the dual fitness (the clean baseline and
    the shrink phase are extra runs).  With ``shrink`` the winner passes
    through the delta-debugging shrinker (:mod:`repro.faults.shrink`): the
    smallest episode subset still in the winner's fitness class at
    ``shrink_keep_frac`` of its magnitude.
    """
    say = log or (lambda _msg: None)
    rng = random.Random(seed)
    evaluator = Evaluator(app, protocol, nprocs, cache_dir=cache_dir,
                          variant=variant)
    baseline = evaluator.evaluate(None)
    if fitness_of(baseline, 1.0).rank:  # aborted, inconsistent or wrong
        raise RuntimeError(
            f"clean baseline run of {app}/{protocol}/{nprocs}p is not clean: "
            f"{baseline.failure or baseline.consistency!r}"
        )
    base_t = baseline.time
    limits = limits or AdversaryLimits(horizon=base_t, nprocs=nprocs)
    say(f"baseline {app}/{protocol}/{nprocs}p: {base_t:.3f} simulated s")

    best: Optional[tuple[Fitness, FaultPlan, AppResult]] = None
    for i in range(1, max(1, budget) + 1):
        plan = random_plan(rng, limits)
        outcome = evaluator.evaluate(plan)
        f = fitness_of(outcome, base_t)
        if best is None or f > best[0]:
            best = (f, plan, outcome)
            say(f"  plan {i}: new worst {f.cls} {f.magnitude}")
    winner_f, winner_plan, winner_out = best

    shrunk_summary: Optional[dict] = None
    shrink_evals = 0
    if shrink:
        from repro.faults.shrink import shrink_plan

        before = len(evaluator._memo)

        def keep(candidate: FaultPlan) -> bool:
            f = fitness_of(evaluator.evaluate(candidate), base_t)
            return (f.rank == winner_f.rank
                    and f.magnitude >= shrink_keep_frac * winner_f.magnitude)

        small = shrink_plan(winner_plan, keep)
        shrink_evals = len(evaluator._memo) - before
        small_out = evaluator.evaluate(small)
        shrunk_summary = _outcome_summary(small, small_out, base_t)
        say(
            f"  shrunk {len(winner_plan.episodes)} -> {len(small.episodes)} "
            f"episode(s), class {fitness_of(small_out, base_t).cls}"
        )

    return SearchResult(
        app=app, protocol=protocol, nprocs=nprocs, seed=seed, budget=budget,
        baseline_time=base_t, shrink_evals=shrink_evals,
        best=_outcome_summary(winner_plan, winner_out, base_t),
        shrunk=shrunk_summary,
    )
