"""Adversarial fault search: find the worst-case ``FaultPlan`` per protocol.

PR 5's random-loss grid (``BENCH_faults.json``) samples the fault space
uniformly; this module *searches* it.  A seeded, deterministic engine —
greedy hill-climb folded into a small (mu+lambda) evolutionary population —
walks the :class:`~repro.faults.plan.Episode` schedule space through typed
mutation/crossover operators (shift/widen windows, retarget links, escalate
knobs, splice episodes across kinds) looking for the plan that degrades a
given (app, protocol, nprocs) cell the most.

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

``crash`` episodes are deliberately **excluded** from the operator space: a
fail-stop trivially maxes the abort class and would collapse the search onto
a boring denial-of-service.  The interesting adversary degrades the protocol
through traffic it is supposed to absorb.

Every candidate is a :class:`~repro.bench.sweep.SweepCell` carrying its plan
and evaluates through :func:`~repro.bench.sweep.run_sweep` and its
content-addressed cache (the plan JSON is hashed into the cell's key), so
restarts, shrink passes and population duplicates are free.  All
randomness draws from one ``random.Random(seed)`` consumed in a fixed order:
a search with the same seed + budget is bit-reproducible, cache on or off
(``tests/faults/test_adversary.py`` pins this).

Surfaced as ``python -m repro adversary`` and, grid-wise, as
:mod:`repro.bench.adversarial` (the committed ``BENCH_adversarial.json``).
See docs/robustness.md ("Adversarial search").
"""

from __future__ import annotations

import dataclasses
import math
import random
from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.apps.common import AppResult
from repro.bench.sweep import SweepCell, run_sweep
from repro.faults.plan import Episode, FaultPlan

__all__ = [
    "AdversaryLimits",
    "Evaluator",
    "Fitness",
    "MUTATIONS",
    "SearchResult",
    "crossover",
    "fitness_of",
    "random_episode",
    "search",
    "seed_plans",
]

# kinds the generator/mutators may emit: everything except fail-stop
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
    """Caps on the operator space: how hostile a candidate plan may get.

    ``horizon`` is the clean baseline's simulated time; episode windows are
    sampled inside ``[0, horizon)`` (an episode that outlives the clean run
    still bites a degraded one — infinite ends are allowed too).  The knob
    caps keep the search away from plans that trivially exhaust the
    transport's retry budget everywhere; with the default ``max_retries=20``
    a ``drop_prob`` at ``max_drop`` still completes essentially always, so
    the adversary must *schedule* hostility to win, not just crank it.
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


# knobs each generated kind exposes to escalate/soften
_KIND_KNOBS = {
    "loss": ("drop_prob",),
    "degrade": ("latency_add", "bandwidth_factor"),
    "buffer": ("buffer_factor",),
    "duplicate": ("dup_prob",),
    "reorder": ("reorder_prob", "reorder_delay"),
    "slowdown": ("cpu_factor",),
    "pause": (),
}


def _clamp(v: float, lo: float, hi: float) -> float:
    return max(lo, min(hi, v))


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


# -- mutation operators -----------------------------------------------------------
#
# Every operator maps (rng, plan, limits) -> a new plan that passes
# ``validate()`` (property-tested).  Operators on an empty plan fall back to
# adding an episode so the search can always move.


def _pick(rng: random.Random, plan: FaultPlan) -> int:
    return rng.randrange(len(plan.episodes))


def mutate_shift_window(rng: random.Random, plan: FaultPlan,
                        limits: AdversaryLimits) -> FaultPlan:
    """Slide one episode's window in time (duration preserved)."""
    if not plan.episodes:
        return mutate_add_episode(rng, plan, limits)
    i = _pick(rng, plan)
    ep = plan.episodes[i]
    delta = rng.uniform(-limits.horizon / 4.0, limits.horizon / 4.0)
    start = round(max(0.0, ep.start + delta), 6)
    end = ep.end if math.isinf(ep.end) else round(start + (ep.end - ep.start), 6)
    return plan.replaced(i, ep.replace(start=start, end=end))


def mutate_widen_window(rng: random.Random, plan: FaultPlan,
                        limits: AdversaryLimits) -> FaultPlan:
    """Stretch or shrink one episode's window about its start."""
    if not plan.episodes:
        return mutate_add_episode(rng, plan, limits)
    i = _pick(rng, plan)
    ep = plan.episodes[i]
    if math.isinf(ep.end):
        # give an open-ended episode a finite window (or leave it alone)
        duration = rng.uniform(limits.horizon / 10.0, limits.horizon)
        return plan.replaced(i, ep.replace(end=round(ep.start + duration, 6)))
    duration = (ep.end - ep.start) * rng.uniform(0.5, 2.0)
    return plan.replaced(
        i, ep.replace(end=round(ep.start + max(duration, 1e-6), 6))
    )


def mutate_retarget(rng: random.Random, plan: FaultPlan,
                    limits: AdversaryLimits) -> FaultPlan:
    """Point one episode at a different link / node / the whole cluster."""
    if not plan.episodes:
        return mutate_add_episode(rng, plan, limits)
    i = _pick(rng, plan)
    ep = plan.episodes[i]
    cleared = ep.replace(node=None, src=None, dst=None)
    return plan.replaced(
        i, cleared.replace(**_target(rng, ep.kind, limits))
    )


def _scale_knob(rng: random.Random, ep: Episode, limits: AdversaryLimits,
                toward_hostile: bool) -> Episode:
    knobs = _KIND_KNOBS[ep.kind]
    if not knobs:
        return ep
    knob = rng.choice(knobs)
    benign, hostile = limits.knob_range(knob)
    value = getattr(ep, knob)
    # walk a fraction of the remaining distance toward the chosen end
    target = hostile if toward_hostile else benign
    step = rng.uniform(0.3, 0.9)
    new = value + (target - value) * step
    lo, hi = (benign, hostile) if benign <= hostile else (hostile, benign)
    return ep.replace(**{knob: round(_clamp(new, lo, hi), 6)})


def mutate_escalate(rng: random.Random, plan: FaultPlan,
                    limits: AdversaryLimits) -> FaultPlan:
    """Push one episode's knob toward its hostile cap."""
    if not plan.episodes:
        return mutate_add_episode(rng, plan, limits)
    i = _pick(rng, plan)
    return plan.replaced(i, _scale_knob(rng, plan.episodes[i], limits, True))


def mutate_soften(rng: random.Random, plan: FaultPlan,
                  limits: AdversaryLimits) -> FaultPlan:
    """Relax one episode's knob toward benign (escape over-hostile plateaus:
    a plan can be *too* hostile — aborting early caps its slowdown)."""
    if not plan.episodes:
        return mutate_add_episode(rng, plan, limits)
    i = _pick(rng, plan)
    return plan.replaced(i, _scale_knob(rng, plan.episodes[i], limits, False))


def mutate_add_episode(rng: random.Random, plan: FaultPlan,
                       limits: AdversaryLimits) -> FaultPlan:
    return plan.extended(random_episode(rng, limits))


def mutate_drop_episode(rng: random.Random, plan: FaultPlan,
                        limits: AdversaryLimits) -> FaultPlan:
    if not plan.episodes:
        return mutate_add_episode(rng, plan, limits)
    return plan.without(_pick(rng, plan))


def mutate_reseed(rng: random.Random, plan: FaultPlan,
                  limits: AdversaryLimits) -> FaultPlan:
    """Same schedule, different fault-RNG stream."""
    return plan.reseeded(rng.randrange(2**31))


# (operator, selection weight): escalation and structural growth dominate
MUTATIONS: tuple[tuple[Callable, int], ...] = (
    (mutate_escalate, 3),
    (mutate_add_episode, 2),
    (mutate_shift_window, 2),
    (mutate_widen_window, 2),
    (mutate_retarget, 2),
    (mutate_soften, 1),
    (mutate_drop_episode, 1),
    (mutate_reseed, 1),
)


def crossover(rng: random.Random, a: FaultPlan, b: FaultPlan) -> FaultPlan:
    """Splice two plans: each parent contributes a random episode subset
    (at least one episode survives when either parent has any)."""
    keep_a = [ep for ep in a.episodes if rng.random() < 0.5]
    keep_b = [ep for ep in b.episodes if rng.random() < 0.5]
    episodes = tuple(keep_a + keep_b)
    if not episodes and (a.episodes or b.episodes):
        pool = a.episodes + b.episodes
        episodes = (pool[rng.randrange(len(pool))],)
    return FaultPlan(episodes, seed=a.seed)


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


# -- seed plans -------------------------------------------------------------------


def seed_plans(rng: random.Random, limits: AdversaryLimits,
               population: int) -> list[FaultPlan]:
    """Deterministic starting population: hand-rolled archetypes first
    (uniform loss at the random-grid's worst rate, heavy windowed loss, a
    degraded link, duplicate+reorder chaos, compute skew), then random
    plans to fill ``population``."""
    mk_seed = lambda: rng.randrange(2**31)  # noqa: E731
    plans = [
        # the random-loss grid's worst cell, as a floor to improve on
        FaultPlan((Episode(kind="loss", drop_prob=0.02),), seed=mk_seed()),
        FaultPlan((Episode(kind="loss", drop_prob=limits.max_drop / 2.0),),
                  seed=mk_seed()),
        FaultPlan(
            (Episode(kind="loss", drop_prob=limits.max_drop,
                     start=0.0, end=round(limits.horizon / 3.0, 6)),),
            seed=mk_seed(),
        ),
        FaultPlan(
            (
                Episode(kind="degrade", latency_add=limits.max_latency / 2.0),
                Episode(kind="degrade", node=0,
                        bandwidth_factor=limits.max_bandwidth / 2.0),
            ),
            seed=mk_seed(),
        ),
        FaultPlan(
            (
                Episode(kind="duplicate", dup_prob=limits.max_dup / 2.0),
                Episode(kind="reorder", reorder_prob=limits.max_reorder / 2.0,
                        reorder_delay=limits.max_reorder_delay / 2.0),
            ),
            seed=mk_seed(),
        ),
        FaultPlan(
            (
                Episode(kind="slowdown", node=0, cpu_factor=limits.max_cpu / 2.0),
                Episode(kind="buffer", node=1 % limits.nprocs,
                        buffer_factor=max(limits.min_buffer, 0.5)),
            ),
            seed=mk_seed(),
        ),
    ]
    while len(plans) < population:
        plans.append(FaultPlan((random_episode(rng, limits),), seed=mk_seed()))
    return plans[:max(population, 1)]


# -- the search -------------------------------------------------------------------


@dataclass
class SearchResult:
    """Everything one adversarial search produced (JSON-stable: no host
    clocks, so a fixed seed+budget reproduces this bit-for-bit)."""

    app: str
    protocol: str
    nprocs: int
    seed: int
    budget: int
    baseline_time: float
    evals: int  # distinct candidate plans evaluated during search
    shrink_evals: int
    best: dict
    best_completed: Optional[dict]
    shrunk: Optional[dict]
    trajectory: list = field(default_factory=list)
    operator_counts: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        return {
            "app": self.app,
            "protocol": self.protocol,
            "nprocs": self.nprocs,
            "seed": self.seed,
            "budget": self.budget,
            "baseline_time": round(self.baseline_time, 6),
            "evals": self.evals,
            "shrink_evals": self.shrink_evals,
            "best": self.best,
            "best_completed": self.best_completed,
            "shrunk": self.shrunk,
            "trajectory": self.trajectory,
            "operator_counts": dict(sorted(self.operator_counts.items())),
        }


def search(
    app: str = "is",
    protocol: str = "vc_d",
    nprocs: int = 8,
    budget: int = 24,
    seed: int = 11,
    population: int = 6,
    cache_dir: Optional[str] = None,
    limits: Optional[AdversaryLimits] = None,
    shrink: bool = True,
    shrink_keep_frac: float = 0.9,
    variant: str = "default",
    log: Optional[Callable[[str], None]] = None,
) -> SearchResult:
    """Run the adversarial search for one (app, protocol, nprocs) cell.

    ``budget`` counts *distinct* candidate plans evaluated (the clean
    baseline and the shrink phase are extra); duplicates produced by
    mutation are free.  The result's ``best`` is the winner under the dual
    fitness; ``best_completed`` separately tracks the highest-slowdown
    candidate that finished — the figure compared against the random-loss
    grid.  With ``shrink`` the winner passes through the delta-debugging
    shrinker (:mod:`repro.faults.shrink`): the smallest episode subset
    still in the winner's fitness class at ``shrink_keep_frac`` of its
    magnitude.
    """
    say = log or (lambda _msg: None)
    budget = max(1, budget)
    rng = random.Random(seed)
    evaluator = Evaluator(app, protocol, nprocs, cache_dir=cache_dir,
                          variant=variant)
    baseline = evaluator.evaluate(None)
    if baseline.failure is not None or baseline.consistency["findings"]:
        raise RuntimeError(
            f"clean baseline run of {app}/{protocol}/{nprocs}p is not clean: "
            f"{baseline.failure or baseline.consistency['findings']!r}"
        )
    base_t = baseline.time
    limits = limits or AdversaryLimits(horizon=base_t, nprocs=nprocs)
    say(f"baseline {app}/{protocol}/{nprocs}p: {base_t:.3f} simulated s")

    scored: list[tuple[Fitness, FaultPlan, AppResult]] = []
    seen: set[str] = set()
    trajectory: list[dict] = []
    operator_counts: dict[str, int] = {}
    counted = 0
    best: Optional[tuple[Fitness, FaultPlan, AppResult]] = None
    best_completed: Optional[tuple[Fitness, FaultPlan, AppResult]] = None

    def consider(plan: FaultPlan) -> bool:
        """Evaluate one candidate if novel; returns True if budget consumed."""
        nonlocal counted, best, best_completed
        key = plan.canonical()
        if key in seen:
            return False
        seen.add(key)
        outcome = evaluator.evaluate(plan)
        counted += 1
        f = fitness_of(outcome, base_t)
        scored.append((f, plan, outcome))
        scored.sort(key=lambda it: it[0], reverse=True)
        del scored[population:]
        if best is None or f > best[0]:
            best = (f, plan, outcome)
            trajectory.append(
                {"eval": counted, "class": f.cls, "magnitude": f.magnitude}
            )
            say(f"  eval {counted}: new best {f.cls} {f.magnitude}")
        if f.rank == 0 and (best_completed is None or f > best_completed[0]):
            best_completed = (f, plan, outcome)
        return True

    for plan in seed_plans(rng, limits, population):
        if counted >= budget:
            break
        consider(plan)

    ops = [op for op, _w in MUTATIONS]
    weights = [w for _op, w in MUTATIONS]
    attempts = 0
    while counted < budget and attempts < budget * 20:
        attempts += 1
        # rank-biased parent choice: quadratic pull toward the front
        parent = scored[int(rng.random() ** 2 * len(scored))][1]
        if len(scored) >= 2 and rng.random() < 0.25:
            other = scored[int(rng.random() ** 2 * len(scored))][1]
            child = crossover(rng, parent, other)
            name = "crossover"
        else:
            op = rng.choices(ops, weights=weights, k=1)[0]
            child = op(rng, parent, limits)
            name = op.__name__
        child.validate()  # operators must emit clean plans — fail loudly
        if consider(child):
            operator_counts[name] = operator_counts.get(name, 0) + 1

    assert best is not None
    winner_f, winner_plan, winner_out = best

    shrunk_summary: Optional[dict] = None
    shrink_evals = 0
    if shrink:
        from repro.faults.shrink import shrink_plan

        before = len(evaluator._memo)

        def keep(candidate: FaultPlan) -> bool:
            out = evaluator.evaluate(candidate)
            f = fitness_of(out, base_t)
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
        baseline_time=base_t,
        evals=counted, shrink_evals=shrink_evals,
        best=_outcome_summary(winner_plan, winner_out, base_t),
        best_completed=(
            _outcome_summary(best_completed[1], best_completed[2], base_t)
            if best_completed is not None else None
        ),
        shrunk=shrunk_summary,
        trajectory=trajectory,
        operator_counts=operator_counts,
    )
