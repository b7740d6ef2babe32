"""Adversarial search: operator safety, determinism, shrink replay.

The ISSUE's property tests live here:

- every mutation/crossover operator emits plans that pass ``validate()``;
- a search with a fixed seed + budget is bit-reproducible (cache on, cache
  off, and cache-warm all agree);
- the shrunk winner replays into the same fitness class.
"""

import random

import pytest

from repro.apps.common import AppResult
from repro.faults import FaultPlan, RunFailure
from repro.faults.adversary import (
    GENERATED_KINDS,
    MUTATIONS,
    AdversaryLimits,
    Evaluator,
    Fitness,
    crossover,
    fitness_of,
    random_episode,
    search,
    seed_plans,
)

LIMITS = AdversaryLimits(horizon=4.0, nprocs=8)


def outcome(sim_time, completed=True, findings=0, verdict="clean"):
    """A checked cell result as the sweep's runner hands it to the adversary:
    an abort is a ``failure`` on the result, the oracle's report its
    ``consistency``."""
    failure = None if completed else RunFailure("retry-exhausted", "gave up", sim_time)
    return AppResult(
        "lrc_d", 4, None, None, sim_time, failure=failure,
        consistency={"verdict": verdict, "findings": [{}] * findings},
    )


# -- operator properties ----------------------------------------------------------


def test_generated_kinds_exclude_crash():
    assert "crash" not in GENERATED_KINDS


def test_random_episode_always_validates():
    rng = random.Random(1)
    for _ in range(300):
        ep = random_episode(rng, LIMITS)
        ep.validate()
        assert ep.kind in GENERATED_KINDS


@pytest.mark.parametrize("op", [op for op, _w in MUTATIONS],
                         ids=[op.__name__ for op, _w in MUTATIONS])
def test_mutation_operators_emit_valid_plans(op):
    rng = random.Random(7)
    plan = FaultPlan(seed=0)
    for _ in range(200):
        plan = op(rng, plan, LIMITS)
        plan.validate()
        assert all(ep.kind in GENERATED_KINDS for ep in plan.episodes)


def test_mutation_operators_move_from_empty_plan():
    # every operator must make progress even on an episode-free plan
    for op, _w in MUTATIONS:
        rng = random.Random(3)
        mutated = op(rng, FaultPlan(seed=0), LIMITS)
        mutated.validate()


def test_crossover_emits_valid_nonempty_plans():
    rng = random.Random(11)
    for _ in range(200):
        a = FaultPlan(tuple(random_episode(rng, LIMITS)
                            for _ in range(rng.randrange(1, 4))), seed=1)
        b = FaultPlan(tuple(random_episode(rng, LIMITS)
                            for _ in range(rng.randrange(1, 4))), seed=2)
        child = crossover(rng, a, b)
        child.validate()
        assert child.episodes  # at least one parent episode survives


def test_seed_plans_are_valid_and_deterministic():
    plans_a = seed_plans(random.Random(9), LIMITS, population=8)
    plans_b = seed_plans(random.Random(9), LIMITS, population=8)
    assert len(plans_a) == 8
    for plan in plans_a:
        plan.validate()
    assert [p.canonical() for p in plans_a] == [p.canonical() for p in plans_b]


# -- fitness ordering -------------------------------------------------------------


def test_fitness_lexicographic_order():
    slow = Fitness(0, 100.0)
    abort = Fitness(1, 1.5)
    jackpot = Fitness(2, 1.0)
    assert jackpot > abort > slow
    assert Fitness(0, 2.0) > Fitness(0, 1.0)
    assert (slow.cls, abort.cls, jackpot.cls) == (
        "slowdown", "abort", "consistency")


def test_fitness_of_classes():
    base = 2.0
    assert fitness_of(outcome(8.0), base) == Fitness(0, 4.0)
    assert fitness_of(outcome(1.0, completed=False), base) == Fitness(1, 2.0)
    assert fitness_of(
        outcome(8.0, findings=3, verdict="violations"), base) == Fitness(2, 3.0)
    # findings on an aborted run's partial history outrank the abort
    assert fitness_of(
        outcome(1.0, completed=False, findings=1, verdict="violations"),
        base) == Fitness(2, 1.0)
    # a wrong answer is a jackpot even with zero oracle findings
    assert fitness_of(
        outcome(0.0, verdict="wrong-answer"), base) == Fitness(2, 1.0)


# -- the search itself (small real cell) ------------------------------------------

CELL = dict(app="is", protocol="lrc_d", nprocs=4, budget=5, seed=3,
            population=4)


@pytest.fixture(scope="module")
def small_search():
    return search(**CELL)


def test_search_finds_a_degrading_plan(small_search):
    r = small_search
    assert r.evals == CELL["budget"]
    assert r.best["class"] in ("slowdown", "abort", "consistency")
    assert r.best["magnitude"] > 1.0
    assert r.best_completed is not None
    assert r.best_completed["slowdown"] > 1.0
    assert r.trajectory and r.trajectory[0]["eval"] >= 1
    FaultPlan.from_json(r.best["plan"]).validate()


def test_search_bit_reproducible_without_cache(small_search):
    again = search(**CELL)
    assert again.to_json() == small_search.to_json()


def test_search_bit_reproducible_with_cache(small_search, tmp_path):
    cache = str(tmp_path / "cache")
    cold = search(**CELL, cache_dir=cache)
    warm = search(**CELL, cache_dir=cache)
    assert cold.to_json() == small_search.to_json()
    assert warm.to_json() == small_search.to_json()


def test_shrunk_plan_replays_to_same_fitness_class(small_search):
    r = small_search
    assert r.shrunk is not None
    plan = FaultPlan.from_json(r.shrunk["plan"])
    plan.validate()
    assert len(plan.episodes) <= r.best["episodes"]
    ev = Evaluator(CELL["app"], CELL["protocol"], CELL["nprocs"])
    fit = fitness_of(ev.evaluate(plan), r.baseline_time)
    assert fit.cls == r.best["class"]
    assert fit.magnitude >= 0.9 * r.best["magnitude"]


def test_search_rejects_unclean_baseline(monkeypatch):
    bad = outcome(1.0, completed=False)
    monkeypatch.setattr(Evaluator, "evaluate", lambda self, plan: bad)
    with pytest.raises(RuntimeError, match="not clean"):
        search(**CELL)
    dirty = outcome(1.0, findings=2, verdict="violations")
    monkeypatch.setattr(Evaluator, "evaluate", lambda self, plan: dirty)
    with pytest.raises(RuntimeError, match="not clean"):
        search(**CELL)


def test_wrong_answer_under_faults_is_the_jackpot_class(monkeypatch):
    """``run_app`` raises ``AssertionError`` on a wrong answer; the evaluator
    turns it into the rank-2 outcome instead of dying (and memoises it)."""
    from repro.faults import adversary

    def wrong(cells, **kw):
        raise AssertionError("is_sort on lrc_d/4p produced wrong output")

    monkeypatch.setattr(adversary, "run_sweep", wrong)
    ev = Evaluator("is", "lrc_d", 4)
    plan = seed_plans(random.Random(1), LIMITS, 1)[0]
    result = ev.evaluate(plan)
    assert result.consistency["verdict"] == "wrong-answer"
    assert fitness_of(result, 2.0) == Fitness(2, 1.0)
    assert ev.evaluate(plan) is result and ev.evals == 1


def test_evaluator_memoises_by_canonical_plan():
    ev = Evaluator("is", "lrc_d", 4)
    plan = seed_plans(random.Random(1), LIMITS, 1)[0]
    first = ev.evaluate(plan)
    assert ev.evals == 1
    # structurally identical plan (new object): memo hit, no new run
    clone = FaultPlan.from_json(plan.to_json())
    assert ev.evaluate(clone) is first
    assert ev.evals == 1


def test_evaluator_counts_cold_simulations_only(tmp_path):
    """A fresh evaluator over a warm disk cache re-runs nothing: ``evals``
    stays 0 and the recalled outcome equals the simulated one (an aborted
    candidate included)."""
    from repro.faults import Episode

    cache = str(tmp_path / "cache")
    slow = seed_plans(random.Random(1), LIMITS, 1)[0]
    blackout = FaultPlan((Episode(kind="loss", drop_prob=1.0),), seed=3)
    cold = Evaluator("is", "lrc_d", 2, cache_dir=cache)
    first = [cold.evaluate(p) for p in (None, slow, blackout)]
    assert cold.evals == 3
    assert first[2].failure.reason == "retry-exhausted"
    warm = Evaluator("is", "lrc_d", 2, cache_dir=cache)
    again = [warm.evaluate(p) for p in (None, slow, blackout)]
    assert warm.evals == 0
    base = first[0].time
    assert [fitness_of(r, base) for r in again] == [fitness_of(r, base) for r in first]
    assert again[2].failure == first[2].failure
