"""Adversarial sampling: plan validity, determinism, shrink replay.

- every sampled episode and plan passes ``validate()``;
- a run with a fixed seed + budget is bit-reproducible (cache on, cache
  off, and cache-warm all agree);
- the shrunk winner replays into the same fitness class.
"""

import random

import pytest

from repro.apps.common import AppResult
from repro.faults import Episode, FaultPlan, RunFailure
from repro.faults.adversary import (
    GENERATED_KINDS,
    AdversaryLimits,
    Evaluator,
    Fitness,
    fitness_of,
    random_episode,
    random_plan,
    search,
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


def test_random_plans_are_valid_and_deterministic():
    rng_a, rng_b = random.Random(9), random.Random(9)
    plans_a = [random_plan(rng_a, LIMITS) for _ in range(50)]
    plans_b = [random_plan(rng_b, LIMITS) for _ in range(50)]
    for plan in plans_a:
        plan.validate()
        assert 1 <= len(plan.episodes) <= 3
    assert [p.canonical() for p in plans_a] == [p.canonical() for p in plans_b]
    assert len({p.seed for p in plans_a}) == len(plans_a)  # a fresh seed each


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

CELL = dict(app="is", protocol="lrc_d", nprocs=4, budget=5, seed=3)


@pytest.fixture(scope="module")
def small_search():
    return search(**CELL)


def test_search_finds_a_degrading_plan(small_search):
    r = small_search
    assert r.budget == CELL["budget"]
    assert r.best["class"] in ("slowdown", "abort", "consistency")
    assert r.best["magnitude"] > 1.0
    FaultPlan.from_json(r.best["plan"]).validate()


def test_search_keeps_the_worst_of_budget_random_plans(monkeypatch):
    """``budget`` distinct random plans are evaluated after the baseline, and
    the winner is the one with the highest fitness."""
    seen = []

    def evaluate(self, plan):
        seen.append(plan)
        return outcome(1.0 if plan is None else 1.0 + len(seen) % 4)

    monkeypatch.setattr(Evaluator, "evaluate", evaluate)
    r = search(**CELL, shrink=False)
    plans = seen[1:]
    assert seen[0] is None and len(plans) == CELL["budget"]
    assert len({p.canonical() for p in plans}) == len(plans)
    assert all(1 <= len(p.episodes) <= 3 for p in plans)
    slowdowns = [1.0 + (i + 2) % 4 for i in range(len(plans))]
    worst = plans[slowdowns.index(max(slowdowns))]
    assert r.best["plan"] == worst.to_json() and r.shrunk is None


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
    wrong = outcome(0.0, verdict="wrong-answer")
    monkeypatch.setattr(Evaluator, "evaluate", lambda self, plan: wrong)
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
    plan = random_plan(random.Random(1), LIMITS)
    result = ev.evaluate(plan)
    assert result.consistency["verdict"] == "wrong-answer"
    assert fitness_of(result, 2.0) == Fitness(2, 1.0)
    assert ev.evaluate(plan) is result and ev.evals == 1


def test_evaluator_memoises_by_canonical_plan():
    ev = Evaluator("is", "lrc_d", 4)
    plan = FaultPlan((Episode(kind="loss", drop_prob=0.02),), seed=5)
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
    cache = str(tmp_path / "cache")
    slow = FaultPlan((Episode(kind="loss", drop_prob=0.02),), seed=5)
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
