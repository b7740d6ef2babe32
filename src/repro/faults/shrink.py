"""Delta-debugging shrinker for fault plans (ddmin over episodes).

A worst-case random plan usually carries freeloaders — episodes drawn
beside the one that hurts, contributing nothing to the degradation.
:func:`shrink_plan` minimises the episode set with Zeller's ddmin:
repeatedly try subsets and complements at doubling granularity, keeping
any candidate the caller's ``keep`` predicate accepts, until the plan is
**1-minimal** — removing any single remaining episode breaks the
predicate.

``keep`` is the fitness-class oracle: the adversary passes a closure that
re-evaluates the candidate (through the content-addressed sweep cache, so
shrinking is mostly cache maths) and accepts it iff it lands in the same
fitness class as the unshrunk winner at a guarded fraction of its
magnitude.  The shrinker itself is deterministic and draws no randomness.
"""

from __future__ import annotations

from typing import Callable, Sequence, TypeVar

from repro.faults.plan import FaultPlan

__all__ = ["ddmin", "shrink_plan"]

T = TypeVar("T")


def ddmin(items: Sequence[T], keep: Callable[[tuple], bool]) -> tuple:
    """Minimise ``items`` to a 1-minimal subsequence still satisfying ``keep``.

    ``keep(tuple_of_items) -> bool`` must accept the full input (the caller
    established that — it is not re-tested here).  Relative order is
    preserved; the empty tuple is never proposed.
    """
    current = tuple(items)
    n = 2  # granularity: number of chunks current is split into
    while len(current) >= 2:
        size = len(current) / n
        chunks = [
            current[round(i * size):round((i + 1) * size)] for i in range(n)
        ]
        chunks = [c for c in chunks if c]
        reduced = False
        # pass 1: does any single chunk suffice?
        for chunk in chunks:
            if len(chunk) < len(current) and keep(chunk):
                current = chunk
                n = 2
                reduced = True
                break
        if reduced:
            continue
        # pass 2: can any chunk be thrown away?
        if n > 2 or len(chunks) > 2:
            for i in range(len(chunks)):
                complement = tuple(
                    item for j, chunk in enumerate(chunks) if j != i
                    for item in chunk
                )
                if 0 < len(complement) < len(current) and keep(complement):
                    current = complement
                    n = max(n - 1, 2)
                    reduced = True
                    break
        if reduced:
            continue
        if n >= len(current):
            break  # single-item granularity and nothing removable: 1-minimal
        n = min(n * 2, len(current))
    return current


def shrink_plan(plan: FaultPlan, keep: Callable[[FaultPlan], bool]) -> FaultPlan:
    """Minimise ``plan``'s episode set; ``keep`` judges candidate plans.

    Returns a plan with the same seed whose episodes are a 1-minimal
    subsequence of the winner's.  If the winner has no episodes (or one),
    it is already minimal and comes back unchanged.
    """
    if len(plan.episodes) <= 1:
        return plan
    episodes = ddmin(
        plan.episodes,
        lambda subset: keep(FaultPlan(tuple(subset), seed=plan.seed)),
    )
    return FaultPlan(tuple(episodes), seed=plan.seed)
