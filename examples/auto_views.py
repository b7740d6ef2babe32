#!/usr/bin/env python
"""Automating view insertion (the paper's §6 future work).

The paper closes with: "The insertion of view primitives can be automated by
compiling techniques, which will be investigated in our future research."
This example shows the dynamic-analysis route:

1. run the *traditional* (lock/barrier) Integer Sort once on LRC_d with the
   oracle's access recorder installed (the ``sim.oracle`` hook);
2. infer a view plan from the recorded page-access signatures;
3. compare the inferred plan with the hand-written VOPP IS program — the
   tool rediscovers its structure: per-processor key views read through
   Rviews, a multi-writer histogram that must be split, per-processor rank
   views, and a rank-0-owned prefix broadcast.

Run:  python examples/auto_views.py
"""

from repro.apps import is_sort
from repro.core import TraditionalSystem
from repro.obs import AccessRecorder
from repro.tools import infer_views

NPROCS = 4


def main() -> None:
    config = is_sort.IsConfig(
        n_keys=4096, b_max=256, reps=3, bucket_views=4, work_factor=1.0
    )
    system = TraditionalSystem(NPROCS)
    body = is_sort.build(system, config)
    system.sim.oracle = history = AccessRecorder()
    system.run_program(body)

    plan = infer_views(history, system.dsm.space, NPROCS)
    print("Recorded the traditional IS run; inferred plan:")
    print()
    print(plan.report())
    print()
    print("Compare with the hand-written VOPP IS (repro/apps/is_sort.py):")
    print("  * keys      -> per-processor views, local-buffered via Rview (§3.1)")
    print("  * partial   -> the tool flags concurrent page writers: the VOPP")
    print("                 version replaces it with page-aligned bucket")
    print("                 sub-views updated under exclusive acquires (§3.6)")
    print("  * prefix    -> single writer (rank 0), read by all: Rview (§3.4)")
    print("  * ranks     -> per-processor page-aligned rank views")

    # sanity: the tool found both a broadcast pattern and a false-sharing one
    advices = " ".join(v.advice for v in plan.views)
    assert "§3.4" in advices
    assert "repartition" in advices


if __name__ == "__main__":
    main()
