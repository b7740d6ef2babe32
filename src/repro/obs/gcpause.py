"""One pause of the cycle collector, for a run and for every whole-trace pass.

:func:`gc_paused` is the only place in ``repro`` that disables the
collector.  ``run_app`` holds it over its whole body, and so does every pass
that walks a finished trace to completion (``Metrics.fold``,
``compute_breakdown``, ``check_history``, ``compute_critical_path``,
``write_chrome_trace``).  A generator never holds it: a pause taken inside a
generator would stay in force in its consumer between yields.
"""

from __future__ import annotations

import gc
from contextlib import contextmanager

__all__ = ["gc_paused"]


@contextmanager
def gc_paused():
    """Pause the cycle collector; put it back as it was found on every way out.

    Usable as ``with gc_paused():`` or as the decorator ``@gc_paused()``.
    Nested pauses are free: an inner one finds the collector off and leaves
    it off.

    Why: a run's heap is acyclic and only grows (seen-sets up to the
    duplicate horizon, diff stores, trace rows), so generational collections
    re-walk it again and again and free nothing.  On IS/16 under VC_d, 751
    collections cost 0.6 s of 3.3 s of a run and reclaimed no object.  The
    passes over a finished trace allocate the same way, on top of that heap:
    on IS/8 under VC_d with tracer, metrics and access recorder on, 144,383
    tracked objects are live after the run (86,481 of them trace rows), and
    the collector walked all of them three times per repetition — a gen-0
    collection in the run's tail (0.043–0.059 s), a gen-1 inside the
    breakdown (0.049–0.057 s) and a full collection inside the critical
    path (0.087–0.106 s) — while a full collection right after each pass
    finds 0 unreachable objects.  With the run and every pass paused, a
    repetition runs 4 gen-0 collections and one full one (``run_app``'s
    own, below) instead of 124, 11 and 2.

    What *is* cyclic is a finished run's cluster/system/process graph, which
    only a collection can free.  ``run_app`` therefore collects once,
    explicitly and inside the pause, just before the simulation runs: that
    releases the previous run before this one allocates (and costs a walk of
    the live heap, a few milliseconds, when there is nothing to release).
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()
