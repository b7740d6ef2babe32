"""Per-process time-breakdown attribution.

Answers the question the paper's analysis keeps asking — *where did the time
go?* — by decomposing each application process's simulated run time into the
trace categories.  The input is the event list of an
:class:`repro.obs.tracer.EventTracer`; only ``"app"``-lane span events are
used, because those are the process's own sequential timeline (NIC lanes and
fault-fetcher lanes run concurrently with it and would double-count).

Attribution rule: every instant between a process's ``run`` begin and the
run's *global* end belongs to exactly one category —

* the **innermost open wait span** at that instant (``barrier-wait`` under
  which a ``page-fault`` is open counts as ``page-fault``; a ``diff-wait``
  inside the fault counts as ``diff-wait``), or
* ``compute`` when no wait span is open (explicit application compute spans
  are also attributed here), or
* ``idle`` between this process's own finish and the last process's finish.

Because the rule is a partition of the window, each process's category
seconds sum *exactly* to the run's simulated time and the percentages sum to
100 — the invariant ``tests/obs/test_breakdown.py`` asserts for every
app/protocol cell.
"""

from __future__ import annotations

from typing import Iterable, Mapping

from repro.obs.gcpause import gc_paused
from repro.obs.tracer import COMPUTE, IDLE, RUN

__all__ = ["app_intervals", "compute_breakdown", "format_breakdown"]


def app_intervals(events: Iterable[tuple]) -> dict:
    """Per-process innermost-attributed interval timeline of the run window.

    Returns ``{pid: {"start": s, "end": e, "pieces": [(t0, t1, cat), ...]}}``
    where the pieces are chronological, contiguous and partition
    ``[start, end]`` exactly (zero-length pieces are kept — a category that
    was open for zero simulated time still shows up).  This is the one sweep
    both the time breakdown and the critical-path walker are built on, so
    the two always agree on what every instant of a rank's timeline was.
    """
    # per-pid app-lane span events, preserving simulator order
    per_pid: dict[int, list[tuple[str, float, str]]] = {}
    for ph, t, pid, lane, cat, _name, _args, _end in events:
        if lane == "app" and (ph == "B" or ph == "E"):
            per_pid.setdefault(pid, []).append((ph, t, cat))

    out: dict[int, dict] = {}
    for pid, evs in per_pid.items():
        run_start = run_end = None
        stack: list[str] = []
        pieces: list[tuple[float, float, str]] = []
        cur = 0.0
        for ph, t, cat in evs:
            if cat == RUN:
                if ph == "B":
                    run_start = cur = t
                else:
                    pieces.append((cur, t, stack[-1] if stack else COMPUTE))
                    cur = t
                    run_end = t
                continue
            if run_start is None or run_end is not None:
                continue  # outside the run window (nothing emits there today)
            pieces.append((cur, t, stack[-1] if stack else COMPUTE))
            cur = t
            if ph == "B":
                stack.append(cat)
            elif stack:
                stack.pop()
        if run_start is None:
            continue
        if run_end is None:
            raise ValueError(f"pid {pid}: run span never closed (crashed run?)")
        if stack:
            raise ValueError(f"pid {pid}: unclosed spans at run end: {stack}")
        out[pid] = {"start": run_start, "end": run_end, "pieces": pieces}
    return out


@gc_paused()
def compute_breakdown(events: Iterable[tuple]) -> dict:
    """Attribute each process's run window to categories.

    Returns ``{pid: {"start": s, "end": e, "total": t, "seconds": {...},
    "percent": {...}}}`` where ``total`` is the whole run's window (identical
    for every pid) and both inner dicts include every category the process
    spent time in (always at least ``compute``).
    """
    sweeps = app_intervals(events)
    if not sweeps:
        return {}
    global_end = max(info["end"] for info in sweeps.values())
    out: dict = {}
    for pid in sorted(sweeps):
        info = sweeps[pid]
        start, end = info["start"], info["end"]
        acc: dict[str, float] = {}
        for t0, t1, cat in info["pieces"]:
            acc[cat] = acc.get(cat, 0.0) + (t1 - t0)
        acc.setdefault(COMPUTE, 0.0)
        if global_end > end:
            acc[IDLE] = global_end - end
        total = global_end - start
        percent = {
            cat: (100.0 * sec / total if total > 0 else 0.0)
            for cat, sec in acc.items()
        }
        out[pid] = {
            "start": start,
            "end": end,
            "total": total,
            "seconds": acc,
            "percent": percent,
        }
    return out


# display order: compute first, then waits by typical interest, idle last
_CATEGORY_ORDER = (
    COMPUTE,
    "barrier-wait",
    "acquire-wait",
    "page-fault",
    "diff-wait",
    "recv-wait",
    IDLE,
)


def _ordered_categories(breakdown: Mapping) -> list[str]:
    present: set[str] = set()
    for row in breakdown.values():
        present.update(row["seconds"])
    ordered = [c for c in _CATEGORY_ORDER if c in present]
    ordered.extend(sorted(present - set(ordered)))
    return ordered


def format_breakdown(breakdown: Mapping, title: str = "Breakdown") -> str:
    """Render the attribution as a per-process percentage table.

    One row per application process, one column per category, each cell the
    percentage of the run's simulated time; a ``mean`` row closes the table.
    Rows sum to 100.0 by construction.
    """
    if not breakdown:
        return f"{title}: no traced processes"
    cats = _ordered_categories(breakdown)
    width = max(12, *(len(c) + 3 for c in cats))
    lines = [title, "-" * len(title)]
    lines.append(f"{'proc':>6}" + "".join(f"{c:>{width}}" for c in cats) + f"{'sum':>8}")
    means = {c: 0.0 for c in cats}
    for pid in sorted(breakdown):
        pct = breakdown[pid]["percent"]
        cells = []
        for c in cats:
            v = pct.get(c, 0.0)
            means[c] += v
            cells.append(f"{v:>{width - 1}.1f}%")
        total_pct = sum(pct.values())
        lines.append(f"{pid:>6}" + "".join(cells) + f"{total_pct:>7.1f}%")
    n = len(breakdown)
    lines.append(
        f"{'mean':>6}"
        + "".join(f"{means[c] / n:>{width - 1}.1f}%" for c in cats)
        + f"{sum(means.values()) / n:>7.1f}%"
    )
    total = next(iter(breakdown.values()))["total"]
    lines.append(f"(percent of the run's simulated time, {total:.6f} s)")
    return "\n".join(lines)
