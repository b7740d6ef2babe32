"""Host-time observatory: wall-clock phases of one run, on the tracer's rows.

Every other observer in :mod:`repro.obs` lives in *simulated* time.  This
one answers the complementary question: where does the **host** wall clock
go — building the system, executing events, extracting and verifying the
output?

There is no recorder of its own: host time is recorded on a second, ordinary
:class:`~repro.obs.tracer.EventTracer`, one tracer per clock domain.
:func:`repro.apps.common.run_app` (``host=``) appends one complete (``X``) row
``(HOST_PID, "run", cat, cat, t0, t1)`` per phase — ``build``, ``execute``,
``extract``, ``verify`` — when the phase closes, on every way out.  Times are
``time.perf_counter()`` seconds since ``run_app`` was entered; the phases run
one after another, so the lane's rows are in non-decreasing ``t`` as the
tracer contract requires.  Nothing touches the simulator, so a profiled
run's *simulated* statistics stay bit-identical.

The exporters label :data:`HOST_PID` ``"host"``; chaining the simulated and
the host tracer's rows puts both clock domains in one Perfetto document.
"""

from __future__ import annotations

from repro.obs.tracer import EventTracer

__all__ = ["HOST_PID", "host_breakdown", "format_host_breakdown"]

#: the pid of host-clock rows, far away from simulated node ids — the two
#: streams share one Perfetto timeline but are distinct clock domains
#: (simulated μs vs host μs since the run began)
HOST_PID = 1_000_000


def host_breakdown(host: EventTracer) -> dict:
    """Wall-time attribution of a host tracer whose categories sum to the wall.

    Returns ``{"wall": sec, "seconds": {cat: sec}, "other": sec}`` (``{}`` when
    nothing was recorded).  ``wall`` runs from the first row's start to the
    last row's end; ``other`` is ``wall`` minus the phase seconds, so
    ``sum(seconds.values()) + other == wall``.
    """
    rows = host.events
    if not rows:
        return {}
    seconds: dict[str, float] = {}
    for _ph, t, _pid, _lane, cat, _name, _args, end in rows:
        seconds[cat] = seconds.get(cat, 0.0) + (end - t)
    wall = rows[-1][7] - rows[0][1]
    return {"wall": wall, "seconds": seconds, "other": wall - sum(seconds.values())}


def format_host_breakdown(breakdown: dict,
                          title: str = "Host-time breakdown") -> str:
    """Terminal table: the categories and ``other``, summing to the wall."""
    if not breakdown:
        return f"{title}: no host spans recorded"
    wall = breakdown["wall"]
    lines = [title, "=" * len(title), f"host  (wall {wall:.4f}s)"]
    cats = sorted(breakdown["seconds"].items(), key=lambda kv: -kv[1])
    for cat, sec in cats + [("other", breakdown["other"])]:
        share = sec / wall if wall > 0 else 0.0
        bar = "#" * max(1, round(share * 30)) if sec > 0 else ""
        lines.append(f"  {cat:<14} {sec:>9.4f}s {100 * share:5.1f}%  {bar}")
    return "\n".join(lines)
