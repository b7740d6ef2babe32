"""View access profiles and partitioning advice, read from the run's metrics.

Install on a :class:`repro.core.VoppSystem` before running::

    tracer = ViewTracer.install(system)
    system.run_program(body)
    print(tracer.report())

There is no recorder of its own: :meth:`ViewTracer.install` installs (or
reuses) the run's :class:`repro.obs.EventTracer`, and a :class:`ViewTracer`
is a *reader* over two series of the :class:`repro.obs.Metrics` folded from
its rows — ``acquire_wait_seconds{view,mode}`` (acquisitions, mean and worst
wait) and ``grant_bytes{view}`` (the data each grant moved).  The
report lists these per view, then applies the paper's §3.6 rule of thumb
("the more views are acquired, the more messages there are in the system;
and the larger a view is, the more data traffic is caused") to flag views
worth splitting, merging or converting to read-only access.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.obs.metrics import Metrics
from repro.obs.tracer import EventTracer

__all__ = ["ViewTracer", "ViewProfile"]

# advice thresholds
WAIT_FLAG_SECONDS = 2e-3  # mean exclusive wait worth flagging
BYTES_FLAG = 16 * 1024  # mean grant payload worth flagging
READ_MOSTLY_RATIO = 4  # R acquires per exclusive acquire


@dataclass
class ViewProfile:
    """Aggregated statistics for one view."""

    view: int
    excl_acquires: int = 0
    r_acquires: int = 0
    wait_sum: float = 0.0
    wait_max: float = 0.0
    grant_bytes: int = 0
    grants: int = 0

    @property
    def acquires(self) -> int:
        return self.excl_acquires + self.r_acquires

    @property
    def wait_avg(self) -> float:
        return self.wait_sum / self.acquires if self.acquires else 0.0

    @property
    def grant_bytes_avg(self) -> float:
        return self.grant_bytes / self.grants if self.grants else 0.0


class ViewTracer:
    """Reads a run's per-view metrics — a :class:`Metrics`, or an
    :class:`EventTracer`'s rows folded afresh on every read — and produces a
    tuning report."""

    def __init__(self, source: "Metrics | EventTracer") -> None:
        self.source = source

    @classmethod
    def install(cls, system) -> "ViewTracer":
        """A view tracer over ``system``'s event tracer (installed if none is)."""
        if system.sim.tracer is None:
            system.sim.tracer = EventTracer()
        return cls(system.sim.tracer)

    @property
    def metrics(self) -> Metrics:
        """The registry read: ``source`` itself, or one folded from its rows."""
        source = self.source
        return source if isinstance(source, Metrics) else Metrics().fold(source.events)

    @property
    def profiles(self) -> dict[int, ViewProfile]:
        """Per-view statistics, folded from the metrics recorded so far."""
        out: dict[int, ViewProfile] = {}

        def profile(labels: dict) -> ViewProfile:
            return out.setdefault(labels["view"], ViewProfile(view=labels["view"]))

        metrics = self.metrics
        for labels, hist in metrics.series("acquire_wait_seconds"):
            if "view" not in labels:
                continue  # a lock acquire (LRC): labelled lock=, not view=
            p = profile(labels)
            if labels["mode"] == "w":
                p.excl_acquires += hist.count
            else:
                p.r_acquires += hist.count
            p.wait_sum += hist.sum
            p.wait_max = max(p.wait_max, hist.max)
        for labels, hist in metrics.series("grant_bytes"):
            p = profile(labels)
            p.grants += hist.count
            p.grant_bytes += int(hist.sum)
        return out

    # -- analysis ---------------------------------------------------------------

    def advice(self) -> list[str]:
        """Partitioning advice per the §3.6 rule of thumb."""
        out = []
        for profile in sorted(self.profiles.values(), key=lambda p: -p.wait_sum):
            v = profile.view
            if profile.excl_acquires and profile.wait_avg > WAIT_FLAG_SECONDS:
                if profile.r_acquires == 0 and profile.excl_acquires >= READ_MOSTLY_RATIO:
                    out.append(
                        f"view {v}: mean exclusive wait "
                        f"{profile.wait_avg*1e6:,.0f} us over "
                        f"{profile.excl_acquires} acquires — if some accesses "
                        "are read-only, convert them to acquire_Rview (§3.4); "
                        "otherwise split the view to reduce contention (§3.6)"
                    )
                else:
                    out.append(
                        f"view {v}: mean wait {profile.wait_avg*1e6:,.0f} us — "
                        "contended; consider splitting it into sub-views "
                        "acquired in a staggered order (§3.6)"
                    )
            if profile.grants and profile.grant_bytes_avg > BYTES_FLAG:
                out.append(
                    f"view {v}: each grant moves "
                    f"{profile.grant_bytes_avg/1024:,.1f} KB — a large view "
                    "causes that much traffic per acquire; partition it or "
                    "keep rarely-shared parts in local buffers (§3.1, §3.6)"
                )
        if not out:
            out.append("no contended or oversized views detected")
        return out

    def report(self) -> str:
        lines = ["View access report", "=================="]
        lines.append(
            f"{'view':>6}{'excl':>8}{'read':>8}{'avg wait us':>14}"
            f"{'max wait us':>14}{'KB/grant':>12}"
        )
        for profile in sorted(self.profiles.values(), key=lambda p: p.view):
            lines.append(
                f"{profile.view:>6}{profile.excl_acquires:>8}{profile.r_acquires:>8}"
                f"{profile.wait_avg*1e6:>14,.0f}{profile.wait_max*1e6:>14,.0f}"
                f"{profile.grant_bytes_avg/1024:>12,.2f}"
            )
        lines.append("")
        lines.append("Advice (paper §3.6 rule of thumb):")
        for item in self.advice():
            lines.append(f"  * {item}")
        return "\n".join(lines)
