"""The fault injector: installs a :class:`~repro.faults.plan.FaultPlan` on a
cluster and answers the network/CPU layers' hook queries.

Contract (mirroring ``tracer``/``oracle``):

* **Zero overhead when absent.**  ``Simulator.faults`` is ``None`` by
  default; every hook site guards with ``if faults is not None`` before
  doing any work, so a build with fault support but no plan executes the
  exact same simulator events as one without it (bit-identity is
  test-enforced against the committed sweep fingerprints).
* **Determinism.**  One ``RandomState`` stream, seeded from the plan and
  *separate* from the NIC's RED stream, consumed in simulator event order:
  same plan + seed → identical drops, duplicates, reorders, stats, traces.
* **Results invariance.**  Loss/dup/reorder/degrade/slowdown episodes change
  *timing and Rexmit*, never application answers — the reliable transport
  absorbs them.  Only ``crash`` (fail-stop) and plans hostile enough to
  exhaust the retry budget end a run, and those abort cleanly through
  :mod:`repro.faults.failure`.

Hook sites: the switch's departure event (loss, duplication, reordering,
extra latency — the *transfer-level* episodes; the event exists only when
the plan has some), ``Nic.on_arrival`` (receive-buffer shrink), ``Nic``
tx/rx wire time (bandwidth degradation), ``Node.compute`` (CPU slowdown /
pause), and an installed timer per ``crash`` episode.  Fault events are
surfaced as tracer instants (lane ``"faults"``) when a tracer is installed;
:class:`repro.obs.Metrics` folds the ``fault_*`` metrics from them.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

import numpy as np

from repro.faults.failure import NodeCrashed
from repro.faults.plan import Episode, FaultPlan, FaultPlanError

if TYPE_CHECKING:  # pragma: no cover
    from repro.net.cluster import Cluster
    from repro.net.message import Message

__all__ = ["FaultInjector", "install_faults"]

# decorrelates the fault stream from the RED stream (cfg.drop_seed [+ node])
_SEED_SALT = 0x5DEECE66


class FaultInjector:
    """Evaluates a fault plan against live traffic.  Create one per run."""

    def __init__(self, plan: FaultPlan):
        plan.validate()
        self.plan = plan
        self._rng = np.random.RandomState((plan.seed + _SEED_SALT) % 2**32)
        self.sim = None
        self.stats = None
        # split by hook so each site scans only the episodes it can match
        self._loss = plan.by_kind("loss")
        degrade = plan.by_kind("degrade")
        self._lat = tuple(ep for ep in degrade if ep.latency_add > 0.0)
        self._bw = tuple(ep for ep in degrade if ep.bandwidth_factor != 1.0)
        self._buffer = plan.by_kind("buffer")
        self._dup = plan.by_kind("duplicate")
        self._reorder = plan.by_kind("reorder")
        self._slow = plan.by_kind("slowdown")
        self._pause = plan.by_kind("pause")
        self._crashes = plan.by_kind("crash")
        # transfer-level episodes draw this injector's stream per frame, in
        # global event order, so the switch gives every frame a departure
        # event to draw it at; node-level episodes (everything else) are pure
        # functions of (node, instant) and add no event to a run
        self.transfer_level = bool(
            self._loss or self._lat or self._dup or self._reorder
        )
        # only a duplicate episode puts a second copy of a frame on the wire;
        # the transport keeps answered replies cached while it may
        self.duplicating = bool(self._dup)
        # counters mirrored into the final report even without a tracer
        self.injected = {"drop": 0, "duplicate": 0, "reorder": 0}

    # -- installation -------------------------------------------------------------

    def install(self, cluster: "Cluster") -> "FaultInjector":
        """Attach to ``cluster``: validate targets, arm crash timers."""
        if self.sim is not None:
            raise FaultPlanError("a FaultInjector can only be installed once")
        n = cluster.n
        for i, ep in enumerate(self.plan.episodes):
            for attr in ("node", "src", "dst"):
                v = getattr(ep, attr)
                if v is not None and not (0 <= v < n):
                    raise FaultPlanError(
                        f"episodes[{i}].{attr}: {ep.kind}: {attr}={v} out of "
                        f"range for a {n}-node cluster",
                        field=attr,
                    )
        self.sim = cluster.sim
        # mutate the per-node shards (cluster.stats is a merged snapshot);
        # fault drops are attributed to the sending node
        self.stats = cluster.node_stats
        cluster.sim.faults = self
        for ep in self._crashes:
            cluster.sim.schedule_at(
                max(ep.start, cluster.sim.now), self._crash, ep
            )
        return self

    # -- transfer-level hook (the switch's departure event) ------------------------

    def on_transfer(self, msg: "Message") -> Optional[tuple]:
        """Decide the fate of one switch transfer.

        Returns ``None`` if the message is dropped (already counted/traced),
        else ``(extra_delay, duplicate_delay_or_None)`` where both delays are
        *additional* to the normal switch latency.
        """
        now = self.sim.now
        src, dst = msg.src, msg.dst
        for ep in self._loss:
            if (
                ep.start <= now < ep.end
                and ep.matches(src, dst)
                and self._rng.random_sample() < ep.drop_prob
            ):
                self.stats[src].count_drop("fault")
                self._observe("drop", msg, now)
                return None
        extra = 0.0
        for ep in self._lat:
            if ep.start <= now < ep.end and ep.matches(src, dst):
                extra += ep.latency_add
        for ep in self._reorder:
            if (
                ep.start <= now < ep.end
                and ep.matches(src, dst)
                and self._rng.random_sample() < ep.reorder_prob
            ):
                extra += self._rng.random_sample() * ep.reorder_delay
                self._observe("reorder", msg, now)
        dup: Optional[float] = None
        for ep in self._dup:
            if (
                ep.start <= now < ep.end
                and ep.matches(src, dst)
                and self._rng.random_sample() < ep.dup_prob
            ):
                dup = extra
                self._observe("duplicate", msg, now)
                break
        return extra, dup

    def _observe(self, what: str, msg: "Message", now: float) -> None:
        self.injected[what] += 1
        tracer = self.sim.tracer
        if tracer is not None:
            tracer.instant(
                msg.dst, "faults", "fault", f"{what} {msg.kind._name_}",
                now, {"src": msg.src, "bytes": msg.size},
            )

    # -- node-level hooks ----------------------------------------------------------

    def buffer_factor(self, node: int) -> float:
        """Combined receive-buffer shrink factor for ``node`` right now."""
        f = 1.0
        now = self.sim.now
        for ep in self._buffer:
            if ep.start <= now < ep.end and (ep.node is None or ep.node == node):
                f *= ep.buffer_factor
        return f

    def bandwidth_factor(self, node: int, t: float) -> float:
        """Wire-time multiplier (>= 1) for a transfer ``node``'s NIC starts
        at ``t`` — not necessarily now: a queued frame's transmission starts
        when the TX side frees up."""
        f = 1.0
        for ep in self._bw:
            if ep.start <= t < ep.end and (
                ep.node is None or ep.node == node
            ):
                f *= ep.bandwidth_factor
        return f

    def compute_seconds(self, node: int, seconds: float) -> float:
        """CPU slowdown/pause: the stretched duration of a compute slice
        starting now on ``node``."""
        now = self.sim.now
        for ep in self._slow:
            if ep.start <= now < ep.end and (ep.node is None or ep.node == node):
                seconds *= ep.cpu_factor
        for ep in self._pause:
            if ep.start <= now < ep.end and (ep.node is None or ep.node == node):
                stall = ep.end - now
                tracer = self.sim.tracer
                if tracer is not None:
                    tracer.instant(node, "faults", "fault", "pause", now, {"stall": stall})
                seconds += stall
        return seconds

    # -- crash --------------------------------------------------------------------

    def _crash(self, ep: Episode) -> None:
        tracer = self.sim.tracer
        if tracer is not None:
            tracer.instant(
                ep.node, "faults", "fault", f"crash node {ep.node}", self.sim.now
            )
        raise NodeCrashed(ep.node, self.sim.now)


def install_faults(cluster: "Cluster", plan: "FaultPlan | FaultInjector") -> FaultInjector:
    """Install ``plan`` (or a pre-built injector) on ``cluster``."""
    injector = plan if isinstance(plan, FaultInjector) else FaultInjector(plan)
    return injector.install(cluster)
