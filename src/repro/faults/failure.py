"""Graceful failure reporting: structured diagnostics instead of tracebacks.

Two things can legitimately kill a simulated run in a hostile network:

* a reliable send/request exhausts its retransmission budget
  (:class:`repro.net.transport.RequestError`), or
* a fault plan fail-stops a node (:class:`NodeCrashed`).

Both are *expected outcomes under faults*, not bugs, so
:func:`repro.apps.common.run_app` escalates them into a :class:`RunFailure`
— a one-screen structured diagnostic carrying the failing node, message
kind, attempt count, per-node pending-operation counts and a network-stats
snapshot — wrapped in :class:`RunAborted`.  The CLI renders it and exits
with the pinned code :data:`EXIT_RUN_FAILURE` (test-enforced); any other
exception still surfaces as a raw traceback, because it *is* a bug.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional

__all__ = [
    "EXIT_RUN_FAILURE",
    "NodeCrashed",
    "RunAborted",
    "RunFailure",
    "describe_failure",
    "format_failure",
]

# pinned CLI exit code for a structured run failure (2 is argparse's)
EXIT_RUN_FAILURE = 3


class NodeCrashed(RuntimeError):
    """A fault plan fail-stopped a node; the run must abort cleanly."""

    def __init__(self, node: int, sim_time: float):
        super().__init__(f"node {node} fail-stopped at t={sim_time:.6f}")
        self.node = node
        self.sim_time = sim_time


@dataclass
class RunFailure:
    """Structured description of why a run could not complete."""

    reason: str  # "retry-exhausted" | "node-crash"
    detail: str  # human-oriented one-liner
    sim_time: float
    node: Optional[int] = None  # failing / crashed node
    dst: Optional[int] = None  # peer of the exhausted send (if any)
    kind: Optional[str] = None  # message kind of the exhausted send
    attempts: Optional[int] = None  # retransmissions spent before giving up
    # node id -> {"pending_acks": n, "pending_replies": n} for nodes with any
    pending_ops: dict = field(default_factory=dict)
    net: Optional[dict] = None  # NetStats snapshot at abort time
    faults: Optional[dict] = None  # active FaultPlan (to_json form), if any
    seeds: Optional[dict] = None  # {"faults_seed": ..., "drop_seed": ...}

    def to_json(self) -> dict:
        return {
            "reason": self.reason,
            "detail": self.detail,
            "sim_time": self.sim_time,
            "node": self.node,
            "dst": self.dst,
            "kind": self.kind,
            "attempts": self.attempts,
            "pending_ops": self.pending_ops,
            "net": self.net,
            "faults": self.faults,
            "seeds": self.seeds,
        }


class RunAborted(RuntimeError):
    """Wrapper raised by ``run_app`` carrying the :class:`RunFailure`."""

    def __init__(self, failure: RunFailure):
        super().__init__(failure.detail)
        self.failure = failure


def _pending_ops(cluster) -> dict:
    """Per-node counts of in-flight reliable sends / outstanding requests."""
    out: dict[int, dict[str, int]] = {}
    for node in getattr(cluster, "nodes", []):
        acks, replies = node.transport.pending_counts()
        if acks or replies:
            out[node.id] = {"pending_acks": acks, "pending_replies": replies}
    return out


def describe_failure(exc: BaseException, cluster) -> Optional[RunFailure]:
    """Build a :class:`RunFailure` if ``exc``'s cause chain is an expected
    fault outcome; return ``None`` for genuine bugs (caller re-raises)."""
    from repro.net.transport import RequestError

    cause: Optional[BaseException] = exc
    while cause is not None:
        if isinstance(cause, (RequestError, NodeCrashed)):
            break
        cause = cause.__cause__
    if cause is None:
        return None
    sim = cluster.sim
    stats = cluster.stats
    # embed the exact hostile inputs so the abort is one-command reproducible
    # (dump via --faults-out, replay via --faults; docs/robustness.md)
    injector = getattr(sim, "faults", None)
    netcfg = getattr(cluster, "netcfg", None)
    seeds: dict[str, Any] = {}
    if injector is not None:
        seeds["faults_seed"] = injector.plan.seed
    if netcfg is not None:
        seeds["drop_seed"] = netcfg.drop_seed
    common = {
        "sim_time": sim.now,
        "pending_ops": _pending_ops(cluster),
        "net": stats.snapshot() if hasattr(stats, "snapshot") else None,
        "faults": injector.plan.to_json() if injector is not None else None,
        "seeds": seeds or None,
    }
    if isinstance(cause, NodeCrashed):
        return RunFailure(
            reason="node-crash",
            detail=str(cause),
            node=cause.node,
            **common,
        )
    return RunFailure(
        reason="retry-exhausted",
        detail=str(cause),
        node=getattr(cause, "node", None),
        dst=getattr(cause, "dst", None),
        kind=getattr(cause, "kind", None),
        attempts=getattr(cause, "attempts", None),
        **common,
    )


def format_failure(failure: RunFailure) -> str:
    """Render the one-screen diagnostic the CLI prints instead of a traceback."""
    lines = [
        f"run failed: {failure.reason}",
        "-" * (12 + len(failure.reason)),
        f"  {failure.detail}",
        f"  simulated time     {failure.sim_time:.6f} s",
    ]
    if failure.node is not None:
        lines.append(f"  failing node       {failure.node}")
    if failure.dst is not None:
        lines.append(f"  unreachable peer   {failure.dst}")
    if failure.kind is not None:
        lines.append(f"  message kind       {failure.kind}")
    if failure.attempts is not None:
        lines.append(f"  retransmissions    {failure.attempts}")
    if failure.pending_ops:
        lines.append("  pending operations")
        for node in sorted(failure.pending_ops):
            ops = failure.pending_ops[node]
            lines.append(
                f"    node {node:<3} {ops['pending_acks']} unacked sends, "
                f"{ops['pending_replies']} outstanding requests"
            )
    if failure.net:
        net = failure.net
        lines.append(
            f"  network            {net['num_msg']} msgs, {net['rexmit']} rexmit, "
            f"{net['drops']} drops"
        )
        by_cause = net.get("drops_by_cause") or {}
        if by_cause:
            causes = ", ".join(f"{k}={v}" for k, v in sorted(by_cause.items()))
            lines.append(f"  drops by cause     {causes}")
    if failure.faults is not None:
        n_eps = len(failure.faults.get("episodes", []))
        seeds = failure.seeds or {}
        seed_bits = ", ".join(f"{k}={v}" for k, v in sorted(seeds.items()))
        lines.append(
            f"  fault plan         {n_eps} episode(s), {seed_bits or 'no seeds'}"
        )
        lines.append(
            "                     (dump with --faults-out PLAN.json, replay "
            "with --faults PLAN.json)"
        )
    lines.append("  hint: raise max_retries / rexmit_timeout, or soften the fault plan")
    return "\n".join(lines)
