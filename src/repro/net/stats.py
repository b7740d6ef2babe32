"""Statistics counters matching the paper's table rows.

Each cluster node accumulates into its **own** :class:`NetStats` shard;
``Cluster.stats`` merges the shards in node order on demand.  The merge
order (node 0, 1, 2, ...) fixes the floating-point summation order
independently of how events interleaved across nodes, and it is the order
every committed fingerprint was summed in: collapsing the shards into one
counter set would sum in event order instead and could move them.
Protocol layers add their own counters (diff requests, barrier time, acquire
time) through :class:`repro.protocols.runstats.RunStats`, which embeds the
merged object.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["NetStats"]


@dataclass
class NetStats:
    """Global network counters.

    ``num_msg``/``data_bytes`` mirror the paper's "Num. Msg" and "Data" rows:
    every protocol message (including replies, excluding pure transport acks)
    is counted once per *original* send; retransmissions are counted in
    ``rexmit`` (as in the paper's "Rexmit" row) and their bytes in
    ``rexmit_bytes``.
    """

    num_msg: int = 0
    data_bytes: int = 0
    acks: int = 0
    rexmit: int = 0
    rexmit_bytes: int = 0
    drops: int = 0
    # kind -> [count, bytes] (mutated in place on the send hot path)
    by_kind: dict = field(default_factory=dict)
    # cause ("overflow" | "red" | "random" | "fault") -> count
    drops_by_cause: dict = field(default_factory=dict)
    # kind -> count of retransmissions of that kind
    rexmit_by_kind: dict = field(default_factory=dict)
    # enum -> str(enum), memoised: str() on an Enum member is surprisingly
    # expensive and count_send runs once per protocol message
    _kind_names: dict = field(default_factory=dict, repr=False)

    def count_send(self, kind: str, size: int) -> None:
        self.num_msg += 1
        self.data_bytes += size
        k = self._kind_names.get(kind)
        if k is None:
            k = self._kind_names[kind] = str(kind)
        rec = self.by_kind.get(k)
        if rec is None:
            self.by_kind[k] = [1, size]
        else:
            rec[0] += 1
            rec[1] += size

    def count_ack(self) -> None:
        self.acks += 1

    def count_rexmit(self, size: int, kind=None) -> None:
        self.rexmit += 1
        self.rexmit_bytes += size
        if kind is not None:
            k = self._kind_names.get(kind)
            if k is None:
                k = self._kind_names[kind] = str(kind)
            self.rexmit_by_kind[k] = self.rexmit_by_kind.get(k, 0) + 1

    def count_drop(self, cause: str = "overflow") -> None:
        self.drops += 1
        self.drops_by_cause[cause] = self.drops_by_cause.get(cause, 0) + 1

    @classmethod
    def merged(cls, shards) -> "NetStats":
        """Sum per-node shards (in the order given) into a fresh NetStats.

        Callers must pass shards in node order: dict key insertion order in
        the result (which reaches JSON reports) then depends only on each
        node's own history, never on cross-node event interleaving.
        """
        out = cls()
        for s in shards:
            out.num_msg += s.num_msg
            out.data_bytes += s.data_bytes
            out.acks += s.acks
            out.rexmit += s.rexmit
            out.rexmit_bytes += s.rexmit_bytes
            out.drops += s.drops
            for k, v in s.by_kind.items():
                rec = out.by_kind.get(k)
                if rec is None:
                    out.by_kind[k] = [v[0], v[1]]
                else:
                    rec[0] += v[0]
                    rec[1] += v[1]
            for k, n in s.drops_by_cause.items():
                out.drops_by_cause[k] = out.drops_by_cause.get(k, 0) + n
            for k, n in s.rexmit_by_kind.items():
                out.rexmit_by_kind[k] = out.rexmit_by_kind.get(k, 0) + n
        return out

    def snapshot(self) -> dict:
        """Plain-dict copy for reporting."""
        return {
            "num_msg": self.num_msg,
            "data_bytes": self.data_bytes,
            "acks": self.acks,
            "rexmit": self.rexmit,
            "rexmit_bytes": self.rexmit_bytes,
            "drops": self.drops,
            "drops_by_cause": dict(sorted(self.drops_by_cause.items())),
            "rexmit_by_kind": dict(sorted(self.rexmit_by_kind.items())),
            "by_kind": {
                k: {"count": v[0], "bytes": v[1]} for k, v in self.by_kind.items()
            },
        }
