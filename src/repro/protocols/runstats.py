"""Run statistics matching the rows of the paper's tables.

Each rank records into its **own** :class:`RunStats` shard (``net=None``);
``DsmSystem.stats`` merges the shards in rank order, attaching the merged
network counters.  Rank-order merging fixes the floating-point summation
order of the time accumulators independently of cross-node event
interleaving; it is the order the committed fingerprints were summed in, so
collapsing the shards could move them.  The rows reproduced (Tables 1, 2,
4, 6, 8):

======================  =============================================
Row                     Source
======================  =============================================
Time (Sec.)             final simulated time of the parallel section
Barriers                count of global barrier episodes
Acquires                lock/view acquiring messages sent
Data                    ``NetStats.data_bytes``
Num. Msg                ``NetStats.num_msg``
Diff Requests           diff request messages sent
Barrier Time            mean per-call time spent inside barrier()
Acquire Time            mean per-call time spent inside acquire()
Rexmit                  ``NetStats.rexmit``
======================  =============================================
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.net.stats import NetStats

__all__ = ["RunStats"]


@dataclass
class RunStats:
    """Protocol + network counters for one run (or one rank's shard)."""

    net: Optional[NetStats] = None
    barriers: int = 0
    acquires: int = 0
    diff_requests: int = 0
    barrier_time_sum: float = 0.0
    barrier_time_n: int = 0
    acquire_time_sum: float = 0.0
    acquire_time_n: int = 0
    time: float = 0.0

    # -- recording -------------------------------------------------------------

    def count_barrier_episode(self) -> None:
        self.barriers += 1

    def count_acquire_msg(self) -> None:
        self.acquires += 1

    def add_barrier_time(self, seconds: float) -> None:
        self.barrier_time_sum += seconds
        self.barrier_time_n += 1

    def add_acquire_time(self, seconds: float) -> None:
        self.acquire_time_sum += seconds
        self.acquire_time_n += 1

    # -- merging -----------------------------------------------------------------

    @classmethod
    def merged(cls, shards, net: Optional[NetStats] = None) -> "RunStats":
        """Sum per-rank shards (in the order given) into a fresh RunStats."""
        out = cls(net=net)
        for s in shards:
            out.barriers += s.barriers
            out.acquires += s.acquires
            out.diff_requests += s.diff_requests
            out.barrier_time_sum += s.barrier_time_sum
            out.barrier_time_n += s.barrier_time_n
            out.acquire_time_sum += s.acquire_time_sum
            out.acquire_time_n += s.acquire_time_n
        return out

    # -- derived ----------------------------------------------------------------

    @property
    def barrier_time_avg(self) -> float:
        """Mean seconds per barrier call (per node), the paper's row unit is µs."""
        return self.barrier_time_sum / self.barrier_time_n if self.barrier_time_n else 0.0

    @property
    def acquire_time_avg(self) -> float:
        return self.acquire_time_sum / self.acquire_time_n if self.acquire_time_n else 0.0

    def table_row(self) -> dict:
        """The paper's statistics rows, in paper units."""
        return {
            "Time (Sec.)": round(self.time, 3),
            "Barriers": self.barriers,
            "Acquires": self.acquires,
            "Data (MByte)": round(self.net.data_bytes / 1e6, 3),
            "Num. Msg": self.net.num_msg,
            "Diff Requests": self.diff_requests,
            "Barrier Time (usec.)": round(self.barrier_time_avg * 1e6, 1),
            "Acquire Time (usec.)": round(self.acquire_time_avg * 1e6, 1),
            "Rexmit": self.net.rexmit,
        }
