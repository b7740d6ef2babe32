"""DsmSystem: one simulated DSM deployment (cluster + protocol instances).

Composes everything below the programming-model layer: the simulator, the
cluster/network, the shared address space, the page directory, per-node
protocol instances, and the run statistics.  The VOPP runtime and the
traditional lock/barrier runtime (:mod:`repro.core`) sit on top.
"""

from __future__ import annotations

from typing import Optional, Type

from repro.memory.address_space import AddressSpace
from repro.net.cluster import Cluster
from repro.net.config import NetConfig, NodeConfig
from repro.protocols.base import BaseDsmProtocol
from repro.protocols.directory import PageDirectory, ViewRegistry
from repro.protocols.runstats import RunStats

__all__ = ["DsmSystem"]


class DsmSystem:
    """A cluster running one DSM protocol.

    Parameters
    ----------
    nprocs:
        Number of nodes (= application processes; one process per node, as in
        the paper's experiments).
    protocol:
        Protocol class (``LrcProtocol``, ``HlrcProtocol``, ``VcProtocol``,
        ``VcSdProtocol``) or one of the names ``"lrc_d"``, ``"hlrc_d"``,
        ``"vc_d"``, ``"vc_sd"``.
    """

    def __init__(
        self,
        nprocs: int,
        protocol: "Type[BaseDsmProtocol] | str" = "lrc_d",
        netcfg: Optional[NetConfig] = None,
        nodecfg: Optional[NodeConfig] = None,
        page_size: Optional[int] = None,
        manager_offset: int = 0,
        sim=None,
    ):
        if isinstance(protocol, str):
            from repro.protocols import PROTOCOLS

            try:
                protocol = PROTOCOLS[protocol]
            except KeyError:
                raise ValueError(
                    f"unknown protocol {protocol!r}; expected one of "
                    f"{sorted(PROTOCOLS)}"
                ) from None
        self.protocol_cls = protocol
        self.cluster = Cluster(nprocs, netcfg=netcfg, nodecfg=nodecfg, sim=sim)
        if page_size is None:
            page_size = self.cluster.nodecfg.page_size
        self.space = AddressSpace(page_size=page_size)
        # zero-cost shared metadata a real system keeps in its page and view
        # managers; views are discovered dynamically, at exclusive release
        self.directory = PageDirectory()
        self.views = ViewRegistry()
        # per-rank statistics shards; merged on demand by the stats property
        self.rank_stats = [RunStats() for _ in range(nprocs)]
        # manager placement: 0 co-locates view v's manager with node v%n
        # (per-processor views get owner-local managers); the ablation
        # benches shift it to measure the cost of remote managers
        self.manager_offset = manager_offset
        self.protocols: list[BaseDsmProtocol] = [
            protocol(self, node) for node in self.cluster.nodes
        ]

    @property
    def stats(self) -> RunStats:
        """Run statistics: the per-rank shards merged in rank order, with the
        merged network counters attached.  A fresh snapshot per access —
        record into ``stats_for(rank)``, not into this."""
        merged = RunStats.merged(self.rank_stats, net=self.cluster.stats)
        merged.time = self.cluster.run_time
        return merged

    def stats_for(self, rank: int) -> RunStats:
        """The mutable statistics shard of one rank."""
        return self.rank_stats[rank]

    @property
    def nprocs(self) -> int:
        return self.cluster.n

    @property
    def sim(self):
        return self.cluster.sim

    def view_manager(self, view_id: int) -> int:
        """Static manager assignment distributes view traffic over nodes."""
        return (view_id + self.manager_offset) % self.nprocs

    def alloc(self, name: str, size: int, page_aligned: bool = False):
        return self.space.alloc(name, size, page_aligned=page_aligned)

    def run(self, until: Optional[float] = None) -> float:
        return self.cluster.run(until=until)
