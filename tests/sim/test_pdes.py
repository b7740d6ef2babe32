"""The partition-determinism harness: conformance grid and refusals.

The load-bearing claim of :mod:`repro.sim.pdes` is *bit-identity*: running
the simulated nodes as K partitions on K simulators produces exactly the
serial run's observables — output, statistics row (and therefore the
benchmark fingerprint), simulated time — and ``(K - 1) * nprocs`` extra
events.  The grid checks that on real application cells at 8 ranks; the
full 18-cell matrix is ``python -m repro.bench.pdes``.
"""

import pytest

from repro.apps import APPS
from repro.bench.pdes import check_cell
from repro.bench.sweep import SweepCell
from repro.sim.pdes import PdesError, partition_ranks, run_partitioned


# -- partitioning ----------------------------------------------------------------


def test_partition_ranks_cover_contiguously():
    for nprocs in (1, 2, 7, 8, 16):
        for workers in (1, 2, 3, 8, 32):
            parts = partition_ranks(nprocs, workers)
            flat = [r for block in parts for r in block]
            assert flat == list(range(nprocs))
            assert all(len(block) > 0 for block in parts)
            assert len(parts) == min(workers, nprocs)
            assert 0 in parts[0]  # rank 0 (output owner) lives in partition 0


def test_partition_ranks_rejects_zero_workers():
    with pytest.raises(PdesError):
        partition_ranks(8, 0)


# -- bit-identity on application cells --------------------------------------------


@pytest.mark.parametrize(
    "app,protocol,workers",
    [
        ("is", "lrc_d", 2),
        ("is", "vc_sd", 3),
        ("nn", "mpi", 4),
        ("is", "vc_d", 2),
        ("is", "vc_d", 3),
        ("is", "vc_sd", 2),
        ("sor", "vc_d", 3),
        ("gauss", "vc_sd", 8),  # single-rank partitions
        ("nn", "vc_sd", 16),  # clamps to 8 single-rank partitions
    ],
)
def test_inline_conformance_bit_identical(app, protocol, workers):
    row = check_cell(SweepCell(app=app, protocol=protocol, nprocs=8), workers)
    assert row["verified"]
    assert row["pdes_fingerprint"] == row["fingerprint"]
    assert row["time_equal"]  # float ==, no tolerance
    # the only event-count delta is the foreign replicas' dispatcher
    # start-ups: one per non-owned node in each partition
    assert row["extra_events"] == (min(workers, 8) - 1) * 8


def test_harness_bites_when_arrivals_are_keyed_by_the_plain_counter(monkeypatch):
    """The harness is only evidence if it can fail.  Key arrivals by the
    simulator's sequence counter — push order, which depends on how the
    nodes are partitioned — instead of the canonical ``(src, departure#)``
    and a cell of the grid above must stop matching.  (Three partitions: at
    two, push order happens to coincide on all 18 matrix cells, frames being
    pushed at send time, well ahead of the instants they tie on.)"""
    from repro.sim import Simulator

    def counter_keyed(self, t, tsched, cls, key, fn, *args):
        self._qpush(self._heap, (t, tsched, cls, next(self._seq), fn, args))

    monkeypatch.setattr(Simulator, "schedule_keyed", counter_keyed)
    row = check_cell(SweepCell(app="is", protocol="vc_sd", nprocs=8), 3)
    assert row["verified"]  # still a correct run of the application ...
    assert not row["match"]  # ... but not the serial one
    assert row["pdes_fingerprint"] != row["fingerprint"] and not row["time_equal"]


# -- refusal surface --------------------------------------------------------------


def test_refuses_hlrc_d():
    with pytest.raises(PdesError, match="hlrc_d"):
        run_partitioned(APPS["is"], protocol="hlrc_d", nprocs=8)


def test_refuses_random_drop_and_no_lookahead():
    from repro.net.config import NetConfig

    with pytest.raises(PdesError, match="drop"):
        run_partitioned(
            APPS["is"], protocol="lrc_d", nprocs=8,
            netcfg=NetConfig(random_drop_prob=0.01),
        )
    with pytest.raises(PdesError, match="switch_latency"):
        run_partitioned(
            APPS["is"], protocol="lrc_d", nprocs=8,
            netcfg=NetConfig(switch_latency=0.0),
        )


def test_frame_inside_an_executed_window_is_refused(monkeypatch):
    """The loop's own safety invariant: a frame collected at a barrier must
    arrive at or after the end of the window just executed.  Recording a
    foreign frame at hand-off as arriving that very instant lands it inside
    the window being executed."""
    from repro.sim.pdes import PartitionSwitch

    forward = PartitionSwitch.forward

    def early(self, msg, t_dep, key):
        if msg.dst not in self.owned:
            t_dep = self.sim.now - self.cfg.switch_latency
        forward(self, msg, t_dep, key)

    monkeypatch.setattr(PartitionSwitch, "forward", early)
    with pytest.raises(PdesError, match="already executed"):
        run_partitioned(APPS["is"], protocol="lrc_d", nprocs=4)
