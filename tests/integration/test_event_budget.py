"""Exact-count budgets of the message path (no clock): engine events per
message and processes per run on the two message-bound cells.  A change that
puts a process or a stale timer back on the per-message path trips these
before any host-time benchmark runs."""

from repro.apps import APPS, is_sort
from repro.apps.common import run_app
from repro.sim import Simulator


def test_is16_vcd_spawns_and_events_per_message(monkeypatch):
    spawned = []
    spawn = Simulator.spawn

    def counting(self, gen, name=""):
        spawned.append(name)
        return spawn(self, gen, name)

    monkeypatch.setattr(Simulator, "spawn", counting)
    result = run_app(is_sort, "vc_d", 16)
    # 37,526 diff requests, not one of them a process of its own
    assert result.stats.diff_requests == 37526
    assert len(spawned) <= 3500
    # 2 NIC events per frame; acks, cost charges and the remaining process
    # hops bring a message to 3.04 (answers resume their waiter in place)
    assert result.events / result.stats.net.num_msg <= 3.1


def test_nn32_mpi_events_per_message():
    result = run_app(APPS["nn"], "mpi", 32)
    # 2 NIC events for the send and 2 for its ack; the data's RX completion
    # resumes the receiver and the ack's the sender, in place (5.03)
    assert result.events / result.stats.num_msg <= 5.1
