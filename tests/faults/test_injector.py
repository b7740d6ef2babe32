"""FaultInjector behaviour, episode kind by episode kind.

Every test drives a small raw :class:`~repro.net.cluster.Cluster` (no DSM
protocol on top) so the injected fault's effect is directly observable:
drops show up in ``NetStats.drops_by_cause["fault"]`` and in retransmissions,
duplicates must be absorbed by the transport, slowdown/pause stretch
simulated compute time, and a crash aborts ``sim.run``.
"""

import pytest

from repro.faults import (
    Episode,
    FaultInjector,
    FaultPlan,
    FaultPlanError,
    NodeCrashed,
    install_faults,
)
from repro.net import Cluster, MessageKind, NetConfig
from repro.sim import Timeout

FAST = NetConfig(rexmit_timeout=0.05, max_retries=10)


def _sink(received):
    def handler(msg):
        received.append(msg.payload)
        return
        yield  # pragma: no cover

    return handler


def _cluster(n, plan):
    c = Cluster(n, netcfg=FAST)
    injector = c.install_faults(plan)
    return c, injector


# -- which plans cost a departure event ------------------------------------------


@pytest.mark.parametrize("episode,per_frame", [
    (None, 2),
    (Episode(kind="degrade", bandwidth_factor=2.0), 2),  # node-level, active
    (Episode(kind="buffer", buffer_factor=0.5), 2),
    (Episode(kind="slowdown", cpu_factor=2.0), 2),
    (Episode(kind="loss", drop_prob=0.5, start=1e6), 3),  # transfer-level, idle
    (Episode(kind="degrade", latency_add=1e-3, start=1e6), 3),
    (Episode(kind="reorder", reorder_prob=0.5, reorder_delay=1e-3, start=1e6), 3),
    (Episode(kind="duplicate", dup_prob=0.5, start=1e6), 3),
], ids=lambda v: getattr(v, "kind", v))
def test_only_transfer_level_episodes_cost_a_departure_event(episode, per_frame):
    """A frame is two events; a plan whose verdicts draw the shared stream
    per frame (whether or not a window is open) adds the event they are
    drawn at, and no other plan — empty, or node-level however active —
    adds anything."""
    c, injector = _cluster(2, FaultPlan(() if episode is None else (episode,)))
    assert injector.transfer_level is (per_frame == 3)
    received = []
    c[1].register_handler(MessageKind.TEST, _sink(received))
    c.run()  # dispatcher start-ups
    base = c.sim.events_processed

    def sender():
        for k in range(3):
            yield from c[0].send_reliable(1, MessageKind.TEST, k, size=64)

    c.sim.spawn(sender())
    c.run()
    assert received == [0, 1, 2]
    # sender start, then per send: the frame and its ack, whose RX completion
    # resumes the sender in place
    assert c.sim.events_processed - base == 1 + 3 * 2 * per_frame


# -- loss ------------------------------------------------------------------------


def test_loss_window_only_hits_inside_the_window():
    plan = FaultPlan(
        (Episode(kind="loss", drop_prob=1.0, start=0.10, end=0.20),)
    )
    c, injector = _cluster(2, plan)
    received = []
    c[1].register_handler(MessageKind.TEST, _sink(received))

    def sender():
        yield from c[0].send_reliable(1, MessageKind.TEST, "early", size=64)
        early_rexmit = c.stats.rexmit
        yield Timeout(0.12 - c.sim.now)
        yield from c[0].send_reliable(1, MessageKind.TEST, "inside", size=64)
        assert early_rexmit == 0, "pre-window send must not retransmit"

    c.sim.spawn(sender())
    c.run()
    # both delivered: the transport rides out the window via retransmission
    assert received == ["early", "inside"]
    assert c.stats.drops_by_cause.get("fault", 0) >= 1
    assert c.stats.rexmit >= 1
    assert injector.injected["drop"] == c.stats.drops_by_cause["fault"]


def test_loss_on_one_link_direction_only():
    # drop everything 1 -> 0 (i.e. the transport ACKs) for a short window:
    # the payload still arrives exactly once, the sender just retransmits
    plan = FaultPlan(
        (Episode(kind="loss", drop_prob=1.0, src=1, dst=0, end=0.12),)
    )
    c, _ = _cluster(2, plan)
    received = []
    c[1].register_handler(MessageKind.TEST, _sink(received))

    def sender():
        yield from c[0].send_reliable(1, MessageKind.TEST, "once", size=64)

    c.sim.spawn(sender())
    c.run()
    assert received == ["once"]
    assert c.stats.rexmit >= 2
    assert c.stats.drops_by_cause["fault"] >= 2


# -- duplication -----------------------------------------------------------------


def test_duplicates_are_injected_and_suppressed():
    plan = FaultPlan((Episode(kind="duplicate", dup_prob=1.0),))
    c, injector = _cluster(2, plan)
    received = []
    c[1].register_handler(MessageKind.TEST, _sink(received))

    def sender():
        for k in range(5):
            yield from c[0].send_reliable(1, MessageKind.TEST, k, size=64)

    c.sim.spawn(sender())
    c.run()
    # every wire copy (payload + acks) was doubled, yet delivery is exactly-once
    assert received == list(range(5))
    assert injector.injected["duplicate"] >= 5
    assert c.stats.drops == 0


def test_duplicated_request_runs_handler_once():
    plan = FaultPlan((Episode(kind="duplicate", dup_prob=1.0),))
    c, _ = _cluster(2, plan)
    calls = []

    def responder(msg):
        calls.append(msg.payload)
        c[1].reply_to(msg, MessageKind.TEST, msg.payload * 2, size=32)
        return
        yield  # pragma: no cover

    c[1].register_handler(MessageKind.TEST, responder)
    out = []

    def requester():
        reply = yield from c[0].request(1, MessageKind.TEST, 21, size=64)
        out.append(reply.payload)

    c.sim.spawn(requester())
    c.run()
    assert out == [42]
    assert calls == [21], "at-most-once execution despite duplication"


# -- reordering ------------------------------------------------------------------


def test_reorder_delay_is_bounded():
    delay_cap = 0.01

    def one_send(plan):
        c = Cluster(2, netcfg=FAST)
        if plan is not None:
            c.install_faults(plan)
        arrivals = []

        def handler(msg):
            arrivals.append(c.sim.now)
            return
            yield  # pragma: no cover

        c[1].register_handler(MessageKind.TEST, handler)

        def sender():
            yield from c[0].send_reliable(1, MessageKind.TEST, "x", size=64)

        c.sim.spawn(sender())
        c.run()
        return arrivals[0]

    base = one_send(None)
    plan = FaultPlan(
        (Episode(kind="reorder", reorder_prob=1.0, reorder_delay=delay_cap),)
    )
    delayed = one_send(plan)
    assert base <= delayed <= base + delay_cap + 1e-9


# -- buffer shrink ---------------------------------------------------------------


def test_buffer_shrink_amplifies_congestion_loss():
    plan = FaultPlan((Episode(kind="buffer", node=0, buffer_factor=0.01),))
    c, _ = _cluster(4, plan)
    received = []
    c[0].register_handler(MessageKind.TEST, _sink(received))

    def sender(rank):
        yield from c[rank].send_reliable(0, MessageKind.TEST, rank, size=1000)

    for rank in (1, 2, 3):
        c.sim.spawn(sender(rank))
    c.run()
    # a simultaneous 3-sender burst cannot fit a ~1.3 KB buffer...
    assert c.stats.drops_by_cause.get("overflow", 0) >= 1
    # ...but retransmission still lands every message exactly once
    assert sorted(received) == [1, 2, 3]


def test_buffer_shrink_targets_only_the_named_node():
    plan = FaultPlan((Episode(kind="buffer", node=3, buffer_factor=0.01),))
    c, _ = _cluster(4, plan)
    received = []
    c[0].register_handler(MessageKind.TEST, _sink(received))

    def sender(rank):
        yield from c[rank].send_reliable(0, MessageKind.TEST, rank, size=1000)

    for rank in (1, 2, 3):
        c.sim.spawn(sender(rank))
    c.run()
    assert c.stats.drops == 0, "node 0's buffer is untouched"
    assert sorted(received) == [1, 2, 3]


# -- degrade ---------------------------------------------------------------------


def test_degrade_latency_and_bandwidth_slow_delivery():
    def one_send(plan):
        c = Cluster(2, netcfg=FAST)
        if plan is not None:
            c.install_faults(plan)
        arrivals = []

        def handler(msg):
            arrivals.append(c.sim.now)
            return
            yield  # pragma: no cover

        c[1].register_handler(MessageKind.TEST, handler)

        def sender():
            yield from c[0].send_reliable(1, MessageKind.TEST, "x", size=4096)

        c.sim.spawn(sender())
        c.run()
        return arrivals[0]

    base = one_send(None)
    lat = one_send(FaultPlan((Episode(kind="degrade", latency_add=0.004),)))
    assert lat == pytest.approx(base + 0.004)
    bw = one_send(FaultPlan((Episode(kind="degrade", bandwidth_factor=4.0),)))
    assert bw > base  # wire time stretched on both the TX and RX side


# -- slowdown / pause ------------------------------------------------------------


def test_slowdown_stretches_compute_on_target_node_only():
    plan = FaultPlan((Episode(kind="slowdown", node=0, cpu_factor=3.0),))
    c, _ = _cluster(2, plan)
    finished = {}

    def worker(rank):
        yield from c[rank].compute(0.1)
        finished[rank] = c.sim.now

    c.sim.spawn(worker(0))
    c.sim.spawn(worker(1))
    c.run()
    assert finished[0] == pytest.approx(0.3)
    assert finished[1] == pytest.approx(0.1)


def test_pause_stalls_work_until_the_window_ends():
    plan = FaultPlan((Episode(kind="pause", node=0, start=0.0, end=0.5),))
    c, _ = _cluster(2, plan)
    finished = []

    def worker():
        yield Timeout(0.2)
        yield from c[0].compute(0.1)  # starts mid-pause: +0.3 s stall
        finished.append(c.sim.now)
        yield from c[0].compute(0.1)  # after the window: normal speed
        finished.append(c.sim.now)

    c.sim.spawn(worker())
    c.run()
    assert finished[0] == pytest.approx(0.6)
    assert finished[1] == pytest.approx(0.7)


# -- crash -----------------------------------------------------------------------


def test_crash_aborts_the_run_at_the_scheduled_time():
    plan = FaultPlan((Episode(kind="crash", node=1, start=0.05),))
    c, _ = _cluster(2, plan)

    def worker():
        yield Timeout(10.0)

    c.sim.spawn(worker())
    with pytest.raises(NodeCrashed) as exc_info:
        c.run()
    assert exc_info.value.node == 1
    assert exc_info.value.sim_time == pytest.approx(0.05)
    assert c.sim.now == pytest.approx(0.05), "abort is immediate, not a hang"


# -- installation ----------------------------------------------------------------


def test_install_rejects_out_of_range_targets():
    plan = FaultPlan((Episode(kind="crash", node=5, start=1.0),))
    with pytest.raises(FaultPlanError, match="out of range"):
        Cluster(2, netcfg=FAST).install_faults(plan)


def test_injector_is_single_use():
    injector = FaultInjector(FaultPlan())
    install_faults(Cluster(2, netcfg=FAST), injector)
    with pytest.raises(FaultPlanError, match="only be installed once"):
        install_faults(Cluster(2, netcfg=FAST), injector)


def test_faults_default_to_none():
    c = Cluster(2, netcfg=FAST)
    assert c.sim.faults is None
