"""Unit tests for the NIC/switch/transport stack."""

import pytest

from repro.faults import Episode, FaultPlan
from repro.net import Cluster, Message, MessageKind, NetConfig, NodeConfig
from repro.sim import Timeout


def make_cluster(n=2, **cfg):
    return Cluster(n, netcfg=NetConfig(**cfg))


def lossy_cluster(n, drop_prob, seed=0, **cfg):
    """A cluster whose switch drops every frame with ``drop_prob``."""
    c = make_cluster(n, **cfg)
    c.install_faults(FaultPlan((Episode(kind="loss", drop_prob=drop_prob),), seed=seed))
    return c


def install_sink(node, kind=MessageKind.TEST):
    """Register a handler that records (payload, time) tuples."""
    log = []

    def handler(msg):
        log.append((msg.payload, node.sim.now))
        return
        yield  # pragma: no cover

    node.register_handler(kind, handler)
    return log


def test_reliable_send_delivers_payload():
    c = make_cluster()
    log = install_sink(c[1])

    def sender():
        yield from c[0].send_reliable(1, MessageKind.TEST, {"x": 1}, size=100)

    c.sim.spawn(sender())
    c.run()
    assert [p for p, _ in log] == [{"x": 1}]
    assert c.stats.num_msg == 1
    assert c.stats.data_bytes == 100
    assert c.stats.acks == 1
    assert c.stats.rexmit == 0


def test_latency_accounts_for_size():
    """A 1 MB message takes visibly longer than a 100 B one."""
    c = make_cluster()
    log = install_sink(c[1])

    def sender():
        yield from c[0].send_reliable(1, MessageKind.TEST, "small", size=100)
        t_small = c.sim.now
        yield from c[0].send_reliable(1, MessageKind.TEST, "big", size=1_000_000)
        t_big = c.sim.now
        assert (t_big - t_small) > 10 * t_small

    c.sim.spawn(sender())
    c.run()
    assert [p for p, _ in log] == ["small", "big"]


def test_request_reply_roundtrip():
    c = make_cluster()

    def echo_handler(msg):
        c[1].reply_to(msg, MessageKind.TEST, msg.payload * 2, size=50)
        return
        yield  # pragma: no cover

    c[1].register_handler(MessageKind.TEST, echo_handler)
    out = []

    def client():
        reply = yield from c[0].request(1, MessageKind.TEST, 21, size=30)
        out.append(reply.payload)

    c.sim.spawn(client())
    c.run()
    assert out == [42]
    assert c.stats.num_msg == 2  # request + reply
    assert c.stats.data_bytes == 80


def test_self_send_rejected():
    c = make_cluster()
    with pytest.raises(ValueError):
        c[0].send_reliable(0, MessageKind.TEST, None, size=1)
    with pytest.raises(ValueError):
        c[0].request(0, MessageKind.TEST, None, size=1)


def test_message_validation():
    with pytest.raises(ValueError):
        Message(src=0, dst=1, kind=MessageKind.TEST, payload=None, size=-5, msg_id=0)
    with pytest.raises(ValueError):
        Message(src=3, dst=3, kind=MessageKind.TEST, payload=None, size=5, msg_id=0)


def test_unknown_kind_raises_via_run():
    from repro.sim import SimError

    c = make_cluster()

    def sender():
        yield from c[0].send_reliable(1, MessageKind.TEST, None, size=10)

    c.sim.spawn(sender())
    with pytest.raises(SimError, match="dispatch-1") as excinfo:
        c.run()
    cause = excinfo.value.__cause__
    assert type(cause) is LookupError
    assert str(cause) == f"node 1: no handler for message kind {MessageKind.TEST!r}"


def test_buffer_overflow_drops_and_retransmission_recovers():
    """Many senders bursting large messages into one node overflow its byte
    buffer; reliable transport still delivers everything, at the cost of
    rexmits and time."""
    n = 16
    c = Cluster(
        n,
        netcfg=NetConfig(
            recv_buffer_bytes=16_000, red_threshold_bytes=8_000, rexmit_timeout=0.5
        ),
    )
    log = install_sink(c[0])

    def sender(i):
        yield from c[i].send_reliable(0, MessageKind.TEST, i, size=4000)

    for i in range(1, n):
        c.sim.spawn(sender(i))
    c.run()
    assert sorted(p for p, _ in log) == list(range(1, n))
    assert c.stats.drops > 0
    assert c.stats.rexmit > 0
    # every original message counted exactly once
    assert c.stats.num_msg == n - 1


def test_tiny_messages_never_congest():
    """A burst of small control messages stays under the RED threshold."""
    n = 16
    c = Cluster(n, netcfg=NetConfig(recv_buffer_bytes=16_000, red_threshold_bytes=8_000))
    log = install_sink(c[0])

    def sender(i):
        yield from c[i].send_reliable(0, MessageKind.TEST, i, size=16)

    for i in range(1, n):
        c.sim.spawn(sender(i))
    c.run()
    assert c.stats.drops == 0
    assert c.stats.rexmit == 0
    assert len(log) == n - 1


def test_no_duplicate_delivery_under_loss():
    """Duplicate suppression: even with heavy loss each payload arrives once."""
    n = 12
    c = Cluster(
        n,
        netcfg=NetConfig(
            recv_buffer_bytes=6_000, red_threshold_bytes=2_000, rexmit_timeout=0.3
        ),
    )
    log = install_sink(c[0])

    def sender(i):
        for k in range(3):
            yield from c[i].send_reliable(0, MessageKind.TEST, (i, k), size=2000)

    for i in range(1, n):
        c.sim.spawn(sender(i))
    c.run()
    payloads = [p for p, _ in log]
    assert len(payloads) == len(set(payloads)) == (n - 1) * 3


def test_random_drop_is_seeded_and_deterministic():
    def run_once():
        c = lossy_cluster(4, 0.2, seed=7, rexmit_timeout=0.2)
        install_sink(c[0])

        def sender(i):
            for k in range(10):
                yield from c[i].send_reliable(0, MessageKind.TEST, (i, k), size=500)

        for i in range(1, 4):
            c.sim.spawn(sender(i))
        c.run()
        return (c.stats.rexmit, c.stats.drops, c.sim.now)

    assert run_once() == run_once()


def test_request_retry_when_reply_lost():
    """With random loss, requests eventually complete and handlers run once."""
    c = lossy_cluster(2, 0.3, seed=3, rexmit_timeout=0.2)
    calls = []

    def handler(msg):
        calls.append(msg.payload)
        c[1].reply_to(msg, MessageKind.TEST, "ok", size=10)
        return
        yield  # pragma: no cover

    c[1].register_handler(MessageKind.TEST, handler)
    replies = []

    def client():
        for k in range(20):
            r = yield from c[0].request(1, MessageKind.TEST, k, size=10)
            replies.append(r.payload)

    c.sim.spawn(client())
    c.run()
    assert replies == ["ok"] * 20
    # at-most-once execution: each request ran the handler exactly once
    assert sorted(calls) == list(range(20))


def test_rexmit_budget_exhaustion_raises():
    from repro.net.transport import RequestError

    c = lossy_cluster(2, 1.0, rexmit_timeout=0.01, max_retries=3)
    install_sink(c[1])
    errors = []

    def sender():
        try:
            yield from c[0].send_reliable(1, MessageKind.TEST, None, size=10)
        except RequestError as exc:
            errors.append(exc)

    c.sim.spawn(sender())
    c.run()
    assert len(errors) == 1
    assert c.stats.rexmit == 3


def test_serial_dispatcher_orders_handlers():
    """Handlers at one node run serially: total handling time accumulates."""
    c = make_cluster(n=3)
    done_times = []

    def slow_handler(msg):
        yield Timeout(0.010)
        done_times.append(c.sim.now)

    c[0].register_handler(MessageKind.TEST, slow_handler)

    def sender(i):
        yield from c[i].send_reliable(0, MessageKind.TEST, i, size=10)

    c.sim.spawn(sender(1))
    c.sim.spawn(sender(2))
    c.run()
    assert len(done_times) == 2
    assert done_times[1] - done_times[0] >= 0.010  # strictly serialised


def test_compute_charges_simulated_time():
    c = make_cluster()
    out = []

    def proc():
        yield from c[0].compute(0.5)
        out.append(c.sim.now)
        yield from c[0].compute_cycles(350e6)  # 1 second at 350 MHz
        out.append(c.sim.now)
        yield from c[0].copy_cost(80_000_000)  # 1 second at 80 MB/s
        out.append(c.sim.now)

    c.sim.spawn(proc())
    c.run()
    assert out == [0.5, 1.5, 2.5]


@pytest.mark.parametrize("seconds", [float("nan"), -1e-9, -5.0, float("inf")])
def test_compute_refuses_a_charge_that_is_not_a_duration(seconds):
    """A NaN, negative or infinite charge is a caller's bug: refused, not
    charged as zero or as a wait that never ends.  A zero charge stays legal
    and takes no time."""
    c = make_cluster()

    def proc():
        with pytest.raises(ValueError, match="cannot charge"):
            yield from c[0].compute(seconds)
        yield from c[0].compute(0.0)

    p = c.sim.spawn(proc())
    c.run()
    assert p.finished and c.sim.now == 0.0


def test_cluster_requires_positive_size():
    with pytest.raises(ValueError):
        Cluster(0)


@pytest.mark.parametrize(
    "field, value",
    [("switch_latency", -1e-6), ("switch_latency", -1.0),
     ("bandwidth_bps", 0.0), ("bandwidth_bps", -100e6),
     ("send_overhead", float("nan")), ("send_overhead", float("inf")),
     ("recv_overhead", -1e-3), ("header_bytes", -100), ("ack_bytes", -1),
     ("recv_buffer_bytes", -1), ("red_threshold_bytes", float("nan")),
     ("drop_seed", -1),
     ("max_retries", float("nan")),
     ("switch_latency", float("inf")), ("bandwidth_bps", float("inf")),
     ("header_bytes", 42.0), ("ack_bytes", True), ("recv_buffer_bytes", 65536.5),
     ("red_threshold_bytes", 8e4), ("drop_seed", 1.5), ("drop_seed", False)],
)
def test_netconfig_rejects_an_unusable_network(field, value):
    """A small negative latency would deliver a frame before it departs, a
    larger one (or a negative receive overhead) fail mid-run with "cannot
    schedule in the past", a zero bandwidth divide by zero at the first send,
    a NaN overhead kill the first sender and a negative header size shorten
    every frame; an infinite latency or bandwidth dies at the first send with
    a misleading "cannot schedule in the past", and a byte size or seed that
    is not an int (a float, or a bool) is no count: all are refused when the
    config is built, naming the field.  A zero latency stays legal."""
    with pytest.raises(ValueError, match=field):
        NetConfig(**{field: value})
    assert NetConfig(switch_latency=0.0).switch_latency == 0.0


def test_netconfig_rejects_a_network_whose_frames_arrive_as_they_are_sent():
    """With no header, send overhead or switch latency an empty frame arrives
    at its send instant and ran ahead of the work made ready at that instant
    (the run loop takes a due arrival before the ready deque).  Any one of
    the three being positive is enough."""
    with pytest.raises(ValueError, match="must not all be 0"):
        NetConfig(header_bytes=0, send_overhead=0.0, switch_latency=0.0)
    NetConfig(send_overhead=0.0, switch_latency=0.0)
    NetConfig(header_bytes=0, switch_latency=0.0)
    NetConfig(header_bytes=0, send_overhead=0.0)


@pytest.mark.parametrize(
    "field, value",
    [("cpu_hz", 0), ("cpu_hz", float("nan")), ("mem_copy_bps", -1.0),
     ("mem_copy_bps", float("inf")), ("page_size", 0), ("page_size", 4096.0),
     ("page_size", True)],
)
def test_nodeconfig_rejects_an_unusable_node(field, value):
    """A zero clock kills the first process that computes, a negative copy
    bandwidth makes ``Node.compute`` skip every copy charge, and a page size
    must be an int: refused when the config is built, naming the field."""
    with pytest.raises(ValueError, match=field):
        NodeConfig(**{field: value})


def test_stats_snapshot_roundtrip():
    c = make_cluster()
    install_sink(c[1])

    def sender():
        yield from c[0].send_reliable(1, MessageKind.TEST, None, size=64)

    c.sim.spawn(sender())
    c.run()
    snap = c.stats.snapshot()
    assert snap["num_msg"] == 1
    assert snap["data_bytes"] == 64
    assert snap["by_kind"] == {str(MessageKind.TEST): {"count": 1, "bytes": 64}}


# -- the two-event frame path and the mailbox-free dispatcher ----------------------


def parked(c):
    """Run the cluster until every dispatcher sits parked; returns the event
    count so far (the dispatchers' first resumes)."""
    c.run()
    assert all(node._proc._parked for node in c.nodes)
    return c.sim.events_processed


def test_one_frame_costs_two_events_plus_the_handlers_own():
    """Arrival and RX completion (the TX side is a free-at timestamp) — the
    handler itself runs inside the RX completion, so a handler that yields
    nothing adds none."""
    c = make_cluster()
    log = install_sink(c[1])

    def one_compute(msg):
        yield from c[0].compute(1e-3)

    c[0].register_handler(MessageKind.TEST, one_compute)
    base = parked(c)
    c[0].nic.send(Message(src=0, dst=1, kind=MessageKind.TEST, payload="a", size=100,
                          msg_id=0))
    c.run()
    assert [p for p, _ in log] == ["a"]
    assert c.sim.events_processed - base == 2
    base = c.sim.events_processed
    c[1].nic.send(Message(src=1, dst=0, kind=MessageKind.TEST, payload="b", size=100,
                          msg_id=1))
    c.run()
    assert c.sim.events_processed - base == 2 + 1  # + the handler's Timeout


def test_send_on_an_unattached_nic_fails_at_the_call_site():
    from repro.net.nic import Nic
    from repro.net.stats import NetStats
    from repro.sim import Simulator

    sim = Simulator()
    nic = Nic(sim, 0, NetConfig(), NetStats(), deliver=lambda msg: None)
    with pytest.raises(RuntimeError, match="NIC 0 is not attached to a switch"):
        nic.send(Message(src=0, dst=1, kind=MessageKind.TEST, payload=None, size=10,
                         msg_id=0))
    assert sim.peek_next_time() == float("inf")  # and it queued nothing


def test_back_to_back_frames_complete_at_link_rate_and_drain_fifo():
    """k frames queued on one NIC at t=0: TX serialises them at link rate and
    the (slower) RX side backlogs and drains in arrival order; every
    completion lands on the closed-form instant, bit for bit."""
    cfg = NetConfig(recv_overhead=200e-6)  # RX slower than TX: backlog builds
    c = Cluster(2, netcfg=cfg)
    log = install_sink(c[1])
    base = parked(c)
    sizes = [100, 1400, 100, 4096, 8, 1400]
    for i, size in enumerate(sizes):
        c[0].nic.send(Message(src=0, dst=1, kind=MessageKind.TEST, payload=i, size=size,
                              msg_id=i))
    c.run()
    expected, tx_done, rx_done = [], 0.0, 0.0
    for i, size in enumerate(sizes):
        tx_done = tx_done + (cfg.send_overhead + cfg.tx_time(size))
        arrival = tx_done + cfg.switch_latency
        rx_done = max(arrival, rx_done) + (cfg.tx_time(size) + cfg.recv_overhead)
        expected.append((i, rx_done))
    assert log == expected
    assert rx_done > arrival + cfg.recv_overhead + cfg.tx_time(sizes[-1])  # it did backlog
    assert c.sim.events_processed - base == 2 * len(sizes)
    assert c[1].nic.rx_bytes == 0 and not c[1].nic._rx_busy


def nic_spans(tracer, pid, lane):
    """``(start, end, msg)`` of each complete row on one NIC lane, in order."""
    return [(t, end, args["msg"]) for ph, t, p, ln, _cat, _name, args, end
            in tracer.events if ph == "X" and (p, ln) == (pid, lane)]


@pytest.mark.parametrize("slowdown", [False, True])
def test_nic_rows_end_at_the_hand_off_and_delivery_instants(slowdown):
    """A NIC span is one row written when it begins, so its end is a
    prediction: it must be, bit for bit, the departure instant the switch is
    handed (``nic-tx``) and the instant the handler sees the message
    (``nic-rx``) — also while a bandwidth episode stretches wire times
    mid-burst — and a lane's rows never overlap (both sides are FIFO
    servers)."""
    from repro.obs import EventTracer
    from tests.net.conftest import DELIVER, script_transfers

    c = make_cluster()
    tracer = c.sim.tracer = EventTracer()
    if slowdown:  # node 1's link runs 3x slow for a while, both directions
        script_transfers(c, lambda msg: DELIVER,
                         lambda node, t: 3.0 if node == 1 and 4e-4 <= t < 2e-3 else 1.0)
    logs = [install_sink(node) for node in c.nodes]
    handed = []  # (src, msg id, t_dep) at each switch hand-off
    forward = c.switch.forward

    def spy(msg, t_dep, key):
        handed.append((msg.src, msg.msg_id, t_dep))
        forward(msg, t_dep, key)

    c.switch.forward = spy
    parked(c)
    sizes = [100, 1400, 100, 4096, 8, 1400, 4096, 100]
    for i, size in enumerate(sizes):
        for src in (0, 1):
            c[src].nic.send(Message(src=src, dst=1 - src, kind=MessageKind.TEST,
                                    payload=(src, i), size=size, msg_id=2 * i + src))
    c.run()
    for node in (0, 1):
        tx, rx = nic_spans(tracer, node, "nic-tx"), nic_spans(tracer, node, "nic-rx")
        assert [(node, msg, end) for _t, end, msg in tx] == \
            [h for h in handed if h[0] == node]
        assert [end for _t, end, _msg in rx] == [t for _payload, t in logs[node]]
        assert [p for p, _t in logs[node]] == [(1 - node, i) for i in range(len(sizes))]
        for lane in (tx, rx):
            assert len(lane) == len(sizes)
            assert all(t < end for t, end, _msg in lane)
            assert all(a[1] <= b[0] for a, b in zip(lane, lane[1:]))
    if slowdown:  # the episode did bite: same frames, later last delivery
        plain = NetConfig()
        unstretched = sum(plain.send_overhead + plain.tx_time(sz) for sz in sizes)
        assert nic_spans(tracer, 1, "nic-tx")[-1][1] > unstretched * 1.5


def test_frame_arriving_mid_handler_starts_when_the_handler_ends():
    """The dispatcher drains its backlog without yielding: the queued
    message's handler starts at exactly the previous handler's end time and
    costs no event of its own."""
    c = make_cluster()
    spans = []

    def handler(msg):
        start = c.sim.now
        yield from c[1].compute(0.010)
        spans.append((msg.payload, start, c.sim.now))

    c[1].register_handler(MessageKind.TEST, handler)
    base = parked(c)
    for i in range(3):
        c[0].nic.send(Message(src=0, dst=1, kind=MessageKind.TEST, payload=i, size=10,
                              msg_id=i))
    c.run()
    assert [p for p, _, _ in spans] == [0, 1, 2]
    assert spans[1][1] == spans[0][2] and spans[2][1] == spans[1][2]
    assert spans[0][2] - spans[0][1] == 0.010
    assert c.sim.events_processed - base == 3 * 2 + 3  # frames + one Timeout each
    assert c[1]._proc._parked and not c[1]._backlog


def test_handlers_never_overlap_under_a_burst_and_dispatch_spans_balance():
    from repro.obs import EventTracer

    n = 16
    c = Cluster(n)
    tracer = c.sim.tracer = EventTracer()
    running = []
    handled = []

    def handler(msg):
        assert not running, f"handler re-entered while {running} was running"
        running.append(msg.payload)
        yield from c[0].compute(1e-4)
        yield from c[0].compute(1e-4)
        running.pop()
        handled.append(msg.payload)

    c[0].register_handler(MessageKind.TEST, handler)

    def sender(i):
        yield from c[i].send_reliable(0, MessageKind.TEST, i, size=64)

    for i in range(1, n):
        c.sim.spawn(sender(i))
    c.run()
    assert sorted(handled) == list(range(1, n))
    # one X row per handler, each starting no earlier than the previous ended
    rows = [ev for ev in tracer.events if ev[3] == "dispatch"]
    assert [ev[0] for ev in rows] == ["X"] * (n - 1)
    spans = [(ev[1], ev[7]) for ev in rows if ev[2] == 0]
    assert len(spans) == n - 1
    assert all(t0 < t1 for t0, t1 in spans)
    assert all(a[1] <= b[0] for a, b in zip(spans, spans[1:]))


# -- plain handlers: a fixed cost, then a function call, no process -----------------


def test_plain_handler_runs_at_exactly_arrival_plus_cost():
    c = make_cluster()
    cost, arrived, served = 37e-6, [], []
    received = c[1].transport.on_receive
    c[1].transport.on_receive = lambda msg: (arrived.append(c.sim.now), received(msg))[1]

    def on_request(msg):
        served.append(c.sim.now)
        c[1].reply_to(msg, MessageKind.TEST, msg.payload + 1, size=8)

    c[1].register_handler(MessageKind.TEST, on_request, cost=cost)
    base, out = parked(c), []

    def client():
        reply = yield from c[0].request(1, MessageKind.TEST, 1, size=8)
        out.append(reply.payload)

    c.sim.spawn(client())
    c.run()
    assert out == [2] and served == [arrived[0] + cost]  # float ==, not approx
    assert c[1]._proc._parked and not c[1]._busy  # the dispatcher never ran
    # start, NIC, cost; the reply's RX completion resumes the client in place
    assert c.sim.events_processed - base == 1 + 4 + 1


def test_zero_cost_plain_handler_is_served_inside_the_rx_completion():
    c = make_cluster()
    served = []
    c[1].register_handler(MessageKind.TEST, lambda msg: served.append(c.sim.now), cost=0.0)
    base = parked(c)
    c[0].nic.send(Message(src=0, dst=1, kind=MessageKind.TEST, payload=None, size=10,
                          msg_id=0))
    assert c.run() == served[0]
    assert c.sim.events_processed - base == 2


def test_round_trip_between_idle_nodes_is_four_events():
    """Four NIC events and nothing else: the reply's RX completion resumes
    the requester in place, and the answered retransmission timer is
    cancelled, not fired a second later."""
    c = make_cluster()

    def on_request(msg):
        c[1].reply_to(msg, MessageKind.TEST, None, 8)
        return
        yield  # pragma: no cover

    c[1].register_handler(MessageKind.TEST, on_request)
    trips = 10

    def caller():
        for _ in range(trips):
            yield from c[0].request(1, MessageKind.TEST, None, 8)

    base = parked(c)
    c.sim.spawn(caller())
    assert c.run() < c.netcfg.rexmit_timeout
    assert c.sim.events_processed - base == 1 + 4 * trips


def test_mixed_plain_and_generator_burst_is_served_fifo_without_overlap():
    n = 16
    c = Cluster(n)
    plain, gen = MessageKind.TEST, MessageKind.MPI_DATA
    arrived, served, running = [], [], []
    received = c[0].transport.on_receive

    def on_receive(msg):
        out = received(msg)
        if out is not None:
            arrived.append(out.payload)
        return out

    c[0].transport.on_receive = on_receive

    def plain_handler(msg):
        assert not running, f"handler re-entered while {running} was running"
        served.append(msg.payload)

    def gen_handler(msg):
        assert not running, f"handler re-entered while {running} was running"
        running.append(msg.payload)
        yield from c[0].compute(1e-4)
        yield from c[0].compute(1e-4)
        running.pop()
        served.append(msg.payload)

    c[0].register_handler(plain, plain_handler, cost=1e-4)
    c[0].register_handler(gen, gen_handler)

    def sender(i):
        yield from c[i].send_reliable(0, plain if i % 3 else gen, i, size=64)

    for i in range(1, n):
        c.sim.spawn(sender(i))
    c.run()
    assert sorted(served) == list(range(1, n)) and served == arrived
    assert c[0]._proc._parked and not c[0]._busy and not c[0]._backlog


@pytest.mark.parametrize("cost", [None, 1e-4, 0.0], ids=["generator", "plain", "plain-free"])
def test_raising_handler_fails_the_run_through_the_dispatcher(cost):
    """Whatever its form, a failing handler kills the node's dispatcher
    process, so ``run()`` reports it with the cause chained."""
    from repro.sim import SimError

    c = make_cluster()

    def plain(msg):
        raise ZeroDivisionError("handler bug")

    def generator(msg):
        plain(msg)
        yield  # pragma: no cover

    c[1].register_handler(MessageKind.TEST, generator if cost is None else plain, cost=cost)

    def sender():
        yield from c[0].send_reliable(1, MessageKind.TEST, None, size=10)

    c.sim.spawn(sender())
    with pytest.raises(SimError, match="'dispatch-1' died") as excinfo:
        c.run()
    assert type(excinfo.value.__cause__) is ZeroDivisionError


def test_traced_dispatch_rows_equal_the_generator_formulation(monkeypatch):
    """Serving DIFF_REQUEST/PAGE_REQUEST as plain functions changes no trace
    row but the engine's own: same dispatch spans, same timestamps."""
    from repro.apps import is_sort
    from repro.apps.common import run_app
    from repro.net.cluster import Node
    from repro.obs import EventTracer

    config = is_sort.IsConfig(n_keys=1500, b_max=64, reps=2, bucket_views=4, work_factor=1.0)

    def traced():
        tracer = EventTracer()
        result = run_app(is_sort, "vc_d", 4, config, tracer=tracer)
        rows = [ev for ev in tracer.events if ev[3] != "engine"]
        assert any(ev[3] == "dispatch" for ev in rows)
        return rows, result.stats.table_row(), result.events

    plain_rows, plain_row, plain_events = traced()
    register = Node.register_handler

    def as_generator(self, kind, handler, cost=None):
        def gen(msg):
            yield from self.compute(cost)
            handler(msg)

        register(self, kind, handler if cost is None else gen)

    monkeypatch.setattr(Node, "register_handler", as_generator)
    gen_rows, gen_row, gen_events = traced()
    assert plain_rows == gen_rows and plain_row == gen_row
    assert plain_events == gen_events
