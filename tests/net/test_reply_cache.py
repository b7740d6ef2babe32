"""When a server may forget a cached reply.

A server caches each reply so that a duplicate of its request is answered
from the cache instead of re-running the handler (at-most-once).  A reply
that answers a request sent once, with no fault plan able to duplicate
frames, is popped as soon as it is answered: no copy of the request can
arrive again.  Any other entry waits for the duplicate horizon.
"""

import pytest

from repro.apps import is_sort
from repro.apps.common import program_builder
from repro.core import make_system
from repro.faults import Episode, FaultPlan
from repro.net import Cluster, MessageKind, NetConfig
from repro.sim import Timeout


def _doubler(c: Cluster, calls: list):
    """Node 1's TEST handler: record the payload and reply with it doubled."""

    def responder(msg):
        calls.append(msg.payload)
        c[1].reply_to(msg, MessageKind.TEST, msg.payload * 2, size=32)
        return
        yield  # pragma: no cover

    c[1].register_handler(MessageKind.TEST, responder)


def test_an_answered_request_leaves_no_cached_reply():
    c = Cluster(2, netcfg=NetConfig(rexmit_timeout=0.1, max_retries=3))
    calls, sizes = [], []
    _doubler(c, calls)

    def requester():
        for k in range(20):
            reply = yield from c[0].request(1, MessageKind.TEST, k, size=64)
            assert reply.payload == 2 * k
            sizes.append(len(c[1].transport._reply_cache))

    c.sim.spawn(requester())
    c.run()
    assert calls == list(range(20))  # each handler ran once
    assert sizes == [0] * 20
    assert c.stats.rexmit == 0


def test_a_retransmitted_request_keeps_its_reply_until_the_horizon():
    """A loss episode on node 1's link to node 0, closed before the first
    retransmission, drops the first reply and nothing else.  The
    retransmitted request is answered from the cache, the entry outlives
    that answer and serves a late duplicate copy too, and only a receipt
    past the horizon evicts it."""
    c = Cluster(2, netcfg=NetConfig(rexmit_timeout=0.1, max_retries=3))
    c.install_faults(FaultPlan((Episode(kind="loss", drop_prob=1.0, src=1, dst=0, end=0.05),)))
    server = c[1].transport
    horizon = server._dup_horizon
    calls, arrived, seen = [], [], {}
    _doubler(c, calls)
    on_receive = server.on_receive

    def recording(msg):
        arrived.append(msg)
        return on_receive(msg)

    server.on_receive = recording

    def requester():
        reply = yield from c[0].request(1, MessageKind.TEST, 21, size=64)
        key = (0, reply.req_id)
        seen["answered"] = key in server._reply_cache
        yield Timeout(horizon / 2)
        c[0].transport.post(arrived[0].wire_copy())  # a late duplicate copy
        yield Timeout(horizon / 4)
        seen["duplicate served"] = key in server._reply_cache
        yield Timeout(horizon / 2)
        reply = yield from c[0].request(1, MessageKind.TEST, 5, size=64)
        seen["after horizon"] = dict(server._reply_cache)

    c.sim.spawn(requester())
    c.run()
    stats = c.stats
    assert stats.drops == 1 and c.node_stats[1].drops == 1  # node 1's reply
    assert [m.attempt for m in arrived] == [0, 1, 0, 0]
    assert calls == [21, 5]  # neither copy of 21 re-ran the handler
    # the retransmitted request and two answers from the cache
    assert stats.rexmit == 3
    assert seen == {"answered": True, "duplicate served": True, "after horizon": {}}


@pytest.mark.parametrize("episode, kept", [
    (Episode(kind="duplicate", dst=1, dup_prob=1.0), True),
    (Episode(kind="slowdown", node=1, cpu_factor=2.0), False),
    (Episode(kind="reorder", reorder_prob=1.0, reorder_delay=0.01), False),
])
def test_only_a_plan_that_can_duplicate_frames_keeps_answered_replies(episode, kept):
    """Under a duplicating plan every request arrives twice and every reply
    stays cached, so the second copy never re-runs the handler; a plan with
    node-level episodes only duplicates nothing, and the replies go."""
    c = Cluster(2, netcfg=NetConfig(rexmit_timeout=0.1, max_retries=3))
    injector = c.install_faults(FaultPlan((episode,), seed=4))
    calls, sizes = [], []
    _doubler(c, calls)

    def requester():
        for k in range(10):
            reply = yield from c[0].request(1, MessageKind.TEST, k, size=64)
            assert reply.payload == 2 * k
            sizes.append(len(c[1].transport._reply_cache))

    c.sim.spawn(requester())
    c.run()
    assert calls == list(range(10))
    assert injector.injected["duplicate"] == (10 if kept else 0)
    assert sizes == (list(range(1, 11)) if kept else [0] * 10)


def test_a_loss_plan_pops_every_reply_answered_once():
    """Loss never puts a second copy of a request on the wire, so under a
    loss plan exactly the retransmitted requests' replies stay cached."""
    # a horizon (10.2 s) longer than the run: no entry expires
    c = Cluster(2, netcfg=NetConfig(rexmit_timeout=0.1, max_retries=100))
    c.install_faults(FaultPlan((Episode(kind="loss", drop_prob=0.3),), seed=4))
    server = c[1].transport
    calls, arrived = [], []
    _doubler(c, calls)
    on_receive = server.on_receive

    def recording(msg):
        arrived.append(msg)
        return on_receive(msg)

    server.on_receive = recording

    def requester():
        for k in range(20):
            reply = yield from c[0].request(1, MessageKind.TEST, k, size=64)
            assert reply.payload == 2 * k

    c.sim.spawn(requester())
    c.run()
    assert calls == list(range(20))
    retransmitted = {m.req_id for m in arrived if m.attempt}
    assert 0 < len(retransmitted) < 20  # the loss bit, and some ran clean
    assert {req_id for _, req_id in server._reply_cache} == retransmitted
    assert c.sim.now < server._dup_horizon


def test_a_fault_free_is_run_ends_with_every_reply_cache_empty():
    system = make_system(8, "vc_d")
    config = is_sort.default_config()
    system.run_program(program_builder(is_sort, "vc_d")(system, config))
    assert is_sort.outputs_match(system.app_output, is_sort.sequential(config))
    assert system.stats.table_row()["Diff Requests"] > 0
    assert [len(node.transport._reply_cache) for node in system.cluster.nodes] == [0] * 8
