"""The transport's pending-record path: gathered requests, per-record
retransmission, and what happens to a record whose sender moved on."""

import pytest

from repro.net import Cluster, MessageKind, NetConfig
from repro.net.transport import RequestError
from repro.sim import Timeout
from tests.net.conftest import DELIVER, DUPLICATE, drop_frames, script_transfers

KIND = MessageKind.TEST
FAST = dict(rexmit_timeout=0.1, max_retries=3)


def echo_cluster(n, costs=None, **cfg):
    """Node 0 plus ``n - 1`` servers echoing ``(server id, payload)``; server
    ``i`` charges ``costs[i]`` seconds before it replies."""
    c = Cluster(n, netcfg=NetConfig(**cfg))
    for node in c.nodes[1:]:
        def echo(msg, node=node):
            node.reply_to(msg, KIND, (node.id, msg.payload), size=32)

        node.register_handler(KIND, echo, cost=(costs or {}).get(node.id, 1e-5))
    c.run()  # dispatcher start-ups
    return c


def gather(c, dsts, out):
    def caller():
        try:
            replies = yield c[0].transport.call_all(
                [(dst, KIND, f"q{dst}", 16) for dst in dsts])
            out.append(("ok", c.sim.now, [r.payload for r in replies]))
        except RequestError as exc:
            out.append(("failed", c.sim.now, exc))

    return c.sim.spawn(caller())


def test_gather_resumes_once_in_request_order_when_replies_arrive_reversed():
    c = echo_cluster(4, costs={1: 3e-3, 2: 2e-3, 3: 1e-3})
    base, out, arrivals = c.sim.events_processed, [], []
    received = c[0].transport.on_receive
    c[0].transport.on_receive = lambda msg: (arrivals.append(msg.src), received(msg))[1]
    gather(c, [1, 2, 3], out)
    c.run()
    assert arrivals == [3, 2, 1]
    assert [o[0] for o in out] == ["ok"]
    assert out[0][2] == [(1, "q1"), (2, "q2"), (3, "q3")]
    # the caller's start, the start hop, 5 per request (4 NIC + the handler's
    # cost charge) — the last reply resumes the caller in place, and not one
    # answered timer fires
    assert c.sim.events_processed - base == 1 + 1 + 3 * 5
    assert c[0].transport.pending_counts() == (0, 0)


def test_lost_reply_retransmits_that_request_alone():
    c = echo_cluster(4, **FAST)
    base, out = c.sim.events_processed, []
    lost = drop_frames(c, lambda m: m.is_reply and m.src == 2, count=1)
    gather(c, [1, 2, 3], out)
    c.run()
    assert len(lost) == 1 and out[0][0] == "ok"
    assert out[0][2] == [(1, "q1"), (2, "q2"), (3, "q3")]
    assert c.node_stats[0].rexmit == 1  # the requester's only retransmission
    assert c.node_stats[2].rexmit == 1  # answered from the reply cache
    assert out[0][1] > FAST["rexmit_timeout"]
    # a scripted verdict gives every frame a departure event, so 3 per frame:
    # start + hop + two clean round trips + the lost one (5 events up to the
    # drop) + its timer + request again (3) + cached reply (3), which resumes
    # the caller in place: had the two answered timers fired, there would be
    # two more
    assert c.sim.events_processed - base == 1 + 1 + 2 * 7 + 5 + 1 + 3 + 3


def test_duplicate_reply_is_ignored():
    c = echo_cluster(2)
    out = []
    script_transfers(c, lambda msg: DUPLICATE if msg.is_reply else DELIVER)
    gather(c, [1], out)
    c.run()
    assert out == [("ok", out[0][1], [(1, "q1")])]
    assert c[0].transport.pending_counts() == (0, 0)


def test_exhausted_request_throws_the_same_error_and_leaves_no_record():
    c = echo_cluster(2, **FAST)
    drop_frames(c, lambda m: True)
    out = []

    def caller():
        try:
            yield from c[0].request(1, KIND, None, 16)
        except RequestError as exc:
            out.append(exc)
            # seen from inside the failure: the record is already gone
            out.append(c[0].transport.pending_counts())

    c.sim.spawn(caller())
    c.run()
    exc, pending = out
    assert str(exc) == f"node 0: {KIND} to 1 lost after 3 retries"
    assert (exc.node, exc.dst, exc.kind, exc.attempts) == (0, 1, "TEST", 3)
    assert exc.sim_time == c.sim.now == pytest.approx(4 * FAST["rexmit_timeout"])
    assert pending == (0, 0)
    assert c.node_stats[0].rexmit == 3


def test_gather_fails_once_and_drops_the_sibling_records():
    """Two unanswered requests exhaust at the same instant: the first in
    request order fails the call; the other finds its caller gone and is
    dropped, not thrown into a process that moved on."""
    c = echo_cluster(3, rexmit_timeout=0.1, max_retries=1)
    drop_frames(c, lambda m: True)
    out = []

    def caller():
        try:
            yield c[0].transport.call_all([(2, KIND, "a", 16), (1, KIND, "b", 16)])
        except RequestError as exc:
            out.append((exc.dst, c.sim.now, c[0].transport.pending_counts()))
        yield Timeout(5.0)  # a later wait that a stray failure would hit
        out.append("moved on")

    proc = c.sim.spawn(caller())
    c.run()
    assert out == [(2, pytest.approx(0.2), (0, 1)), "moved on"]
    assert not proc.error and c[0].transport.pending_counts() == (0, 0)
    assert c.node_stats[0].rexmit == 2  # one per request, before the failure


def test_call_all_needs_a_request():
    with pytest.raises(ValueError):
        Cluster(2)[0].transport.call_all([])
