"""Regression tests for the retry budget and duplicate-suppression bounds.

* A reliable send must survive exactly ``max_retries`` lost transmissions:
  the final retransmission gets a full ``rexmit_timeout`` for its ack to
  come back (historically the sender gave up right after putting the last
  copy on the wire).
* ``_seen_reliable``/``_reply_cache`` are bounded by the duplicate horizon,
  not by run length, while preserving exactly-once delivery.
"""

import pytest

from repro.net import Cluster, MessageKind, NetConfig
from repro.net.transport import RequestError
from repro.sim import Timeout
from tests.net.conftest import DELIVER, drop_frames, script_transfers


def _drop_first(cluster: Cluster, kind: MessageKind, count: int) -> list:
    """Drop the first ``count`` frames of ``kind`` at the switch."""
    return drop_frames(cluster, lambda msg: msg.kind is kind, count)


def _sink(received):
    def handler(msg):
        received.append(msg.payload)
        return
        yield  # pragma: no cover

    return handler


@pytest.mark.parametrize(
    "field, value",
    [("rexmit_timeout", 0.0), ("rexmit_timeout", -0.1), ("max_retries", -1),
     ("rexmit_timeout", float("inf")), ("max_retries", 2.5), ("max_retries", True)],
)
def test_netconfig_rejects_an_unusable_retry_budget(field, value):
    """A zero timeout would exhaust every budget at t = 0 and a negative one
    would retransmit forever under total loss, as would a fractional budget
    (``attempt == max_retries`` never holds); an infinite timeout dies at the
    first send.  All are refused when the config is built, naming the
    field."""
    with pytest.raises(ValueError, match=field):
        NetConfig(**{field: value})


def test_send_survives_exactly_max_retries_losses():
    """Dropping ``max_retries`` copies leaves one — it must complete the send."""
    c = Cluster(2, netcfg=NetConfig(rexmit_timeout=0.1, max_retries=3))
    received = []
    c[1].register_handler(MessageKind.TEST, _sink(received))
    dropped = _drop_first(c, MessageKind.TEST, count=3)
    outcome = []

    def sender():
        yield from c[0].send_reliable(1, MessageKind.TEST, "payload", size=64)
        outcome.append("acked")

    c.sim.spawn(sender())
    c.run()
    assert len(dropped) == 3
    assert received == ["payload"]
    assert outcome == ["acked"]


def test_send_fails_after_budget_exhausted():
    """One more loss than the budget absorbs must still raise."""
    c = Cluster(2, netcfg=NetConfig(rexmit_timeout=0.1, max_retries=3))
    c[1].register_handler(MessageKind.TEST, _sink([]))
    _drop_first(c, MessageKind.TEST, count=4)

    def sender():
        with pytest.raises(RequestError):
            yield from c[0].send_reliable(1, MessageKind.TEST, "payload", size=64)

    c.sim.spawn(sender())
    c.run()


def test_request_survives_exactly_max_retries_losses():
    c = Cluster(2, netcfg=NetConfig(rexmit_timeout=0.1, max_retries=3))

    def responder(msg):
        c[1].reply_to(msg, MessageKind.TEST, msg.payload * 2, size=32)
        return
        yield  # pragma: no cover

    c[1].register_handler(MessageKind.TEST, responder)
    _drop_first(c, MessageKind.TEST, count=3)
    out = []

    def requester():
        reply = yield from c[0].request(1, MessageKind.TEST, 21, size=64)
        out.append(reply.payload)

    c.sim.spawn(requester())
    c.run()
    assert out == [42]
    # the answered timer was cancelled: no timer entry or mark is left over
    assert not c.sim._timers and not c.sim._cancelled


def test_seen_reliable_stays_bounded():
    """Long runs must not accumulate duplicate-suppression state forever."""
    n_messages = 200
    c = Cluster(2, netcfg=NetConfig(rexmit_timeout=0.05, max_retries=3))
    horizon = c[1].transport._dup_horizon
    received = []
    c[1].register_handler(MessageKind.TEST, _sink(received))
    high_water = []

    def sender():
        for k in range(n_messages):
            yield from c[0].send_reliable(1, MessageKind.TEST, k, size=64)
            yield Timeout(horizon / 4)
            high_water.append(len(c[1].transport._seen_reliable))

    c.sim.spawn(sender())
    c.run()
    # exactly-once delivery, in order, despite eviction
    assert received == list(range(n_messages))
    # table size tracks the horizon (a handful of in-flight ids), not run length
    assert max(high_water) <= 8
    assert len(c[1].transport._seen_reliable) <= 8


def test_reply_cache_stays_bounded():
    n_requests = 150
    c = Cluster(2, netcfg=NetConfig(rexmit_timeout=0.05, max_retries=3))
    horizon = c[1].transport._dup_horizon
    calls = []

    def responder(msg):
        calls.append(msg.payload)
        c[1].reply_to(msg, MessageKind.TEST, msg.payload, size=32)
        return
        yield  # pragma: no cover

    c[1].register_handler(MessageKind.TEST, responder)
    high_water = []

    def requester():
        for k in range(n_requests):
            reply = yield from c[0].request(1, MessageKind.TEST, k, size=64)
            assert reply.payload == k
            yield Timeout(horizon / 4)
            high_water.append(len(c[1].transport._reply_cache))

    c.sim.spawn(requester())
    c.run()
    # at-most-once handler execution preserved
    assert calls == list(range(n_requests))
    assert max(high_water) <= 8


def test_duplicate_within_horizon_still_suppressed():
    """A duplicate arriving before the horizon expires is filtered out."""
    c = Cluster(2, netcfg=NetConfig(rexmit_timeout=0.1, max_retries=3))
    received = []
    c[1].register_handler(MessageKind.TEST, _sink(received))
    # drop the first ACK so node 0 retransmits an already-delivered message
    dropped = _drop_first(c, MessageKind.ACK, count=1)

    def sender():
        yield from c[0].send_reliable(1, MessageKind.TEST, "once", size=64)

    c.sim.spawn(sender())
    c.run()
    assert dropped, "expected the first ack to be dropped"
    assert received == ["once"]


def test_retransmission_is_a_new_copy_and_leaves_the_one_in_flight_alone():
    """The first transmission is the record's own message and a
    retransmission copies it before counting the attempt: the first copy,
    held in flight past the timeout, still arrives reading attempt 0, the
    retransmission reads 1, and the plan's duplicate of the first copy is
    suppressed like any other."""
    c = Cluster(2, netcfg=NetConfig(rexmit_timeout=0.1, max_retries=3))
    received, arrivals = [], []
    c[1].register_handler(MessageKind.TEST, _sink(received))
    on_receive = c[1].transport.on_receive

    def recording(msg):
        arrivals.append((msg, msg.attempt))
        return on_receive(msg)

    c[1].transport.on_receive = recording

    def verdict(msg):
        if msg.kind is MessageKind.TEST and msg.attempt == 0:
            return (0.15, 0.2)  # late past the timeout, then duplicated
        return DELIVER

    script_transfers(c, verdict)

    def sender():
        yield from c[0].send_reliable(1, MessageKind.TEST, "once", size=64)

    c.sim.spawn(sender())
    c.run()
    frames = [(m, attempt) for m, attempt in arrivals if m.kind is MessageKind.TEST]
    assert [attempt for _, attempt in frames] == [1, 0, 0]
    retransmitted, first, duplicate = (m for m, _ in frames)
    assert first.msg_id == retransmitted.msg_id == duplicate.msg_id
    assert first is not retransmitted and (first.attempt, retransmitted.attempt) == (0, 1)
    assert received == ["once"]
    assert c.stats.rexmit == 1
    assert c[0].transport.pending_counts() == (0, 0)
