"""Property-based tests of the reliable transport under random loss."""

from hypothesis import given, settings, strategies as st

from repro.faults import Episode, FaultPlan
from repro.net import Cluster, MessageKind, NetConfig
from repro.net.message import Message
from repro.sim import Timeout


@given(
    drop_prob=st.floats(min_value=0.0, max_value=0.4),
    seed=st.integers(0, 10_000),
    n_messages=st.integers(1, 25),
)
@settings(max_examples=40, deadline=None)
def test_prop_reliable_send_exactly_once(drop_prob, seed, n_messages):
    """Every reliable send is delivered exactly once, in per-sender order,
    for any loss rate the retry budget can absorb."""
    c = Cluster(3, netcfg=NetConfig(rexmit_timeout=0.05, max_retries=200))
    c.install_faults(FaultPlan((Episode(kind="loss", drop_prob=drop_prob),), seed=seed))
    received = []

    def handler(msg):
        received.append(msg.payload)
        return
        yield  # pragma: no cover

    c[0].register_handler(MessageKind.TEST, handler)

    def sender(src):
        for k in range(n_messages):
            yield from c[src].send_reliable(0, MessageKind.TEST, (src, k), size=100)

    c.sim.spawn(sender(1))
    c.sim.spawn(sender(2))
    c.run()
    assert sorted(received) == sorted(
        (src, k) for src in (1, 2) for k in range(n_messages)
    )
    # per-sender FIFO (reliable sends complete in order)
    for src in (1, 2):
        ks = [k for s, k in received if s == src]
        assert ks == sorted(ks)


@given(
    drop_prob=st.floats(min_value=0.0, max_value=0.4),
    seed=st.integers(0, 10_000),
)
@settings(max_examples=40, deadline=None)
def test_prop_request_reply_at_most_once(drop_prob, seed):
    """Request handlers execute at most once per request, replies always
    arrive, for any seeded loss pattern."""
    c = Cluster(2, netcfg=NetConfig(rexmit_timeout=0.05, max_retries=200))
    c.install_faults(FaultPlan((Episode(kind="loss", drop_prob=drop_prob),), seed=seed))
    executions = []

    def handler(msg):
        executions.append(msg.payload)
        c[1].reply_to(msg, MessageKind.TEST, msg.payload * 2, size=20)
        return
        yield  # pragma: no cover

    c[1].register_handler(MessageKind.TEST, handler)
    replies = []

    def client():
        for k in range(10):
            r = yield from c[0].request(1, MessageKind.TEST, k, size=20)
            replies.append(r.payload)

    c.sim.spawn(client())
    c.run()
    assert replies == [k * 2 for k in range(10)]
    assert sorted(executions) == list(range(10))  # exactly once each


@given(seed=st.integers(0, 1_000))
@settings(max_examples=20, deadline=None)
def test_prop_rx_buffer_accounting_never_negative(seed):
    """Byte accounting on the receive buffer stays consistent under bursts."""
    c = Cluster(
        5,
        netcfg=NetConfig(
            recv_buffer_bytes=10_000,
            red_threshold_bytes=4_000,
            drop_seed=seed,
            rexmit_timeout=0.05,
        ),
    )

    def handler(msg):
        yield Timeout(0.001)

    c[0].register_handler(MessageKind.TEST, handler)

    def sender(src):
        for k in range(5):
            yield from c[src].send_reliable(0, MessageKind.TEST, k, size=3_000)

    for src in range(1, 5):
        c.sim.spawn(sender(src))
    c.run()
    for node in c.nodes:
        assert node.nic.rx_bytes == 0  # fully drained, no leak


# one step of the receipt sequence: wait ``dt`` seconds, then one of
#   "send"    a new reliable message arrives,
#   "resend"  a copy of an earlier reliable message arrives again,
#   "request" a new request arrives,
#   "rerequest" a copy of an earlier request arrives again,
#   "reply"   the oldest request still in progress is answered
_STEP = st.tuples(
    st.sampled_from([0.0, 0.0, 0.05, 0.1, 0.25, 0.3, 0.35, 1.0]),
    st.sampled_from(["send", "resend", "request", "rerequest", "reply"]),
    st.sampled_from([0, 2]),
    st.integers(0, 1_000),
)


@given(steps=st.lists(_STEP, min_size=1, max_size=60))
@settings(max_examples=150, deadline=None)
def test_prop_dedup_tables_evict_as_on_every_receipt(steps):
    """The duplicate-suppression tables after every receipt equal a reference
    that scans both table fronts on every receipt, through duplicates,
    replies, and tables that empty and refill."""
    cfg = NetConfig(rexmit_timeout=0.1, max_retries=1)  # horizon 0.3 s
    c = Cluster(3, netcfg=cfg)
    tp = c[1].transport
    horizon = tp._dup_horizon
    ref_seen: dict = {}
    ref_cache: dict = {}
    ref_busy: set = set()
    sent: list = []
    asked: list = []
    ids = {0: 0, 2: 0}

    def ref_evict(now):
        cutoff = now - horizon
        for table, stamp in ((ref_seen, lambda v: v), (ref_cache, lambda v: v[0])):
            for key in [k for k, v in table.items() if stamp(v) < cutoff]:
                del table[key]

    def ref_receive(msg, now):
        """The expected delivery: the message itself or ``None``."""
        key = (msg.src, msg.msg_id if msg.need_ack else msg.req_id)
        if msg.need_ack:
            if key in ref_seen:
                return None
            ref_seen[key] = now
        else:
            if key in ref_cache or key in ref_busy:
                return None
            ref_busy.add(key)
        ref_evict(now)
        return msg

    def fresh(src, need_ack, payload):
        ids[src] += 1
        msg = Message(src, 1, MessageKind.TEST, payload, 8, ids[src], need_ack)
        if not need_ack:
            msg.req_id = msg.msg_id
        return msg

    def feed():
        for dt, op, src, pick in steps:
            if dt:
                yield Timeout(dt)
            now = c.sim.now
            if op == "reply":
                waiting = [m for m in asked if (m.src, m.req_id) in ref_busy]
                if waiting:
                    req = waiting[0]
                    tp.reply_to(req, MessageKind.TEST, None, 8)
                    ref_busy.discard((req.src, req.req_id))
                    ref_cache[(req.src, req.req_id)] = (now, None)
                continue
            if op in ("resend", "rerequest"):
                pool = sent if op == "resend" else asked
                if not pool:
                    continue
                msg = pool[pick % len(pool)].wire_copy()
            else:
                msg = fresh(src, op == "send", pick)
                (sent if op == "send" else asked).append(msg)
            expected = ref_receive(msg, now)
            assert tp.on_receive(msg) is (msg if expected is not None else None)
            assert list(tp._seen_reliable.items()) == list(ref_seen.items())
            assert [(k, v[0]) for k, v in tp._reply_cache.items()] == \
                [(k, v[0]) for k, v in ref_cache.items()]

    c.sim.spawn(feed())
    c.run()
