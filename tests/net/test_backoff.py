"""Exponential backoff, deterministic jitter, and the derived dup horizon.

The duplicate-suppression horizon regression: the transport used to hard-code
``(max_retries + 2) * rexmit_timeout``, which is only correct for the fixed
default schedule.  Under backoff the retry window is wider, a retransmission
can arrive *after* the receiver already evicted its suppression entry, and a
reliable send silently delivers twice.  The horizon is now derived from
:meth:`NetConfig.worst_case_retry_window`; these tests fail on the old
hard-code.
"""

import pytest

from repro.net import Cluster, MessageKind, NetConfig
from repro.net.transport import _jitter_unit
from repro.sim import Timeout
from tests.net.conftest import drop_frames


def _sink(received):
    def handler(msg):
        received.append(msg.payload)
        return
        yield  # pragma: no cover

    return handler


# -- retry schedule --------------------------------------------------------------


def test_default_schedule_is_the_papers_fixed_timeout():
    cfg = NetConfig()
    schedule = cfg.retry_schedule()
    assert len(schedule) == cfg.max_retries + 1
    assert set(schedule) == {cfg.rexmit_timeout}
    assert cfg.worst_case_retry_window() == pytest.approx(
        (cfg.max_retries + 1) * cfg.rexmit_timeout
    )


def test_backoff_schedule_grows_and_caps():
    cfg = NetConfig(rexmit_timeout=1.0, max_retries=4, backoff_factor=2.0)
    assert cfg.retry_schedule() == (1.0, 2.0, 4.0, 8.0, 16.0)
    capped = NetConfig(
        rexmit_timeout=1.0, max_retries=4, backoff_factor=2.0, backoff_max=5.0
    )
    assert capped.retry_schedule() == (1.0, 2.0, 4.0, 5.0, 5.0)


def test_jitter_widens_the_worst_case_window():
    cfg = NetConfig(
        rexmit_timeout=1.0, max_retries=2, backoff_factor=2.0, backoff_jitter=0.1
    )
    assert cfg.worst_case_retry_window() == pytest.approx((1 + 2 + 4) * 1.1)


def test_invalid_backoff_config_rejected():
    with pytest.raises(ValueError, match="backoff_factor"):
        NetConfig(backoff_factor=0.5).retry_schedule()
    with pytest.raises(ValueError, match="backoff_jitter"):
        NetConfig(backoff_jitter=1.0).retry_schedule()
    with pytest.raises(ValueError, match="backoff_jitter"):
        NetConfig(backoff_jitter=-0.1).retry_schedule()


# -- deterministic jitter --------------------------------------------------------


def test_jitter_unit_is_a_deterministic_fraction():
    seen = set()
    for key in range(1, 50):
        for attempt in range(4):
            u = _jitter_unit(key, attempt)
            assert 0.0 <= u < 1.0
            assert u == _jitter_unit(key, attempt)  # pure function
            seen.add(u)
    assert len(seen) > 150, "jitter must actually vary across keys/attempts"


def test_jittered_retries_replay_identically_in_one_process():
    """Two back-to-back runs (same process, fresh clusters) must time every
    jittered retransmission identically — the jitter key is run-local."""

    def one_run():
        cfg = NetConfig(
            rexmit_timeout=0.05,
            max_retries=5,
            backoff_factor=2.0,
            backoff_jitter=0.3,
        )
        c = Cluster(2, netcfg=cfg)
        received = []
        c[1].register_handler(MessageKind.TEST, _sink(received))
        drop_frames(c, lambda msg: msg.kind is MessageKind.TEST, count=2)
        done = []

        def sender():
            yield from c[0].send_reliable(1, MessageKind.TEST, "p", size=64)
            done.append(c.sim.now)

        c.sim.spawn(sender())
        c.run()
        assert received == ["p"]
        return done[0], c.sim.events_processed

    assert one_run() == one_run()


# -- timer-lane ordering under backoff schedules ----------------------------------


def test_timer_order_matches_reference_under_backoff_delays():
    """Property: whatever mix of backed-off delays a transport schedules,
    timers fire in (deadline, schedule order).  The engine's per-delay FIFO
    lanes assumed non-decreasing delays per lane — a backoff schedule is
    exactly the workload that used to break that assumption, so this drives
    the lanes with delays drawn from real ``retry_schedule()`` values at
    randomised interleavings and checks against the naive stable sort."""
    import random

    from repro.sim import Simulator

    rng = random.Random(0xB0FF)
    for _ in range(15):
        cfg = NetConfig(
            rexmit_timeout=0.05,
            max_retries=5,
            backoff_factor=rng.choice([1.0, 1.5, 2.0, 3.0]),
            backoff_jitter=rng.choice([0.0, 0.1, 0.3]),
        )
        delays = cfg.retry_schedule()
        sim = Simulator()
        fired: list[int] = []
        expected: list[tuple[float, int]] = []

        def driver():
            for seq in range(60):
                d = rng.choice(delays) * (1.0 + rng.choice([0.0, cfg.backoff_jitter]))
                expected.append((sim.now + d, seq))
                sim.schedule_timer(d, (lambda k: lambda: fired.append(k))(seq))
                yield Timeout(rng.choice([0.001, 0.01, 0.037]))

        sim.spawn(driver())
        sim.run()
        reference = [k for _, k in sorted(expected, key=lambda e: e[0])]
        assert fired == reference


# -- the dup-horizon regression --------------------------------------------------


def test_dup_horizon_covers_the_backoff_window():
    """Fails on the old ``(max_retries + 2) * rexmit_timeout`` hard-code:
    with backoff the retry window dwarfs the fixed-schedule horizon."""
    cfg = NetConfig(rexmit_timeout=0.05, max_retries=6, backoff_factor=2.0)
    c = Cluster(2, netcfg=cfg)
    horizon = c[0].transport._dup_horizon
    assert horizon >= cfg.worst_case_retry_window()
    # and it keeps the one-base-timeout slack for delivery delays
    assert horizon == pytest.approx(
        cfg.worst_case_retry_window() + cfg.rexmit_timeout
    )


def test_late_backed_off_duplicate_still_suppressed():
    """End-to-end form of the regression: a retransmission arriving *after*
    the old fixed-schedule horizon (but inside the backed-off window) must
    not be delivered twice, even while other traffic churns the eviction
    scan past it."""
    cfg = NetConfig(rexmit_timeout=0.05, max_retries=3, backoff_factor=3.0)
    # schedule (0.05, 0.15, 0.45, 1.35): the third retransmission leaves at
    # t=0.65 — far beyond the old horizon of (3 + 2) * 0.05 = 0.25
    old_horizon = (cfg.max_retries + 2) * cfg.rexmit_timeout
    assert cfg.worst_case_retry_window() > old_horizon

    c = Cluster(2, netcfg=cfg)
    received = []
    c[1].register_handler(MessageKind.TEST, _sink(received))

    target = {}

    def victims_ack(msg):
        if msg.kind is MessageKind.TEST and "id" not in target:
            target["id"] = msg.msg_id
        return msg.kind is MessageKind.ACK and msg.payload == target.get("id")

    dropped = drop_frames(c, victims_ack, count=3)

    def victim():
        yield from c[0].send_reliable(1, MessageKind.TEST, "victim", size=64)

    def churn():
        # periodic unrelated receives keep running the receiver's eviction
        # scan; under the old horizon they expel the victim's suppression
        # entry before its t=0.65 duplicate lands
        for k in range(4):
            yield Timeout(old_horizon + 0.01)
            yield from c[0].send_reliable(1, MessageKind.TEST, f"churn{k}", size=64)

    c.sim.spawn(victim())
    c.sim.spawn(churn())
    c.run()
    assert len(dropped) == 3, "all three of the victim's first acks dropped"
    assert received.count("victim") == 1, "late duplicate delivered twice"
    assert received.count("churn0") == 1
