"""Tests for the structured event tracer: coverage and determinism."""

import json
from collections import Counter

from repro.apps import APPS
from repro.apps.common import run_app
from repro.obs import EventTracer, chrome_trace

# categories of the instant rows repro.obs.Metrics folds (besides the wait
# spans and the fault instants)
METRIC_INSTANTS = ("diff", "grant", "piggyback", "barrier")
FOLDED_DIGEST = "59a4e39841ca4bd6"
TRACE_BYTES = 11778946  # 12,335,842 before handlers were one X row each
HANDLER_SPANS = 13128  # dispatch-lane spans: two rows each before, one now


def traced_run(app="is", protocol="vc_d", nprocs=4):
    tracer = EventTracer()
    result = run_app(APPS[app], protocol, nprocs, tracer=tracer)
    return tracer, result


def test_tracer_records_all_expected_categories():
    tracer, _ = traced_run()
    cats = {ev[4] for ev in tracer.events}
    for expected in (
        "run", "compute", "barrier-wait", "acquire-wait",
        "page-fault", "diff-wait", "tx", "rx",
    ):
        assert expected in cats, f"missing category {expected}"


def test_tracer_records_engine_counter():
    tracer, _ = traced_run(app="sor", protocol="vc_sd", nprocs=2)
    counters = [ev for ev in tracer.events if ev[0] == "C"]
    assert counters, "no counter events"
    assert all(ev[5] == "live_processes" for ev in counters)
    assert all(ev[2] == -1 for ev in counters)  # engine-global pid


def test_tracer_spans_balance_per_lane():
    tracer, _ = traced_run()
    depth: dict[tuple, int] = {}
    for ph, _t, pid, lane, _cat, _name, _args, _end in tracer.events:
        key = (pid, lane)
        if ph == "B":
            depth[key] = depth.get(key, 0) + 1
        elif ph == "E":
            assert depth.get(key, 0) > 0, f"E without B on {key}"
            depth[key] -= 1
    assert not any(depth.values()), f"unclosed spans: {depth}"


def test_tracer_timestamps_monotone():
    """Per ``(pid, lane)`` — the contract breakdown, critical path and the
    Chrome export rely on.  Globally the list is in *recording* order: a NIC
    writes a frame's whole TX span (one ``X`` row) when it takes the frame,
    ahead of rows other lanes record before the span's (future) instants."""
    tracer, _ = traced_run(app="sor", protocol="vc_sd", nprocs=2)
    last: dict[tuple, float] = {}
    for _ph, t, pid, lane, _cat, _name, _args, _end in tracer.events:
        assert last.get((pid, lane), 0.0) <= t, f"time went backwards on {(pid, lane)}"
        last[pid, lane] = t
    times = [ev[1] for ev in tracer.events]
    assert any(a > b for a, b in zip(times, times[1:]))  # the weaker claim is false


def test_nic_lanes_hold_complete_rows_that_never_overlap():
    """Both NIC sides are FIFO servers whose busy periods are known when they
    begin, and the dispatcher runs one handler at a time: every span on their
    lanes is one ``X`` row (drops stay instants), starting no earlier than the
    previous one ended; every other lane keeps ``B``/``E`` pairs."""
    for protocol in ("vc_d", "lrc_d"):  # lrc_d: congestion drops at the barrier
        tracer, _ = traced_run(protocol=protocol, nprocs=8)
        busy_until: dict[tuple, float] = {}
        for ph, t, pid, lane, _cat, _name, _args, end in tracer.events:
            if lane in ("nic-tx", "nic-rx"):
                assert ph in "Xi"
                if ph == "X":
                    assert busy_until.get((pid, lane), 0.0) <= t < end
                    busy_until[pid, lane] = end
            elif lane == "dispatch":
                assert ph == "X"
                assert busy_until.get((pid, lane), 0.0) <= t <= end
                busy_until[pid, lane] = end
            else:
                assert ph != "X" and end is None
        assert len(busy_until) == 3 * 8


def test_two_identical_runs_trace_identically():
    t1, _ = traced_run()
    t2, _ = traced_run()
    assert t1.events == t2.events
    doc1 = json.dumps(chrome_trace(t1), sort_keys=True)
    doc2 = json.dumps(chrome_trace(t2), sort_keys=True)
    assert doc1 == doc2


def test_message_ids_belong_to_the_run(monkeypatch):
    """Traced, untraced, traced in one process: each run numbers its messages
    0, 1, ... (every message goes on the wire, so the ids sent are exactly
    that range), and the two traces record the same rows and edges."""
    from repro.net.nic import Nic

    sent: list[int] = []
    send = Nic.send
    monkeypatch.setattr(Nic, "send", lambda self, msg: (sent.append(msg.msg_id),
                                                        send(self, msg))[1])
    tracers = []
    for traced in (True, False, True):
        sent.clear()
        tracer = EventTracer() if traced else None
        run_app(APPS["is"], "vc_d", 4, tracer=tracer)
        assert sent[0] == 0 and sorted(set(sent)) == list(range(len(set(sent))))
        if traced:
            assert min(tracer.sends) == 0
            tracers.append(tracer)
    first, last = tracers
    assert first.events == last.events
    assert first.sends == last.sends
    assert first.wakes == last.wakes


def test_mpi_run_traces_recv_wait():
    tracer, _ = traced_run(app="nn", protocol="mpi", nprocs=4)
    cats = {ev[4] for ev in tracer.events}
    assert "recv-wait" in cats
    assert "run" in cats


def test_consumer_contract_pinned_on_is_vc_d_8(tmp_path):
    """What the tracer owes its consumers: rows in time order *per lane*,
    and with them the critical path and the breakdown — pinned to values
    recorded with an event-driven NIC TX queue and ``B``/``E`` NIC spans
    (commit ab79b3f) — and the exported rows and bytes, which fell when the
    NIC lanes became one ``X`` row per frame (149,034 rows, 13,899,941 bytes
    before) and again when each handler did (the span count is the same).
    Where a lane's rows sit in the global list is not part of the contract —
    the NIC writes a TX span when it takes the frame, the dispatcher a
    handler's row when it ends — so ``sends``/``wakes`` are not pinned."""
    import hashlib

    from repro.obs import (
        compute_breakdown,
        compute_critical_path,
        validate_chrome_trace,
        write_chrome_trace,
    )

    def digest(obj):
        return hashlib.sha256(repr(obj).encode()).hexdigest()[:16]

    tracer, _ = traced_run(nprocs=8)
    cp = compute_critical_path(tracer)
    assert len(cp.segments) == 2351 and digest(cp.segments) == "384baab6e27927dc"
    assert cp.by_category == {
        "compute": 3.4559650632142795,
        "wire": 0.48879232714289955,
        "acquire": 0.0027629999999823165,
        "barrier": 0.0004149999999928603,
        "diff": 0.0027537124999845054,
    }
    assert len(cp.waits) == 4326 and digest(cp.waits) == "ef3542881de66efc"
    breakdown = compute_breakdown(tracer.events)
    assert breakdown[0]["seconds"] == {
        "compute": 3.4682553135713965,
        "acquire-wait": 0.06718408535715456,
        "page-fault": 0.05792150750001315,
        "barrier-wait": 0.13597750392858182,
        "diff-wait": 0.22135069249999295,
    }
    assert digest(breakdown) == "7e7a385df9a1ff6a"
    # the instants the contention metrics are folded from (one per diff
    # pull, grant and barrier arrival) came later: the other rows keep
    # their pins, and these are pinned on their own
    folded = [ev for ev in tracer.events if ev[0] == "i" and ev[4] in METRIC_INSTANTS]
    assert Counter(ev[4] for ev in folded) == {"diff": 1405, "grant": 1330, "barrier": 352}
    assert digest(folded) == FOLDED_DIGEST
    lanes: dict[tuple, list] = {}
    for ph, t, pid, lane, cat, name, _args, end in tracer.events:
        if ph == "i" and cat in METRIC_INSTANTS:
            continue
        rows = lanes.setdefault((pid, lane), [])
        if ph == "X":  # read as the B/E pair it replaced: the old pin holds
            rows += [("B", t, cat, name), ("E", end, cat, None)]
        else:
            rows.append((ph, t, cat, name))
    assert len(tracer.events) == 96522 - HANDLER_SPANS + len(folded)
    assert sum(ev[0] in "BX" for ev in tracer.events) == 72789
    assert digest(sorted(lanes.items())) == "caa90c31e22fc483"
    path = tmp_path / "trace.json"
    write_chrome_trace(tracer, str(path))
    assert path.stat().st_size == TRACE_BYTES
    assert validate_chrome_trace(json.loads(path.read_text()))["spans"] == 72789
