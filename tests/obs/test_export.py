"""Tests for the trace exporters and the Chrome-trace schema validator."""

import json
import math
from itertools import chain
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from repro.apps import APPS
from repro.apps.common import run_app
from repro.faults import Episode, FaultPlan
from repro.obs import (
    HOST_PID,
    EventTracer,
    chrome_trace,
    export,
    flame_summary,
    validate_chrome_trace,
    write_chrome_trace,
)


def small_trace():
    tracer = EventTracer()
    run_app(APPS["sor"], "vc_sd", 2, tracer=tracer)
    return tracer


def test_chrome_trace_validates(tmp_path):
    tracer = small_trace()
    path = tmp_path / "trace.json"
    write_chrome_trace(tracer, str(path))
    doc = json.loads(path.read_text())
    summary = validate_chrome_trace(doc)
    assert summary["events"] > 0
    assert summary["spans"] > 0
    # 2 app nodes + the engine-global pseudo-process
    assert summary["processes"] == 3


def test_chrome_trace_has_metadata_and_microseconds():
    tracer = small_trace()
    doc = chrome_trace(tracer)
    events = doc["traceEvents"]
    names = {e["args"]["name"] for e in events if e.get("name") == "process_name"}
    assert {"simulator", "node-0", "node-1"} <= names
    threads = {e["args"]["name"] for e in events if e.get("name") == "thread_name"}
    assert "app" in threads and "nic-tx" in threads
    # ts is simulated microseconds: the last app events land around the
    # simulated run time (seconds) * 1e6
    last_ts = max(e["ts"] for e in events)
    assert last_ts > 1.0  # anything sub-microsecond would mean wrong units


def test_write_chrome_trace_deterministic_bytes(tmp_path):
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    write_chrome_trace(small_trace(), str(p1))
    write_chrome_trace(small_trace(), str(p2))
    assert p1.read_bytes() == p2.read_bytes()


# -- byte identity of the written text form ----------------------------------------


def _canonical(doc) -> str:
    """The bytes the writer has always put on disk for ``doc``."""
    return json.dumps(doc, separators=(",", ":")) + "\n"


# quotes, backslashes, control and non-ASCII characters on purpose ('%' for
# the args templates, which are filled with the ``%`` operator)
_text = st.text(
    st.one_of(st.sampled_from('"\\/%\n\x00\x1f\x7f\u00e9\u20ac\U0001f600'), st.characters()),
    max_size=6,
)
_times = st.one_of(
    st.floats(),  # NaN and the infinities included
    st.integers(-10**9, 10**9),
    # ts = t * 1e6: overflow to inf, subnormals, negative zero
    st.sampled_from([0.0, -0.0, 5e-324, 1e-320, -1e-7, 1.7e308, -1.7e308,
                     math.inf, -math.inf, math.nan]),
)
_json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | _text,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(_text, inner, max_size=3),
    max_leaves=8,
)
# what the encoder accepts as an object key; only ``str`` keys with plain
# ``int`` values (negative and beyond 64 bits included) take the template path
_keys = _text | st.integers() | st.booleans() | st.none() | st.floats()
_args = st.one_of(
    _json_values,
    st.dictionaries(_text, st.integers(), max_size=4),
    st.dictionaries(_text, st.integers() | st.booleans() | st.floats(), max_size=4),
    st.dictionaries(_keys, st.integers() | _json_values, max_size=3),
)
_pids = st.one_of(st.integers(-1, 3), st.integers(HOST_PID, HOST_PID + 2))


# rows every rule accepts: finite times >= 0, named heads, an ``X`` row that
# ends no earlier than it begins, and each ``E`` right after its ``B`` on the
# same lane
_times_ok = st.one_of(st.floats(0, 1e12), st.sampled_from([0.0, -0.0, 5e-324, 1e-320]))
_names = _text.filter(bool)
_rows_ok = st.tuples(st.sampled_from("XiCM"), _times_ok, _pids, _text,
                     st.none() | _text, _names, _args, _times_ok).map(
    lambda row: (*row[:7], row[1] + row[7]) if row[0] == "X" else (*row[:7], None))
_spans_ok = st.tuples(_times_ok, _times_ok, _pids, _text, st.none() | _text,
                      _names, _args).map(
    lambda s: [("B", s[0], s[2], s[3], s[4], s[5], s[6], None),
               ("E", s[0] + s[1], s[2], s[3], s[4], None, None, None)])
_events_ok = st.lists(_rows_ok.map(lambda row: [row]) | _spans_ok,
                      min_size=1, max_size=8).map(lambda rows: sum(rows, []))


@settings(max_examples=100, deadline=None)
@given(events=_events_ok)
def test_streamed_bytes_equal_dumped_document(events, tmp_path_factory):
    """The file the writer streams is ``json.dumps`` of the dict form, byte
    for byte — all six phases (the five recorded ones plus the ``M`` rows
    every document opens its processes and lanes with), hostile strings,
    subnormal and negative-zero times, ``args`` of every shape on and off the
    template path, simulated, engine and host pids — and where the chunks
    break does not change it."""
    path = tmp_path_factory.mktemp("bytes") / "t.json"
    want = _canonical(chrome_trace(events))
    write_chrome_trace(events, str(path))
    assert path.read_text() == want
    with mock.patch.object(export, "_CHUNK_EVENTS", 1):
        write_chrome_trace(events, str(path))
    assert path.read_text() == want


def _fake_host():
    """A host tracer with fixed phase rows (the real clock differs run to
    run), recorded as ``run_app(host=)`` records them."""
    host = EventTracer()
    for cat, t0, t1 in (("build", 0.0, 0.5), ("execute", 0.5, 2.0),
                        ("extract", 2.0, 2.25), ("verify", 2.5, 3.0)):
        host.span(HOST_PID, "run", cat, cat, t0, t1)
    return host


def test_host_only_document_is_one_complete_row_per_span():
    """Pinned: chained after the simulated rows, each host row is one ``X``
    row under its own name and category on the ``host`` process, at the
    seconds it was recorded with; the host-only document is that tail."""
    sim = [("B", 0.0, 0, "app", "run", "rank 0", None, None),
           ("E", 1.0, 0, "app", "run", None, None, None)]
    doc = chrome_trace(chain(sim, _fake_host().events))

    def meta(pid, what, label):
        return {"ph": "M", "name": what, "pid": pid, "tid": 0, "ts": 0,
                "args": {"name": label}}

    def span(cat, ts, dur):
        return {"ph": "X", "name": cat, "cat": cat, "pid": HOST_PID, "tid": 0,
                "ts": ts, "dur": dur}

    assert doc["traceEvents"] == [
        meta(0, "process_name", "node-0"), meta(0, "thread_name", "app"),
        {"ph": "B", "name": "rank 0", "cat": "run", "pid": 0, "tid": 0, "ts": 0.0},
        {"ph": "E", "cat": "run", "pid": 0, "tid": 0, "ts": 1e6},
        meta(HOST_PID, "process_name", "host"), meta(HOST_PID, "thread_name", "run"),
        span("build", 0.0, 0.5e6), span("execute", 0.5e6, 1.5e6),
        span("extract", 2e6, 0.25e6), span("verify", 2.5e6, 0.5e6),
    ]
    assert validate_chrome_trace(doc) == {"events": 10, "spans": 5, "processes": 2}
    assert chrome_trace(_fake_host())["traceEvents"] == doc["traceEvents"][4:]


def test_written_files_equal_dumped_documents(tmp_path):
    tracer, host = small_trace(), _fake_host()
    path = tmp_path / "t.json"
    write_chrome_trace(tracer, str(path))
    assert path.read_text() == _canonical(chrome_trace(tracer))
    write_chrome_trace(chain(tracer.events, host.events), str(path))
    both = chrome_trace(chain(tracer.events, host.events))
    assert path.read_text() == _canonical(both)
    host_names = {e["args"]["name"] for e in both["traceEvents"]
                  if e.get("name") == "process_name" and e["pid"] >= HOST_PID}
    assert host_names == {"host"}
    write_chrome_trace(host, str(path))  # host-only
    assert path.read_text() == _canonical(chrome_trace(host))
    assert sorted(p.name for p in tmp_path.iterdir()) == ["t.json"]


def test_writer_refuses_a_bad_trace_and_leaves_no_file(tmp_path):
    tracer = small_trace()
    path = tmp_path / "t.json"
    unclosed = tracer.events + [
        ("B", 9.0, 0, "app", "compute", "never closed", None, None)]
    with pytest.raises(ValueError, match="unclosed spans at end of trace"):
        write_chrome_trace(unclosed, str(path))
    with pytest.raises(ValueError, match="'E' without open 'B'"):
        write_chrome_trace(
            [("E", 0.0, 0, "app", "compute", None, None, None)], str(path))
    with pytest.raises(ValueError, match="non-empty"):
        write_chrome_trace([], str(path))
    for end in (None, 0.5):  # a complete span with no extent, or a negative one
        backwards = tracer.events + [("X", 1.0, 0, "nic-tx", "tx", "f", None, end)]
        with pytest.raises(ValueError, match="'X' needs a non-negative 'dur'"):
            write_chrome_trace(backwards, str(path))
    assert list(tmp_path.iterdir()) == []
    # and a file already there is not clobbered by a failed write
    write_chrome_trace(tracer, str(path))
    good = path.read_bytes()
    with pytest.raises(ValueError):
        write_chrome_trace(unclosed, str(path))
    assert path.read_bytes() == good
    assert [p.name for p in tmp_path.iterdir()] == ["t.json"]


def test_writer_check_agrees_with_validator(tmp_path):
    """The writer's in-pass check and ``validate_chrome_trace`` are one set of
    rules: same verdict, same message, on the document of the same events."""
    cases = [
        small_trace().events,
        [("B", 0.0, 0, "app", "compute", "", None, None)],  # B needs a name
        [("i", -1.0, 0, "app", "compute", "x", None, None)],  # negative ts
        [("B", 0.0, 0, "app", "c", "x", None, None),
         ("E", 1.0, 0, "nic", "c", None, None, None)],
        [("B", 0.0, 0, "app", "c", "x", None, None)],
        [("X", 0.0, 0, "nic-rx", "rx", "x", {"bytes": 8}, 0.0)],  # empty span: fine
        [("X", 2.0, 0, "nic-rx", "rx", "x", None, 1.0)],  # ends before it begins
        [("X", 0.0, 0, "nic-rx", "rx", "x", None, math.nan)],
        [("X", 0.0, 0, "nic-rx", "rx", "x", None, None)],  # no extent at all
        [("X", 0.0, 0, "nic-rx", "rx", "", None, 1.0)],  # X needs a name
    ]
    for events in cases:
        outcomes = _verdicts(events, tmp_path / "t.json")
        assert outcomes[0] == outcomes[1], events
    # JSON has no NaN or Infinity: a time that is not finite is refused by both
    # (the metadata rows of pid 0 and lane "app" are events 0 and 1)
    refused = [
        ([("i", math.nan, 0, "app", "compute", "x", None, None)], "event 2: bad ts nan"),
        ([("i", math.inf, 0, "app", "compute", "x", None, None)], "event 2: bad ts inf"),
        ([("X", 0.0, 0, "app", "rx", "x", None, math.inf)],
         "event 2: 'X' needs a non-negative 'dur', got inf"),
    ]
    out = tmp_path / "refused"
    out.mkdir()
    for events, message in refused:
        assert _verdicts(events, out / "t.json") == [message, message], events
    assert list(out.iterdir()) == []


def _verdicts(events, path) -> list:
    """``[validator's, writer's]`` verdict on ``events``: ``None`` for a
    document that passes, else the ``ValueError`` message."""
    outcomes = []
    for check in (
        lambda: validate_chrome_trace(chrome_trace(events)),
        lambda: write_chrome_trace(events, str(path)),
    ):
        try:
            check()
            outcomes.append(None)
        except ValueError as exc:
            outcomes.append(str(exc))
    return outcomes


# rows of every phase, an unknown one included, with any times (NaN, the
# infinities, negative ones) and unbalanced spans; ``end`` is a time on a
# complete span and ``None`` on every other row
_any_phase_events = st.lists(
    st.tuples(st.sampled_from("BEXiCMZ"), _times, _pids, _text,
              st.none() | _text, st.none() | _text, _args, _times)
    .map(lambda row: row if row[0] == "X" else (*row[:7], None)),
    max_size=12,
)


@settings(max_examples=150, deadline=None)
@given(events=_any_phase_events)
def test_writer_and_validator_agree_on_any_trace(events, tmp_path_factory):
    """The writer keeps the validator's rules in one pass with one memo entry
    per row head, yet gives the same verdict and message on every document —
    hostile ones included — and a file it writes is the canonical text of
    the document."""
    path = tmp_path_factory.mktemp("agree") / "t.json"
    validator, writer = _verdicts(events, path)
    assert writer == validator
    if writer is None:
        assert path.read_text() == _canonical(chrome_trace(events))
    else:
        assert not path.exists()


def test_flame_summary_text():
    text = flame_summary(small_trace())
    assert "Where the time went" in text
    assert "compute" in text
    assert "Breakdown" in text


def test_validator_rejects_bad_documents():
    with pytest.raises(ValueError):
        validate_chrome_trace({})
    with pytest.raises(ValueError):
        validate_chrome_trace({"traceEvents": []})
    with pytest.raises(ValueError):
        validate_chrome_trace(
            {"traceEvents": [{"ph": "Z", "pid": 0, "tid": 0, "ts": 0.0}]}
        )
    # unbalanced B/E
    with pytest.raises(ValueError):
        validate_chrome_trace(
            {
                "traceEvents": [
                    {"ph": "B", "name": "x", "pid": 0, "tid": 0, "ts": 0.0}
                ]
            }
        )
    # E without B
    with pytest.raises(ValueError):
        validate_chrome_trace(
            {"traceEvents": [{"ph": "E", "pid": 0, "tid": 0, "ts": 0.0}]}
        )
    # a complete span without its extent, or with a negative one
    complete = {"ph": "X", "name": "x", "pid": 0, "tid": 0, "ts": 1.0}
    ok = {"traceEvents": [{**complete, "dur": 0}]}
    assert validate_chrome_trace(ok)["spans"] == 1
    for bad in (complete, {**complete, "dur": -1e-9}, {**complete, "dur": "1"}):
        with pytest.raises(ValueError, match="event 0: 'X' needs a non-negative 'dur'"):
            validate_chrome_trace({"traceEvents": [bad]})
    # JSON (RFC 8259) has no NaN or Infinity, and Perfetto refuses them
    instant = {"ph": "i", "name": "x", "pid": 0, "tid": 0, "ts": 0.0}
    assert validate_chrome_trace({"traceEvents": [instant]})["events"] == 1
    for ts in (math.nan, math.inf):
        with pytest.raises(ValueError, match=f"event 0: bad ts {ts!r}"):
            validate_chrome_trace({"traceEvents": [{**instant, "ts": ts}]})
    with pytest.raises(ValueError, match="event 0: 'X' needs a non-negative 'dur', got inf"):
        validate_chrome_trace({"traceEvents": [{**complete, "dur": math.inf}]})


def test_row_of_the_wrong_width_is_refused_by_index(tmp_path):
    """Every exporter reads rows through one contract: 8 fields.  A 7-field
    row (the shape before ``end``) names its index instead of dying as an
    anonymous unpack error inside a generator — and no file is left."""
    good = ("i", 0.0, 0, "app", "compute", "e", None, None)
    events = [good, good, good[:7]]
    path = tmp_path / "t.json"
    for export_it in (
        lambda: chrome_trace(events),
        lambda: write_chrome_trace(iter(events), str(path)),
        lambda: write_chrome_trace(events, str(path)),
        lambda: write_chrome_trace(chain(events, _fake_host().events), str(path)),
        lambda: flame_summary(events),
    ):
        with pytest.raises(ValueError, match="event 2: expected 8 fields .* got 7"):
            export_it()
    assert list(tmp_path.iterdir()) == []


# -- the one-pass writer on real traces -----------------------------------------------

CHAOS = FaultPlan((
    Episode(kind="loss", drop_prob=0.02),
    Episode(kind="duplicate", dup_prob=0.05),
    Episode(kind="reorder", reorder_prob=0.1, reorder_delay=1e-3),
    Episode(kind="pause", node=1, start=0.0, end=0.02),
), seed=7)

# cell -> (app, protocol, nprocs, plan, (ph, lane prefix, cat) shapes it must hold)
REAL_TRACES = {
    "is_vc_sd_4_chaos": ("is", "vc_sd", 4, CHAOS, {
        ("i", "transport", "tx"), ("i", "faults", "fault"), ("C", "counters", None),
        ("B", "app", "run"), ("B", "app", "page-fault"), ("X", "nic-tx", "tx"),
        ("X", "nic-rx", "rx"), ("X", "dispatch", "handler"), ("i", "app", "piggyback"),
    }),
    "is_vc_d_4_chaos": ("is", "vc_d", 4, CHAOS, {
        ("B", "fetch-", "diff-wait"), ("i", "fetch-", "diff"), ("i", "faults", "fault"),
    }),
    "nn_mpi_4": ("nn", "mpi", 4, None, {("B", "app", "recv-wait")}),
}


@pytest.fixture(scope="module", params=sorted(REAL_TRACES))
def real_trace(request):
    app, protocol, nprocs, plan, shapes = REAL_TRACES[request.param]
    tracer = EventTracer()
    run_app(APPS[app], protocol, nprocs, tracer=tracer, faults=plan)
    return tracer, shapes


def _refusal(events, path) -> str:
    with pytest.raises(ValueError) as excinfo:
        write_chrome_trace(events, str(path))
    assert not path.exists()
    return str(excinfo.value)


def test_one_pass_writer_on_real_traces(real_trace, tmp_path):
    """Every row shape a run records (rexmit, drop and fault instants,
    counters, nested app and fetch B/E spans, NIC and dispatch X spans,
    recv-wait): the file is the canonical text of the document, and a bad
    row on a head the writer has already memoised is refused with the
    validator's message at the validator's event index."""
    tracer, shapes = real_trace
    rows = tracer.events
    seen = {(ph, lane, cat) for ph, _t, _pid, lane, cat, *_ in rows}
    for ph, lane, cat in shapes:
        assert any(s[0] == ph and s[1].startswith(lane) and s[2] == cat for s in seen)
    path = tmp_path / "t.json"
    write_chrome_trace(tracer, str(path))
    assert path.read_text() == _canonical(chrome_trace(tracer))
    n_doc = len(chrome_trace(tracer)["traceEvents"])  # the bad row's index

    # a second X on a known NIC head that ends before it starts
    nic = next(row for row in rows if row[0] == "X" and row[3] == "nic-rx")
    backwards = (*nic[:7], nic[1] - 1e-6)
    dur = (backwards[7] - backwards[1]) * 1e6
    message = _refusal(rows + [backwards], tmp_path / "b.json")
    assert message == f"event {n_doc}: 'X' needs a non-negative 'dur', got {dur!r}"
    assert message == _verdicts(rows + [backwards], tmp_path / "b.json")[0]

    # an E on a lane back at depth 0 after its earlier, balanced pairs
    close = next(row for row in reversed(rows) if row[0] == "E" and row[3] == "app")
    extra = (*close[:1], close[1] + 1.0, *close[2:])
    doc = chrome_trace(rows + [extra])["traceEvents"]
    key = (doc[-1]["pid"], doc[-1]["tid"])
    message = _refusal(rows + [extra], tmp_path / "e.json")
    assert message == f"event {n_doc}: 'E' without open 'B' on {key}"
    assert message == _verdicts(rows + [extra], tmp_path / "e.json")[0]
