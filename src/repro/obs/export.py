"""Trace exporters: Chrome trace-event JSON and the terminal flame summary.

The Chrome trace-event document (``chrome_trace``/``write_chrome_trace``)
loads directly into Perfetto (https://ui.perfetto.dev) or
``chrome://tracing``: each simulated node becomes a process, each lane a
thread, spans render as slices (``B``/``E`` pairs, or one ``X`` event with
``dur``), drops/retransmissions as instants and ``live_processes`` as a
counter track.  Timestamps are simulated microseconds.

Everything here is a pure function of the recorded event list, so for a
deterministic simulation the exported bytes are identical across runs —
``validate_chrome_trace`` is the schema check the CI trace-smoke step runs.

The document exists in two forms that number pids and lanes through one
``_Lanes``: the dict ``chrome_trace`` returns, and the text
``write_chrome_trace`` puts on disk, which is byte for byte ``json.dumps`` of
that dict with ``(",", ":")`` separators plus a newline, without the dict, or
the whole string, ever being built.

The text form is one pass over the rows (``_text``), with one memo entry per
row *head* ``(ph, pid, lane, cat, name)``: the text before ``"ts":``, the
tid, the metadata rows that introduce a lane and the phase/pid/name rules
are built and checked on a head's first row only (an IS/8 ``vc_d`` trace
repeats 1,534 heads over 86,481 rows).  Per row only ``ts``, ``dur``,
``args`` and the ``B``/``E`` depth are formatted and checked.  The writer
and ``validate_chrome_trace`` keep one rule set (``_check_head``,
``_is_time``, ``_check_ends``).
"""

from __future__ import annotations

import json
import math
import os
from typing import Iterable, Mapping

from repro.obs.gcpause import gc_paused
from repro.obs.host import HOST_PID
from repro.obs.tracer import EventTracer

__all__ = [
    "chrome_trace",
    "write_chrome_trace",
    "flame_summary",
    "validate_chrome_trace",
]

# engine-global events (pid -1) get their own Perfetto "process"
GLOBAL_PID = -1

_PHASES = frozenset("BEXiCM")


def _events_of(trace: "EventTracer | Iterable") -> Iterable:
    """An :class:`EventTracer`'s own rows, or any iterable's checked 8 wide."""
    return trace.events if isinstance(trace, EventTracer) else _eight_wide(trace)


def _eight_wide(events: Iterable):
    for i, row in enumerate(events):
        if len(row) != 8:
            raise ValueError(f"event {i}: expected 8 fields (ph, t, pid, lane, cat, "
                             f"name, args, end), got {len(row)}")
        yield row


class _Lanes(dict):
    """The tid of each ``(pid, lane)``, numbered per pid from 0 in first-sight
    order — the one place a document's pids and lanes get their numbers and
    their metadata (``M``) rows, for the dict form and the text form alike."""

    def __init__(self) -> None:
        super().__init__()
        self._next: dict = {}  # pid -> its next tid

    def open(self, pid, lane) -> tuple[int, list[tuple]]:
        """Number a lane not seen before; return its tid and the metadata rows,
        ``(name, pid, tid, label)``, that go just ahead of its first event: a
        new pid's ``process_name`` (``"simulator"``, ``"host"`` or
        ``node-{pid}``), then the lane's ``thread_name``."""
        tid = self._next.get(pid)
        meta = []
        if tid is None:
            tid = 0
            label = ("simulator" if pid == GLOBAL_PID
                     else "host" if pid == HOST_PID else f"node-{pid}")
            meta.append(("process_name", pid, 0, label))
        self._next[pid] = tid + 1
        self[pid, lane] = tid
        meta.append(("thread_name", pid, tid, lane))
        return tid, meta


def chrome_trace(trace: "EventTracer | Iterable") -> dict:
    """Convert a recorded trace to a Chrome trace-event JSON document.

    Recorded events keep their ``B``/``E``/``X``/``i``/``C`` phase; ``ts`` is
    simulated seconds scaled to microseconds and ``dur`` (``X`` only) is
    ``(end - t)`` likewise.  Each metadata row (``ph`` ``"M"``, ``ts`` 0)
    comes out just ahead of the first event that needs it.
    """
    out: list[dict] = []
    lanes = _Lanes()
    for ph, t, pid, lane, cat, name, args, end in _events_of(trace):
        tid = lanes.get((pid, lane))
        if tid is None:
            tid, meta = lanes.open(pid, lane)
            for what, mpid, mtid, label in meta:
                out.append({"ph": "M", "name": what, "pid": mpid, "tid": mtid,
                            "ts": 0, "args": {"name": label}})
        ts = t * 1e6
        if ph == "B" or ph == "X":
            ev = {"ph": ph, "name": name, "cat": cat, "pid": pid, "tid": tid, "ts": ts}
            if ph == "X":
                ev["dur"] = None if end is None else (end - t) * 1e6
            if args:
                ev["args"] = args
        elif ph == "E":
            ev = {"ph": "E", "cat": cat, "pid": pid, "tid": tid, "ts": ts}
        elif ph == "i":
            ev = {
                "ph": "i",
                "name": name,
                "cat": cat,
                "pid": pid,
                "tid": tid,
                "ts": ts,
                "s": "t",
            }
            if args:
                ev["args"] = args
        elif ph == "M":
            ev = {
                "ph": "M",
                "name": name,
                "pid": pid,
                "tid": tid,
                "ts": ts,
                "args": {"name": args},
            }
        else:  # "C"
            ev = {
                "ph": ph,
                "name": name,
                "pid": pid,
                "tid": tid,
                "ts": ts,
                "args": {"value": args},
            }
        out.append(ev)
    return {"traceEvents": out, "displayTimeUnit": "ms"}


# -- the rules ------------------------------------------------------------------------
#
# One set, kept by the writer as it writes and by ``validate_chrome_trace`` on a
# loaded document, in this order: an event's head (phase, pid, tid, name), its
# ``ts``, an ``X`` row's ``dur``, then ``B``/``E`` balance per ``(pid, tid)``;
# once the events are exhausted, a document must have had one and may leave no
# span open.  ``ts`` and ``dur`` are numbers, finite and >= 0 (``_is_time``);
# the writer's are floats by construction, so it tests the range alone.


def _check_head(i: int, ph, pid, tid, name) -> None:
    """Refuse an event whose head breaks a rule (the writer checks a head once)."""
    if ph not in _PHASES:
        raise ValueError(f"event {i}: bad phase {ph!r}")
    if not isinstance(pid, int):
        raise ValueError(f"event {i}: missing/non-int 'pid'")
    if not isinstance(tid, int):
        raise ValueError(f"event {i}: missing/non-int 'tid'")
    if ph != "E" and not name:
        raise ValueError(f"event {i}: phase {ph!r} requires a name")


def _is_time(value) -> bool:
    # NaN fails the range test too; JSON (RFC 8259) has no NaN or Infinity
    return isinstance(value, (int, float)) and 0 <= value < math.inf


def _refuse_ts(i: int, ts):
    raise ValueError(f"event {i}: bad ts {ts!r}")


def _refuse_dur(i: int, dur):
    raise ValueError(f"event {i}: 'X' needs a non-negative 'dur', got {dur!r}")


def _refuse_unopened(i: int, key: tuple) -> None:
    raise ValueError(f"event {i}: 'E' without open 'B' on {key}")


def _check_ends(n_events: int, depths: dict) -> None:
    """The rules on a whole document: it has events and closes every span."""
    if not n_events:
        raise ValueError("'traceEvents' must be a non-empty list")
    open_lanes = {key: cell[0] for key, cell in depths.items() if cell[0]}
    if open_lanes:
        raise ValueError(f"unclosed spans at end of trace: {open_lanes}")


# -- text form ------------------------------------------------------------------------

# the encoder ``json.dumps(doc, separators=(",", ":"))`` builds; ``encode`` is its
# one-shot C path
_encode = json.JSONEncoder(separators=(",", ":")).encode

#: events per yielded text chunk
_CHUNK_EVENTS = 2048


class _Durations(dict):
    """JSON literal of each distinct positive span duration, encoded on first
    sight — the NIC's frames of one size all take one time."""

    def __missing__(self, value):
        literal = self[value] = _encode(value)
        return literal


class _ArgTemplates(dict):
    """``%d`` template of each flat ``str`` → plain ``int`` ``args`` shape (all
    NIC and dispatch spans), keyed ``(*keys, *value types)``; ``None`` for any
    other shape (``bool``, floats, nesting, non-``str`` keys): the encoder's."""

    def __missing__(self, sig):
        keys = sig[:len(sig) // 2]
        flat = all(type(k) is str for k in keys) and set(sig[len(keys):]) == {int}
        template = self[sig] = "{%s}" % ",".join(
            _encode(k).replace("%", "%%") + ":%d" for k in keys) if flat else None
        return template


def _head_text(ph, pid, tid, cat, name) -> str:
    """The text of an event of this head up to its ``ts`` value."""
    encode = _encode
    if ph == "E":
        return f'{{"ph":"E","cat":{encode(cat)},"pid":{encode(pid)},"tid":{tid},"ts":'
    if ph == "X" or ph == "B" or ph == "i":
        return (f'{{"ph":"{ph}","name":{encode(name)},"cat":{encode(cat)},'
                f'"pid":{encode(pid)},"tid":{tid},"ts":')
    # "C" and a recorded "M": the counter's shape
    return f'{{"ph":{encode(ph)},"name":{encode(name)},"pid":{encode(pid)},"tid":{tid},"ts":'


def _text(events: Iterable):
    """The document of ``events`` as text, a few thousand events per chunk, in
    one pass that keeps the rules as it goes.

    A row's head, ``(ph, pid, lane, cat, name)``, fixes everything but its
    ``ts``, ``dur``, ``args`` and ``B``/``E`` depth: the text before
    ``"ts":``, the tid, the metadata rows that introduce a new lane and the
    head rules.  So each head is built (and checked) on its first row and
    looked up for every later one; per row, only the four are formatted and
    checked.  Key order and number forms are those of ``json.dumps(
    chrome_trace(...), separators=(",", ":"))``: a finite float is its
    ``repr``, flat integer ``args`` fill a memoised template, other ``args``
    and every string go through the encoder.
    """
    encode, float_repr, inf = _encode, float.__repr__, math.inf
    durs, templates, lanes = _Durations(), _ArgTemplates(), _Lanes()
    heads: dict[tuple, tuple] = {}  # head -> (text before ts, depth cell, tid)
    depths: dict[tuple, list] = {}  # (pid, tid) -> [open B count], in lane order
    chunk = _CHUNK_EVENTS
    n = 0  # index of the next document event
    buf: list[str] = []
    append = buf.append
    sep = ""
    yield '{"traceEvents":['
    for ph, t, pid, lane, cat, name, args, end in events:
        head = heads.get((ph, pid, lane, cat, name))
        if head is None:
            tid = lanes.get((pid, lane))
            if tid is None:
                tid, meta = lanes.open(pid, lane)
                for what, mpid, mtid, label in meta:
                    _check_head(n, "M", mpid, mtid, what)
                    depths.setdefault((mpid, mtid), [0])
                    append(f'{{"ph":"M","name":"{what}","pid":{encode(mpid)},'
                           f'"tid":{mtid},"ts":0,"args":{{"name":{encode(label)}}}}}')
                    n += 1
            _check_head(n, ph, pid, tid, name)
            head = heads[ph, pid, lane, cat, name] = (
                _head_text(ph, pid, tid, cat, name), depths[pid, tid], tid)
        text, depth, tid = head
        ts = t * 1e6
        ts = float_repr(ts) if 0.0 <= ts < inf else _refuse_ts(n, ts)
        if ph == "X" or ph == "B" or ph == "i":
            tail = "}"
            if args:
                template = None
                if type(args) is dict:
                    values = tuple(args.values())
                    template = templates[(*args, *map(type, values))]
                tail = f',"args":{encode(args) if template is None else template % values}}}'
            if ph == "X":
                if end is None:
                    _refuse_dur(n, None)
                dur = (end - t) * 1e6
                if 0.0 < dur < inf:
                    dur = durs[dur]
                elif dur == 0.0:  # -0.0 == 0.0 as a key: spelled per row
                    dur = float_repr(dur)
                else:
                    _refuse_dur(n, dur)
                append(f'{text}{ts},"dur":{dur}{tail}')
            elif ph == "B":
                depth[0] += 1
                append(f"{text}{ts}{tail}")
            else:
                append(f'{text}{ts},"s":"t"{tail}')
        elif ph == "E":
            if depth[0] <= 0:
                _refuse_unopened(n, (pid, tid))
            depth[0] -= 1
            append(f"{text}{ts}}}")
        else:
            key = "name" if ph == "M" else "value"
            append(f'{text}{ts},"args":{{"{key}":{encode(args)}}}}}')
        n += 1
        while len(buf) >= chunk:  # a new lane's metadata rows can overfill it
            yield sep + ",".join(buf[:chunk])
            sep = ","
            del buf[:chunk]
    _check_ends(n, depths)
    if buf:
        yield sep + ",".join(buf)
    yield '],"displayTimeUnit":"ms"}\n'


@gc_paused()
def write_chrome_trace(trace: "EventTracer | Iterable", path: str) -> None:
    """Stream the trace to ``path``, keeping :func:`validate_chrome_trace`'s
    rules in the same pass.  A document that breaks one raises ``ValueError``
    and leaves nothing at ``path``: the text goes to a sibling temp file that
    replaces ``path`` only once complete."""
    tmp = f"{path}.tmp"
    try:
        with open(tmp, "w") as fh:
            fh.writelines(_text(_events_of(trace)))
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def flame_summary(trace: "EventTracer | Iterable", width: int = 40) -> str:
    """Terminal flame-style view: per-category share of total process time."""
    from repro.obs.breakdown import compute_breakdown, format_breakdown

    events = list(_events_of(trace))
    breakdown = compute_breakdown(events)
    if not breakdown:
        return "trace is empty (no run spans recorded)"
    totals: dict[str, float] = {}
    for row in breakdown.values():
        for cat, sec in row["seconds"].items():
            totals[cat] = totals.get(cat, 0.0) + sec
    grand = sum(totals.values())
    lines = ["Where the time went (all processes)"]
    for cat, sec in sorted(totals.items(), key=lambda kv: -kv[1]):
        share = sec / grand if grand > 0 else 0.0
        bar = "#" * max(1, round(share * width)) if sec > 0 else ""
        lines.append(f"  {cat:<14} {100 * share:5.1f}%  {bar}")
    lines.append("")
    lines.append(format_breakdown(breakdown))
    lines.append("")
    n_spans = sum(1 for ev in events if ev[0] == "B" or ev[0] == "X")
    lines.append(f"({len(events)} events, {n_spans} spans)")
    return "\n".join(lines)


def validate_chrome_trace(doc: Mapping) -> dict:
    """Schema-check a Chrome trace-event document; raise ValueError if bad.

    Verifies the envelope, per-event required fields (``ts`` and an ``X``
    row's ``dur`` finite and >= 0), and that every ``B``/``E`` pair balances
    per ``(pid, tid)`` lane.  Returns a small summary dict (event/span/process
    counts) for smoke-test output.  The writer keeps the same rules while it
    streams, so a file :func:`write_chrome_trace` produced has already passed.
    """
    if not isinstance(doc, Mapping) or "traceEvents" not in doc:
        raise ValueError("not a Chrome trace: missing 'traceEvents'")
    events = doc["traceEvents"]
    if not isinstance(events, list):
        raise ValueError("'traceEvents' must be a non-empty list")
    depths: dict[tuple, list] = {}  # (pid, tid) -> [open B count], first sight
    spans = 0
    pids: set = set()
    for i, ev in enumerate(events):
        if not isinstance(ev, dict):
            raise ValueError(f"event {i}: not an object")
        get = ev.get
        ph, pid, tid = get("ph"), get("pid"), get("tid")
        _check_head(i, ph, pid, tid, get("name"))
        ts = get("ts")
        if not _is_time(ts):
            _refuse_ts(i, ts)
        depth = depths.setdefault((pid, tid), [0])
        if ph == "X":
            dur = get("dur")
            if not _is_time(dur):
                _refuse_dur(i, dur)
            spans += 1
        elif ph == "B":
            depth[0] += 1
            spans += 1
        elif ph == "E":
            if depth[0] <= 0:
                _refuse_unopened(i, (pid, tid))
            depth[0] -= 1
        pids.add(pid)
    _check_ends(len(events), depths)
    return {"events": len(events), "spans": spans, "processes": len(pids)}
