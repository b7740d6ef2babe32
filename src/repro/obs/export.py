"""Trace exporters: Chrome trace-event JSON, JSONL, terminal flame summary.

The Chrome trace-event document (``chrome_trace``/``write_chrome_trace``)
loads directly into Perfetto (https://ui.perfetto.dev) or
``chrome://tracing``: each simulated node becomes a process, each lane a
thread, spans render as slices (``B``/``E`` pairs, or one ``X`` event with
``dur``), drops/retransmissions as instants and ``live_processes`` as a
counter track.  Timestamps are simulated microseconds.

Everything here is a pure function of the recorded event list, so for a
deterministic simulation the exported bytes are identical across runs —
``validate_chrome_trace`` is the schema check the CI trace-smoke step runs.

The document exists in two forms built from one row generator (``_rows``):
the dict ``chrome_trace`` returns, and the text ``iter_chrome_trace``
streams and the writers put on disk, which is byte for byte
``json.dumps`` of that dict with ``(",", ":")`` separators plus a newline
without the dict, or the whole string, ever being built.
"""

from __future__ import annotations

import json
import os
from typing import IO, Iterable, Mapping

from repro.obs.host import HOST_PID
from repro.obs.tracer import EventTracer

__all__ = [
    "chrome_trace",
    "iter_chrome_trace",
    "write_chrome_trace",
    "iter_jsonl_lines",
    "write_jsonl",
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


def _rows(events: Iterable):
    """Yield the document's events as ``(ph, ts, pid, tid, cat, name, args, dur)``.

    The one place pids get their ``process_name`` row (``"simulator"``,
    ``"host"`` or ``node-{pid}``) and ``(pid, lane)`` pairs their tid and
    ``thread_name`` row: each metadata row (``ph`` ``"M"``, ``ts`` 0, the label
    in the ``args`` slot) comes out just ahead of the
    first event that needs it.  Recorded events keep their ``B``/``E``/``X``/
    ``i``/``C`` phase; ``ts`` is simulated seconds scaled to microseconds and
    ``dur`` (``X`` only, else ``None``) is ``(end - t)`` likewise.  The dict
    form (:func:`chrome_trace`), the text form (:func:`iter_chrome_trace`)
    and the writers' schema check all read this stream, so no consumer
    holds a second copy of the event list.
    """
    tids: dict[tuple[int, str], int] = {}
    next_tid: dict[int, int] = {}
    for ph, t, pid, lane, cat, name, args, end in events:
        key = (pid, lane)
        tid = tids.get(key)
        if tid is None:
            tid = next_tid.get(pid)
            if tid is None:
                tid = 0
                label = ("simulator" if pid == GLOBAL_PID
                         else "host" if pid == HOST_PID else f"node-{pid}")
                yield "M", 0, pid, 0, None, "process_name", label, None
            next_tid[pid] = tid + 1
            tids[key] = tid
            yield "M", 0, pid, tid, None, "thread_name", lane, None
        dur = None if end is None else (end - t) * 1e6
        yield ph, t * 1e6, pid, tid, cat, name, args, dur


def chrome_trace(trace: "EventTracer | Iterable") -> dict:
    """Convert a recorded trace to a Chrome trace-event JSON document."""
    out: list[dict] = []
    for ph, ts, pid, tid, cat, name, args, dur in _rows(_events_of(trace)):
        if ph == "B" or ph == "X":
            ev = {"ph": ph, "name": name, "cat": cat, "pid": pid, "tid": tid, "ts": ts}
            if ph == "X":
                ev["dur"] = dur
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
                "ph": "C",
                "name": name,
                "pid": pid,
                "tid": tid,
                "ts": ts,
                "args": {"value": args},
            }
        out.append(ev)
    return {"traceEvents": out, "displayTimeUnit": "ms"}


# -- text form ------------------------------------------------------------------------

# the encoder ``json.dumps(doc, separators=(",", ":"))`` builds; ``encode`` is its
# one-shot C path
_encode = json.JSONEncoder(separators=(",", ":")).encode

#: events per yielded text chunk
_CHUNK_EVENTS = 2048


class _Literals(dict):
    """JSON literal of each distinct name/cat/lane (and span duration), encoded
    on first sight — a run repeats a few hundred of them over its event list."""

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


def _chunks(rows: Iterable):
    """The text of the document whose events are ``rows``, a few thousand
    events per chunk.  Key order and number forms are those of
    ``json.dumps(chrome_trace(...), separators=(",", ":"))``: a finite float
    is its ``repr``, flat integer ``args`` fill a memoised template; ``inf``/
    ``nan``, other ``args`` and every string go through the encoder itself."""
    lit, durs, templates = _Literals(), _Literals(), _ArgTemplates()
    encode, float_repr, inf = _encode, float.__repr__, float("inf")
    yield '{"traceEvents":['
    sep = ""
    buf: list[str] = []
    for ph, ts, pid, tid, cat, name, args, dur in rows:
        if ph == "M":
            buf.append(
                f'{{"ph":"M","name":"{name}","pid":{pid},"tid":{tid},"ts":0,'
                f'"args":{{"name":{lit[args]}}}}}'
            )
        else:
            ts = float_repr(ts) if -inf < ts < inf else encode(ts)
            if ph == "E":
                buf.append(
                    f'{{"ph":"E","cat":{lit[cat]},"pid":{pid},"tid":{tid},"ts":{ts}}}'
                )
            elif ph == "C":
                buf.append(
                    f'{{"ph":"C","name":{lit[name]},"pid":{pid},"tid":{tid},'
                    f'"ts":{ts},"args":{{"value":{encode(args)}}}}}'
                )
            else:  # "X", "B", "i": optional args close the object
                tail = "}"
                if args:
                    template = None
                    if type(args) is dict:
                        values = tuple(args.values())
                        template = templates[(*args, *map(type, values))]
                    text = encode(args) if template is None else template % values
                    tail = f',"args":{text}}}'
                if ph == "X":
                    dur = durs[dur] if dur > 0 else encode(dur)  # -0.0 == 0.0
                    buf.append(
                        f'{{"ph":"X","name":{lit[name]},"cat":{lit[cat]},"pid":{pid},'
                        f'"tid":{tid},"ts":{ts},"dur":{dur}{tail}'
                    )
                elif ph == "B":
                    buf.append(
                        f'{{"ph":"B","name":{lit[name]},"cat":{lit[cat]},'
                        f'"pid":{pid},"tid":{tid},"ts":{ts}{tail}'
                    )
                else:
                    buf.append(
                        f'{{"ph":"i","name":{lit[name]},"cat":{lit[cat]},'
                        f'"pid":{pid},"tid":{tid},"ts":{ts},"s":"t"{tail}'
                    )
        if len(buf) >= _CHUNK_EVENTS:
            yield sep + ",".join(buf)
            sep = ","
            buf = []
    if buf:
        yield sep + ",".join(buf)
    yield '],"displayTimeUnit":"ms"}\n'


def iter_chrome_trace(trace: "EventTracer | Iterable"):
    """Yield the Chrome trace document as text chunks.

    Joined, the chunks are byte for byte
    ``json.dumps(chrome_trace(trace), separators=(",", ":")) + "\\n"``
    — what the writers put on disk — but neither the document dict nor its
    full text ever exists: events stream from the tracer's storage to the
    consumer, as :func:`iter_jsonl_lines` does for the JSONL form.
    """
    return _chunks(_rows(_events_of(trace)))


def _write_checked(rows: Iterable, path: str) -> None:
    """Write the document of ``rows`` to ``path``, schema-checking it in the
    same pass.  A document that fails raises ``ValueError`` and leaves
    nothing at ``path``: the text goes to a sibling temp file that replaces
    ``path`` only once complete."""
    tmp = f"{path}.tmp"
    try:
        with open(tmp, "w") as fh:
            fh.writelines(_chunks(_checked(rows, {})))
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def write_chrome_trace(trace: "EventTracer | Iterable", path: str) -> None:
    """Stream the trace to ``path``; ``ValueError`` (and no file) if the
    document would fail :func:`validate_chrome_trace`."""
    _write_checked(_rows(_events_of(trace)), path)


def iter_jsonl_lines(trace: "EventTracer | Iterable"):
    """Yield the JSONL export one line at a time (newline included).

    A generator so exporting never materialises a second copy of the event
    list: large traces stream straight from the tracer's storage
    to the file.
    """
    dumps = json.dumps
    for ph, t, pid, lane, cat, name, args, end in _events_of(trace):
        yield dumps(
            {
                "ph": ph,
                "t": t,
                "pid": pid,
                "lane": lane,
                "cat": cat,
                "name": name,
                "args": args,
                "end": end,
            },
            sort_keys=False,
        ) + "\n"


def write_jsonl(trace: "EventTracer | Iterable", fh_or_path: "IO[str] | str") -> None:
    """Flat one-object-per-line event log (easy to grep/pandas).

    Streams incrementally via :func:`iter_jsonl_lines` — memory stays
    bounded by one line regardless of trace size.
    """
    if isinstance(fh_or_path, str):
        with open(fh_or_path, "w") as fh:
            fh.writelines(iter_jsonl_lines(trace))
    else:
        fh_or_path.writelines(iter_jsonl_lines(trace))


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


def _checked(rows: Iterable, summary: dict):
    """Pass :func:`_rows`-shaped ``rows`` through, schema-checking each.

    Raises ``ValueError`` at the first row with a bad field (``X``: ``dur`` not
    >= 0) or an ``E`` that closes nothing and, once ``rows`` is exhausted, if it
    was empty or a span is still open; otherwise fills ``summary`` with the
    event/span/process counts.  A generator so a writer checks as it writes.
    """
    stacks: dict[tuple[int, int], int] = {}
    spans = 0
    pids: set[int] = set()
    i = -1
    for i, row in enumerate(rows):
        ph, ts, pid, tid, _cat, name, _args, dur = row
        if ph not in _PHASES:
            raise ValueError(f"event {i}: bad phase {ph!r}")
        if not isinstance(pid, int):
            raise ValueError(f"event {i}: missing/non-int 'pid'")
        if not isinstance(tid, int):
            raise ValueError(f"event {i}: missing/non-int 'tid'")
        if not isinstance(ts, (int, float)) or ts < 0:
            raise ValueError(f"event {i}: bad ts {ts!r}")
        if ph != "E" and not name:
            raise ValueError(f"event {i}: phase {ph!r} requires a name")
        pids.add(pid)
        if ph == "X":
            if not isinstance(dur, (int, float)) or not dur >= 0:
                raise ValueError(
                    f"event {i}: 'X' needs a non-negative 'dur', got {dur!r}")
            spans += 1
        elif ph == "B":
            key = (pid, tid)
            stacks[key] = stacks.get(key, 0) + 1
            spans += 1
        elif ph == "E":
            key = (pid, tid)
            depth = stacks.get(key, 0)
            if depth <= 0:
                raise ValueError(f"event {i}: 'E' without open 'B' on {key}")
            stacks[key] = depth - 1
        yield row
    if i < 0:
        raise ValueError("'traceEvents' must be a non-empty list")
    open_lanes = {k: d for k, d in stacks.items() if d}
    if open_lanes:
        raise ValueError(f"unclosed spans at end of trace: {open_lanes}")
    summary.update(events=i + 1, spans=spans, processes=len(pids))


def _doc_rows(events: list):
    """A loaded document's event objects in the shape :func:`_rows` yields."""
    for i, ev in enumerate(events):
        if not isinstance(ev, dict):
            raise ValueError(f"event {i}: not an object")
        get = ev.get
        yield (get("ph"), get("ts"), get("pid"), get("tid"), None, get("name"), None,
               get("dur"))


def validate_chrome_trace(doc: Mapping) -> dict:
    """Schema-check a Chrome trace-event document; raise ValueError if bad.

    Verifies the envelope, per-event required fields (``dur`` >= 0 on ``X``),
    and that every ``B``/``E`` pair balances per ``(pid, tid)`` lane.  Returns a
    small summary dict (event/span/process counts) for smoke-test output.  The
    writers run the same per-event checks while they stream, so a file
    :func:`write_chrome_trace` produced has already passed.
    """
    if not isinstance(doc, Mapping) or "traceEvents" not in doc:
        raise ValueError("not a Chrome trace: missing 'traceEvents'")
    events = doc["traceEvents"]
    if not isinstance(events, list):
        raise ValueError("'traceEvents' must be a non-empty list")
    summary: dict = {}
    for _ in _checked(_doc_rows(events), summary):
        pass
    return summary
