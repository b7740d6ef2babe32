"""Causal critical-path extraction from a traced run.

A flat time breakdown (:mod:`repro.obs.breakdown`) says how long each rank
waited, but not whether a wait *lengthened the run* — a barrier wait that is
fully overlapped by another rank's compute costs nothing.  The critical path
answers that: it is the single causally-connected chain of work whose
segment durations sum exactly to the run's simulated time, so a category's
share of the *path* (rather than of any one rank's timeline) is its true
contribution to the bottom line.  This is how the paper's §3 claims become
checkable: VC_sd's path must contain zero diff segments, while LRC_d's must
contain the barrier-time consistency work its centralised barrier performs.

Inputs
------

The walk consumes three things an :class:`~repro.obs.tracer.EventTracer`
records:

* the per-rank app-lane interval timeline (``app_intervals``, shared with
  the breakdown so the two attributions always agree on what every instant
  of a rank's timeline was);
* dispatch-lane handler spans (one ``X`` row on lane ``"dispatch"`` per
  handled message, serial per node);
* the causal edges: ``sends[msg_id] = (src, t, kind)`` and
  ``wakes = [(pid, t, cause_msg_id)]``.

Walk
----

Start at ``(pid*, t*)`` — the rank whose run window ends last, at its end —
and repeat until the run start is reached.  At an **app point** ``(pid, t)``
find the app piece ``(i0, i1]`` containing ``t``:

* if the piece is a wait and a wake was recorded on ``pid`` in ``(i0, t]``
  whose causing message has a send edge strictly before ``t``, the rank was
  blocked until that message arrived: emit the wait tail ``[wt, t]``, emit
  an explicit ``wire`` segment ``[ts, wt]`` for the flight (for the
  transport's ack-wakes the cause is the *original* message, so the whole
  round trip lands here), and jump to the send point ``(src, ts)``;
* otherwise the rank was progressing on its own: emit ``[i0, t]`` under the
  piece's category and continue locally at ``i0``.

At a **send point** reached by a jump, if the message kind is one only
handlers and their spawned helpers send (grants, releases, replies,
forwards) and a dispatch-lane handler span ``(h0, h1]`` contains the send
time, the send was issued by that handler: emit a ``dispatch`` segment
``[h0, t]`` attributed by the *handler's* message kind, emit the trigger
message's flight as another ``wire`` segment, and jump to the trigger's
send point.  (Half-open on the left because a handler's spawned sends can
execute at exactly its end time while the dispatcher has already begun the
next handler there; ``(h0, h1]`` picks the spawning handler.)  Kinds the
application itself sends (acquires, arrivals, requests, data) never resolve
into a handler — the app and dispatch lanes of one node interleave in
simulated time, so naive containment would capture concurrent, causally
unrelated handlers.

``t`` strictly decreases every step, so termination is guaranteed; every
emitted segment starts exactly where the next jump or continuation lands,
so the chronological segments are contiguous (``seg[k].t1 == seg[k+1].t0``
as float equality, by construction) and their durations telescope to the
run's simulated time — ``tests/obs/test_critical_path.py`` asserts both for
every matrix cell.

Category mapping
----------------

App pieces map ``compute``/``run`` → ``compute``, ``barrier-wait`` →
``barrier``, ``acquire-wait`` → ``acquire``, ``diff-wait`` → ``diff``,
``recv-wait`` → ``wire``, and — deliberately — ``page-fault`` →
``compute``: VC_sd's first-touch base copies and twin bookkeeping are
memory-management work, not diff traffic, and counting them as ``diff``
would erase exactly the distinction the paper draws.  Handler segments map
by message kind: ``DIFF_*``/``PAGE_*`` → ``diff`` (HLRC's home-side
``DIFF_PUSH`` application included), ``BARRIER_*`` → ``barrier``, lock/view
traffic → ``acquire``, everything else → ``wire``.  Wire time — NIC serialisation,
switch transfer, retransmission delay, dispatcher queueing — is the
explicit ``wire`` flight segments.

Known attribution limits (walk still terminates and telescopes): a wake
fired from app context while the same node's dispatcher is parked mid-yield
inside a handler inherits that handler's message as its cause, and HLRC's
deferred page-request retries run outside any dispatch span, so their
replies fall back to the home node's local timeline.

Slack
-----

For every wait piece on any rank, ``slack = duration − overlap with the
path's same-rank segments`` — a wait with slack equal to its duration was
fully overlapped by the critical chain elsewhere, and shortening it alone
cannot shorten the run.

The path is globally contiguous, so one rank's segments are chronological
and disjoint (``t0 <= t1 <= next t0``) and their end times are sorted.  Per
wait piece ``(i0, i1)`` the overlap loop bisects to the first segment ending
after ``i0`` and stops at the first starting at or after ``i1``: *O(log s +
k)* for ``s`` same-rank segments of which ``k`` touch the piece, *O(n log n)*
over a trace, where scanning every segment per piece was *O(waits ×
segments)* (1.27 M pairs on IS/8 VC_d).  The segments skipped contribute an
empty overlap and the ones visited are visited in the same order, so the
float additions behind ``on_path`` are the same additions in the same
order — the result is bit-identical, not merely close.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field

from repro.obs.breakdown import app_intervals
from repro.obs.gcpause import gc_paused
from repro.obs.tracer import (
    ACQUIRE_WAIT,
    BARRIER_WAIT,
    COMPUTE,
    DIFF_WAIT,
    PAGE_FAULT,
    RECV_WAIT,
    RUN,
    WAIT_CATEGORIES,
)

__all__ = [
    "Segment",
    "WaitSlack",
    "CriticalPath",
    "compute_critical_path",
    "format_critical_path",
]

# path categories
PATH_COMPUTE = "compute"
PATH_ACQUIRE = "acquire"
PATH_DIFF = "diff"
PATH_BARRIER = "barrier"
PATH_WIRE = "wire"

# app-lane piece category -> path category
_APP_CAT = {
    COMPUTE: PATH_COMPUTE,
    RUN: PATH_COMPUTE,
    BARRIER_WAIT: PATH_BARRIER,
    ACQUIRE_WAIT: PATH_ACQUIRE,
    PAGE_FAULT: PATH_COMPUTE,  # base-copy/twin work, not diff traffic
    DIFF_WAIT: PATH_DIFF,
    RECV_WAIT: PATH_WIRE,
}

# message kinds only handlers (or processes they spawn) send — the only
# send points allowed to resolve into a dispatch-lane handler span
_HANDLER_ORIGIN_KINDS = frozenset(
    {
        "LOCK_GRANT",
        "LOCK_FORWARD",
        "BARRIER_RELEASE",
        "VIEW_GRANT",
        "DIFF_REPLY",
        "PAGE_REPLY",
    }
)


def _handler_category(kind: str) -> str:
    """Path category for a dispatch-lane handler segment, by message kind."""
    if kind.startswith("DIFF_") or kind.startswith("PAGE_"):
        return PATH_DIFF
    if kind.startswith("BARRIER_"):
        return PATH_BARRIER
    if kind.startswith("LOCK_") or kind.startswith("VIEW_"):
        return PATH_ACQUIRE
    return PATH_WIRE  # MPI_DATA, ACK, anything future


@dataclass(frozen=True)
class Segment:
    """One contiguous piece of the critical path."""

    rank: int
    lane: str  # "app", "dispatch" or "wire"
    t0: float
    t1: float
    category: str
    detail: str = ""  # piece category or message kind

    @property
    def duration(self) -> float:
        return self.t1 - self.t0


@dataclass(frozen=True)
class WaitSlack:
    """How much of one wait interval was off the critical path."""

    rank: int
    t0: float
    t1: float
    category: str  # path category of the wait
    on_path: float  # seconds overlapped by same-rank path segments

    @property
    def duration(self) -> float:
        return self.t1 - self.t0

    @property
    def slack(self) -> float:
        return self.duration - self.on_path


@dataclass
class CriticalPath:
    """The walked path plus derived attributions."""

    segments: list[Segment]  # chronological (earliest first)
    total: float  # run's simulated time (== telescoped sum of durations)
    start: float
    end: float
    by_category: dict[str, float] = field(default_factory=dict)
    waits: list[WaitSlack] = field(default_factory=list)

    @property
    def percent(self) -> dict[str, float]:
        if self.total <= 0:
            return {c: 0.0 for c in self.by_category}
        return {c: 100.0 * s / self.total for c, s in self.by_category.items()}


def _dispatch_spans(events) -> dict[int, list[tuple[float, float, str, int]]]:
    """Per-pid chronological handler spans ``(h0, h1, kind, msg_id)``.

    The dispatcher is serial per node, so a pid's ``X`` rows are already in
    order; a handler that never ended (crashed run) wrote no row.
    """
    out: dict[int, list[tuple[float, float, str, int]]] = {}
    for _ph, t, pid, lane, _cat, name, args, end in events:
        if lane == "dispatch":
            out.setdefault(pid, []).append((t, end, name, args["msg"]))
    return out


def _containing(handlers, handler_starts, pid, t):
    """The handler span on ``pid`` whose half-open interval ``(h0, h1]``
    contains ``t``, or ``None``."""
    spans = handlers.get(pid)
    if not spans:
        return None
    i = bisect_left(handler_starts[pid], t) - 1  # last span with h0 < t
    if i >= 0 and t <= spans[i][1]:
        return spans[i]
    return None


@gc_paused()
def compute_critical_path(tracer) -> CriticalPath:
    """Walk the causal chain backwards from the last rank's finish.

    ``tracer`` is an :class:`~repro.obs.tracer.EventTracer` from a completed
    run.  Returns a :class:`CriticalPath` whose chronological segments are
    exactly contiguous and cover ``[start, end]``.
    """
    intervals = app_intervals(tracer.events)
    if not intervals:
        return CriticalPath(segments=[], total=0.0, start=0.0, end=0.0)
    handlers = _dispatch_spans(tracer.events)
    handler_starts = {pid: [h[0] for h in spans] for pid, spans in handlers.items()}

    piece_starts = {
        pid: [p[0] for p in info["pieces"]] for pid, info in intervals.items()
    }
    wakes_by_pid: dict[int, list[tuple[float, int]]] = {}
    for pid, t, cause in tracer.wakes:
        wakes_by_pid.setdefault(pid, []).append((t, cause))
    wake_times = {pid: [w[0] for w in ws] for pid, ws in wakes_by_pid.items()}

    end_pid = max(intervals, key=lambda pid: (intervals[pid]["end"], pid))
    start = min(info["start"] for info in intervals.values())
    end = intervals[end_pid]["end"]

    segments: list[Segment] = []  # emitted latest-first, reversed at the end
    pid, t = end_pid, end
    pending_kind = None  # kind of the message whose send point we are at
    limit = 16 + 4 * (
        sum(len(i["pieces"]) for i in intervals.values())
        + len(tracer.wakes)
        + sum(len(h) for h in handlers.values())
    )
    steps = 0
    while t > start:
        steps += 1
        if steps > limit:  # pragma: no cover - structural safety net
            raise RuntimeError(
                f"critical-path walk did not terminate (at pid={pid} t={t})"
            )

        # send point of a handler-origin message: resolve the issuing handler
        if pending_kind in _HANDLER_ORIGIN_KINDS:
            span = _containing(handlers, handler_starts, pid, t)
            if span is not None:
                h0, _h1, kind, msg_id = span
                segments.append(
                    Segment(pid, "dispatch", h0, t, _handler_category(kind), kind)
                )
                trig = tracer.sends.get(msg_id)
                if trig is not None and trig[1] <= h0:
                    src, ts, tkind = trig
                    segments.append(Segment(pid, "wire", ts, h0, PATH_WIRE, tkind))
                    pid, t, pending_kind = src, ts, tkind
                else:  # no trigger edge — continue on this node's timeline
                    t, pending_kind = h0, None
                continue
        pending_kind = None

        # app point: find the piece (i0, i1] containing t
        info = intervals.get(pid)
        if info is None or t <= info["start"]:
            # walked onto a rank at/before its start — snap to the run start
            segments.append(Segment(pid, "app", start, t, PATH_COMPUTE, "pre-run"))
            t = start
            continue
        pieces = info["pieces"]
        idx = bisect_left(piece_starts[pid], t) - 1  # last piece with i0 < t
        i0, _i1, cat = pieces[idx]
        path_cat = _APP_CAT.get(cat, PATH_COMPUTE)

        # wake-jump: latest wake on this rank in (i0, t] with a usable edge
        jump = None
        if cat in WAIT_CATEGORIES and pid in wakes_by_pid:
            times = wake_times[pid]
            j = bisect_right(times, t) - 1
            while j >= 0 and times[j] > i0:
                wt, cause = wakes_by_pid[pid][j]
                send = tracer.sends.get(cause)
                if send is not None and send[1] <= wt and send[1] < t:
                    jump = (wt, cause, send)
                    break
                j -= 1
        if jump is not None:
            wt, cause, (src, ts, kind) = jump
            segments.append(Segment(pid, "app", wt, t, path_cat, cat))
            # a wake fired from inside the handler of its own causing message
            # (grants, releases, lock forwards): the handler's execution —
            # not the wire — delayed the wake, so walk through it.  The
            # msg-id equality check keeps concurrent unrelated handlers on
            # this node from being captured.
            span = _containing(handlers, handler_starts, pid, wt)
            link = wt
            if span is not None and span[3] == cause and ts <= span[0]:
                h0, _h1, hkind, _mid = span
                segments.append(
                    Segment(pid, "dispatch", h0, wt, _handler_category(hkind), hkind)
                )
                link = h0
            segments.append(Segment(pid, "wire", ts, link, PATH_WIRE, kind))
            pid, t, pending_kind = src, ts, kind
        else:
            segments.append(Segment(pid, "app", i0, t, path_cat, cat))
            t = i0

    segments.reverse()

    by_category: dict[str, float] = {}
    for seg in segments:
        by_category[seg.category] = by_category.get(seg.category, 0.0) + seg.duration

    # slack: per wait piece, overlap with same-rank path segments — bisect to
    # the first segment ending after the piece, stop at the first starting
    # at/after its end (see "Slack" in the module docstring)
    per_rank_path: dict[int, list[tuple[float, float]]] = {}
    for seg in segments:
        per_rank_path.setdefault(seg.rank, []).append((seg.t0, seg.t1))
    waits: list[WaitSlack] = []
    for w_pid in sorted(intervals):
        spans = per_rank_path.get(w_pid, [])
        span_ends = [s1 for _s0, s1 in spans]
        for i0, i1, cat in intervals[w_pid]["pieces"]:
            if cat not in WAIT_CATEGORIES or i1 <= i0:
                continue
            on_path = 0.0
            for k in range(bisect_right(span_ends, i0), len(spans)):
                s0, s1 = spans[k]
                if s0 >= i1:
                    break
                lo, hi = max(i0, s0), min(i1, s1)
                if hi > lo:
                    on_path += hi - lo
            waits.append(
                WaitSlack(w_pid, i0, i1, _APP_CAT.get(cat, PATH_COMPUTE), on_path)
            )

    return CriticalPath(
        segments=segments,
        total=end - start,
        start=start,
        end=end,
        by_category=by_category,
        waits=waits,
    )


def format_critical_path(cp: CriticalPath, max_segments: int = 12) -> str:
    """Terminal rendering: category shares, then the longest segments."""
    if not cp.segments:
        return "Critical path: no traced run"
    lines = ["Critical path", "-------------"]
    lines.append(
        f"simulated time {cp.total:.6f} s across {len(cp.segments)} segments"
    )
    pct = cp.percent
    for cat in sorted(cp.by_category, key=lambda c: -cp.by_category[c]):
        lines.append(
            f"  {cat:<8} {cp.by_category[cat]:>12.6f} s  {pct[cat]:>6.1f}%"
        )
    top = sorted(cp.segments, key=lambda s: -s.duration)[:max_segments]
    lines.append(f"longest segments (top {len(top)}):")
    for seg in top:
        lines.append(
            f"  rank {seg.rank:<3} {seg.lane:<9} {seg.category:<8} "
            f"{seg.duration:>12.6f} s  [{seg.t0:.6f}, {seg.t1:.6f}] {seg.detail}"
        )
    blocking = sum(1 for w in cp.waits if w.on_path > 0)
    overlapped = sum(1 for w in cp.waits if w.on_path == 0 and w.duration > 0)
    lines.append(
        f"waits: {blocking} on the path, "
        f"{overlapped} fully overlapped (slack == duration)"
    )
    return "\n".join(lines)
