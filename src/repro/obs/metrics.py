"""Contention metrics, folded from a run's tracer rows.

The tracer answers *when* things happened; this registry answers *how much,
broken down by which resource* — acquire-wait seconds per view, diff bytes
per page, barrier skew per epoch.  It is the quantitative backing for the
paper's per-primitive arguments (Tables 1-9 reason about *counts of diff
requests* and *barrier-time consistency work*, both naturally per-view /
per-page quantities).

There is no recording hook of its own: :meth:`Metrics.fold` reads the rows an
:class:`~repro.obs.tracer.EventTracer` recorded, in recording order (which is
simulator order, so two identical runs produce identical snapshots), into
counters (``inc``) and histograms (``observe``: count / sum / min / max plus
fixed log-spaced buckets).  Every instrument is keyed by ``(name,
sorted(labels))`` so one registry can hold e.g.
``acquire_wait_seconds{view=3}`` next to ``acquire_wait_seconds{view=7}``.
``snapshot()`` renders everything into plain JSON-serialisable dicts for
dumping alongside traces, and :func:`format_contention` renders the per-view
/ per-page contention tables the CLI prints.
"""

from __future__ import annotations

import json
from typing import Any, Iterable, Optional

from repro.obs.gcpause import gc_paused

__all__ = ["Histogram", "Metrics", "format_contention"]

# the app-lane wait spans whose extents are the wait histograms
_WAIT_SPANS = ("barrier-wait", "acquire-wait")

# log-spaced bucket upper bounds for time-like observations (seconds); the
# final +inf bucket is implicit
_BUCKET_BOUNDS = (
    1e-6,
    1e-5,
    1e-4,
    1e-3,
    1e-2,
    1e-1,
    1.0,
    10.0,
)


class Histogram:
    """Count/sum/min/max plus fixed log-spaced buckets."""

    __slots__ = ("count", "sum", "min", "max", "buckets")

    def __init__(self) -> None:
        self.count = 0
        self.sum = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None
        self.buckets = [0] * (len(_BUCKET_BOUNDS) + 1)

    def observe(self, value: float) -> None:
        self.count += 1
        self.sum += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value
        for i, bound in enumerate(_BUCKET_BOUNDS):
            if value <= bound:
                self.buckets[i] += 1
                return
        self.buckets[-1] += 1

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def snapshot(self) -> dict:
        return {
            "count": self.count,
            "sum": self.sum,
            "min": self.min,
            "max": self.max,
            "mean": self.mean,
            "buckets": {
                **{f"le_{b:g}": n for b, n in zip(_BUCKET_BOUNDS, self.buckets)},
                "le_inf": self.buckets[-1],
            },
        }


def _key(name: str, labels: dict) -> tuple:
    return (name, tuple(sorted(labels.items())))


class Metrics:
    """A registry of counters and histograms keyed by labels.

    Fill it from a traced run::

        tracer = EventTracer()
        system.sim.tracer = tracer
        system.run_program(body)
        print(format_contention(Metrics().fold(tracer.events)))

    (or pass ``metrics=`` to :func:`repro.apps.common.run_app`, which traces
    the run and folds its rows into the registry).
    """

    __slots__ = ("counters", "histograms")

    def __init__(self) -> None:
        self.counters: dict[tuple, float] = {}
        self.histograms: dict[tuple, Histogram] = {}

    # -- recording -----------------------------------------------------------------

    def inc(self, name: str, value: float = 1.0, **labels: Any) -> None:
        k = _key(name, labels)
        self.counters[k] = self.counters.get(k, 0.0) + value

    def observe(self, name: str, value: float, **labels: Any) -> None:
        k = _key(name, labels)
        h = self.histograms.get(k)
        if h is None:
            h = self.histograms[k] = Histogram()
        h.observe(value)

    @gc_paused()
    def fold(self, rows: Iterable[tuple]) -> "Metrics":
        """Fold a run's tracer rows into this registry (returns it): the
        ``app``-lane wait spans (an acquire span's ``B`` args are its labels)
        and the ``diff``/``grant``/``piggyback``/``barrier``/``fault``
        instants (docs/observability.md, *Contention metrics*)."""
        waits: dict[tuple, tuple] = {}  # (pid, cat) -> the open span's (t, args)
        arrivals: dict[int, list[float]] = {}  # barrier gen -> arrival times
        for ph, t, pid, lane, cat, name, args, _end in rows:
            if ph == "i":
                if cat == "diff":
                    for writer in args["writers"]:
                        self.inc("diff_requests", 1, page=args["page"], writer=writer)
                    self.inc("diff_bytes", args["bytes"], page=args["page"])
                elif cat == "grant":
                    self.observe("grant_bytes", args["bytes"], view=args["view"])
                elif cat == "piggyback":
                    self.inc("piggyback_bytes", args["bytes"], view=args["view"])
                elif cat == "barrier":
                    ts = arrivals.setdefault(args["gen"], [])
                    ts.append(t)
                    if not args["left"]:
                        del arrivals[args["gen"]]
                        self.observe("barrier_skew_seconds", max(ts) - min(ts))
                        self.inc("barrier_episodes")
                elif cat == "fault":
                    what, _, kind = name.partition(" ")
                    if what == "pause":
                        self.observe("fault_pause_seconds", args["stall"], node=pid)
                    elif what != "crash":
                        self.inc(f"fault_{what}s", kind=kind)
            elif lane == "app" and cat in _WAIT_SPANS:
                if ph == "B":
                    waits[pid, cat] = (t, args)
                    continue
                t0, labels = waits.pop((pid, cat))
                if cat == "barrier-wait":
                    self.observe("barrier_wait_seconds", t - t0, node=pid)
                else:
                    self.observe("acquire_wait_seconds", t - t0, **labels)
        return self

    # -- querying ------------------------------------------------------------------

    def counter_value(self, name: str, **labels: Any) -> float:
        return self.counters.get(_key(name, labels), 0.0)

    def histogram(self, name: str, **labels: Any) -> Optional[Histogram]:
        return self.histograms.get(_key(name, labels))

    def series(self, name: str) -> list[tuple[dict, Any]]:
        """All (labels, value-or-histogram) pairs recorded under ``name``."""
        return [(dict(lab), v) for table in (self.counters, self.histograms)
                for (n, lab), v in table.items() if n == name]

    # -- export --------------------------------------------------------------------

    def snapshot(self) -> dict:
        """Everything as plain JSON-serialisable dicts (deterministic order)."""

        def render(table: dict, value) -> list[dict]:
            rows = []
            for (name, lab) in sorted(table, key=lambda k: (k[0], repr(k[1]))):
                rows.append(
                    {
                        "name": name,
                        "labels": dict(lab),
                        "value": value(table[(name, lab)]),
                    }
                )
            return rows

        return {
            "counters": render(self.counters, lambda v: v),
            "histograms": render(self.histograms, lambda h: h.snapshot()),
        }

    def write_json(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump(self.snapshot(), fh, indent=1, sort_keys=True)
            fh.write("\n")


# -- CLI rendering -----------------------------------------------------------------


def _fmt_val(v: float) -> str:
    if v == int(v) and abs(v) < 1e15:
        return str(int(v))
    return f"{v:.6g}"


def format_contention(metrics: Metrics, title: str = "Contention metrics") -> str:
    """Per-resource contention tables: one block per metric name.

    Histograms render count / mean / max per label set (the per-view
    acquire-wait table the paper's contention arguments need); counters
    render a single value column.
    """
    names = {name for name, _ in (*metrics.counters, *metrics.histograms)}
    if not names:
        return f"{title}: none recorded"

    lines = [title, "-" * len(title)]
    for name in sorted(names):
        series = sorted(
            metrics.series(name), key=lambda pair: sorted(pair[0].items())
        )
        lines.append(f"{name}:")
        for labels, value in series:
            lab = (
                ", ".join(f"{k}={v}" for k, v in sorted(labels.items()))
                or "(total)"
            )
            if isinstance(value, Histogram):
                lines.append(
                    f"  {lab:<28} n={value.count:<7} "
                    f"sum={value.sum:.6g} mean={value.mean:.3g} "
                    f"max={value.max if value.max is not None else 0:.3g}"
                )
            else:
                lines.append(f"  {lab:<28} {_fmt_val(value)}")
    return "\n".join(lines)
