"""Lightweight contention-metrics registry.

The tracer answers *when* things happened; this registry answers *how much,
broken down by which resource* — acquire-wait seconds per view, diff bytes
per page, barrier skew per epoch.  It is the quantitative backing for the
paper's per-primitive arguments (Tables 1-9 reason about *counts of diff
requests* and *barrier-time consistency work*, both naturally per-view /
per-page quantities).

Design rules (mirroring the tracer's):

* **Zero overhead when disabled.**  The simulator's ``metrics`` attribute is
  ``None`` by default and every feed site guards with
  ``if metrics is not None``.
* **Observational purity.**  Recording never charges simulated time or
  perturbs scheduling; a metered run's simulated statistics are
  bit-identical to an unmetered run's.
* **Determinism.**  Feed sites run in simulator order, so two identical runs
  produce identical snapshots.

Instruments
-----------

* ``inc(name, value, **labels)`` — monotonic counter;
* ``gauge(name, value, **labels)`` — last-write-wins sample;
* ``observe(name, value, **labels)`` — histogram observation (count / sum /
  min / max plus fixed log-spaced buckets).

Every instrument is keyed by ``(name, sorted(labels))`` so one registry can
hold e.g. ``acquire_wait_seconds{view=3}`` next to
``acquire_wait_seconds{view=7}``.  ``snapshot()`` renders everything into
plain JSON-serialisable dicts for dumping alongside traces, and
:func:`format_contention` renders the per-view / per-page contention tables
the CLI prints.
"""

from __future__ import annotations

import json
from typing import Any, Optional

__all__ = ["Histogram", "Metrics", "format_contention"]

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
    """A registry of counters, gauges and histograms keyed by labels.

    Install like a tracer::

        metrics = Metrics()
        system.sim.metrics = metrics
        system.run_program(body)
        print(metrics.format_contention())
    """

    __slots__ = ("counters", "gauges", "histograms")

    def __init__(self) -> None:
        self.counters: dict[tuple, float] = {}
        self.gauges: dict[tuple, float] = {}
        self.histograms: dict[tuple, Histogram] = {}

    # -- recording (called from guarded feed sites) --------------------------------

    def inc(self, name: str, value: float = 1.0, **labels: Any) -> None:
        k = _key(name, labels)
        self.counters[k] = self.counters.get(k, 0.0) + value

    def gauge(self, name: str, value: float, **labels: Any) -> None:
        self.gauges[_key(name, labels)] = value

    def observe(self, name: str, value: float, **labels: Any) -> None:
        k = _key(name, labels)
        h = self.histograms.get(k)
        if h is None:
            h = self.histograms[k] = Histogram()
        h.observe(value)

    # -- querying ------------------------------------------------------------------

    def counter_value(self, name: str, **labels: Any) -> float:
        return self.counters.get(_key(name, labels), 0.0)

    def histogram(self, name: str, **labels: Any) -> Optional[Histogram]:
        return self.histograms.get(_key(name, labels))

    def series(self, name: str) -> list[tuple[dict, Any]]:
        """All (labels, value-or-histogram) pairs recorded under ``name``."""
        out: list[tuple[dict, Any]] = []
        for (n, lab), v in self.counters.items():
            if n == name:
                out.append((dict(lab), v))
        for (n, lab), v in self.gauges.items():
            if n == name:
                out.append((dict(lab), v))
        for (n, lab), h in self.histograms.items():
            if n == name:
                out.append((dict(lab), h))
        return out

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
            "gauges": render(self.gauges, lambda v: v),
            "histograms": render(self.histograms, lambda h: h.snapshot()),
        }

    def write_json(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump(self.snapshot(), fh, indent=1, sort_keys=True)
            fh.write("\n")

    def format_contention(self) -> str:
        return format_contention(self)


# -- CLI rendering -----------------------------------------------------------------


def _fmt_val(v: float) -> str:
    if v == int(v) and abs(v) < 1e15:
        return str(int(v))
    return f"{v:.6g}"


def format_contention(metrics: Metrics, title: str = "Contention metrics") -> str:
    """Per-resource contention tables: one block per metric name.

    Histograms render count / mean / max per label set (the per-view
    acquire-wait table the paper's contention arguments need); counters and
    gauges render a single value column.
    """
    names: dict[str, list] = {}
    for (name, lab) in metrics.counters:
        names.setdefault(name, [])
    for (name, lab) in metrics.gauges:
        names.setdefault(name, [])
    for (name, lab) in metrics.histograms:
        names.setdefault(name, [])
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
