"""Cross-run regression reporting over the committed ledgers.

One reader for three kinds of report — ``BENCH_sweep.json`` (``sweep``),
``BENCH_faults.json`` (``degradation``) and the host-time benchmark's
``benchmarks/e2e/baseline.json`` / ``out/results.json`` (``e2e``, read-only
here).  :data:`SCHEMA` states, once, where each kind keeps its rows and how
every tracked field is gated:

* **exact** — simulated statistics.  ``table_row``s, fingerprints, simulated
  seconds and operation counts are deterministic functions of (code, seed):
  any difference between two runs is a real behaviour change, so they are
  compared for equality with *zero* tolerance.  A PR that legitimately
  changes simulated statistics must regenerate the baseline; that is the
  point of the gate.
* **throughput** — the host numbers steady enough to gate (the sweep's
  summed cell wall time; the e2e benchmark's ``wall_s``/``setup_s``/
  ``peak_rss_mb``), lower is better, at a generous relative tolerance
  (default 25% — CI runners are shared; the gate exists to catch
  catastrophic slowdowns, not jitter).
* **info** — reported as deltas, never fails the check: per-cell wall time
  (a 40 ms cell swings 40% on scheduling noise alone), RSS, and the event
  counts.  ``events`` is how many callbacks *this implementation* of the
  engine ran — deterministic, but a property of the host code, not of the
  simulation: a change that deletes zero-work events leaves every simulated
  statistic alone and makes the run faster while ``events`` and
  ``events_per_sec`` both fall.

There is one comparison, :func:`compute_trend`, over N >= 2 same-kind reports
ordered oldest -> newest; every *consecutive* pair is gated.  Inputs are file
paths or ``git:REV[:path]`` specs (the latter read the file out of a git
revision, default path ``BENCH_sweep.json``), so
``python -m repro report git:HEAD~1 BENCH_sweep.json`` compares a fresh sweep
against the last commit's.  ``--check`` exits non-zero iff a series
regressed.
"""

from __future__ import annotations

import json
import math
import warnings
from collections import Counter
from dataclasses import dataclass, field
from typing import Any, Optional

__all__ = [
    "SCHEMA",
    "TrendSeries",
    "Trend",
    "load_report",
    "compute_trend",
    "GATE_EXACT",
    "GATE_THROUGHPUT",
    "GATE_INFO",
    "DEFAULT_THROUGHPUT_TOLERANCE",
    "format_trend",
]

DEFAULT_THROUGHPUT_TOLERANCE = 0.25  # relative; see module docstring

# statuses
OK = "ok"
CHANGED = "changed"  # differs, but not a gated failure (noise / additions)
IMPROVED = "improved"
REGRESSED = "regressed"  # fails --check
_SEVERITY = {REGRESSED: 0, CHANGED: 1, IMPROVED: 2, OK: 3}

GATE_EXACT = "exact"
GATE_THROUGHPUT = "throughput"
GATE_INFO = "info"

#: report kind -> how to recognise it, where its rows are and how each
#: tracked number is gated.  ``benchmark`` is the document's ``"benchmark"``
#: value; ``rows`` names the list (or name -> row dict) of rows; ``key``
#: formats a list row's label from its own fields; ``fields`` gates row
#: fields — a ``(dict_field, member)`` pair lifts one member out of a dict
#: field into its own series (and out of the dict's exact comparison);
#: ``totals`` gates report-level numbers under the ``(total)`` key, where
#: ``sum:FIELD`` is that row field summed over the rows rather than read
#: from the top level.
SCHEMA: dict[str, dict] = {
    "sweep": {
        "benchmark": "sweep",
        "rows": "cells",
        "key": "{app}/{protocol}/{variant}/{nprocs}/{seed}",
        "fields": {
            "fingerprint": GATE_EXACT,
            "table_row": GATE_EXACT,
            "sim_time_seconds": GATE_EXACT,
            "verified": GATE_EXACT,
            "wall_seconds": GATE_INFO,
            "events": GATE_INFO,
            "events_per_sec": GATE_INFO,
            "peak_rss_kb": GATE_INFO,
        },
        "totals": {
            # independent of --jobs and of cache hits (a recalled cell carries
            # the wall time of the run that produced it)
            "cell_wall_sum_s": (GATE_THROUGHPUT, "sum:wall_seconds"),
            "wall_seconds": (GATE_INFO, "wall_seconds"),
        },
    },
    "degradation": {
        "benchmark": "faults_degradation",
        "rows": "grid",
        "key": "{protocol}/loss={loss_rate}",
        "fields": {
            "failed": GATE_EXACT,
            "time": GATE_EXACT,
            "rexmit": GATE_EXACT,
            "drops": GATE_EXACT,
            "slowdown": GATE_INFO,
        },
        "totals": {},
    },
    "e2e": {
        "benchmark": None,  # benchmarks/e2e documents carry no such key
        "rows": "end_to_end",  # workload name -> row
        "fields": {
            "wall_s": GATE_THROUGHPUT,
            "setup_s": GATE_THROUGHPUT,
            "peak_rss_mb": GATE_THROUGHPUT,
            "counts": GATE_EXACT,
            ("counts", "sim.events"): GATE_INFO,
        },
        "totals": {},
    },
}


# -- loading -----------------------------------------------------------------------


def load_report(spec: str) -> dict:
    """Load a report JSON from a path or a ``git:REV[:path]`` spec.

    A ``git:`` spec reads ``path`` (repository-relative) out of revision
    ``REV`` of the checkout that holds the running ``repro`` package, from
    any working directory.

    BENCH files written before the run-manifest block existed (pre-schema-1)
    are backfilled with ``{"schema": 0}`` and a warning, so historical
    ``git:REV`` specs keep working.  (An ``e2e`` document has no
    ``benchmark`` key and describes its host in a ``host`` block instead.)
    """
    if spec.startswith("git:"):
        from repro.bench.manifest import git

        rev, _, path = spec[4:].partition(":")
        doc = json.loads(git("show", f"{rev}:{path or 'BENCH_sweep.json'}",
                             check=True).stdout)
    else:
        with open(spec) as fh:
            doc = json.load(fh)
    if isinstance(doc, dict) and "benchmark" in doc and "manifest" not in doc:
        warnings.warn(
            f"{spec}: no run manifest (written before schema 1); "
            "assuming schema 0",
            stacklevel=2,
        )
        doc["manifest"] = {"schema": 0}
    return doc


def _report_kind(doc: dict) -> str:
    bench = doc.get("benchmark")
    for kind, schema in SCHEMA.items():
        if schema["benchmark"] == bench and schema["rows"] in doc:
            return kind
    raise ValueError(f"unrecognised bench report (benchmark={bench!r})")


# -- comparison --------------------------------------------------------------------


@dataclass
class TrendSeries:
    """One metric tracked across every revision of a trend."""

    key: str  # row label ("app/protocol/variant/nprocs/seed", ...) or "(total)"
    metric: str
    gate: str
    values: list  # one per revision; None where the revision lacks the metric
    statuses: list[str] = field(default_factory=list)  # per consecutive pair
    notes: list[str] = field(default_factory=list)

    @property
    def worst(self) -> str:
        return min(self.statuses, key=_SEVERITY.__getitem__, default=OK)

    @property
    def regressed(self) -> bool:
        return REGRESSED in self.statuses


@dataclass
class Trend:
    """N-revision trend over same-kind reports (oldest first)."""

    kind: str
    labels: list[str]
    series: list[TrendSeries] = field(default_factory=list)
    manifests: list[dict] = field(default_factory=list)

    @property
    def regressions(self) -> list[TrendSeries]:
        return [s for s in self.series if s.regressed]


def _flatten(doc: dict, kind: str) -> dict:
    """One report -> ordered ``{(key, metric): (value, gate)}`` per SCHEMA."""
    schema = SCHEMA[kind]
    out: dict = {}
    rows = doc.get(schema["rows"]) or {}
    if not isinstance(rows, dict):
        rows = {schema["key"].format_map(row): row for row in rows}
    for key, row in rows.items():
        for name, gate in schema["fields"].items():
            if isinstance(name, tuple):  # one member lifted out of a dict field
                value = (row.get(name[0]) or {}).get(name[1])
                name = name[1]
            else:
                value = row.get(name)
                if isinstance(value, dict):
                    value = {k: v for k, v in value.items()
                             if (name, k) not in schema["fields"]}
            out[(key, name)] = (value, gate)
    for name, (gate, source) in schema["totals"].items():
        if source.startswith("sum:"):
            parts = [row.get(source[4:]) for row in rows.values()]
            value = round(sum(p for p in parts if p is not None), 4) if parts else None
        else:
            value = doc.get(source)
        out[("(total)", name)] = (value, gate)
    return {km: vg for km, vg in out.items() if vg[0] is not None}


def _pair_status(gate: str, metric: str, old: Any, new: Any,
                 tolerance: float) -> tuple[str, str]:
    """Status + note for one consecutive revision pair of one series."""
    if old is None and new is None:
        return OK, ""
    if old is None:
        return CHANGED, "added"
    if new is None:
        if gate == GATE_EXACT:
            return REGRESSED, "metric disappeared (coverage lost)"
        return CHANGED, "missing"
    if gate == GATE_EXACT:
        if old == new:
            return OK, ""
        if isinstance(old, dict) and isinstance(new, dict):
            diff = sorted(str(c) for c in set(old) | set(new)
                          if old.get(c) != new.get(c))
            return REGRESSED, (f"differs in: {', '.join(diff[:6])}"
                               + (" …" if len(diff) > 6 else ""))
        return REGRESSED, "simulated statistics changed"
    if not old:
        return (CHANGED if old != new else OK), ""
    # every noisy metric reads lower-is-better except the events/sec rates
    rel = (new - old) / old
    if not metric.endswith("_per_sec"):
        rel = -rel
    if gate == GATE_THROUGHPUT and rel < -tolerance:
        return REGRESSED, f"{rel * 100:+.1f}% (tol ±{tolerance * 100:.0f}%)"
    if abs(rel) < 1e-12:
        return OK, ""
    return (IMPROVED if rel > 0 else CHANGED), f"{rel * 100:+.1f}%"


def compute_trend(
    docs: list[dict],
    labels: list[str],
    tolerance: float = DEFAULT_THROUGHPUT_TOLERANCE,
) -> Trend:
    """Build the per-metric trend over ``docs`` (ordered oldest -> newest).

    All documents must be the same report kind.  Every metric :data:`SCHEMA`
    names is gated over each *consecutive* pair (exact simulated /
    tolerance-gated host time / report-only); a series is a regression iff
    any pair regressed.  A row present in one report and missing from the
    next loses coverage (its exact series regress); a new row is a change.
    ``tolerance`` must be finite and >= 0.
    """
    if not 0 <= tolerance < math.inf:
        raise ValueError(f"tolerance must be finite and >= 0, got {tolerance!r}")
    if len(docs) < 2:
        raise ValueError("a report needs at least two documents to compare")
    if len(docs) != len(labels):
        raise ValueError("one label per report, in the same order")
    kinds = [_report_kind(d) for d in docs]
    if len(set(kinds)) != 1:
        raise ValueError(
            f"cannot compare across report kinds: {', '.join(sorted(set(kinds)))}"
        )
    kind = kinds[0]
    flat = [_flatten(d, kind) for d in docs]
    keys: dict = {}  # ordered union of (key, metric), first-appearance order
    for f in flat:
        for km, (_v, gate) in f.items():
            keys.setdefault(km, gate)
    trend = Trend(kind=kind, labels=list(labels),
                  manifests=[d.get("manifest") or {"schema": 0} for d in docs])
    for (key, metric), gate in keys.items():
        values = [f[(key, metric)][0] if (key, metric) in f else None
                  for f in flat]
        series = TrendSeries(key=key, metric=metric, gate=gate, values=values)
        for old, new in zip(values, values[1:]):
            status, note = _pair_status(gate, metric, old, new, tolerance)
            series.statuses.append(status)
            series.notes.append(note)
        trend.series.append(series)
    return trend


# -- rendering ---------------------------------------------------------------------


def _short(v: Any, width: int = 28) -> str:
    s = json.dumps(v, sort_keys=True) if isinstance(v, (dict, list)) else str(v)
    return s if len(s) <= width else s[: width - 1] + "…"


def _trend_note(series: TrendSeries) -> str:
    """The note of the first regressed pair, else the first note at all."""
    flagged = (n for st, n in zip(series.statuses, series.notes)
               if st == REGRESSED and n)
    return next(flagged, None) or next((n for n in series.notes if n), "")


def _revisions(trend: Trend) -> list[str]:
    """Each label with its manifest's short git revision, when it has one."""
    out = []
    for label, manifest in zip(trend.labels, trend.manifests):
        rev = manifest.get("git_rev")
        out.append(f"{label} [{rev[:10]}]" if rev else label)
    return out


def format_trend(trend: Trend, verbose: bool = False) -> str:
    """Terminal trend table: one row per metric, one column per revision."""
    lines = [
        f"Trend report ({trend.kind}): {' -> '.join(trend.labels)}",
        "=" * 64,
    ]
    lines.append("revisions: " + " -> ".join(_revisions(trend)))
    interesting = [s for s in trend.series if s.worst != OK]
    interesting.sort(key=lambda s: (_SEVERITY[s.worst], s.key, s.metric))
    shown = interesting if verbose else interesting[:40]
    for s in shown:
        mark = {REGRESSED: "FAIL", IMPROVED: "  up", CHANGED: "  ~ "}[s.worst]
        vals = " -> ".join(_short(v, 16) if v is not None else "·"
                           for v in s.values)
        lines.append(
            f"{mark}  {s.key:<28} {s.metric:<20} {vals}  {_trend_note(s)}"
        )
    if len(interesting) > len(shown):
        lines.append(f"… {len(interesting) - len(shown)} more (use --verbose)")
    tally = Counter(s.worst for s in trend.series)
    lines.append("-" * 64)
    lines.append(
        f"{tally[REGRESSED]} regressing metric(s), {tally[CHANGED]} changed, "
        f"{tally[IMPROVED]} improved, "
        f"{tally[OK]} steady over {len(trend.labels)} revision(s)"
    )
    lines.append("verdict: " + ("REGRESSED" if tally[REGRESSED] else "ok"))
    return "\n".join(lines)
