"""Cross-run regression reporting over the committed bench baselines.

``BENCH_hotpath.json`` and ``BENCH_sweep.json`` record two different kinds
of number, and the comparison treats them differently:

* **Simulated statistics are exact.**  ``table_row``s, fingerprints,
  simulated seconds and the message mix are deterministic functions of
  (code, seed) — any difference between two runs of the same code is a
  real behaviour change, so they are compared for equality with *zero*
  tolerance.  A PR that legitimately changes simulated statistics must
  regenerate the baseline; that is the point of the gate.
* **Host-side numbers are noisy.**  ``wall_seconds`` and ``peak_rss_kb``
  vary run-to-run and host-to-host, so host speed is gated on
  ``wall_seconds`` (lower is better) with a generous relative tolerance
  (default 25% — CI runners are shared; the gate exists to catch
  catastrophic slowdowns, not jitter) and RSS is reported but never fails
  the check.
* **Event counts are informational.**  ``events`` is how many callbacks
  *this implementation* of the engine ran to produce the simulated result —
  deterministic, but a property of the host code, not of the simulation: a
  change that deletes zero-work events leaves every simulated statistic
  alone and makes the run faster while ``events`` and ``events_per_sec``
  both fall.  They are reported as deltas and never fail the check.

Inputs are file paths or ``git:REV[:path]`` specs (the latter read the file
out of a git revision, default path ``BENCH_hotpath.json``), so
``python -m repro report git:HEAD~1 BENCH_hotpath.json`` compares a fresh
run against the last commit's baseline.  ``--check`` exits non-zero iff a
regression was found; ``--html`` additionally writes a standalone
dashboard (inline CSS, no external assets).
"""

from __future__ import annotations

import hashlib
import html as _html
import json
import subprocess
import warnings
from dataclasses import dataclass, field
from typing import Any, Optional

__all__ = [
    "MetricDelta",
    "Comparison",
    "TrendSeries",
    "Trend",
    "load_report",
    "compare_reports",
    "compute_trend",
    "GATE_EXACT",
    "GATE_THROUGHPUT",
    "GATE_INFO",
    "format_report",
    "format_html",
    "format_trend",
    "format_trend_html",
]

DEFAULT_THROUGHPUT_TOLERANCE = 0.25  # relative; see module docstring

# statuses
OK = "ok"
CHANGED = "changed"  # differs, but not a gated failure (noise / additions)
IMPROVED = "improved"
REGRESSED = "regressed"  # fails --check


@dataclass(frozen=True)
class MetricDelta:
    key: str  # protocol label / "app/protocol/variant/nprocs/seed" / "(total)"
    metric: str
    old: Any
    new: Any
    status: str
    note: str = ""


@dataclass
class Comparison:
    kind: str  # "hotpath" or "sweep"
    base_label: str
    new_label: str
    deltas: list[MetricDelta] = field(default_factory=list)

    @property
    def regressions(self) -> list[MetricDelta]:
        return [d for d in self.deltas if d.status == REGRESSED]

    @property
    def identical(self) -> bool:
        return all(d.status == OK for d in self.deltas)


# -- loading -----------------------------------------------------------------------


def load_report(spec: str) -> dict:
    """Load a bench JSON from a path or a ``git:REV[:path]`` spec.

    Files written before the run-manifest block existed (pre-schema-1) are
    backfilled with ``{"schema": 0}`` and a warning, so historical
    ``git:REV`` specs keep working in trend mode.
    """
    if spec.startswith("git:"):
        rest = spec[4:]
        rev, _, path = rest.partition(":")
        path = path or "BENCH_hotpath.json"
        blob = subprocess.run(
            ["git", "show", f"{rev}:{path}"],
            capture_output=True,
            check=True,
        ).stdout
        doc = json.loads(blob)
    else:
        with open(spec) as fh:
            doc = json.load(fh)
    if isinstance(doc, dict) and "manifest" not in doc:
        warnings.warn(
            f"{spec}: no run manifest (written before schema 1); "
            "assuming schema 0",
            stacklevel=2,
        )
        doc["manifest"] = {"schema": 0}
    return doc


def _report_kind(doc: dict) -> str:
    bench = doc.get("benchmark")
    if bench == "sweep":
        return "sweep"
    if bench == "faults_degradation":
        return "degradation"
    if isinstance(doc.get("protocols"), dict):
        return "hotpath"
    raise ValueError(f"unrecognised bench report (benchmark={bench!r})")


# -- comparison --------------------------------------------------------------------


def _ratio_delta(
    key: str,
    metric: str,
    old: Optional[float],
    new: Optional[float],
    tolerance: Optional[float],
    higher_is_better: bool = True,
) -> MetricDelta:
    """Noisy-metric comparison; ``tolerance=None`` means report-only."""
    if not old or new is None:
        return MetricDelta(key, metric, old, new, CHANGED if old != new else OK)
    rel = (new - old) / old
    if not higher_is_better:
        rel = -rel
    if tolerance is not None and rel < -tolerance:
        return MetricDelta(
            key, metric, old, new, REGRESSED, f"{rel * 100:+.1f}% (tol ±{tolerance * 100:.0f}%)"
        )
    if abs(rel) < 1e-12:
        return MetricDelta(key, metric, old, new, OK)
    status = IMPROVED if rel > 0 else CHANGED
    return MetricDelta(key, metric, old, new, status, f"{rel * 100:+.1f}%")


def _exact_delta(key: str, metric: str, old: Any, new: Any) -> MetricDelta:
    if old == new:
        return MetricDelta(key, metric, old, new, OK)
    note = "simulated statistics changed — regenerate the baseline if intended"
    if isinstance(old, dict) and isinstance(new, dict):
        cols = sorted(
            set(old) | set(new), key=lambda c: (old.get(c) == new.get(c), str(c))
        )
        diff = [c for c in cols if old.get(c) != new.get(c)]
        note = f"differs in: {', '.join(map(str, diff[:6]))}" + (
            " …" if len(diff) > 6 else ""
        )
    return MetricDelta(key, metric, old, new, REGRESSED, note)


def _compare_host(key: str, old: dict, new: dict, tolerance: float,
                  deltas: list) -> None:
    """The host numbers of one run: wall gated, events and events/sec not."""
    deltas.append(_ratio_delta(key, "events", old.get("events"), new.get("events"),
                               None, higher_is_better=False))
    deltas.append(_ratio_delta(key, "events_per_sec", old.get("events_per_sec"),
                               new.get("events_per_sec"), None))
    deltas.append(_ratio_delta(key, "wall_seconds", old.get("wall_seconds"),
                               new.get("wall_seconds"), tolerance,
                               higher_is_better=False))


def _compare_entry(
    key: str,
    old: dict,
    new: dict,
    tolerance: float,
    exact_fields: tuple,
    deltas: list,
) -> None:
    for f in exact_fields:
        if f in old or f in new:
            if f == "message_mix" and (f not in old or f not in new):
                # schema evolution: only gate when both sides recorded it
                deltas.append(
                    MetricDelta(key, f, old.get(f) is not None, new.get(f) is not None, CHANGED, "recorded on one side only")
                )
                continue
            deltas.append(_exact_delta(key, f, old.get(f), new.get(f)))
    _compare_host(key, old, new, tolerance, deltas)
    if "peak_rss_kb" in old or "peak_rss_kb" in new:
        deltas.append(
            _ratio_delta(key, "peak_rss_kb", old.get("peak_rss_kb"), new.get("peak_rss_kb"), None, higher_is_better=False)
        )


def compare_reports(
    base: dict,
    new: dict,
    tolerance: float = DEFAULT_THROUGHPUT_TOLERANCE,
    base_label: str = "base",
    new_label: str = "new",
) -> Comparison:
    """Compare two bench reports of the same kind.

    Exact (simulated) fields gate at zero tolerance; ``wall_seconds`` gates
    at ``tolerance``; event counts, events/sec and RSS are report-only.
    Cells present only in the baseline are regressions (coverage loss);
    cells only in the new report are additions.
    """
    kind = _report_kind(base)
    if _report_kind(new) != kind:
        raise ValueError(
            f"cannot compare a {kind} report against a {_report_kind(new)} report"
        )
    if kind == "degradation":
        raise ValueError(
            "degradation reports have no two-way comparison rules; "
            "use `repro report --trend` instead"
        )
    cmp = Comparison(kind=kind, base_label=base_label, new_label=new_label)
    deltas = cmp.deltas

    if kind == "hotpath":
        exact = ("sim_time_seconds", "verified", "table_row", "message_mix")
        old_entries = base.get("protocols", {})
        new_entries = new.get("protocols", {})
        for key in old_entries:
            if key not in new_entries:
                deltas.append(MetricDelta(key, "entry", "present", "missing", REGRESSED))
                continue
            _compare_entry(key, old_entries[key], new_entries[key], tolerance, exact, deltas)
        for key in new_entries:
            if key not in old_entries:
                deltas.append(MetricDelta(key, "entry", "missing", "present", CHANGED))
        _compare_host("(total)", base, new, tolerance, deltas)
        deltas.append(
            _ratio_delta(
                "(total)", "vc_d_events_per_sec",
                base.get("vc_d_events_per_sec"), new.get("vc_d_events_per_sec"),
                None,
            )
        )
    else:
        exact = ("sim_time_seconds", "verified", "fingerprint", "table_row")
        def cell_key(c: dict) -> str:
            return "/".join(
                str(c.get(k)) for k in ("app", "protocol", "variant", "nprocs", "seed")
            )

        old_cells = {cell_key(c): c for c in base.get("cells", [])}
        new_cells = {cell_key(c): c for c in new.get("cells", [])}
        for key, old_cell in old_cells.items():
            if key not in new_cells:
                deltas.append(MetricDelta(key, "cell", "present", "missing", REGRESSED))
                continue
            _compare_entry(key, old_cell, new_cells[key], tolerance, exact, deltas)
        for key in new_cells:
            if key not in old_cells:
                deltas.append(MetricDelta(key, "cell", "missing", "present", CHANGED))
    return cmp


# -- trend tracking ----------------------------------------------------------------
#
# ``repro report --trend`` generalises the two-way comparison to N ordered
# revisions.  Each report flattens into (key, metric) -> (value, gate) and the
# gates reuse the two-way semantics over every *consecutive* pair:
#
#   exact       simulated statistics — any difference is REGRESSED
#   throughput  host speed, as wall seconds — gated at the relative tolerance
#   info        event counts, events/sec, RSS, derived — never fails --check

GATE_EXACT = "exact"
GATE_THROUGHPUT = "throughput"
GATE_INFO = "info"


@dataclass
class TrendSeries:
    """One metric tracked across every revision of a trend."""

    key: str
    metric: str
    gate: str
    values: list  # one per revision; None where the revision lacks the metric
    statuses: list[str] = field(default_factory=list)  # per consecutive pair
    notes: list[str] = field(default_factory=list)

    @property
    def worst(self) -> str:
        order = {REGRESSED: 0, CHANGED: 1, IMPROVED: 2, OK: 3}
        return min(self.statuses, key=lambda s: order.get(s, 4), default=OK)

    @property
    def regressed(self) -> bool:
        return REGRESSED in self.statuses


@dataclass
class Trend:
    """N-revision trend over same-kind bench reports (oldest first)."""

    kind: str
    labels: list[str]
    series: list[TrendSeries] = field(default_factory=list)
    manifests: list[dict] = field(default_factory=list)

    @property
    def regressions(self) -> list[TrendSeries]:
        return [s for s in self.series if s.regressed]


def _row_hash(row: Any) -> Optional[str]:
    if row is None:
        return None
    return hashlib.sha256(
        json.dumps(row, sort_keys=True).encode()
    ).hexdigest()[:16]


def _flatten(doc: dict, kind: str) -> dict:
    """One report -> ordered ``{(key, metric): (value, gate)}``."""
    out: dict = {}

    def put(key: str, metric: str, value: Any, gate: str) -> None:
        if value is not None:
            out[(key, metric)] = (value, gate)

    if kind == "hotpath":
        for label, entry in (doc.get("protocols") or {}).items():
            put(label, "sim_time_seconds", entry.get("sim_time_seconds"), GATE_EXACT)
            put(label, "table_row_hash", _row_hash(entry.get("table_row")), GATE_EXACT)
            put(label, "wall_seconds", entry.get("wall_seconds"), GATE_THROUGHPUT)
            put(label, "events", entry.get("events"), GATE_INFO)
            put(label, "events_per_sec", entry.get("events_per_sec"), GATE_INFO)
        put("(total)", "wall_seconds", doc.get("wall_seconds"), GATE_THROUGHPUT)
        put("(total)", "vc_d_events_per_sec", doc.get("vc_d_events_per_sec"),
            GATE_INFO)
        put("(total)", "events_per_sec", doc.get("events_per_sec"), GATE_INFO)
        put("(total)", "peak_rss_kb", doc.get("peak_rss_kb"), GATE_INFO)
    elif kind == "sweep":
        for cell in doc.get("cells", []):
            key = "/".join(str(cell.get(k)) for k in
                           ("app", "protocol", "variant", "nprocs", "seed"))
            put(key, "fingerprint", cell.get("fingerprint"), GATE_EXACT)
            put(key, "sim_time_seconds", cell.get("sim_time_seconds"), GATE_EXACT)
            put(key, "wall_seconds", cell.get("wall_seconds"), GATE_THROUGHPUT)
            put(key, "events", cell.get("events"), GATE_INFO)
        put("(total)", "wall_seconds", doc.get("wall_seconds"), GATE_THROUGHPUT)
    elif kind == "degradation":
        for cell in doc.get("grid", []):
            key = f"{cell.get('protocol')}/loss={cell.get('loss_rate')}"
            put(key, "failed", cell.get("failed"), GATE_EXACT)
            put(key, "time", cell.get("time"), GATE_EXACT)
            put(key, "rexmit", cell.get("rexmit"), GATE_EXACT)
            put(key, "drops", cell.get("drops"), GATE_EXACT)
            put(key, "slowdown", cell.get("slowdown"), GATE_INFO)
    else:  # pragma: no cover - _report_kind rejects unknown docs first
        raise ValueError(f"no trend rules for kind {kind!r}")
    return out


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
        return REGRESSED, "simulated statistics changed"
    # every noisy metric reads lower-is-better except the events/sec rates
    d = _ratio_delta("", "", old, new,
                     tolerance if gate == GATE_THROUGHPUT else None,
                     higher_is_better=metric.endswith("_per_sec"))
    return d.status, d.note


def compute_trend(
    docs: list[dict],
    labels: list[str],
    tolerance: float = DEFAULT_THROUGHPUT_TOLERANCE,
) -> Trend:
    """Build the per-metric trend over ``docs`` (ordered oldest -> newest).

    All documents must be the same report kind.  Every metric is gated over
    each *consecutive* pair with the two-way semantics (exact simulated /
    tolerance-gated wall seconds / report-only counts); a series is a
    regression iff any pair regressed.
    """
    if len(docs) < 2:
        raise ValueError("a trend needs at least two reports")
    if len(docs) != len(labels):
        raise ValueError("one label per report, in the same order")
    kinds = [_report_kind(d) for d in docs]
    if len(set(kinds)) != 1:
        raise ValueError(
            f"cannot trend across report kinds: {', '.join(sorted(set(kinds)))}"
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


def format_report(cmp: Comparison, verbose: bool = False) -> str:
    """Terminal rendering: regressions first, then changes, then a verdict."""
    lines = [
        f"Regression report ({cmp.kind}): {cmp.base_label} -> {cmp.new_label}",
        "=" * 64,
    ]
    interesting = [d for d in cmp.deltas if d.status != OK]
    order = {REGRESSED: 0, CHANGED: 1, IMPROVED: 2}
    interesting.sort(key=lambda d: (order.get(d.status, 3), d.key, d.metric))
    shown = interesting if verbose else interesting[:40]
    for d in shown:
        mark = {REGRESSED: "FAIL", IMPROVED: "  up", CHANGED: "  ~ "}[d.status]
        lines.append(
            f"{mark}  {d.key:<28} {d.metric:<20} "
            f"{_short(d.old):>28} -> {_short(d.new):<28} {d.note}"
        )
    if len(interesting) > len(shown):
        lines.append(f"… {len(interesting) - len(shown)} more (use --verbose)")
    ok = sum(1 for d in cmp.deltas if d.status == OK)
    lines.append("-" * 64)
    lines.append(
        f"{len(cmp.regressions)} regression(s), "
        f"{sum(1 for d in cmp.deltas if d.status == CHANGED)} change(s), "
        f"{sum(1 for d in cmp.deltas if d.status == IMPROVED)} improvement(s), "
        f"{ok} identical metric(s)"
    )
    lines.append("verdict: " + ("REGRESSED" if cmp.regressions else ("identical" if cmp.identical else "ok")))
    return "\n".join(lines)


_HTML_STYLE = """
body { font: 14px/1.45 system-ui, sans-serif; margin: 2rem auto; max-width: 72rem; color: #1a1a2e; }
h1 { font-size: 1.3rem; } .verdict { font-weight: 700; padding: .4rem .8rem; border-radius: .4rem; display: inline-block; }
.verdict.fail { background: #fde8e8; color: #9b1c1c; } .verdict.pass { background: #e6f6ec; color: #14632e; }
table { border-collapse: collapse; width: 100%; margin-top: 1rem; }
th, td { text-align: left; padding: .35rem .6rem; border-bottom: 1px solid #e3e3ef; font-variant-numeric: tabular-nums; }
tr.regressed td { background: #fdf0f0; } tr.improved td { background: #f0faf3; }
td.status { font-weight: 600; } tr.regressed td.status { color: #9b1c1c; } tr.improved td.status { color: #14632e; }
code { background: #f4f4fb; padding: .05rem .3rem; border-radius: .25rem; }
"""


def format_html(cmp: Comparison) -> str:
    """Standalone single-file HTML dashboard for the comparison."""
    esc = _html.escape
    rows = []
    order = {REGRESSED: 0, CHANGED: 1, IMPROVED: 2, OK: 3}
    for d in sorted(cmp.deltas, key=lambda d: (order.get(d.status, 4), d.key, d.metric)):
        rows.append(
            f"<tr class='{esc(d.status)}'>"
            f"<td class='status'>{esc(d.status)}</td>"
            f"<td><code>{esc(d.key)}</code></td><td>{esc(d.metric)}</td>"
            f"<td>{esc(_short(d.old, 60))}</td><td>{esc(_short(d.new, 60))}</td>"
            f"<td>{esc(d.note)}</td></tr>"
        )
    verdict = "REGRESSED" if cmp.regressions else ("identical" if cmp.identical else "ok")
    cls = "fail" if cmp.regressions else "pass"
    return (
        "<!doctype html><html><head><meta charset='utf-8'>"
        f"<title>repro regression report</title><style>{_HTML_STYLE}</style></head><body>"
        f"<h1>Regression report ({esc(cmp.kind)}): "
        f"<code>{esc(cmp.base_label)}</code> &rarr; <code>{esc(cmp.new_label)}</code></h1>"
        f"<p><span class='verdict {cls}'>{verdict}</span> — "
        f"{len(cmp.regressions)} regression(s) over {len(cmp.deltas)} compared metric(s)</p>"
        "<table><thead><tr><th>status</th><th>key</th><th>metric</th>"
        f"<th>{esc(cmp.base_label)}</th><th>{esc(cmp.new_label)}</th><th>note</th></tr></thead>"
        f"<tbody>{''.join(rows)}</tbody></table></body></html>\n"
    )


# -- trend rendering ---------------------------------------------------------------


def _trend_note(series: TrendSeries) -> str:
    for status, note in zip(series.statuses, series.notes):
        if status == REGRESSED and note:
            return note
    for note in series.notes:
        if note:
            return note
    return ""


def format_trend(trend: Trend, verbose: bool = False) -> str:
    """Terminal trend table: one row per metric, one column per revision."""
    lines = [
        f"Trend report ({trend.kind}): {' -> '.join(trend.labels)}",
        "=" * 64,
    ]
    revs = []
    for label, manifest in zip(trend.labels, trend.manifests):
        rev = (manifest or {}).get("git_rev")
        revs.append(f"{label} [{rev[:10]}]" if rev else label)
    lines.append("revisions: " + " -> ".join(revs))
    interesting = [s for s in trend.series if s.worst != OK]
    order = {REGRESSED: 0, CHANGED: 1, IMPROVED: 2}
    interesting.sort(key=lambda s: (order.get(s.worst, 3), s.key, s.metric))
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
    n_reg = len(trend.regressions)
    steady = sum(1 for s in trend.series if s.worst == OK)
    lines.append("-" * 64)
    lines.append(
        f"{n_reg} regressing metric(s), "
        f"{sum(1 for s in trend.series if s.worst == CHANGED)} changed, "
        f"{sum(1 for s in trend.series if s.worst == IMPROVED)} improved, "
        f"{steady} steady over {len(trend.labels)} revision(s)"
    )
    lines.append("verdict: " + ("REGRESSED" if n_reg else "ok"))
    return "\n".join(lines)


def _sparkline(values: list, width: int = 120, height: int = 28) -> str:
    """Inline SVG polyline over the numeric values of one series."""
    nums = [(i, v) for i, v in enumerate(values)
            if isinstance(v, (int, float)) and not isinstance(v, bool)]
    if len(nums) < 2:
        return ""
    lo = min(v for _i, v in nums)
    hi = max(v for _i, v in nums)
    span = (hi - lo) or 1.0
    n = len(values) - 1
    pts = " ".join(
        f"{round(i / n * (width - 4) + 2, 1)},"
        f"{round((1 - (v - lo) / span) * (height - 6) + 3, 1)}"
        for i, v in nums
    )
    return (
        f"<svg class='spark' width='{width}' height='{height}' "
        f"viewBox='0 0 {width} {height}'>"
        f"<polyline points='{pts}' fill='none' stroke='currentColor' "
        "stroke-width='1.5'/></svg>"
    )


def format_trend_html(trend: Trend) -> str:
    """Standalone single-file HTML trend dashboard with sparklines."""
    esc = _html.escape
    rows = []
    order = {REGRESSED: 0, CHANGED: 1, IMPROVED: 2, OK: 3}
    for s in sorted(trend.series,
                    key=lambda s: (order.get(s.worst, 4), s.key, s.metric)):
        vals = " &rarr; ".join(
            esc(_short(v, 20)) if v is not None else "·" for v in s.values
        )
        rows.append(
            f"<tr class='{esc(s.worst)}'>"
            f"<td class='status'>{esc(s.worst)}</td>"
            f"<td>{esc(s.gate)}</td>"
            f"<td><code>{esc(s.key)}</code></td><td>{esc(s.metric)}</td>"
            f"<td>{vals}</td><td>{_sparkline(s.values)}</td>"
            f"<td>{esc(_trend_note(s))}</td></tr>"
        )
    n_reg = len(trend.regressions)
    verdict = "REGRESSED" if n_reg else "ok"
    cls = "fail" if n_reg else "pass"
    revs = []
    for label, manifest in zip(trend.labels, trend.manifests):
        rev = (manifest or {}).get("git_rev")
        schema = (manifest or {}).get("schema", 0)
        extra = f" [{esc(rev[:10])}]" if rev else (
            " [no manifest]" if not schema else "")
        revs.append(f"<code>{esc(label)}</code>{extra}")
    return (
        "<!doctype html><html><head><meta charset='utf-8'>"
        f"<title>repro trend report</title><style>{_HTML_STYLE}"
        ".spark { color: #4c51bf; vertical-align: middle; }"
        "</style></head><body>"
        f"<h1>Trend report ({esc(trend.kind)})</h1>"
        f"<p>{' &rarr; '.join(revs)}</p>"
        f"<p><span class='verdict {cls}'>{verdict}</span> — "
        f"{n_reg} regressing metric(s) over {len(trend.series)} tracked "
        f"across {len(trend.labels)} revision(s)</p>"
        "<table><thead><tr><th>status</th><th>gate</th><th>key</th>"
        "<th>metric</th><th>values</th><th>trend</th><th>note</th></tr></thead>"
        f"<tbody>{''.join(rows)}</tbody></table></body></html>\n"
    )
