"""Render experiment results in the paper's table format.

Each stats table prints one column per protocol with the paper's row labels;
when the paper's value is known it is shown alongside as ``(paper: X)`` so
shape agreement is visible at a glance.
"""

from __future__ import annotations

from typing import Mapping, Optional, Sequence

from repro.apps.common import AppResult

__all__ = ["format_stats_table", "format_speedup_table", "format_breakdown_section"]

STATS_ROWS = (
    "Time (Sec.)",
    "Barriers",
    "Acquires",
    "Data (MByte)",
    "Num. Msg",
    "Diff Requests",
    "Barrier Time (usec.)",
    "Acquire Time (usec.)",
    "Rexmit",
)


# one format per row: seconds and megabytes to 3 decimals, the µs averages
# to the 0.1 µs ``table_row`` rounds them to, counts as integers
_ROW_FORMATS = {
    "Time (Sec.)": ",.3f",
    "Data (MByte)": ",.3f",
    "Barrier Time (usec.)": ",.1f",
    "Acquire Time (usec.)": ",.1f",
}


def _fmt(row: str, value) -> str:
    if value is None:
        return "-"
    return format(value, _ROW_FORMATS.get(row, ",.0f"))


def format_stats_table(
    title: str,
    results: Mapping[str, AppResult],
    paper: Optional[Mapping[str, Mapping[str, object]]] = None,
    rows: Sequence[str] = STATS_ROWS,
) -> str:
    """Paper-style statistics table (Tables 1, 2, 4, 6, 8)."""
    paper = paper or {}
    labels = list(results)
    measured = {label: results[label].table_row() for label in labels}
    width = max(22, *(len(l) + 2 for l in labels))
    lines = [title, "=" * len(title)]
    header = f"{'':<24}" + "".join(f"{label:>{width}}" for label in labels)
    lines.append(header)
    for row in rows:
        cells = []
        for label in labels:
            val = _fmt(row, measured[label].get(row))
            ref = paper.get(label, {}).get(row)
            if ref is not None:
                val = f"{val} ({_fmt(row, ref)})"
            cells.append(f"{val:>{width}}")
        lines.append(f"{row:<24}" + "".join(cells))
    lines.append("")
    lines.append("(values in parentheses: the paper's published numbers)")
    section = format_breakdown_section(results)
    if section:
        lines.append("")
        lines.append(section)
    return "\n".join(lines)


def format_breakdown_section(results: Mapping[str, AppResult]) -> str:
    """Per-protocol time-breakdown tables for traced results (else empty).

    Only results produced with an :class:`repro.obs.EventTracer` carry a
    breakdown; untraced table runs render exactly as before.
    """
    from repro.obs import format_breakdown

    parts = []
    for label, result in results.items():
        breakdown = getattr(result, "breakdown", None)
        if breakdown:
            parts.append(format_breakdown(breakdown, title=f"Breakdown — {label}"))
    return "\n\n".join(parts)


def format_speedup_table(
    title: str,
    speedups: Mapping[str, Mapping[int, float]],
    paper: Optional[Mapping[str, Mapping[int, float]]] = None,
) -> str:
    """Paper-style speedup table (Tables 3, 5, 7, 9)."""
    paper = paper or {}
    proc_counts = sorted({p for row in speedups.values() for p in row})
    lines = [title, "=" * len(title)]
    lines.append(f"{'':<12}" + "".join(f"{str(p) + '-p':>10}" for p in proc_counts))
    for label, row in speedups.items():
        cells = []
        for p in proc_counts:
            val = f"{row.get(p, float('nan')):.2f}"
            ref = paper.get(label, {}).get(p)
            if ref is not None:
                val = f"{val} ({ref:.1f})"
            cells.append(f"{val:>10}")
        lines.append(f"{label:<12}" + "".join(cells))
    return "\n".join(lines)
