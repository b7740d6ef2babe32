"""Host-time observatory: wall-clock span profiling of the real work.

Every other observer in :mod:`repro.obs` lives in *simulated* time.  This
one answers the complementary question: where does the **host** wall clock
go — building the system, executing events, extracting and verifying the
output, sweep-pool queueing?

:class:`HostProfiler` follows the same contract as the tracer:

* **None-default, zero overhead when off.**  Every instrumentation site
  guards with ``if host is not None``; an unprofiled run executes the exact
  pre-observability instruction stream.
* **Observational purity.**  Spans are read from ``time.perf_counter()``
  and recorded in plain Python lists; nothing ever touches the simulator,
  so a profiled run's *simulated* statistics stay bit-identical
  (``tests/obs/test_host.py`` pins this against the committed
  ``BENCH_sweep.json`` fingerprints).

Span model
----------

A span is ``(proc, lane, cat, name, t0, t1, args)``: a host-clock interval
``[t0, t1)`` on a named process (``"main"``, ``"sweep"``) and lane, with a
category that feeds the breakdown.  Spans in one ``(proc, lane)`` must nest
or be disjoint — the Chrome exporter
(:func:`repro.obs.export.merged_chrome_trace`) emits each as one complete
(``X``) event on one thread track.  ``perf_counter`` is CLOCK_MONOTONIC-based and
system-wide on Linux, so intervals measured in sweep-pool workers are
directly comparable to the parent's: :meth:`HostProfiler.add_span` records
them under the worker's process name without any clock translation.

The breakdown (:func:`host_breakdown`) sums each process's categorised
spans against its ``total`` span (or, when none was recorded, the envelope
from first span start to last span end) and charges the unattributed
remainder to ``other`` — so the reported categories always sum *exactly*
to the reported total, and the total is the measured wall time.
"""

from __future__ import annotations

from contextlib import contextmanager
from time import perf_counter
from typing import Any, Optional

__all__ = [
    "HostProfiler",
    "TOTAL",
    "host_breakdown",
    "format_host_breakdown",
]

#: the category whose spans define a process's measured wall time
TOTAL = "total"


class HostProfiler:
    """Wall-clock span recorder on the observer (None-default) contract.

    ``proc`` names the process identity new spans are recorded under;
    :meth:`add_span` can record under another one, so one profiler object
    can end up holding a whole process tree's spans.
    """

    __slots__ = ("proc", "spans", "_open")

    def __init__(self, proc: str = "main") -> None:
        self.proc = proc
        #: completed spans: ``(proc, lane, cat, name, t0, t1, args)``
        self.spans: list[tuple] = []
        self._open: list[tuple] = []

    # -- recording ---------------------------------------------------------------

    def begin(self, lane: str, cat: str, name: Optional[str] = None,
              **args: Any) -> None:
        """Open a span; close it with the matching :meth:`end`."""
        self._open.append((lane, cat, name, perf_counter(), args))

    def end(self) -> None:
        """Close the innermost open span."""
        if not self._open:
            raise RuntimeError("end() without a matching begin()")
        lane, cat, name, t0, args = self._open.pop()
        self.spans.append(
            (self.proc, lane, cat, name or cat, t0, perf_counter(), args)
        )

    @contextmanager
    def span(self, lane: str, cat: str, name: Optional[str] = None,
             **args: Any):
        """``with host.span("run", "route"): ...``"""
        self.begin(lane, cat, name, **args)
        try:
            yield
        finally:
            self.end()

    def add_span(self, lane: str, cat: str, name: str, t0: float, t1: float,
                 proc: Optional[str] = None, **args: Any) -> None:
        """Record a completed interval directly (parent-synthesised spans:
        e.g. the sweep pool's queue-wait, measured from submit to start)."""
        self.spans.append((proc or self.proc, lane, cat, name, t0, t1, args))

    # -- queries -----------------------------------------------------------------

    def procs(self) -> list[str]:
        """Process identities present, in first-appearance order."""
        seen: dict[str, None] = {}
        for s in self.spans:
            seen.setdefault(s[0])
        return list(seen)

    def seconds(self, cat: str, proc: Optional[str] = None) -> float:
        """Total recorded seconds of one category (optionally one process)."""
        return sum(
            s[5] - s[4] for s in self.spans
            if s[2] == cat and (proc is None or s[0] == proc)
        )


# -- breakdown ---------------------------------------------------------------------


def host_breakdown(host: HostProfiler) -> dict:
    """Per-process wall-time attribution whose categories sum to the total.

    Returns ``{proc: {"total": sec, "seconds": {cat: sec}, "other": sec}}``.
    ``total`` is the sum of the process's ``total``-category spans; when a
    process recorded none (e.g. sweep-pool workers, whose intervals the
    parent synthesises), the envelope from its first span start to its last
    span end stands in — either way the invariant
    ``sum(seconds.values()) + other == total`` holds exactly, and the test
    suite pins ``total`` against externally measured wall time.
    """
    out: dict[str, dict] = {}
    for proc, lane, cat, name, t0, t1, args in sorted(
        host.spans, key=lambda s: (s[0], s[4])
    ):
        row = out.get(proc)
        if row is None:
            row = out[proc] = {
                "total": 0.0, "seconds": {}, "other": 0.0,
                "_lo": t0, "_hi": t1, "_has_total": False,
            }
        row["_lo"] = min(row["_lo"], t0)
        row["_hi"] = max(row["_hi"], t1)
        if cat == TOTAL:
            row["total"] += t1 - t0
            row["_has_total"] = True
        else:
            row["seconds"][cat] = row["seconds"].get(cat, 0.0) + (t1 - t0)
    for row in out.values():
        if not row.pop("_has_total"):
            row["total"] = row.pop("_hi") - row.pop("_lo")
        else:
            row.pop("_hi"), row.pop("_lo")
        attributed = sum(row["seconds"].values())
        # categories + other == total by construction; a (tiny, nested-span)
        # over-attribution clamps to zero rather than going negative
        row["other"] = max(row["total"] - attributed, 0.0)
        if attributed > row["total"]:
            row["total"] = attributed
    return out


def format_host_breakdown(breakdown: dict,
                          title: str = "Host-time breakdown") -> str:
    """Terminal table: one block per process, categories summing to total."""
    if not breakdown:
        return f"{title}: no host spans recorded"
    lines = [title, "=" * len(title)]
    for proc in breakdown:
        row = breakdown[proc]
        total = row["total"]
        lines.append(f"{proc}  (wall {total:.4f}s)")
        cats = sorted(row["seconds"].items(), key=lambda kv: -kv[1])
        for cat, sec in cats + [("other", row["other"])]:
            share = sec / total if total > 0 else 0.0
            bar = "#" * max(1, round(share * 30)) if sec > 0 else ""
            lines.append(f"  {cat:<14} {sec:>9.4f}s {100 * share:5.1f}%  {bar}")
    return "\n".join(lines)
