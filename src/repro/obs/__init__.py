"""Structured observability for the simulator: tracing, attribution, export.

The paper explains its tables through *where time goes* — barrier time,
acquire time, diff traffic — so the reproduction carries a first-class
event-tracing layer threaded through the engine, the NIC/transport, the
protocol implementations and the runtimes:

* :class:`EventTracer` records span (begin/end, or one complete row), instant
  and counter events carrying simulated time, node id and a category
  (``compute``, ``barrier-wait``, ``acquire-wait``, ``diff-wait``,
  ``page-fault``, ``tx``, ``rx``);
* :mod:`repro.obs.breakdown` decomposes each application process's simulated
  run time into those categories (the "Breakdown" report sections);
* :mod:`repro.obs.export` renders a trace as Chrome trace-event JSON
  (loadable in Perfetto / ``chrome://tracing``) or a terminal flame-style
  summary;
* :mod:`repro.obs.critical_path` walks the causal send/wake edges backwards
  from the last rank's finish to the simulated critical path — the chain of
  segments that actually determined the run's length — with per-category
  attribution and per-wait slack;
* :mod:`repro.obs.metrics` folds a trace's rows into contention metrics
  (counters and histograms keyed by view/page/lock labels), rendered as
  per-view contention tables;
* :mod:`repro.obs.oracle` is the trace-based consistency oracle: an opt-in
  access-history recorder (:class:`AccessRecorder`) plus a checker
  (:func:`check_history`) that machine-verifies recorded read/write
  histories against the protocol family's memory model;
* :mod:`repro.obs.report` tracks every gated number of N >= 2 committed
  reports (files or git revisions; ``repro report``) through one schema
  table and gates CI on regressions;
* :mod:`repro.obs.host` is the host-time observatory: a run's wall-clock
  phases recorded as rows on a second :class:`EventTracer` (pid
  :data:`HOST_PID`, one tracer per clock domain), with a breakdown whose
  categories sum to measured wall time; chained with the simulated rows,
  the same writer puts both clock domains into one Perfetto document.

Tracing is **opt-in and zero-overhead when off**: every emission site guards
on ``sim.tracer is not None`` (the default), so an untraced run executes the
exact pre-observability instruction stream and stays bit-identical.  When a
tracer *is* installed it only records — it never charges simulated time — so
traced runs produce the same statistics rows as untraced ones, and two
identical traced runs produce byte-identical exports.  See
``docs/observability.md``.
"""

from repro.obs.tracer import (
    ACQUIRE_WAIT,
    BARRIER_WAIT,
    COMPUTE,
    DIFF_WAIT,
    IDLE,
    PAGE_FAULT,
    RECV_WAIT,
    RUN,
    RX,
    TX,
    WAIT_CATEGORIES,
    EventTracer,
)
from repro.obs.breakdown import app_intervals, compute_breakdown, format_breakdown
from repro.obs.critical_path import (
    CriticalPath,
    Segment,
    WaitSlack,
    compute_critical_path,
    format_critical_path,
)
from repro.obs.export import (
    chrome_trace,
    flame_summary,
    validate_chrome_trace,
    write_chrome_trace,
)
from repro.obs.host import (
    HOST_PID,
    format_host_breakdown,
    host_breakdown,
)
from repro.obs.metrics import Histogram, Metrics, format_contention
from repro.obs.oracle import (
    EXIT_CONSISTENCY,
    AccessRecorder,
    Finding,
    OracleReport,
    check_history,
    format_oracle_report,
    page_digest,
)
from repro.obs.report import (
    DEFAULT_THROUGHPUT_TOLERANCE,
    GATE_EXACT,
    GATE_INFO,
    GATE_THROUGHPUT,
    Trend,
    TrendSeries,
    compute_trend,
    format_trend,
    load_report,
)

__all__ = [
    "EventTracer",
    "COMPUTE",
    "BARRIER_WAIT",
    "ACQUIRE_WAIT",
    "DIFF_WAIT",
    "PAGE_FAULT",
    "RECV_WAIT",
    "TX",
    "RX",
    "RUN",
    "IDLE",
    "WAIT_CATEGORIES",
    "app_intervals",
    "compute_breakdown",
    "format_breakdown",
    "chrome_trace",
    "write_chrome_trace",
    "flame_summary",
    "validate_chrome_trace",
    "HOST_PID",
    "host_breakdown",
    "format_host_breakdown",
    "AccessRecorder",
    "OracleReport",
    "Finding",
    "check_history",
    "format_oracle_report",
    "page_digest",
    "EXIT_CONSISTENCY",
    "CriticalPath",
    "Segment",
    "WaitSlack",
    "compute_critical_path",
    "format_critical_path",
    "Histogram",
    "Metrics",
    "format_contention",
    "DEFAULT_THROUGHPUT_TOLERANCE",
    "load_report",
    "Trend",
    "TrendSeries",
    "compute_trend",
    "format_trend",
    "GATE_EXACT",
    "GATE_THROUGHPUT",
    "GATE_INFO",
]
