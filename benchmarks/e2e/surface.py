"""The benchmark's call surface: the single place that imports from ``repro``.

Later PRs may not edit the benchmark, so every name below is a function or
class a refactor of ``repro`` must keep importable from here and
call-compatible with how ``workloads.py`` and ``kernels.py`` use it.
"""

from repro.apps import APPS, run_app
from repro.apps.is_sort import IsConfig
from repro.apps.nn import NnConfig
from repro.apps.sor import SorConfig
from repro.bench.sweep import (
    ResultCache,
    SweepCell,
    code_fingerprint,
    default_cells,
    run_sweep,
)
from repro.faults import FaultPlan
from repro.memory import (
    AddressSpace,
    MemoryManager,
    apply_diff,
    integrate_diffs,
    make_diff,
)
from repro.mpi import MpiSystem
from repro.net.cluster import Cluster
from repro.net.message import MessageKind
from repro.obs import (
    AccessRecorder,
    EventTracer,
    Metrics,
    check_history,
    compute_critical_path,
    page_digest,
    write_chrome_trace,
)
from repro.sim import Channel, Simulator, Timeout

__all__ = [
    "APPS", "run_app", "IsConfig", "NnConfig", "SorConfig",
    "ResultCache", "SweepCell", "code_fingerprint", "default_cells", "run_sweep",
    "FaultPlan",
    "AddressSpace", "MemoryManager", "apply_diff", "integrate_diffs", "make_diff",
    "MpiSystem", "Cluster", "MessageKind",
    "AccessRecorder", "EventTracer", "Metrics", "check_history",
    "compute_critical_path", "page_digest", "write_chrome_trace",
    "Channel", "Simulator", "Timeout",
]
