"""repro — a reproduction of "Performance Evaluation of View-Oriented
Parallel Programming" (Huang, Purvis, Werstein; ICPP 2005).

Layers, bottom-up:

* :mod:`repro.sim` — deterministic discrete-event kernel
* :mod:`repro.net` — cluster/network model (100 Mbps switched Ethernet,
  congestion loss, reliable transport)
* :mod:`repro.memory` — paged DSM substrate (twins, run-length byte diffs)
* :mod:`repro.protocols` — LRC_d, HLRC_d, VC_d, VC_sd
* :mod:`repro.core` — the VOPP public API (the paper's contribution)
* :mod:`repro.mpi` — message-passing baseline
* :mod:`repro.apps` — IS, Gauss, SOR, NN in both programming styles
* :mod:`repro.bench` — the paper-table benchmark harness
* :mod:`repro.obs` — observers over a run: event tracer, contention metrics
  (``repro run --metrics`` is the per-view report), consistency oracle

Quick start::

    from repro import VoppSystem

    system = VoppSystem(nprocs=8)
    ...

or from the shell: ``python -m repro list``.
"""

from repro.core import (
    SharedArray,
    TraditionalSystem,
    ViewOverlapError,
    VoppDisciplineError,
    VoppSystem,
    make_system,
)

__version__ = "1.0.0"

__all__ = [
    "VoppSystem",
    "TraditionalSystem",
    "make_system",
    "SharedArray",
    "VoppDisciplineError",
    "ViewOverlapError",
    "__version__",
]
