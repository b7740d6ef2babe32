"""Developer tools: view-tuning report and view inference.

The paper's thesis is that VOPP "allows the programmer to participate in
performance optimization of a program through wise partitioning of the shared
data into views" (§1) and gives a rule of thumb for it (§3.6).  Both tools
are *readers* over what the simulator's recorder hooks already collect:
:class:`repro.tools.ViewTracer` turns the ``Metrics`` folded from the run's
tracer rows into exactly that advice, and :func:`repro.tools.infer_views` folds the oracle's access history
into a proposed partitioning.
"""

from repro.tools.tracer import ViewTracer, ViewProfile
from repro.tools.autoview import PageUse, ViewPlan, ProposedView, infer_views, page_uses

__all__ = [
    "ViewTracer",
    "ViewProfile",
    "PageUse",
    "ViewPlan",
    "ProposedView",
    "page_uses",
    "infer_views",
]
