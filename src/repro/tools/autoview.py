"""Automatic view inference from recorded access patterns (paper §6).

The paper's future work: "The insertion of view primitives can be automated
by compiling techniques."  This module implements the dynamic-analysis half
of that idea:

1. run the *traditional* (lock/barrier) program once with the ``sim.oracle``
   hook on (a :class:`repro.obs.AccessRecorder` — the same history the
   consistency oracle checks): every shared read/write is logged at page
   granularity, every barrier arrival marks an epoch;
2. :func:`infer_views` folds that history into per-page uses
   (:func:`page_uses`), clusters pages by their access signature (who
   writes, who reads, whether writers ever overlap within an epoch) and
   produces a :class:`ViewPlan`: proposed views with the VOPP primitives to
   use and the §3.1/§3.4/§3.6 optimisation advice that applies.

The plan names the original allocations (regions), so its output reads like
the conversion recipes in the paper's §3.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    from repro.memory.address_space import AddressSpace
    from repro.obs.oracle import AccessRecorder

__all__ = ["PageUse", "ViewPlan", "ProposedView", "page_uses", "infer_views"]


@dataclass
class PageUse:
    """Who touched one page over a run."""

    readers: set = field(default_factory=set)
    writers: set = field(default_factory=set)
    epoch_writers: dict = field(default_factory=dict)  # epoch -> set of writers

    @property
    def concurrent_writers(self) -> bool:
        return any(len(ws) > 1 for ws in self.epoch_writers.values())


def page_uses(history: "AccessRecorder") -> dict[int, PageUse]:
    """Fold an access history's ``r``/``w``/``ba`` records into per-page uses.

    A node's epoch is the number of barriers it has arrived at; its records
    appear in the history in program order, which is all the fold needs.
    """
    pages: dict[int, PageUse] = {}
    epoch: dict[int, int] = {}
    for ev in history.events:  # (kind, t, node, page | episode, ...)
        kind, node = ev[0], ev[2]
        if kind == "ba":
            epoch[node] = epoch.get(node, 0) + 1
        elif kind == "r":
            pages.setdefault(ev[3], PageUse()).readers.add(node)
        elif kind == "w":
            use = pages.setdefault(ev[3], PageUse())
            use.writers.add(node)
            use.epoch_writers.setdefault(epoch.get(node, 0), set()).add(node)
    return pages


@dataclass
class ProposedView:
    """One inferred view: a page group with identical access signature."""

    name: str
    regions: tuple[str, ...]
    pages: tuple[int, ...]
    writers: tuple[int, ...]
    readers: tuple[int, ...]
    concurrent_writers: bool
    advice: str

    @property
    def primitive(self) -> str:
        """Suggested access pattern for this view."""
        if not self.writers:
            return "acquire_Rview/release_Rview (read-only data)"
        if self.concurrent_writers:
            return "split into per-writer sub-allocations first"
        return "acquire_view/release_view; readers use acquire_Rview"


class ViewPlan:
    """The inferred partitioning for one recorded run."""

    def __init__(self, views: list[ProposedView], nprocs: int):
        self.views = views
        self.nprocs = nprocs

    def report(self) -> str:
        lines = ["Inferred view plan", "=================="]
        for view in self.views:
            lines.append(
                f"{view.name}: regions {', '.join(view.regions)} "
                f"({len(view.pages)} pages)"
            )
            lines.append(f"    writers {list(view.writers)}, readers {list(view.readers)}")
            lines.append(f"    primitives: {view.primitive}")
            lines.append(f"    advice: {view.advice}")
        return "\n".join(lines)


def _advice(writers: set, readers: set, concurrent: bool, nprocs: int) -> str:
    if concurrent:
        return (
            "multiple processors write these pages within one epoch — "
            "repartition the data so each writer gets page-aligned private "
            "pages (views must not overlap), or funnel updates through an "
            "exclusive accumulator view"
        )
    if not writers:
        return (
            "read-only data: copy it into local buffers once at start-up "
            "(§3.1) or share it through a single Rview"
        )
    if len(writers) == 1:
        others = readers - writers
        if not others:
            return (
                "written and read by one processor only — keep it in a local "
                "buffer and write it back through a view at the end (§3.1)"
            )
        return (
            "single-writer data with remote readers: one view owned by the "
            "writer; readers use acquire_Rview so reads stay concurrent (§3.4)"
        )
    if writers == readers and len(writers) == nprocs:
        return (
            "a global accumulator touched by everyone: one exclusive view, "
            "or split into sub-views acquired in a staggered order if it "
            "becomes a bottleneck (§3.6)"
        )
    return (
        "shared by several processors in disjoint epochs: one exclusive view "
        "passed between them"
    )


def infer_views(history: "AccessRecorder", space: "AddressSpace", nprocs: int) -> ViewPlan:
    """Cluster the pages of a recorded run into proposed views by access
    signature."""
    # packed allocations can share a page: a page may belong to several
    # regions, and the plan reports all of them (that overlap is itself a
    # false-sharing warning sign)
    regions_of_page: dict[int, set[str]] = {}
    for region in space.regions():
        for pid in region.page_range(space.page_size):
            regions_of_page.setdefault(pid, set()).add(region.name)
    groups: dict[tuple, list[int]] = {}
    for pid, use in sorted(page_uses(history).items()):
        sig = (
            frozenset(use.writers),
            frozenset(use.readers),
            use.concurrent_writers,
        )
        groups.setdefault(sig, []).append(pid)
    views = []
    for i, (sig, pids) in enumerate(
        sorted(groups.items(), key=lambda item: item[1][0])
    ):
        writers, readers, concurrent = sig
        names: set[str] = set()
        for p in pids:
            names |= regions_of_page.get(p, {"?"})
        regions = tuple(sorted(names))
        views.append(
            ProposedView(
                name=f"view_{i}",
                regions=regions,
                pages=tuple(pids),
                writers=tuple(sorted(writers)),
                readers=tuple(sorted(readers)),
                concurrent_writers=concurrent,
                advice=_advice(set(writers), set(readers), concurrent, nprocs),
            )
        )
    return ViewPlan(views, nprocs)
