"""Fold a cProfile run by ``repro`` package into the per-layer table.

Input is the raw ``pstats.Stats(...).stats`` mapping::

    (filename, lineno, funcname) -> (cc, nc, tt, ct, callers)
    callers: (filename, lineno, funcname) -> (nc, cc, tt, ct)   # per edge

A function's self time ``tt`` goes to the ``repro.<layer>`` it lives in.  C
built-ins and non-``repro`` Python frames (numpy, heapq, pickle, json) have
no layer of their own: each caller edge's share of their self time is
charged to the caller's layer, walking further up through non-``repro``
callers (weighted by the cumulative time of each edge, skipping edges that
only lead round a recursion among such frames) until a ``repro`` frame is
reached; whatever reaches the root without one is ``other``.
Every second of self time lands in exactly one layer, so the fold closes:
the layer ``self_s`` sum to the profile's total.
"""

from __future__ import annotations

import re
from typing import Mapping

from benchmarks.e2e.metrics import LAYERS

_LAYER_RE = re.compile(r"[/\\]repro[/\\](\w+)[/\\]")

# profiled functions whose call counts are reported as metrics of their own
COUNTED_CALLS = {
    "memory.make_diff_calls": ("memory", "make_diff"),
    "memory.apply_diff_calls": ("memory", "apply_diff"),
    "memory.integrate_calls": ("memory", "integrate_diffs"),
}


def layer_of(filename: str) -> str | None:
    """The ``repro`` sub-package ``filename`` lives in, or None."""
    match = _LAYER_RE.search(filename)
    if match and match.group(1) in LAYERS:
        return match.group(1)
    return None


def fold_stats(stats: Mapping) -> dict:
    """Return ``{"layers": {L: {"self_s", "calls"}}, "total_s", "counted"}``."""
    layers = {name: {"self_s": 0.0, "calls": 0} for name in LAYERS}
    counted = dict.fromkeys(COUNTED_CALLS, 0)
    own = {func: layer_of(func[0]) for func in stats}
    shares: dict = {}  # non-repro func -> {layer: fraction of its time}

    def share_of(func, active: frozenset) -> dict | None:
        """How a non-repro frame's time splits over the repro layers above it;
        None when every way up runs into a call cycle outside repro (json's
        encoder recursion, say), so the edge that asked is left out."""
        cached = shares.get(func)
        if cached is not None:
            return cached
        if func in active:
            return None
        callers = stats[func][4] if func in stats else {}
        if not callers:
            return {"other": 1.0}  # the profile root
        weights = {c: edge[3] for c, edge in callers.items()}
        if sum(weights.values()) <= 0:  # zero-time edges: fall back to call counts
            weights = {c: edge[1] for c, edge in callers.items()}
        out: dict = {}
        used = 0.0
        for caller, weight in weights.items():
            layer = own.get(caller)
            part = {layer: 1.0} if layer is not None else share_of(caller, active | {func})
            if part is None:
                continue
            used += weight
            for name, frac in part.items():
                out[name] = out.get(name, 0.0) + weight * frac
        if used <= 0:
            return None
        out = {name: amount / used for name, amount in out.items()}
        shares[func] = out
        return out

    total = 0.0
    for func, (_cc, nc, tt, _ct, callers) in stats.items():
        total += tt
        layer = own[func]
        if layer is not None:
            layers[layer]["self_s"] += tt
            layers[layer]["calls"] += nc
            for metric, (where, name) in COUNTED_CALLS.items():
                if layer == where and func[2] == name:
                    counted[metric] += nc
            continue
        layers["other"]["calls"] += nc
        edge_tt = sum(edge[2] for edge in callers.values())
        for caller, edge in callers.items():
            amount = edge[2]
            caller_layer = own.get(caller)
            if caller_layer is not None:
                layers[caller_layer]["self_s"] += amount
            else:
                split = share_of(caller, frozenset()) or {"other": 1.0}
                for name, part in split.items():
                    layers[name]["self_s"] += amount * part
        # self time not covered by any caller edge (the profile root)
        layers["other"]["self_s"] += tt - edge_tt
    return {"layers": layers, "total_s": total, "counted": counted}


def closure_error(folded: dict, wall_s: float) -> float:
    """|sum of layer self_s - wall_s| as a share of ``wall_s``."""
    covered = sum(row["self_s"] for row in folded["layers"].values())
    return abs(covered - wall_s) / wall_s
