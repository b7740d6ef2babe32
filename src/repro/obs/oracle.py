"""Trace-based consistency oracle: recorder + memory-model checker.

The repo's other gates prove runs are *bit-identical to a baseline*
(``repro report``, the tie-permutation witness); this module proves a
run is *correct by the memory model*.  It has two halves:

:class:`AccessRecorder`
    An opt-in access-history recorder on the ``Simulator.tracer`` contract:
    the simulator's ``oracle`` attribute is ``None`` by default, every
    emission site guards with ``if oracle is not None``, recording never
    charges simulated time and never perturbs scheduling — a recorded run's
    statistics are bit-identical to an unrecorded run's.  It logs per-rank
    read/write operations on shared pages (as whole-page **value digests**,
    never payloads, so large runs stay tractable) plus every synchronisation
    edge the protocols emit: lock acquire/release, view entry/exit, barrier
    arrive/exit, interval publication, diff application, full-page installs
    and VC_sd piggyback updates.

:func:`check_history`
    Replays the merged history and verifies the protocol family's contract:

    * **coverage / causal visibility** — every interval in a reader's
      happens-before past that wrote the page must have been incorporated
      into the reader's copy before the read (``stale-read``).  For the
      barrier/lock protocols (``lrc_d``/``hlrc_d``) happens-before is built
      from the recorded lock release→acquire chains and barrier episodes
      (PRAM/causal ordering); for the view protocols (``vc_d``/``vc_sd``)
      from each view's release log and the reader's acquire position
      (reads-see-most-recent-write within a view critical section).  A
      skipped diff application surfaces here — this is the
      diff-integration-completeness check.
    * **value consistency** — a read's page digest must equal the digest
      left by the node's latest content event (``value-mismatch``), and two
      clean copies that incorporated the same interval set must agree
      (``value-divergence``).
    * **synchronisation structure** — exclusive sections must not overlap
      (``overlapping-critical-section``) and barrier episodes must collect
      all ranks before releasing anyone (``broken-barrier``).

Violations are structured :class:`Finding` s carrying the rank, simulated
time, page/view, the racing write and the causal path that should have
delivered it, plus a Perfetto-linkable span reference (``pid`` + ``ts_us``
match the Chrome-trace export of the same run).

Event tuples (first element is the kind, then ``t``, then the node id)::

    ("r",  t, n, page, digest)           read   (one per page touched)
    ("w",  t, n, page, digest)           write  (digest after the write)
    ("iv", t, n, idx, pages)             interval closed (the pages it wrote)
    ("acq", t, n, kind, obj, mode)       lock/view acquired ("lock"/"view")
    ("rel", t, n, kind, obj, mode)       lock/view released
    ("ba", t, n, episode)                barrier arrival
    ("bx", t, n, episode)                barrier exit
    ("ap", t, n, page, keys, digest)     diffs applied; keys=((writer,idx),…)
    ("in", t, n, page, src, digest)      full-page install from ``src``
    ("zf", t, n, page, digest)           first-touch zero-fill
    ("up", t, n, view, fulls, diffs)     VC_sd piggyback grant applied;
                                         fulls/diffs = ((page, digest), …)

The checker is deliberately *lenient where delivery order is concurrent*: a
full-page install credits the union of the source's incorporated set (the
source may have applied further diffs between its reply and the install),
so the oracle never reports a false positive on a correct run; every rule
only fires on a read that provably misses a causally-required write.
See docs/observability.md ("Consistency oracle") for the worked example.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Any, Iterable, Optional

from repro.obs.gcpause import gc_paused

__all__ = [
    "AccessRecorder",
    "Finding",
    "OracleReport",
    "PROTOCOL_FAMILY",
    "EXIT_CONSISTENCY",
    "page_digest",
    "check_history",
    "format_oracle_report",
]

#: pinned CLI exit code: the run completed but the checker found violations
EXIT_CONSISTENCY = 4

#: which contract each protocol is checked against ("lrc": causal vector
#: clocks over lock chains + barrier episodes; "vc": per-view release logs;
#: None: no shared memory — the oracle does not apply)
PROTOCOL_FAMILY = {
    "lrc_d": "lrc",
    "hlrc_d": "lrc",
    "vc_d": "vc",
    "vc_sd": "vc",
    "mpi": None,
}

# findings are capped (a single systemic break floods every later read);
# the suppressed remainder is counted in the report
MAX_FINDINGS = 50


def page_digest(data) -> str:
    """Short content digest of one page (numpy uint8 array or bytes)."""
    buf = data if isinstance(data, (bytes, bytearray, memoryview)) else data.tobytes()
    return hashlib.blake2b(buf, digest_size=8).hexdigest()


class AccessRecorder:
    """Collects the access/synchronisation history of one simulated run.

    Install like a tracer (or pass ``oracle=`` to ``run_app``)::

        recorder = AccessRecorder()
        system.sim.oracle = recorder
        system.run_program(body)
        report = check_history(recorder, nprocs, protocol)
    """

    __slots__ = ("events",)

    def __init__(self) -> None:
        self.events: list[tuple] = []

    # -- recording (called from ``if oracle is not None`` guarded sites) --------

    def read(self, t: float, node: int, pid: int, data) -> None:
        self.events.append(("r", t, node, pid, page_digest(data)))

    def write(self, t: float, node: int, pid: int, data) -> None:
        self.events.append(("w", t, node, pid, page_digest(data)))

    def interval(self, t: float, node: int, idx: int, pages: tuple) -> None:
        self.events.append(("iv", t, node, idx, pages))

    def acquire(self, t: float, node: int, kind: str, obj: int, mode: str) -> None:
        self.events.append(("acq", t, node, kind, obj, mode))

    def release(self, t: float, node: int, kind: str, obj: int, mode: str) -> None:
        self.events.append(("rel", t, node, kind, obj, mode))

    def barrier_arrive(self, t: float, node: int, episode: int) -> None:
        self.events.append(("ba", t, node, episode))

    def barrier_exit(self, t: float, node: int, episode: int) -> None:
        self.events.append(("bx", t, node, episode))

    def apply(self, t: float, node: int, pid: int, keys: tuple, data) -> None:
        self.events.append(("ap", t, node, pid, keys, page_digest(data)))

    def install(self, t: float, node: int, pid: int, src: int, data) -> None:
        self.events.append(("in", t, node, pid, src, page_digest(data)))

    def zero_fill(self, t: float, node: int, pid: int, data) -> None:
        self.events.append(("zf", t, node, pid, page_digest(data)))

    def update(self, t: float, node: int, view: int, fulls, diffs) -> None:
        """VC_sd piggyback grant applied; fulls/diffs are ``(pid, data)`` pairs."""
        self.events.append(
            ("up", t, node, view,
             tuple((pid, page_digest(data)) for pid, data in fulls),
             tuple((pid, page_digest(data)) for pid, data in diffs))
        )

    def __len__(self) -> int:
        return len(self.events)


# -- findings ---------------------------------------------------------------------


@dataclass
class Finding:
    """One detected consistency violation."""

    kind: str  # stale-read | value-mismatch | value-divergence |
    #            overlapping-critical-section | broken-barrier
    node: int
    t: float
    detail: str
    page: Optional[int] = None
    view: Optional[int] = None
    missing: Optional[tuple] = None  # the racing (writer, interval) key
    path: list = field(default_factory=list)  # causal chain that should deliver it

    @property
    def span(self) -> dict:
        """Perfetto-linkable reference into the same run's Chrome trace."""
        return {"pid": self.node, "ts_us": round(self.t * 1e6, 3)}

    def to_json(self) -> dict:
        out = {
            "kind": self.kind,
            "node": self.node,
            "t": self.t,
            "detail": self.detail,
            "span": self.span,
        }
        if self.page is not None:
            out["page"] = self.page
        if self.view is not None:
            out["view"] = self.view
        if self.missing is not None:
            out["missing"] = list(self.missing)
        if self.path:
            out["path"] = list(self.path)
        return out


@dataclass
class OracleReport:
    """Outcome of one :func:`check_history` pass."""

    protocol: str
    family: Optional[str]
    nprocs: int
    findings: list
    counts: dict
    aborted: bool = False  # history truncated by a RunAborted (fault plans)

    @property
    def verdict(self) -> str:
        if self.family is None:
            return "not-applicable"
        return "violations" if self.findings else "clean"

    @property
    def ok(self) -> bool:
        return not self.findings

    def to_json(self) -> dict:
        return {
            "protocol": self.protocol,
            "family": self.family,
            "nprocs": self.nprocs,
            "verdict": self.verdict,
            "aborted": self.aborted,
            "counts": dict(self.counts),
            "findings": [f.to_json() for f in self.findings],
        }

    def write_json(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_json(), fh, indent=1, sort_keys=True)
            fh.write("\n")


def format_oracle_report(report: OracleReport) -> str:
    """Terminal rendering of one oracle report."""
    head = (
        f"Consistency oracle — {report.protocol}, {report.nprocs} processors: "
        f"{report.verdict.upper()}"
    )
    lines = [head]
    if report.family is None:
        lines.append("  mpi has no shared pages; nothing for the oracle to verify")
        return "\n".join(lines)
    c = report.counts
    lines.append(
        f"  checked {c.get('reads', 0)} reads, {c.get('writes', 0)} writes, "
        f"{c.get('intervals', 0)} intervals, {c.get('acquires', 0)} acquires, "
        f"{c.get('barriers', 0)} barrier arrivals "
        f"({c.get('events', 0)} recorded events)"
    )
    if report.aborted:
        lines.append("  history truncated by a run abort; verdict covers what executed")
    for f in report.findings:
        where = f" page {f.page}" if f.page is not None else ""
        where += f" view {f.view}" if f.view is not None else ""
        lines.append(
            f"  [{f.kind}] node {f.node} at t={f.t:.6f}{where}: {f.detail}"
        )
        for hop in f.path:
            lines.append(f"      via {hop}")
    if c.get("suppressed"):
        lines.append(f"  ({c['suppressed']} further findings suppressed)")
    return "\n".join(lines)


# -- the checker ------------------------------------------------------------------


@gc_paused()
def check_history(
    history: "AccessRecorder | Iterable[tuple]",
    nprocs: int,
    protocol: str,
    aborted: bool = False,
) -> OracleReport:
    """Replay a recorded history and verify the protocol family's contract.

    Accepts an :class:`AccessRecorder` or a bare
    event list (the mutation tests edit recorded lists directly).  Returns
    an :class:`OracleReport`; ``report.ok`` is the pass/fail bit and
    ``report.findings`` the structured violations.
    """
    family = PROTOCOL_FAMILY.get(protocol)
    events = history.events if isinstance(history, AccessRecorder) else list(history)
    counts: dict[str, int] = {"events": len(events)}
    if family is None:
        return OracleReport(protocol, None, nprocs, [], counts, aborted)

    findings: list[Finding] = []
    seen_fk: set = set()
    suppressed = 0

    def add(finding: Finding, dedupe: Any = None) -> None:
        nonlocal suppressed
        if dedupe is not None:
            if dedupe in seen_fk:
                suppressed += 1
                return
            seen_fk.add(dedupe)
        if len(findings) >= MAX_FINDINGS:
            suppressed += 1
            return
        findings.append(finding)

    # interval catalogue
    key_pages: dict[tuple, tuple] = {}  # (node, idx) -> pages
    key_time: dict[tuple, float] = {}
    page_writers: dict[int, list] = {}  # page -> [(node, idx), ...] publish order
    # per-node copy state
    incorporated = [dict() for _ in range(nprocs)]  # n -> page -> set of keys
    dirty = [set() for _ in range(nprocs)]  # pages with unpublished local writes
    tainted = [set() for _ in range(nprocs)]  # install-sampled: skip divergence
    last_dig = [dict() for _ in range(nprocs)]  # n -> page -> digest
    div_map: dict[tuple, tuple] = {}  # (page, frozenset(keys)) -> (digest, node, t)
    clean_at: dict[tuple, int] = {}  # (n, page) -> horizon of last clean coverage scan
    # lrc family: causal vectors + provenance
    hb = [[0] * nprocs for _ in range(nprocs)]
    prov = [dict() for _ in range(nprocs)]  # n -> origin -> (kind, obj, t, carrier)
    lock_vec: dict[int, list] = {}  # lock -> join of releasers' vectors
    lock_prov: dict[int, dict] = {}  # lock -> origin -> (releaser, t_release)
    # vc family: per-view release logs
    view_log: dict[int, list] = {}  # view -> [(key, pages), ...]
    view_page_keys: dict[tuple, list] = {}  # (view, page) -> [(logpos, key), ...]
    bound: dict[int, int] = {}  # page -> view
    pending_iv: list = [None] * nprocs
    acq_pos = [dict() for _ in range(nprocs)]  # n -> view -> log position at acquire
    delivered = [dict() for _ in range(nprocs)]  # n -> view -> piggyback horizon
    held = [dict() for _ in range(nprocs)]  # n -> view -> hold count
    # synchronisation structure
    excl_holder: dict[tuple, int] = {}  # (kind, obj) -> node
    view_readers: dict[int, set] = {}  # view -> reader nodes
    arrivals: dict[int, dict] = {}  # episode -> node -> hb snapshot (lrc) / True

    n_reads = n_writes = n_ivs = n_acqs = n_bas = 0

    for ev in events:
        k = ev[0]
        t = ev[1]
        n = ev[2]
        if k == "r":
            p, dig = ev[3], ev[4]
            n_reads += 1
            ld = last_dig[n].get(p)
            if ld is not None and ld != dig:
                add(
                    Finding(
                        "value-mismatch", n, t, page=p,
                        detail=(
                            f"read digest {dig} does not match the copy's last "
                            f"recorded content digest {ld}"
                        ),
                    ),
                    dedupe=("vm", n, p),
                )
            last_dig[n][p] = dig
            have = incorporated[n].get(p)
            if family == "lrc":
                pw = page_writers.get(p)
                if pw and (have is None or len(have) < len(pw)):
                    vec = hb[n]
                    for key in pw:
                        m, i = key
                        if i <= vec[m] and (have is None or key not in have):
                            pr = prov[n].get(m)
                            path = [
                                f"interval {m}:{i} published at "
                                f"t={key_time.get(key, 0.0):.6f}"
                            ]
                            if pr is not None:
                                pk, pobj, pt, carrier = pr
                                if pk == "lock":
                                    path.append(
                                        f"knowledge carried by node "
                                        f"{carrier[0] if carrier else '?'}'s release "
                                        f"of lock {pobj}, delivered to node {n} at "
                                        f"acquire t={pt:.6f}"
                                    )
                                else:
                                    path.append(
                                        f"knowledge delivered by barrier episode "
                                        f"{pobj} (arrival of node {carrier}), exit "
                                        f"t={pt:.6f}"
                                    )
                            add(
                                Finding(
                                    "stale-read", n, t, page=p, missing=key,
                                    detail=(
                                        f"read of page {p} misses interval {m}:{i} "
                                        "(in the reader's happens-before past but "
                                        "never applied to its copy)"
                                    ),
                                    path=path,
                                ),
                                dedupe=("sr", n, p, key),
                            )
            else:  # vc family
                v = bound.get(p)
                if v is not None and held[n].get(v, 0) > 0:
                    pos = acq_pos[n].get(v, 0)
                    ck = (n, p)
                    if clean_at.get(ck, -1) < pos:
                        entries = view_page_keys.get((v, p), ())
                        clean = True
                        for logpos, key in entries:
                            if logpos >= pos:
                                break
                            if have is None or key not in have:
                                clean = False
                                m, i = key
                                add(
                                    Finding(
                                        "stale-read", n, t, page=p, view=v,
                                        missing=key,
                                        detail=(
                                            f"read of page {p} under view {v} "
                                            f"misses interval {m}:{i} (released "
                                            f"to the view at log position "
                                            f"{logpos}, before this holder's "
                                            f"acquire position {pos})"
                                        ),
                                        path=[
                                            f"interval {m}:{i} published at "
                                            f"t={key_time.get(key, 0.0):.6f}",
                                            f"released into view {v}'s log at "
                                            f"position {logpos}; node {n} acquired "
                                            f"the view with delivery position {pos}",
                                        ],
                                    ),
                                    dedupe=("sr", n, p, key),
                                )
                        if clean:
                            clean_at[ck] = pos
            # divergence: clean, untainted copies with equal interval sets agree
            if p not in dirty[n] and p not in tainted[n]:
                ks = frozenset(incorporated[n].get(p, ()))
                prior = div_map.get((p, ks))
                if prior is None:
                    div_map[(p, ks)] = (dig, n, t)
                elif prior[0] != dig:
                    add(
                        Finding(
                            "value-divergence", n, t, page=p,
                            detail=(
                                f"copy digest {dig} diverges from node "
                                f"{prior[1]}'s digest {prior[0]} at t={prior[2]:.6f} "
                                f"despite incorporating the same "
                                f"{len(ks)} interval(s)"
                            ),
                        ),
                        dedupe=("vd", p, ks),
                    )
        elif k == "w":
            p, dig = ev[3], ev[4]
            n_writes += 1
            dirty[n].add(p)
            last_dig[n][p] = dig
        elif k == "iv":
            idx, pages = ev[3], ev[4]
            n_ivs += 1
            key = (n, idx)
            key_pages[key] = pages
            key_time[key] = t
            inc = incorporated[n]
            dn = dirty[n]
            for p in pages:
                page_writers.setdefault(p, []).append(key)
                s = inc.get(p)
                if s is None:
                    s = inc[p] = set()
                s.add(key)
                dn.discard(p)
            if family == "lrc":
                if idx > hb[n][n]:
                    hb[n][n] = idx
            else:
                pending_iv[n] = (key, pages)
        elif k == "ap":
            p, keys, dig = ev[3], ev[4], ev[5]
            s = incorporated[n].get(p)
            if s is None:
                s = incorporated[n][p] = set()
            s.update(keys)
            last_dig[n][p] = dig
        elif k == "in":
            p, src, dig = ev[3], ev[4], ev[5]
            s = incorporated[n].get(p)
            if s is None:
                s = incorporated[n][p] = set()
            s.update(incorporated[src].get(p, ()))
            last_dig[n][p] = dig
            dirty[n].discard(p)
            # the source may have applied more diffs between its reply and
            # this install: the set is an upper bound, so exclude the copy
            # from the exact-divergence rule (coverage stays exact)
            tainted[n].add(p)
        elif k == "zf":
            p, dig = ev[3], ev[4]
            incorporated[n].setdefault(p, set())
            last_dig[n][p] = dig
            tainted[n].discard(p)
        elif k == "up":
            v, fulls, updates = ev[3], ev[4], ev[5]
            log = view_log.get(v, ())
            inc = incorporated[n]
            for p, dig in fulls:
                s = inc.get(p)
                if s is None:
                    s = inc[p] = set()
                s.update(key for lp, key in view_page_keys.get((v, p), ()))
                last_dig[n][p] = dig
                dirty[n].discard(p)
                tainted[n].discard(p)
            pos = delivered[n].get(v, 0)
            for p, dig in updates:
                s = inc.get(p)
                if s is None:
                    s = inc[p] = set()
                s.update(
                    key for lp, key in view_page_keys.get((v, p), ()) if lp >= pos
                )
                last_dig[n][p] = dig
            delivered[n][v] = len(log)
        elif k == "acq":
            kind, obj, mode = ev[3], ev[4], ev[5]
            n_acqs += 1
            ck = (kind, obj)
            holder = excl_holder.get(ck)
            if mode == "w":
                if holder is not None and holder != n:
                    add(
                        Finding(
                            "overlapping-critical-section", n, t,
                            view=obj if kind == "view" else None,
                            detail=(
                                f"{kind} {obj} acquired exclusively while node "
                                f"{holder} still holds it"
                            ),
                        )
                    )
                readers = view_readers.get(obj) if kind == "view" else None
                if readers:
                    others = sorted(r for r in readers if r != n)
                    if others:
                        add(
                            Finding(
                                "overlapping-critical-section", n, t, view=obj,
                                detail=(
                                    f"view {obj} acquired exclusively while "
                                    f"readers {others} still hold it"
                                ),
                            )
                        )
                excl_holder[ck] = n
            else:
                if holder is not None and holder != n:
                    add(
                        Finding(
                            "overlapping-critical-section", n, t,
                            view=obj if kind == "view" else None,
                            detail=(
                                f"{kind} {obj} acquired read-only while node "
                                f"{holder} holds it exclusively"
                            ),
                        )
                    )
                if kind == "view":
                    view_readers.setdefault(obj, set()).add(n)
            if family == "lrc" and kind == "lock":
                vec = lock_vec.get(obj)
                if vec is not None:
                    mine = hb[n]
                    lp = lock_prov.get(obj, {})
                    for m in range(nprocs):
                        if vec[m] > mine[m]:
                            mine[m] = vec[m]
                            prov[n][m] = ("lock", obj, t, lp.get(m))
            if kind == "view":
                pos = len(view_log.get(obj, ()))
                acq_pos[n][obj] = pos
                delivered[n][obj] = pos
                held[n][obj] = held[n].get(obj, 0) + 1
        elif k == "rel":
            kind, obj, mode = ev[3], ev[4], ev[5]
            ck = (kind, obj)
            if mode == "w":
                if excl_holder.get(ck) == n:
                    del excl_holder[ck]
            elif kind == "view":
                view_readers.get(obj, set()).discard(n)
            if family == "lrc" and kind == "lock":
                vec = lock_vec.get(obj)
                if vec is None:
                    vec = lock_vec[obj] = [0] * nprocs
                lp = lock_prov.setdefault(obj, {})
                mine = hb[n]
                for m in range(nprocs):
                    if mine[m] > vec[m]:
                        vec[m] = mine[m]
                        lp[m] = (n, t)
            if kind == "view":
                if mode == "w":
                    piv = pending_iv[n]
                    if piv is not None:
                        key, pages = piv
                        log = view_log.setdefault(obj, [])
                        pos = len(log)
                        log.append((key, pages))
                        for p in pages:
                            bound.setdefault(p, obj)
                            view_page_keys.setdefault((obj, p), []).append(
                                (pos, key)
                            )
                        pending_iv[n] = None
                        delivered[n][obj] = len(log)
                cnt = held[n].get(obj, 0)
                if cnt:
                    held[n][obj] = cnt - 1
        elif k == "ba":
            ep = ev[3]
            n_bas += 1
            d = arrivals.setdefault(ep, {})
            d[n] = list(hb[n]) if family == "lrc" else True
        elif k == "bx":
            ep = ev[3]
            d = arrivals.get(ep, {})
            if len(d) < nprocs:
                add(
                    Finding(
                        "broken-barrier", n, t,
                        detail=(
                            f"barrier episode {ep} released node {n} after only "
                            f"{len(d)}/{nprocs} recorded arrivals"
                        ),
                    ),
                    dedupe=("bb", ep),
                )
            if family == "lrc":
                mine = hb[n]
                pn = prov[n]
                for an, avec in d.items():
                    if avec is True:
                        continue
                    for m in range(nprocs):
                        if avec[m] > mine[m]:
                            mine[m] = avec[m]
                            pn[m] = ("barrier", ep, t, an)

    counts.update(
        reads=n_reads,
        writes=n_writes,
        intervals=n_ivs,
        acquires=n_acqs,
        barriers=n_bas,
        suppressed=suppressed,
    )
    return OracleReport(protocol, family, nprocs, findings, counts, aborted)
