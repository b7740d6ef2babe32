"""A catalogue of one-line transport and protocol bugs, applied by monkeypatch.

Each :class:`Mutant` names one function of ``src/repro`` (``module:Qualname``),
a fragment of its source and what replaces it.  :func:`patched` recompiles the
function with the fragment swapped, in its own module's namespace, and
:func:`apply` installs it with a ``monkeypatch``; nothing in ``src/`` knows
the catalogue exists.  A fragment that no longer occurs exactly once in its
function raises ``LookupError``, so a refactor that moves the code under a
mutant fails loudly instead of testing the unmutated program.

``witness`` is the cheapest check the kill matrix in docs/robustness.md
("Mutant kill matrix") credits with killing the mutant: a pytest node id of
the tier-1 suite.  ``tests/mutants/test_kill_matrix.py`` runs each witness
under its mutant and asserts that it fails.  ``python -m tests.mutants.matrix``
measures the matrix's other columns.
"""

from __future__ import annotations

import importlib
import inspect
import pathlib
import textwrap
from dataclasses import dataclass

__all__ = ["CATALOGUE", "REPO", "Mutant", "apply", "by_name", "patched"]

REPO = pathlib.Path(__file__).resolve().parents[2]


@dataclass(frozen=True)
class Mutant:
    name: str
    target: str  # "module:Class.method"
    old: str
    new: str
    witness: str
    bug: str


_T = "repro.net.transport:Transport."
_NET = "tests/net/"

CATALOGUE: tuple[Mutant, ...] = (
    # -- transport: exactly-once / at-most-once delivery --------------------------
    Mutant(
        "dedupe_off", _T + "on_receive",
        "if (msg.src, msg.msg_id) in seen:", "if False:",
        _NET + "test_transport_retry.py::test_duplicate_within_horizon_still_suppressed",
        "a retransmitted reliable send is delivered again",
    ),
    Mutant(
        "cached_reply_not_resent", _T + "on_receive",
        "self.nic.send(cached[1].wire_copy())", "pass",
        _NET + "test_network.py::test_request_retry_when_reply_lost",
        "a duplicate request whose reply was lost gets no reply",
    ),
    Mutant(
        "early_pop_ignores_duplicating", _T + "_answered",
        "if faults is None or not faults.duplicating:", "if True:",
        _NET + "test_reply_cache.py::test_only_a_plan_that_can_duplicate_frames_keeps_answered_replies",
        "a reply is forgotten although the plan can still duplicate its request",
    ),
    Mutant(
        "early_pop_after_rexmit", _T + "_answered",
        "if not msg.need_ack and not msg.attempt:", "if not msg.need_ack:",
        _NET + "test_reply_cache.py::test_a_retransmitted_request_keeps_its_reply_until_the_horizon",
        "a retransmitted request's reply is forgotten while a copy may still arrive",
    ),
    Mutant(
        "dup_horizon_one_timeout_short", _T + "__init__",
        "(cfg.max_retries + 2) * cfg.rexmit_timeout",
        "(cfg.max_retries + 1) * cfg.rexmit_timeout",
        "tests/faults/test_nonperturbation.py::test_dup_horizon_is_one_timeout_past_the_retry_window",
        "duplicate-suppression entries expire one timeout early",
    ),
    Mutant(
        "in_progress_duplicate_runs", _T + "on_receive",
        "if key in self._requests_in_progress:", "if False:",
        _NET + "test_transport_properties.py::test_prop_dedup_tables_evict_as_on_every_receipt",
        "a duplicate of a request still being served runs the handler again",
    ),
    Mutant(
        "waiter_resumes_on_first_reply", _T + "_answered",
        "waiter.left -= 1", "waiter.left = 0",
        _NET + "test_pending_records.py::test_gather_resumes_once_in_request_order_when_replies_arrive_reversed",
        "a gathered call resumes on its first reply",
    ),
    # -- protocols -------------------------------------------------------------------
    Mutant(
        "barrier_releases_before_last_notices",
        "repro.protocols.base:BaseDsmProtocol._handle_barrier_arrive",
        "yield from self._barrier_receive(msg.payload[2])\n"
        "    self._manager_note_arrival(msg.payload)",
        "self._manager_note_arrival(msg.payload)\n"
        "    yield from self._barrier_receive(msg.payload[2])",
        "tests/protocols/test_lrc.py::test_barrier_propagates_writes_of_all_nodes",
        "the barrier manager releases before absorbing the last arrival's notices",
    ),
    Mutant(
        "second_page_notice_dropped",
        "repro.protocols.base:BaseDsmProtocol.end_interval",
        "pages=closed,",
        "pages=closed[:1] + closed[2:],",
        "tests/faults/test_nonperturbation.py::test_no_plan_matches_committed_sweep[is-lrc_d-8]",
        "an interval's write notice omits its second page",
    ),
    Mutant(
        "grant_before_release_applied",
        "repro.protocols.vc:VcProtocol._handle_view_release",
        "yield from self._manager_apply_release(view_id, mode, notice, extra, local=False)\n"
        "    self._manager_release(view_id, mode, node_id)",
        "self._manager_release(view_id, mode, node_id)\n"
        "    yield from self._manager_apply_release(view_id, mode, notice, extra, local=False)",
        "tests/protocols/test_vc.py::test_view_counter_no_lost_updates",
        "a view is granted before the previous holder's release is logged",
    ),
    Mutant(
        "piggyback_drops_last_release",
        "repro.protocols.vc_sd:VcSdProtocol._grant_payload",
        "entries = [d for (p, d) in store.page_log.get(pid, ()) if p >= pos]",
        "entries = [d for (p, d) in store.page_log.get(pid, ()) if p >= pos][:-1]",
        "tests/protocols/test_vc.py::test_view_counter_no_lost_updates[vc_sd]",
        "a VC_sd grant's integrated diff leaves out the last releaser's part",
    ),
    Mutant(
        "hlrc_skips_one_push",
        "repro.protocols.hlrc:HlrcProtocol.end_interval",
        "for home, pages in by_home.items():",
        "for home, pages in list(by_home.items())[1:]:",
        "tests/protocols/test_hlrc.py::test_multiple_writer_merge_at_home",
        "an HLRC writer skips the diff push to its first home",
    ),
    Mutant(
        "reader_overlaps_writer",
        "repro.protocols.vc:ViewState.grantable",
        "return not self.readers", "return True",
        "tests/protocols/test_view_manager_model.py::test_prop_view_manager_invariants",
        "an exclusive acquire is granted while Rview holders still read",
    ),
    Mutant(
        "reply_bytes_short",
        "repro.protocols.base:BaseDsmProtocol._handle_diff_request",
        "sum(d.wire_size for d in diffs)", "sum(d.wire_size for d in diffs[:-1])",
        "tests/protocols/test_diff_reply_bytes.py::test_multi_interval_reply_is_control_bytes_plus_every_diff",
        "a diff reply is sized without its interval's last diff",
    ),
)


def by_name(name: str) -> Mutant:
    for mutant in CATALOGUE:
        if mutant.name == name:
            return mutant
    raise KeyError(f"no mutant named {name!r}")


def patched(mutant: Mutant):
    """``(owner, attribute, mutated function)`` for ``mutant``'s target.

    The function is recompiled inside a factory that binds ``__class__``, so
    a zero-argument ``super()`` in it still works.
    """
    module_name, qualname = mutant.target.split(":")
    owner = importlib.import_module(module_name)
    *path, attr = qualname.split(".")
    for part in path:
        owner = getattr(owner, part)
    original = owner.__dict__[attr]
    source = textwrap.dedent(inspect.getsource(original))
    if source.count(mutant.old) != 1:
        raise LookupError(f"{mutant.name}: fragment does not occur once in {mutant.target}")
    body = textwrap.indent(source.replace(mutant.old, mutant.new), "    ")
    factory = f"def _factory(__class__):\n{body}\n    return {attr}\n"
    namespace: dict = {}
    exec(compile(factory, inspect.getsourcefile(original), "exec"),
         vars(importlib.import_module(original.__module__)), namespace)
    return owner, attr, namespace["_factory"](owner)


def apply(mutant: Mutant, monkeypatch) -> None:
    """Install ``mutant`` for the life of ``monkeypatch``."""
    owner, attr, fn = patched(mutant)
    monkeypatch.setattr(owner, attr, fn)
