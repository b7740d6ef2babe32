"""Seeded uniform loss: determinism and the loss-invariance property.

Uniform loss is a fault plan's ``loss`` episode: the plan's seed drives the
injector's stream, drawn at each frame's departure.  Three properties,
parametrised across the app × protocol matrix:

* **replay**: the same seed reproduces the identical drop sequence — same
  statistics row, same executed-event count, bit for bit;
* **seed sensitivity**: a different seed produces a different loss pattern
  (observably: different network counters — drops, acks, retransmissions);
* **loss invariance**: either way the application's *answers* are identical
  to the loss-free run — the reliable transport absorbs loss into timing and
  Rexmit, never into results.
"""

import hashlib
import json

import pytest

from repro.apps import APPS
from repro.apps.common import run_app
from repro.faults import Episode, FaultPlan

MATRIX = [
    ("is", "lrc_d"),
    ("is", "vc_sd"),
    ("sor", "vc_d"),
    ("gauss", "lrc_d"),
    ("nn", "vc_sd"),
]

DROP_PROB = 0.02
NPROCS = 4


def _fingerprint(result) -> str:
    return hashlib.sha256(
        json.dumps(result.table_row(), sort_keys=True).encode()
    ).hexdigest()[:16]


def _lossy(app, protocol, seed):
    return run_app(
        APPS[app],
        protocol,
        NPROCS,
        faults=FaultPlan((Episode(kind="loss", drop_prob=DROP_PROB),), seed=seed),
    )


@pytest.mark.parametrize("app,protocol", MATRIX)
def test_seeded_loss_replays_and_answers_are_loss_invariant(app, protocol):
    base = run_app(APPS[app], protocol, NPROCS)
    first = _lossy(app, protocol, seed=1)
    replay = _lossy(app, protocol, seed=1)
    other = _lossy(app, protocol, seed=2)

    # replay: same seed, same everything
    assert first.table_row() == replay.table_row()
    assert _fingerprint(first) == _fingerprint(replay)
    assert first.events == replay.events

    # seed sensitivity: a different stream loses different messages
    net_first = getattr(first.stats, "net", first.stats)
    net_other = getattr(other.stats, "net", other.stats)
    assert net_first.rexmit > 0, "0.02 loss must actually bite"
    assert net_first.snapshot() != net_other.snapshot()

    # loss invariance: answers identical to the loss-free run, under any seed
    module = APPS[app]
    for lossy in (first, other):
        assert lossy.verified
        assert module.outputs_match(lossy.output, base.output)
    assert net_first.drops_by_cause.get("fault", 0) > 0


def test_loss_free_default_is_untouched():
    """Without a plan nothing is dropped by a fault stream."""
    result = run_app(APPS["is"], "vc_sd", 2)
    net = getattr(result.stats, "net", result.stats)
    assert net.drops_by_cause.get("fault", 0) == 0
