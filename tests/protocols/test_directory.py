"""The shared metadata read contract: every read sees every mutation so far,
and same-instant mutations of different nodes resolve by node id."""

import itertools

import pytest

from repro.protocols.base import ViewOverlapError
from repro.protocols.system import DsmSystem
from repro.sim import Timeout
from tests.protocols.conftest import run_workers

T = 0.5  # any instant; reads and mutations share it


def directory():
    # the directory a system actually builds, on a network with a nonzero
    # switch latency: nothing in it may delay what a read sees
    system = DsmSystem(3, "lrc_d")
    assert system.cluster.netcfg.switch_latency > 0
    return system.directory


def test_write_note_is_another_nodes_fetch_source_at_the_same_instant():
    d = directory()
    d.note_writer(7, 1, T)
    assert d.fetch_source(7, 2) == 1


def test_fetch_source_skips_the_asker_and_falls_back_to_the_origin():
    d = directory()
    assert d.fetch_source(7, 0) is None
    d.claim_origin(7, 0, T)
    assert d.fetch_source(7, 0) is None
    assert d.fetch_source(7, 2) == 0
    d.note_writer(7, 1, T)
    assert d.fetch_source(7, 1) == 0
    assert d.fetch_source(7, 2) == 1


@pytest.mark.parametrize("order", list(itertools.permutations([2, 0, 1])))
def test_same_instant_origin_claims_yield_the_lower_node(order):
    d = directory()
    for node in order:
        d.claim_origin(7, node, T)
    assert d.origin(7) == 0
    d.claim_origin(7, 0, T)  # idempotent
    d.claim_origin(7, 1, T + 1)  # a later claim never displaces the origin
    assert d.origin(7) == 0


@pytest.mark.parametrize("order", list(itertools.permutations([2, 0, 1])))
def test_same_instant_write_notes_yield_the_higher_node(order):
    d = directory()
    for node in order:
        d.note_writer(7, node, T)
    assert d.fetch_source(7, 0) == 2
    d.note_writer(7, 0, T + 1)  # a later note always wins
    assert d.fetch_source(7, 1) == 0


def test_view_registry_reads():
    views = DsmSystem(2, "vc_d").views
    assert views.view_of(3) is None and views.known_views() == []
    for pid in (5, 3, 3):
        views.bind(pid, 1)
    views.bind(9, 0)
    assert views.view_of(3) == 1 and views.view_of(9) == 0
    assert views.pages_of(1) == [3, 5] and views.pages_of(4) == []
    assert views.known_views() == [0, 1]
    with pytest.raises(ViewOverlapError):
        views.bind(5, 0)


@pytest.mark.parametrize("proto", ["vc_d", "vc_sd"])
def test_cross_node_overlap_raises_at_the_second_bind(proto):
    """Node 1 binds a page half a switch latency after node 0 bound it to
    another view: the bind itself must refuse, not some later read."""
    system = DsmSystem(2, protocol=proto, page_size=256)
    lam = system.cluster.netcfg.switch_latency
    outcome = {}

    def worker(p, rank):
        yield Timeout(T + rank * lam / 2)
        try:
            p._bind_pages(rank, (4,))
        except ViewOverlapError:
            outcome[rank] = "overlap"
        else:
            outcome[rank] = "bound"

    run_workers(system, worker)
    assert outcome == {0: "bound", 1: "overlap"}
