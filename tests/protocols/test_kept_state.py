"""After a fault-free run a node keeps only the protocol state still needed:
its applied notices as one int per writer, and every diff applied more than
once as its scatter index, its bytes and its run count."""

from collections import Counter

import numpy as np
import pytest

from repro.apps import is_sort
from repro.core import make_system
from repro.memory import manager


@pytest.fixture(scope="module")
def is8_vcd():
    """The protocol instances of a fault-free IS/``vc_d``/8 run, and how many
    times each diff object was applied."""
    applications: Counter = Counter()
    apply_diff = manager.apply_diff

    def counting(page, diff):
        applications[id(diff)] += 1
        apply_diff(page, diff)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(manager, "apply_diff", counting)
        system = make_system(8, "vc_d")
        system.run_program(is_sort.build(system, is_sort.default_config(), "default"))
    return system.dsm.protocols, applications


def test_seen_notices_are_one_int_per_writer(is8_vcd):
    protocols, _ = is8_vcd
    nprocs = len(protocols)
    for p in protocols:
        assert not hasattr(p, "seen_keys")
        seen = p.seen_notices
        assert len(seen) == nprocs and all(type(mask) is int for mask in seen)
        assert seen[p.node.id] == 0  # own notices are never recorded
        for writer, mask in enumerate(seen):
            # bit idx per applied interval: none before the first, none past the last
            assert not mask & 1
            assert mask.bit_length() <= protocols[writer].interval_seq + 1
    assert sum(bin(mask).count("1") for p in protocols for mask in p.seen_notices) > 1000


def test_a_diff_applied_twice_keeps_only_its_index_bytes_and_run_count(is8_vcd):
    protocols, applications = is8_vcd
    diffs = {id(d): d for p in protocols for ds in p.diff_store.values() for d in ds}
    assert set(applications) <= set(diffs)
    reused = [d for key, d in diffs.items() if applications[key] >= 2]
    assert len(reused) > 500
    for diff in reused:
        assert diff._starts is None and diff._ends is None
        assert diff._twin is None and diff._after is None
        assert isinstance(diff._index, np.ndarray) and diff._index.size == diff.changed_bytes
        assert diff._nruns == len(diff.runs)
    for key, diff in diffs.items():
        if applications[key] == 1:
            assert diff._starts is not None and not isinstance(diff._index, np.ndarray)
