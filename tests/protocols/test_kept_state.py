"""After a fault-free run a node keeps only the protocol state still needed:
every diff applied more than once as its scatter index, its bytes and its
run count."""

from collections import Counter

import numpy as np
import pytest

from repro.apps import is_sort
from repro.apps.common import program_builder
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
        system.run_program(program_builder(is_sort, "vc_d")(system, is_sort.default_config()))
    return system.protocols, applications


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
