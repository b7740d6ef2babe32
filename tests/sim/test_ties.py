"""The tie-permutation witness: it reorders ties, it reproduces serial runs,
and it catches an arrival order that depends on how ties were broken.

:mod:`tests.sim.ties` runs same-instant events of different nodes in a
seeded node order; every run of an application cell on it must equal the
serial run bit for bit — statistics row (and therefore the benchmark
fingerprint), simulated time under float ``==``, executed events, verified
output.  The grid below is a tier-1 subset; ``python -m tests.sim.ties``
checks the whole benchmark matrix plus ``hlrc_d`` at seeds 1, 2 and 3.
"""

import functools

import pytest

from repro.bench.sweep import SweepCell, default_cells
from repro.sim import Simulator
from tests.sim.ties import SEEDS, TiePermutingSimulator, check_cell, run_serial

# -- the witness itself, on a toy of three nodes -------------------------------------


class _Node:
    """A node's worth of events: ticks at t = 1, 2, 3, each echoed by a
    zero-delay follow-up that belongs to the node only by inheritance."""

    def __init__(self, sim, node_id, log):
        self.sim, self.node_id, self.log = sim, node_id, log
        self.timer = sim.schedule_timer(2.0, self.tick, "timer")

    def tick(self, label):
        sim = self.sim
        self.log.append((sim.now, self.node_id, label))
        sim.call_soon(self.log.append, (sim.now, self.node_id, ("echo", label)))
        if label == 0 and self.node_id == 1:
            sim.cancel_timer(self.timer)
        if isinstance(label, int) and sim.now < 3.0:
            sim.schedule(1.0, self.tick, label + 10)


def _toy(sim):
    log = []
    nodes = [_Node(sim, i, log) for i in range(3)]
    for node in nodes:
        for label in (0, 1):  # two same-instant ticks per node
            sim.schedule(1.0, node.tick, label)
    sim.run()
    return log, sim.events_processed


def _per_node(log):
    return [[e for e in log if e[1] == node] for node in range(3)]


def test_witness_permutes_cross_node_ties_and_keeps_each_node_serial():
    serial, serial_events = _toy(Simulator())
    assert (2.0, 1, "timer") not in serial  # cancelled: never an event
    orders = set()
    for seed in range(8):
        log, events = _toy(TiePermutingSimulator(seed))
        assert _per_node(log) == _per_node(serial)
        assert events == serial_events
        orders.add(tuple(log))
    # the node order really changes: between seeds, and away from serial
    assert len(orders) > 1
    assert any(order != tuple(serial) for order in orders)


# -- application cells: bit-identical to serial ------------------------------------------

# (app, protocol, seed) at 8 ranks: every DSM protocol family and MPI
GRID = [
    ("is", "lrc_d", 2),
    ("is", "vc_d", 2),
    ("is", "vc_d", 3),
    ("is", "vc_sd", 2),
    ("is", "vc_sd", 3),
    ("sor", "vc_d", 3),
    ("gauss", "vc_sd", 1),
    ("nn", "vc_sd", 1),
    ("nn", "mpi", 1),
    ("is", "hlrc_d", 1),
    ("nn", "hlrc_d", 2),
    ("sor", "hlrc_d", 3),
]


@pytest.fixture(scope="module")
def serial_runs():
    """A cell's serial run, once per cell: it does not depend on the seed."""
    return functools.cache(run_serial)


@pytest.mark.parametrize(
    "app,protocol,seed", GRID, ids=[f"{a}-{p}-seed{s}" for a, p, s in GRID]
)
def test_witness_reproduces_serial(app, protocol, seed, serial_runs):
    cell = SweepCell(app=app, protocol=protocol, nprocs=8)
    row = check_cell(cell, seed, serial_runs(cell))
    assert row["verified"]
    assert row["witness_fingerprint"] == row["fingerprint"]
    assert row["table_row_equal"]
    assert row["time_equal"]  # float ==, no tolerance
    assert row["witness_events"] == row["events"]


def test_witness_bites_when_arrivals_are_keyed_by_the_plain_counter(monkeypatch):
    """The witness is only evidence if it can fail.  Key arrivals by the
    simulator's sequence counter — push order, which follows the order the
    sources' events ran in — instead of the canonical ``(src, departure#)``,
    and at every seed some cell of the benchmark matrix must stop matching
    its serial run (on the full matrix: 17, 16 and 16 of 18 cells at seeds
    1, 2 and 3).  Cells are tried in matrix order until every seed has one."""

    def counter_keyed(self, t, tsched, cls, key, fn, *args):
        self._qpush(self._heap, (t, tsched, cls, next(self._seq), fn, args))

    monkeypatch.setattr(Simulator, "schedule_keyed", counter_keyed)
    unbitten = list(SEEDS)
    for cell in default_cells():
        serial = run_serial(cell)  # under the mutant too
        for seed in list(unbitten):
            row = check_cell(cell, seed, serial)
            assert row["verified"]  # still a correct run of the application ...
            if not row["match"]:  # ... but not the serial one
                unbitten.remove(seed)
        if not unbitten:
            break
    assert not unbitten, f"no matrix cell mismatched at seeds {unbitten}"
