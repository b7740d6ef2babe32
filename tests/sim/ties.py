"""Tie-permutation witness: same-instant events of different nodes, reordered.

The serial engine runs two events at the same simulated instant in *some*
order.  Every layer above it is written so that, when the two events belong
to different nodes, that order is unobservable.  :class:`TiePermutingSimulator`
is the executable check: a :class:`repro.sim.Simulator` that, for a given
seed, runs each instant's events of different nodes in a seeded node order
that changes at every instant, while each node keeps its own serial order.
A run on it must equal the serial run bit for bit (:func:`check_cell`).

``python -m tests.sim.ties`` (from the repository root, ``PYTHONPATH=src``)
checks the whole benchmark matrix plus ``hlrc_d`` and two 32-rank cells at
seeds 1, 2 and 3, one line per run; it exits non-zero on any mismatch and
writes no file.
"""

from __future__ import annotations

import heapq
import sys

from repro.apps import APPS
from repro.apps.common import AppResult, _run_or_abort, program_builder, run_app
from repro.bench.sweep import SweepCell, default_cells, row_fingerprint
from repro.core.program import make_system
from repro.sim import SimError, Simulator

__all__ = ["TiePermutingSimulator", "check_cell", "run_serial", "witness_cells", "SEEDS"]

#: the seeds every witness cell is checked at
SEEDS = (1, 2, 3)


class _ReadyToHeap:
    """Stands in for the engine's ready deque: every zero-delay wake-up
    becomes a heap entry at the current instant."""

    __slots__ = ("sim",)

    def __init__(self, sim: "TiePermutingSimulator"):
        self.sim = sim

    def append(self, item) -> None:
        sim = self.sim
        fn, args = item
        sim._push(sim._heap, (sim.now, sim.now, 0, next(sim._seq), fn, args))


class TiePermutingSimulator(Simulator):
    """One heap keyed ``(t, h(seed, t, node), tsched, cls, seq)``.

    Every event belongs to one node: a network arrival (class 1) to its
    destination, a callback bound to an object with a ``node_id`` (NIC,
    transport) to that node, a process spawned before :meth:`run` to the rank
    in its name (``dispatch-i``, ``app-i``), and anything else to the node of
    the event that scheduled it.  Ready-deque and timer entries go through the
    same heap, so the rest of the key is the serial order restricted to one
    node, and only ties between nodes move.
    """

    def __init__(self, seed: int):
        super().__init__()
        self.seed = seed
        self._node = 0  # node of the event being executed
        self._qpush = self._push
        self._ready = _ReadyToHeap(self)
        # seqs of cancelled timers; only class-0 entries are matched against
        # it, since node 0's arrival keys share that integer range
        self._dropped: set[int] = set()

    def _push(self, heap, entry) -> None:
        t, tsched, cls, seq, fn, args = entry
        if cls == 1:
            node = args[0].dst
        else:
            node = getattr(getattr(fn, "__self__", None), "node_id", self._node)
        heapq.heappush(
            heap, (t, hash((self.seed, t, node)), tsched, cls, seq, node, fn, args))

    def schedule_timer(self, delay, fn, *args) -> tuple:
        if delay <= 0:
            raise SimError(f"timer delay must be positive (delay={delay!r})")
        entry = (self.now + delay, self.now, 0, next(self._seq), fn, args)
        self._push(self._heap, entry)
        return entry

    def cancel_timer(self, handle) -> None:
        self._dropped.add(handle[3])

    def spawn(self, gen, name=""):
        if not self._running:
            self._node = int(name.rpartition("-")[2])
        return super().spawn(gen, name)

    def run(self, until=None) -> float:
        if until is not None:
            raise SimError("the witness runs to completion")
        self._running = True
        heap, dropped, failures = self._heap, self._dropped, self._failures
        try:
            while heap:
                t, _, _, cls, seq, node, fn, args = heapq.heappop(heap)
                if cls == 0 and seq in dropped:
                    dropped.remove(seq)
                    continue
                self.now, self._node = t, node
                self.events_processed += 1
                fn(*args)
                if failures:
                    proc, err = failures[0]
                    raise SimError(f"process {proc.name!r} died at t={t:.6f}") from err
        finally:
            self._running = False
        return self.now


def _run_on(cell: SweepCell, sim: Simulator) -> AppResult:
    """``run_app``'s build, run and extract, on a simulator of our choosing."""
    app, config = APPS[cell.app], cell.config()
    build = program_builder(app, cell.protocol, cell.variant)
    system = make_system(cell.nprocs, cell.protocol, sim=sim)
    body = build(system, config)
    _run_or_abort(system.cluster, lambda: system.run_program(body))
    output = system.app_output
    return AppResult(
        cell.protocol, cell.nprocs, output, system.stats, system.time,
        verified=app.outputs_match(output, app.sequential(config)),
        events=sim.events_processed,
    )


def run_serial(cell: SweepCell) -> AppResult:
    return run_app(APPS[cell.app], cell.protocol, cell.nprocs,
                   config=cell.config(), variant=cell.variant)


def check_cell(cell: SweepCell, seed: int, serial: AppResult | None = None) -> dict:
    """Run ``cell`` on the witness at ``seed`` and compare it with its serial
    run (``serial``, or run here); returns what was compared."""
    serial = serial or run_serial(cell)
    tied = _run_on(cell, TiePermutingSimulator(seed))
    row = {
        "fingerprint": row_fingerprint(serial.table_row()),
        "witness_fingerprint": row_fingerprint(tied.table_row()),
        "table_row_equal": serial.table_row() == tied.table_row(),
        "time_equal": serial.time == tied.time,  # float ==, no tolerance
        "events": serial.events,
        "witness_events": tied.events,
        "verified": tied.verified,
    }
    row["match"] = (
        row["fingerprint"] == row["witness_fingerprint"]
        and row["table_row_equal"]
        and row["time_equal"]
        and row["events"] == row["witness_events"]
        and row["verified"]
    )
    return row


def witness_cells() -> list[SweepCell]:
    """The benchmark matrix, every app under ``hlrc_d`` at 8 ranks, and two
    32-rank cells (NN's retransmission-heavy LRC_d run, IS under VC_sd)."""
    return default_cells() + [
        SweepCell(app=app, protocol="hlrc_d", nprocs=8)
        for app in ("is", "gauss", "sor", "nn")
    ] + [SweepCell("nn", "lrc_d", 32), SweepCell("is", "vc_sd", 32)]


def main() -> int:
    ok = True
    for cell in witness_cells():
        serial = run_serial(cell)
        for seed in SEEDS:
            row = check_cell(cell, seed, serial)
            ok = ok and row["match"]
            print(
                f"  seed {seed}  {cell.app:<6} {cell.protocol:<6} {cell.variant:<8}"
                f" {cell.nprocs:>3}p  fp={row['fingerprint']}"
                f"  [{'ok' if row['match'] else 'MISMATCH ' + repr(row)}]",
                flush=True,
            )
    if not ok:
        print("error: a tie-permuted run diverged from serial", file=sys.stderr)
        return 1
    print(f"all runs bit-identical to serial at seeds {list(SEEDS)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
