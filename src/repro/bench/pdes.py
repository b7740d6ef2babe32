"""Partition-determinism check: ``python -m repro.bench.pdes``.

Every cell of the committed benchmark matrix
(:func:`repro.bench.sweep.default_cells`) is run serially and as two
in-process partitions (:func:`repro.sim.pdes.run_partitioned`).  Per cell
the statistics-row fingerprint (the hash ``BENCH_sweep.json`` commits) must
be identical, the simulated completion times must be *exactly* equal (no
tolerance: the engine is deterministic, so any drift is a bug), the
partitioned event count must exceed the serial one by exactly
``(K - 1) * nprocs`` replica dispatcher start-ups, and the partitioned
output must verify against the sequential reference.

Prints one line per cell and exits non-zero on any mismatch; it takes no
flags and writes no file — the result is the exit code.
"""

from __future__ import annotations

import json
import sys

from repro.apps import APPS
from repro.apps.common import AppResult, run_app
from repro.bench.sweep import SweepCell, default_cells, row_fingerprint
from repro.sim.pdes import run_partitioned

__all__ = ["WORKERS", "check_cell", "main"]

#: partitions per cell
WORKERS = 2


def check_cell(cell: SweepCell, workers: int = WORKERS) -> dict:
    """Run one cell serially and partitioned; report what was compared."""
    app = APPS[cell.app]
    config = cell.config()
    serial = run_app(app, cell.protocol, cell.nprocs, config=config,
                     variant=cell.variant)
    out = run_partitioned(app, cell.protocol, cell.nprocs, config=config,
                          variant=cell.variant, workers=workers)
    parted = AppResult(cell.protocol, cell.nprocs, out.output, out.stats, out.time)
    row = {
        "fingerprint": row_fingerprint(serial.table_row()),
        "pdes_fingerprint": row_fingerprint(parted.table_row()),
        "time_equal": serial.time == out.time,
        "extra_events": out.events - serial.events,
        "expected_extra_events": (out.workers - 1) * cell.nprocs,
        "verified": app.outputs_match(out.output, app.sequential(config)),
    }
    row["match"] = (
        row["fingerprint"] == row["pdes_fingerprint"]
        and row["time_equal"]
        and row["extra_events"] == row["expected_extra_events"]
        and row["verified"]
    )
    return row


def main() -> int:
    ok = True
    for cell in default_cells():
        row = check_cell(cell)
        ok = ok and row["match"]
        print(
            f"  {cell.app:<6} {cell.protocol:<6} {cell.variant:<8}"
            f" {cell.nprocs:>3}p  fp={row['fingerprint']}"
            f"  [{'ok' if row['match'] else 'MISMATCH ' + json.dumps(row)}]",
            flush=True,
        )
    if not ok:
        print("error: partitioned results diverged from serial", file=sys.stderr)
        return 1
    print(f"all cells bit-identical to serial at {WORKERS} partitions")
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
