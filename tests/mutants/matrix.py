"""Measure the mutant kill matrix: which witness notices which catalogued bug.

    PYTHONPATH=src python -m tests.mutants.matrix [--columns C ...] [NAME ...]

Prints one JSON line per mutant (default: the whole catalogue).  The
tier-1 column is ``tests/mutants/test_kill_matrix.py``, which runs each
mutant's witness.  Columns:

``e2e``
    the 18 cells of ``BENCH_sweep.json`` run uncached with the oracle on,
    cell by cell: a fingerprint that differs from the committed one, an
    answer that fails sequential verification, an oracle finding (also on a
    wrong answer), or a run that raises or aborts.
``grid``
    the 15 cells of ``BENCH_faults.json`` (IS/8 under ``lrc_d``, ``vc_d``
    and ``vc_sd`` at each loss rate, fault seed 7), judged the same way but
    without fingerprints: a run that raises, an answer that fails
    verification, an oracle finding, or an abort of a loss-0 cell.  An
    abort under loss is a fault the protocol reports, not a kill.

Everything runs uncached: the sweep cache is keyed by source text, and a
mutant patches code, not text.  A mutant takes about 15 s under ``e2e``
and 2-8 s under ``grid``.
"""

import argparse
import json

import pytest

from tests.mutants import CATALOGUE, REPO, apply, by_name

COLUMNS = ("e2e", "grid")


def judge(cell, label: str, out: dict, abort_kills: bool = True):
    """Run ``cell`` uncached and unverified with the oracle on (so the oracle
    reports on a wrong answer too) and file each kill under ``out``: a raise
    or (if ``abort_kills``) an abort under ``crash``, findings under
    ``oracle``, a finished answer that fails the sequential reference under
    ``verification``.  Returns the finished :class:`CellResult`, else None."""
    from repro.apps import APPS
    from repro.bench.sweep import run_sweep

    try:
        (done,) = run_sweep([cell], cache_dir=None, verify=False, check=True).cells
    except Exception as exc:  # noqa: BLE001 - a crash is a kill
        out["crash"].append(f"{label}: {type(exc).__name__}")
        return None
    result = done.result
    if result.consistency["findings"]:
        out["oracle"].append(label)
    if result.failure is not None:
        if abort_kills:
            out["crash"].append(f"{label}: {result.failure.reason}")
        return None
    app = APPS[cell.app]
    if not app.outputs_match(result.output, app.sequential(cell.config())):
        out["verification"].append(label)
    return done


def e2e() -> dict:
    from repro.bench.sweep import default_cells

    committed = {
        (c["app"], c["protocol"], c["nprocs"], c["variant"]): c["fingerprint"]
        for c in json.loads((REPO / "BENCH_sweep.json").read_text())["cells"]
    }
    out = {"fingerprint": [], "verification": [], "oracle": [], "crash": []}
    for cell in default_cells():
        label = f"{cell.app}/{cell.protocol}/{cell.nprocs}/{cell.variant}"
        done = judge(cell, label, out)
        key = (cell.app, cell.protocol, cell.nprocs, cell.variant)
        if done is not None and done.fingerprint() != committed[key]:
            out["fingerprint"].append(label)
    return out


def grid() -> dict:
    from repro.bench.degradation import grid_cells

    out = {"verification": [], "oracle": [], "crash": []}
    for rate, cell in grid_cells():
        judge(cell, f"{cell.protocol}/{rate}", out, abort_kills=rate == 0.0)
    return out


def parse_args(argv=None) -> argparse.Namespace:
    """``columns`` and ``names``; mutant names may come before or after
    ``--columns`` (its ``nargs="+"`` takes them too, so they are sorted out
    here by which list they belong to)."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("names", nargs="*")
    parser.add_argument("--columns", nargs="+", default=list(COLUMNS))
    args = parser.parse_args(argv)
    known = {m.name for m in CATALOGUE}
    names = args.names + [c for c in args.columns if c not in COLUMNS]
    for name in names:
        if name not in known:
            parser.error(f"{name!r} is neither a column {COLUMNS} nor a catalogued mutant")
    args.columns = [c for c in args.columns if c in COLUMNS]
    if not args.columns:
        parser.error(f"--columns needs at least one of {COLUMNS}")
    args.names = names or [m.name for m in CATALOGUE]
    return args


def main(argv=None) -> None:
    args = parse_args(argv)
    for name in args.names:
        mutant = by_name(name)
        row = {"mutant": name}
        with pytest.MonkeyPatch.context() as patch:
            apply(mutant, patch)
            if "e2e" in args.columns:
                row["e2e"] = e2e()
            if "grid" in args.columns:
                row["grid"] = grid()
        print(json.dumps(row), flush=True)


if __name__ == "__main__":
    main()
