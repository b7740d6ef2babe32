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
``adversary``
    ``repro.faults.adversary.search`` at IS/8, budget 24, seeds 11 and 13,
    under ``lrc_d``, ``vc_d`` and ``vc_sd``: a kill is a consistency-class
    winner or a run that raises.  Run against an older revision's ``src``
    this measures whatever search that revision had.

Everything runs uncached: the sweep cache is keyed by source text, and a
mutant patches code, not text.  A full run takes tens of minutes.
"""

import argparse
import json

import pytest

from tests.mutants import CATALOGUE, REPO, apply, by_name

COLUMNS = ("e2e", "adversary")
PROTOCOLS = ("lrc_d", "vc_d", "vc_sd")
SEEDS = (11, 13)


def e2e() -> dict:
    from repro.apps import APPS
    from repro.bench.sweep import default_cells, run_sweep

    committed = {
        (c["app"], c["protocol"], c["nprocs"], c["variant"]): c["fingerprint"]
        for c in json.loads((REPO / "BENCH_sweep.json").read_text())["cells"]
    }
    out = {"fingerprint": [], "verification": [], "oracle": [], "crash": []}
    for cell in default_cells():
        label = f"{cell.app}/{cell.protocol}/{cell.nprocs}/{cell.variant}"
        try:
            # unverified, so the oracle reports on a wrong answer too
            (done,) = run_sweep([cell], cache_dir=None, verify=False,
                                check=True).cells
        except Exception as exc:  # noqa: BLE001 - a crash is a kill
            out["crash"].append(f"{label}: {type(exc).__name__}")
            continue
        result = done.result
        if result.consistency["findings"]:
            out["oracle"].append(label)
        if result.failure is not None:
            out["crash"].append(f"{label}: {result.failure.reason}")
            continue
        app = APPS[cell.app]
        if not app.outputs_match(result.output, app.sequential(cell.config())):
            out["verification"].append(label)
        key = (cell.app, cell.protocol, cell.nprocs, cell.variant)
        if done.fingerprint() != committed[key]:
            out["fingerprint"].append(label)
    return out


def adversary() -> dict:
    from repro.faults.adversary import search

    out = {}
    for protocol in PROTOCOLS:
        for seed in SEEDS:
            try:
                r = search(app="is", protocol=protocol, nprocs=8, budget=24,
                           seed=seed, shrink=False)
                verdict = r.best["class"]
            except Exception as exc:  # noqa: BLE001 - a crash is a kill
                verdict = f"raised {type(exc).__name__}"
            out[f"{protocol}/{seed}"] = verdict
    out["killed"] = sum(v != "slowdown" and v != "abort" for v in out.values())
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
            if "adversary" in args.columns:
                row["adversary"] = adversary()
        print(json.dumps(row), flush=True)


if __name__ == "__main__":
    main()
