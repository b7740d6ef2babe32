"""Each catalogued mutant is still killed by the cheapest witness the kill
matrix credits (docs/robustness.md, "Mutant kill matrix").

A witness runs in its own pytest process with the mutant installed by
``tests.mutants.plugin``; it must fail (exit code 1).  A witness that was
renamed away, or a mutant whose fragment moved, exits otherwise and fails
here too.
"""

import os
import subprocess
import sys

import pytest

from repro.sim import SimError
from tests.mutants import CATALOGUE, REPO, apply, by_name


@pytest.mark.parametrize("mutant", CATALOGUE, ids=lambda m: m.name)
def test_each_mutant_is_killed_by_its_cheapest_witness(mutant, tmp_path):
    # run from a scratch directory: any cache the witness writes lands there
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(REPO), str(REPO / "src")]))
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "--tb=no", "-p", "no:cacheprovider",
         "-p", "tests.mutants.plugin", "--mutant", mutant.name,
         str(REPO / mutant.witness)],
        cwd=tmp_path, env=env, capture_output=True, text=True,
    )
    assert done.returncode == 1, (
        f"{mutant.name} survived {mutant.witness}:\n{done.stdout[-2000:]}")


def test_a_mutant_that_crashes_the_run_makes_the_grid_fail(monkeypatch, tmp_path):
    """Loss retransmits reliable sends; with the dedupe off the second
    delivery kills a dispatcher, and the error reaches the caller of
    ``sweep --faults`` instead of becoming a failure row."""
    from repro.cli import main

    apply(by_name("dedupe_off"), monkeypatch)
    with pytest.raises(SimError, match="died"):
        main(["sweep", "--faults", "--protocols", "lrc_d", "--procs", "4",
              "--loss-rates", "0.02", "--no-cache", "--jobs", "1",
              "--faults-out", str(tmp_path / "faults.json")])


def test_the_oracle_sees_a_write_notice_that_omits_a_closed_page(monkeypatch):
    """The oracle is told the pages an interval closed, not the pages its
    notice names, so a notice that drops one shows as stale reads."""
    from repro.bench.sweep import default_cells, run_sweep

    apply(by_name("second_page_notice_dropped"), monkeypatch)
    cell = next(c for c in default_cells()
                if (c.app, c.protocol, c.nprocs, c.variant) == ("is", "lrc_d", 8, "default"))
    (done,) = run_sweep([cell], cache_dir=None, verify=False, check=True).cells
    findings = done.result.consistency["findings"]
    assert findings and {f["kind"] for f in findings} == {"stale-read"}


@pytest.mark.parametrize("argv", [
    ["--columns", "e2e", "second_page_notice_dropped"],
    ["second_page_notice_dropped", "--columns", "e2e"],
])
def test_matrix_takes_a_mutant_name_before_or_after_its_columns(argv):
    from tests.mutants.matrix import parse_args

    args = parse_args(argv)
    assert args.columns == ["e2e"] and args.names == ["second_page_notice_dropped"]


def test_matrix_defaults_and_refusals():
    from tests.mutants.matrix import COLUMNS, parse_args

    args = parse_args([])
    assert args.columns == list(COLUMNS) and len(args.names) == len(CATALOGUE)
    assert parse_args(["--columns", "e2e", "grid"]).columns == ["e2e", "grid"]
    for argv in (["--columns", "e2e", "no_such_mutant"], ["--columns", "dedupe_off"]):
        with pytest.raises(SystemExit) as exit_info:
            parse_args(argv)
        assert exit_info.value.code == 2
