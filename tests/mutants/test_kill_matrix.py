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


def test_a_mutant_that_crashes_the_run_makes_the_adversary_fail(monkeypatch):
    """Random plans with loss or duplication retransmit reliable sends; with
    the dedupe off the second delivery kills a dispatcher, and the error
    reaches the caller instead of ranking as a slow plan."""
    from repro.cli import main

    apply(by_name("dedupe_off"), monkeypatch)
    with pytest.raises(SimError, match="died"):
        main(["adversary", "is", "--protocol", "lrc_d", "--nprocs", "4",
              "--budget", "3", "--seed", "11", "--no-cache"])
