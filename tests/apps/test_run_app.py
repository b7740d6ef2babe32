"""``run_app``'s own front door: what it refuses before building anything."""

import pytest

from repro.apps import APPS
from repro.apps.common import run_app
from repro.bench.sweep import SweepCell, run_sweep


@pytest.mark.parametrize("app", ["is", "gauss", "sor"])
def test_mpi_is_refused_for_an_app_without_an_mpi_version(app):
    with pytest.raises(ValueError, match=f"^{app} has no MPI version \\(only nn does\\)$"):
        run_app(APPS[app], "mpi", 4)


def test_sweep_cell_without_an_mpi_version_is_refused():
    with pytest.raises(ValueError, match="is has no MPI version"):
        run_sweep([SweepCell("is", "mpi", 4)], cache_dir=None)
