"""``run_app``'s own front door: what it refuses before building anything."""

import pytest

from repro.apps import APPS
from repro.apps.common import run_app
from repro.apps.is_sort import IsConfig
from repro.apps.nn import NnConfig
from repro.apps.sor import SorConfig
from repro.bench.sweep import SweepCell, run_sweep


@pytest.mark.parametrize("app", ["is", "gauss", "sor"])
def test_mpi_is_refused_for_an_app_without_an_mpi_version(app):
    with pytest.raises(ValueError, match=f"^{app} has no MPI version \\(only nn does\\)$"):
        run_app(APPS[app], "mpi", 4)


def test_sweep_cell_without_an_mpi_version_is_refused():
    with pytest.raises(ValueError, match="is has no MPI version"):
        run_sweep([SweepCell("is", "mpi", 4)], cache_dir=None)


@pytest.mark.parametrize("factor", [float("nan"), -5.0, float("inf")])
def test_config_rejects_a_work_factor_that_charges_no_compute(factor):
    """A NaN or negative factor would make every charge a no-op (the run
    would take the time of ``work_factor=0``), an infinite one a NaN
    charge: refused when the config is built.  Zero stays legal."""
    with pytest.raises(ValueError, match="work_factor"):
        SorConfig(work_factor=factor)
    assert SorConfig(work_factor=0.0).work_factor == 0.0


@pytest.mark.parametrize("config, field, least", [
    (IsConfig, "reps=0", 1), (IsConfig, "reps=-3", 1),
    (SorConfig, "iterations=-1", 1), (NnConfig, "grad_views=0", 1),
    (NnConfig, "seed=-1", 0),
], ids=lambda part: getattr(part, "__name__", str(part)))
def test_config_refuses_a_count_below_its_least(config, field, least):
    """``reps=0`` and ``reps=-3`` used to verify, with the same time,
    ``iterations=-1`` to verify without a sweep, and ``grad_views=0`` to
    build and fail its verification: every count field but ``seed`` must be
    at least 1, and ``seed`` at least 0."""
    name, value = field.split("=")
    with pytest.raises(ValueError, match=f"^{name} must be an int >= {least}, got {value}$"):
        config(**{name: int(value)})
    config(**{name: least})
