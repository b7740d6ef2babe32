"""Gauss correctness across protocols and processor counts."""

import numpy as np
import pytest

from repro.apps import gauss
from repro.apps.common import run_app

SMALL = gauss.GaussConfig(n=24, work_factor=1.0)


def test_sequential_produces_upper_triangular():
    out = gauss.sequential(SMALL)
    lower = np.tril(out, k=-1)
    assert np.max(np.abs(lower)) < 1e-9


def test_sequential_is_deterministic():
    assert np.array_equal(gauss.sequential(SMALL), gauss.sequential(SMALL))


@pytest.mark.parametrize("protocol", ["lrc_d", "vc_d", "vc_sd"])
@pytest.mark.parametrize("nprocs", [1, 2, 4])
def test_parallel_matches_sequential_bitwise(protocol, nprocs):
    result = run_app(gauss, protocol, nprocs, SMALL)
    assert result.verified


def test_uneven_distribution():
    """n not divisible by nprocs: cyclic rows still cover everything."""
    cfg = gauss.GaussConfig(n=17, work_factor=1.0)
    result = run_app(gauss, "vc_sd", 3, cfg)
    assert result.verified


def test_false_sharing_shows_in_lrc_diff_requests():
    """The paper's Table 4 effect: LRC_d needs far more diff requests."""
    lrc = run_app(gauss, "lrc_d", 4, SMALL)
    vc = run_app(gauss, "vc_d", 4, SMALL)
    assert lrc.stats.diff_requests > vc.stats.diff_requests


def test_vopp_moves_less_data():
    lrc = run_app(gauss, "lrc_d", 4, SMALL)
    sd = run_app(gauss, "vc_sd", 4, SMALL)
    assert sd.stats.net.data_bytes < lrc.stats.net.data_bytes


@pytest.mark.parametrize("field, value", [("n", 24.0), ("n", True), ("seed", 7.5)])
def test_config_refuses_a_count_that_is_not_an_int(field, value):
    """Every integer field is checked when the config is built, naming the
    field: a float matrix order is no count, nor is a bool."""
    with pytest.raises(ValueError, match=f"^{field} must be an int"):
        gauss.GaussConfig(**{field: value})
