"""IS correctness across protocols, variants and processor counts."""

import numpy as np
import pytest

from repro.apps import is_sort
from repro.apps.common import program_builder, run_app

SMALL = is_sort.IsConfig(n_keys=2000, b_max=64, reps=4, bucket_views=4, work_factor=1.0)


def test_sequential_reference_properties():
    out = is_sort.sequential(SMALL)
    assert out["prefix"].shape == (64,)
    assert out["ranks"].shape == (2000,)
    assert out["prefix"][0] == 0
    # prefix is non-decreasing and ends below total count
    assert np.all(np.diff(out["prefix"]) >= 0)
    assert out["prefix"][-1] <= SMALL.reps * SMALL.n_keys


def test_sequential_is_deterministic():
    a = is_sort.sequential(SMALL)
    b = is_sort.sequential(SMALL)
    assert np.array_equal(a["ranks"], b["ranks"])


@pytest.mark.parametrize("protocol", ["lrc_d", "vc_d", "vc_sd"])
@pytest.mark.parametrize("nprocs", [1, 2, 4])
def test_parallel_matches_sequential(protocol, nprocs):
    result = run_app(is_sort, protocol, nprocs, SMALL)
    assert result.verified


@pytest.mark.parametrize("protocol", ["vc_d", "vc_sd"])
def test_vopp_lb_variant_matches(protocol):
    result = run_app(is_sort, protocol, 4, SMALL, variant="lb")
    assert result.verified


def test_lb_variant_has_fewer_barriers():
    full = run_app(is_sort, "vc_sd", 4, SMALL)
    lb = run_app(is_sort, "vc_sd", 4, SMALL, variant="lb")
    assert lb.stats.barriers < full.stats.barriers
    assert lb.time < full.time


def test_traditional_uses_no_locks():
    result = run_app(is_sort, "lrc_d", 4, SMALL)
    assert result.stats.acquires == 0  # Table 1: Acquires 0 for LRC_d


def test_vopp_uses_views_not_barrier_consistency():
    result = run_app(is_sort, "vc_sd", 4, SMALL)
    assert result.stats.acquires > 0
    assert result.stats.diff_requests == 0  # VC_sd signature


def test_vc_d_issues_diff_requests():
    result = run_app(is_sort, "vc_d", 4, SMALL)
    assert result.stats.diff_requests > 0


def test_bad_bucket_view_split_rejected():
    from repro.core import VoppSystem

    cfg = is_sort.IsConfig(n_keys=100, b_max=10, reps=1, bucket_views=3)
    with pytest.raises(ValueError):
        program_builder(is_sort, "vc_sd")(VoppSystem(2), cfg)


def test_chunk_bounds_cover_everything():
    from repro.apps.common import chunk_bounds

    for total in (1, 7, 100):
        for nprocs in (1, 3, 8):
            spans = [chunk_bounds(total, nprocs, r) for r in range(nprocs)]
            assert spans[0][0] == 0
            assert spans[-1][1] == total
            for (a, b), (c, d) in zip(spans, spans[1:]):
                assert b == c


@pytest.mark.parametrize(
    "field, value", [("reps", 2.5), ("n_keys", 1e3), ("bucket_views", True), ("seed", None)]
)
def test_config_refuses_a_count_that_is_not_an_int(field, value):
    """``reps=2.5`` used to build and then kill ``app-0`` mid-run with a
    ``range()`` ``TypeError``; every integer field is checked when the config
    is built, naming the field."""
    with pytest.raises(ValueError, match=f"^{field} must be an int"):
        is_sort.IsConfig(**{field: value})
