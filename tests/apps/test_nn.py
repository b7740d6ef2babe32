"""NN correctness across protocols (incl. MPI) and processor counts."""

import numpy as np
import pytest

from repro.apps import nn
from repro.apps.common import run_app

SMALL = nn.NnConfig(n_samples=64, epochs=5, d_hidden=8, work_factor=1.0)


def test_sequential_training_reduces_loss():
    out = nn.sequential(SMALL)
    assert out["loss"] < out["initial_loss"]


def test_gradient_matches_numerical():
    """Finite-difference check on a tiny instance."""
    cfg = nn.NnConfig(n_samples=8, d_in=3, d_hidden=4, d_out=1, epochs=1)
    x, y = nn._dataset(cfg)
    w = nn._init_weights(cfg)
    g = nn._gradient(w, x, y, cfg)
    eps = 1e-6
    for idx in [0, 5, len(w) // 2, len(w) - 1]:
        wp = w.copy()
        wp[idx] += eps
        wm = w.copy()
        wm[idx] -= eps
        num = (
            (nn._loss(wp, x, y, cfg) - nn._loss(wm, x, y, cfg))
            * cfg.n_samples
            * cfg.d_out
            / (2 * eps)
        )
        assert abs(num - 2 * g[idx]) < 1e-4 * max(1.0, abs(g[idx]))


@pytest.mark.parametrize("protocol", ["lrc_d", "vc_d", "vc_sd", "mpi"])
@pytest.mark.parametrize("nprocs", [1, 2, 4])
def test_parallel_matches_sequential(protocol, nprocs):
    if protocol == "mpi" and nprocs == 1:
        pytest.skip("1-rank MPI scatter degenerates; covered by nprocs>=2")
    result = run_app(nn, protocol, nprocs, SMALL)
    assert result.verified


def test_uneven_sample_split():
    cfg = nn.NnConfig(n_samples=50, epochs=3, d_hidden=8, work_factor=1.0)
    result = run_app(nn, "vc_sd", 3, cfg)
    assert result.verified


def test_vopp_uses_rviews_for_weights():
    """Weight reads must be concurrent (acquire_Rview) — the §3.4 point."""
    from repro.net.message import MessageKind

    result = run_app(nn, "vc_sd", 4, SMALL)
    assert result.stats.acquires > 0
    assert result.stats.diff_requests == 0


def test_mpi_moves_least_data():
    """Table 9 shape at small scale: MPI transfers less than any DSM."""
    sd = run_app(nn, "vc_sd", 4, SMALL)
    mpi = run_app(nn, "mpi", 4, SMALL)
    assert mpi.stats.data_bytes < sd.stats.net.data_bytes


def test_n_weights_layout():
    cfg = nn.NnConfig(d_in=3, d_hidden=4, d_out=2)
    assert nn.n_weights(cfg) == 3 * 4 + 4 + 4 * 2 + 2
    w = np.arange(nn.n_weights(cfg), dtype=float)
    w1, b1, w2, b2 = nn._unpack(w, cfg)
    assert w1.shape == (3, 4) and b1.shape == (4,)
    assert w2.shape == (4, 2) and b2.shape == (2,)
    # unpack is a view decomposition covering every weight exactly once
    rebuilt = np.concatenate([w1.ravel(), b1, w2.ravel(), b2])
    assert np.array_equal(rebuilt, w)


@pytest.mark.parametrize(
    "field, value",
    [("epochs", 2.5), ("grad_views", True), ("d_hidden", 8.0), ("n_samples", "64")],
)
def test_config_refuses_a_count_that_is_not_an_int(field, value):
    """``epochs=2.5`` used to die mid-run and ``grad_views=True`` to run
    silently as one view; every integer field is checked when the config is
    built, naming the field."""
    with pytest.raises(ValueError, match=f"^{field} must be an int"):
        nn.NnConfig(**{field: value})
