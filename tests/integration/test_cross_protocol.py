"""Cross-cutting integration tests: determinism, loss injection, protocol
equivalence on whole applications."""

import numpy as np
import pytest

from repro.apps import gauss, is_sort, nn, sor
from repro.apps.common import run_app
from repro.faults import Episode, FaultPlan
from repro.net.config import NetConfig

IS_SMALL = is_sort.IsConfig(n_keys=1500, b_max=64, reps=3, bucket_views=4, work_factor=1.0)
SOR_SMALL = sor.SorConfig(rows=24, cols=16, iterations=2, work_factor=1.0)


def _loss(drop_prob, seed):
    """A plan dropping every switch transfer with ``drop_prob``."""
    return FaultPlan((Episode(kind="loss", drop_prob=drop_prob),), seed=seed)


def test_runs_are_bit_deterministic():
    """Two identical runs produce identical statistics AND timing."""

    def once():
        r = run_app(is_sort, "lrc_d", 6, IS_SMALL)
        return (r.time, r.stats.table_row(), tuple(r.output["ranks"]))

    assert once() == once()


@pytest.mark.parametrize("protocol", ["vc_d", "vc_sd"])
def test_runstats_identical_for_same_seed(protocol):
    """The full RunStats row — the sweep's row fingerprint — is replayable."""

    def row():
        r = run_app(is_sort, protocol, 6, IS_SMALL)
        return (r.stats.table_row(), r.events)

    assert row() == row()


def test_determinism_across_protocols_output_only():
    """All protocols compute the same (correct) answer."""
    outs = {
        proto: run_app(is_sort, proto, 4, IS_SMALL).output for proto in ("lrc_d", "vc_d", "vc_sd")
    }
    ref = is_sort.sequential(IS_SMALL)
    for proto, out in outs.items():
        assert np.array_equal(out["ranks"], ref["ranks"]), proto


@pytest.mark.parametrize("protocol", ["lrc_d", "vc_d", "vc_sd"])
def test_correct_under_injected_random_loss(protocol):
    """With seeded 2% uniform loss, reliable transport hides every drop and
    the application result stays bit-correct."""
    result = run_app(is_sort, protocol, 4, IS_SMALL, netcfg=NetConfig(rexmit_timeout=0.1),
                     faults=_loss(0.02, seed=99))
    assert result.verified
    assert result.stats.net.drops > 0  # the loss actually happened
    assert result.stats.net.rexmit > 0


def test_correct_under_heavy_loss():
    result = run_app(sor, "vc_sd", 3, SOR_SMALL, netcfg=NetConfig(rexmit_timeout=0.05),
                     faults=_loss(0.15, seed=5))
    assert result.verified


def test_loss_seed_changes_timing_but_not_output():
    base = None
    for seed in (1, 2):
        r = run_app(is_sort, "vc_sd", 4, IS_SMALL, netcfg=NetConfig(rexmit_timeout=0.1),
                    faults=_loss(0.05, seed=seed))
        assert r.verified
        if base is None:
            base = r.output
        else:
            assert np.array_equal(r.output["ranks"], base["ranks"])


def test_manager_offset_preserves_correctness():
    """Remote view managers change traffic, never results."""
    from repro.core.program import VoppSystem

    for offset in (0, 1, 3):
        system = VoppSystem(4, protocol="vc_sd", manager_offset=offset)
        body = is_sort.build(system, IS_SMALL)
        system.run_program(body)
        out = is_sort.extract(system, IS_SMALL)
        assert is_sort.outputs_match(out, is_sort.sequential(IS_SMALL))


def test_gauss_no_local_buffers_variant_correct():
    cfg = gauss.GaussConfig(n=20, work_factor=1.0)
    result = run_app(gauss, "vc_sd", 3, cfg, variant="no_local_buffers")
    assert result.verified


def test_nn_no_rview_variant_correct():
    cfg = nn.NnConfig(n_samples=48, epochs=3, d_hidden=6, work_factor=1.0)
    result = run_app(nn, "vc_sd", 3, cfg, variant="no_rview")
    assert result.verified


def test_all_apps_at_odd_processor_counts():
    """Nothing assumes power-of-two clusters."""
    assert run_app(is_sort, "vc_sd", 5, IS_SMALL).verified
    assert run_app(sor, "vc_sd", 5, SOR_SMALL).verified
    assert run_app(gauss, "vc_sd", 5, gauss.GaussConfig(n=16, work_factor=1.0)).verified


def test_two_sequential_programs_on_one_system():
    """A system can run several program phases back to back."""
    from repro.core import VoppSystem

    system = VoppSystem(3)
    arr = system.alloc_array("a", 3, dtype="int64", page_aligned=True)

    def phase1(rt):
        if rt.rank == 0:
            yield from rt.acquire_view(0)
            yield from arr.write(rt, 0, [1, 2, 3])
            yield from rt.release_view(0)
        yield from rt.barrier()

    def phase2(rt):
        yield from rt.acquire_Rview(0)
        out = yield from arr.read(rt)
        yield from rt.release_Rview(0)
        yield from rt.barrier()
        return list(out)

    system.run_program(phase1)
    results = system.run_program(phase2)
    assert results == [[1, 2, 3]] * 3
