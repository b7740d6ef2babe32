"""Each app's ``PROGRAMS`` table is the one statement of which programs it
has: ``run_app`` runs exactly its entries and refuses any other
(protocol, variant) before anything is simulated."""

import pytest

from repro.apps import APPS, common, gauss, is_sort, nn, sor
from repro.apps.common import program_builder, run_app
from repro.bench.sweep import SweepCell, run_sweep
from repro.core.program import MODELS

SMALL = {
    "is": is_sort.IsConfig(n_keys=1500, b_max=64, reps=2, bucket_views=4, work_factor=1.0),
    "gauss": gauss.GaussConfig(n=17, work_factor=1.0),
    "sor": sor.SorConfig(rows=20, cols=16, iterations=2, work_factor=1.0),
    "nn": nn.NnConfig(n_samples=48, epochs=3, d_hidden=8, work_factor=1.0),
}
# every protocol of every model, so each entry runs under each protocol once
ENTRIES = [
    (app, protocol, variant)
    for app, module in APPS.items()
    for model, variant in module.PROGRAMS
    for protocol, of in MODELS.items() if of == model
]


def test_the_tables_name_the_papers_programs():
    assert {app: sorted(module.PROGRAMS) for app, module in APPS.items()} == {
        "is": [("traditional", "default"), ("vopp", "default"), ("vopp", "lb")],
        "gauss": [("traditional", "default"), ("vopp", "default"),
                  ("vopp", "no_local_buffers")],
        "sor": [("traditional", "default"), ("vopp", "default")],
        "nn": [("mpi", "default"), ("traditional", "default"), ("vopp", "default"),
               ("vopp", "no_rview")],
    }


@pytest.mark.parametrize("app,protocol,variant", ENTRIES)
def test_every_program_runs_verified(app, protocol, variant):
    result = run_app(APPS[app], protocol, 3, SMALL[app], variant=variant)
    assert result.verified and result.events > 0


@pytest.fixture
def nothing_is_built(monkeypatch):
    """Fail the test if a refused run gets as far as building a system."""
    def make_system(*args, **kwargs):
        raise AssertionError("a refused run built a system")

    monkeypatch.setattr(common, "make_system", make_system)


@pytest.mark.parametrize("app,protocol,variant,message", [
    ("is", "vc_sd", "bogus", r"^is has no vopp variant 'bogus' \(its vopp variants: default, lb\)$"),
    ("is", "lrc_d", "lb", r"^is has no traditional variant 'lb' \(its traditional variants: default\)$"),
    ("sor", "vc_d", "no_rview", r"^sor has no vopp variant 'no_rview' \(its vopp variants: default\)$"),
    ("nn", "mpi", "no_rview", r"^nn has no mpi variant 'no_rview' \(its mpi variants: default\)$"),
    ("gauss", "mpi", "default", r"^gauss has no MPI version \(only nn does\)$"),
    ("sor", "tmk", "default", r"^unknown protocol 'tmk'"),
])
def test_a_pair_without_a_program_is_refused_before_anything_is_built(
        app, protocol, variant, message, nothing_is_built):
    with pytest.raises(ValueError, match=message):
        run_app(APPS[app], protocol, 4, variant=variant)
    with pytest.raises(ValueError, match=message):
        program_builder(APPS[app], protocol, variant)


def test_a_sweep_cell_with_a_misspelt_variant_is_refused(tmp_path):
    with pytest.raises(ValueError, match="is has no vopp variant 'fewer'"):
        run_sweep([SweepCell("is", "vc_sd", 2, variant="fewer")], cache_dir=str(tmp_path))
    assert not any(tmp_path.rglob("*.pkl"))
