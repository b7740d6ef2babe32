"""Documentation consistency: the docs reference things that exist."""

import re
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]


def test_required_documents_exist():
    for name in ("README.md", "DESIGN.md", "EXPERIMENTS.md", "LICENSE",
                 "docs/protocols.md", "docs/simulator.md",
                 "docs/observability.md", "docs/robustness.md"):
        assert (REPO / name).is_file(), name


def test_design_md_maps_every_table_to_an_existing_bench():
    text = (REPO / "DESIGN.md").read_text()
    benches = set(re.findall(r"benchmarks/(bench_\w+\.py)", text))
    assert len(benches) >= 9
    for bench in benches:
        assert (REPO / "benchmarks" / bench).is_file(), bench


def test_readme_bench_table_matches_files():
    text = (REPO / "README.md").read_text()
    for i in range(1, 10):
        assert f"bench_table{i}" in text, f"table {i} missing from README"
    for bench in re.findall(r"benchmarks/(bench_\w+\.py)", text):
        assert (REPO / "benchmarks" / bench).is_file(), bench


def test_every_paper_table_has_a_bench_file():
    names = {p.name for p in (REPO / "benchmarks").glob("bench_table*.py")}
    for i in range(1, 10):
        assert any(f"table{i}_" in n for n in names), f"no bench for table {i}"


def test_examples_referenced_in_readme_exist():
    text = (REPO / "README.md").read_text()
    for name in re.findall(r"(\w+\.py)", text):
        candidate = REPO / "examples" / name
        if "examples/" + name in text or name in (
            "quickstart.py",
            "protocol_comparison.py",
            "stencil_border_views.py",
            "vopp_vs_mpi.py",
            "view_tuning.py",
        ):
            assert candidate.is_file() or not name.startswith("example"), name
    for example in (REPO / "examples").glob("*.py"):
        assert example.name in text, f"{example.name} not mentioned in README"


def test_experiments_md_covers_all_tables_and_ablations():
    text = (REPO / "EXPERIMENTS.md").read_text()
    for i in range(1, 10):
        assert f"Table {i} " in text or f"Table {i} —" in text, i
    for ablation in (REPO / "benchmarks").glob("bench_ablation_*.py"):
        assert ablation.name in text, f"{ablation.name} not recorded in EXPERIMENTS.md"


def test_every_public_module_has_a_docstring():
    import importlib

    for module in (
        "repro", "repro.sim", "repro.net", "repro.memory", "repro.protocols",
        "repro.core", "repro.mpi", "repro.apps", "repro.bench",
        "repro.cli", "repro.obs",
        "repro.sim.engine", "repro.net.transport", "repro.memory.diff",
        "repro.protocols.lrc", "repro.protocols.hlrc", "repro.protocols.vc",
        "repro.protocols.vc_sd", "repro.core.vopp", "repro.core.shared_array",
        "repro.obs.tracer", "repro.obs.breakdown", "repro.obs.export",
        "repro.faults", "repro.faults.plan", "repro.faults.injector",
        "repro.faults.failure", "repro.bench.degradation",
    ):
        mod = importlib.import_module(module)
        assert mod.__doc__ and len(mod.__doc__.strip()) > 20, module
