"""Ablation 2 (DESIGN.md §5) — diff integration in VC_sd.

With integration disabled, each release ships its raw per-interval diffs and
grants carry one diff per missed release instead of a single merged diff, so
the data volume climbs back toward VC_d's.  IS — whose bucket views are
rewritten whole by every holder — shows the effect most clearly.
"""

from repro.apps import is_sort
from repro.apps.common import program_builder
from benchmarks.conftest import attach, run_once

NPROCS = 16


def _run(integration: bool):
    from repro.core.program import make_system

    system = make_system(NPROCS, "vc_sd")
    for proto in system.protocols:
        proto.integration_enabled = integration
    config = is_sort.default_config()
    system.run_program(program_builder(is_sort, "vc_sd")(system, config))
    assert is_sort.outputs_match(system.app_output, is_sort.sequential(config))
    return system.stats


def test_ablation_diff_integration(benchmark):
    def experiment():
        return _run(True), _run(False)

    with_int, without_int = run_once(benchmark, experiment)
    table = (
        "Ablation: diff integration (IS, VC_sd, 16p)\n"
        f"  integration on : data {with_int.net.data_bytes/1e6:8.3f} MB, "
        f"msgs {with_int.net.num_msg:,}, time {with_int.time:.3f} s\n"
        f"  integration off: data {without_int.net.data_bytes/1e6:8.3f} MB, "
        f"msgs {without_int.net.num_msg:,}, time {without_int.time:.3f} s"
    )
    attach(benchmark, table, {"data_on": with_int.net.data_bytes, "data_off": without_int.net.data_bytes})

    # integration strictly reduces grant data
    assert with_int.net.data_bytes < without_int.net.data_bytes
    assert with_int.time <= without_int.time * 1.05
    # neither variant falls back to diff requests
    assert with_int.diff_requests == without_int.diff_requests == 0
