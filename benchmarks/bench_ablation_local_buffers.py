"""Ablation 5 (DESIGN.md §5) — local buffers for infrequently-shared data.

Gauss without the §3.1 local buffers updates its rows directly inside the
shared block view; every elimination step's release then ships the step's row
modifications through the view manager.

With the default manager placement the per-processor block views are managed
by their own node (release shipping is local and free), so this bench also
shifts every view manager one node over (``manager_offset=1``) to expose the
placement dependence: with remote managers the in-place variant pays the full
per-step shipping cost that local buffers avoid.
"""

from repro.apps import gauss
from repro.apps.common import program_builder
from benchmarks.conftest import attach, run_once

NPROCS = 16


def _run(variant: str, manager_offset: int):
    from repro.core.program import VoppSystem

    config = gauss.default_config()
    system = VoppSystem(NPROCS, protocol="vc_sd", manager_offset=manager_offset)
    system.run_program(program_builder(gauss, "vc_sd", variant)(system, config))
    assert gauss.outputs_match(system.app_output, gauss.sequential(config))
    return system.stats


def test_ablation_local_buffers(benchmark):
    def experiment():
        return {
            ("local buffers", 0): _run("default", 0),
            ("shared in place", 0): _run("no_local_buffers", 0),
            ("local buffers", 1): _run("default", 1),
            ("shared in place", 1): _run("no_local_buffers", 1),
        }

    stats = run_once(benchmark, experiment)
    lines = [f"Ablation: Gauss local buffers on VC_sd, {NPROCS}p (paper §3.1)"]
    lines.append(f"  {'variant':<18}{'managers':>10}{'data MB':>10}{'msgs':>10}{'time s':>10}")
    for (variant, off), s in stats.items():
        where = "owner" if off == 0 else "remote"
        lines.append(
            f"  {variant:<18}{where:>10}{s.net.data_bytes/1e6:>10.3f}"
            f"{s.net.num_msg:>10,}{s.time:>10.3f}"
        )
    attach(benchmark, "\n".join(lines), {
        "data_buf_remote": stats[("local buffers", 1)].net.data_bytes,
        "data_noloc_remote": stats[("shared in place", 1)].net.data_bytes,
    })

    # with remote managers, the in-place variant ships every step's diffs:
    # local buffers cut the data volume by a large factor ...
    assert (
        stats[("local buffers", 1)].net.data_bytes
        < stats[("shared in place", 1)].net.data_bytes / 3
    )
    # ... and the time
    assert stats[("local buffers", 1)].time < stats[("shared in place", 1)].time
    # with owner-local managers the in-place release shipping is free — the
    # placement itself is a design choice the bench documents
    ratio_local = (
        stats[("shared in place", 0)].net.data_bytes
        / stats[("local buffers", 0)].net.data_bytes
    )
    assert ratio_local < 2.0
