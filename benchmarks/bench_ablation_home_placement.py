"""Extension ablation — HLRC home placement (first-touch vs round-robin).

Home assignment is the classic knob of home-based protocols.  Two honest,
opposite findings on our workloads:

* **Gauss**: rank 0 initialises the whole matrix, so first-touch makes node 0
  home of everything — every processor's per-step diffs converge there.
  Round-robin spreads the push/fetch load and wins.
* **IS**: each processor first-touches its own partial-histogram pages, so
  first-touch already co-locates homes with the writers (pushes are free);
  round-robin *moves homes away* from the writers and loses.

Placement must follow the write pattern — which is exactly the information
VOPP's views hand to the system for free.
"""

from repro.apps import gauss, is_sort
from repro.apps.common import program_builder
from benchmarks.conftest import attach, run_once

NPROCS = 16


def _run(app, policy: str):
    from repro.core.program import make_system

    config = app.default_config()
    system = make_system(NPROCS, "hlrc_d")
    for proto in system.protocols:
        proto.home_policy = policy
    system.run_program(program_builder(app, "hlrc_d")(system, config))
    assert app.outputs_match(system.app_output, app.sequential(config))
    return system.stats


def test_ablation_home_placement(benchmark):
    def experiment():
        return {
            ("gauss", "first_touch"): _run(gauss, "first_touch"),
            ("gauss", "round_robin"): _run(gauss, "round_robin"),
            ("is", "first_touch"): _run(is_sort, "first_touch"),
            ("is", "round_robin"): _run(is_sort, "round_robin"),
        }

    stats = run_once(benchmark, experiment)
    lines = [f"Ablation: HLRC home placement, {NPROCS}p"]
    lines.append(f"  {'app':<8}{'policy':<14}{'time s':>8}{'msgs':>10}{'data MB':>10}{'rexmit':>8}")
    for (app, policy), s in stats.items():
        lines.append(
            f"  {app:<8}{policy:<14}{s.time:>8.2f}{s.net.num_msg:>10,}"
            f"{s.net.data_bytes/1e6:>10.2f}{s.net.rexmit:>8}"
        )
    attach(benchmark, "\n".join(lines), {
        f"{app}_{policy}": s.time for (app, policy), s in stats.items()
    })

    # Gauss: master-initialised data makes first-touch a node-0 hotspot;
    # spreading the homes wins
    assert stats[("gauss", "round_robin")].time < stats[("gauss", "first_touch")].time
    # IS: writers already own their pages; moving homes away cannot help
    assert stats[("is", "first_touch")].time <= stats[("is", "round_robin")].time * 1.1
