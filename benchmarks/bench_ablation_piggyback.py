"""Ablation 3 (DESIGN.md §5) — diff piggybacking in VC_sd.

With piggybacking disabled, view grants carry only write notices; the
acquirer invalidates and pulls diffs from the writers — re-introducing
exactly the request/reply round trips VC_sd removes (the grants degrade to
the VC_d invalidate protocol).
"""

from repro.apps import is_sort
from repro.apps.common import program_builder
from benchmarks.conftest import attach, run_once

NPROCS = 16


def _run(piggyback: bool):
    from repro.core.program import make_system

    system = make_system(NPROCS, "vc_sd")
    for proto in system.protocols:
        proto.piggyback_enabled = piggyback
    config = is_sort.default_config()
    system.run_program(program_builder(is_sort, "vc_sd")(system, config))
    assert is_sort.outputs_match(system.app_output, is_sort.sequential(config))
    return system.stats


def test_ablation_piggyback(benchmark):
    def experiment():
        return _run(True), _run(False)

    with_pb, without_pb = run_once(benchmark, experiment)
    table = (
        "Ablation: diff piggybacking (IS, VC_sd, 16p)\n"
        f"  piggyback on : diff requests {with_pb.diff_requests:,}, "
        f"msgs {with_pb.net.num_msg:,}, time {with_pb.time:.3f} s\n"
        f"  piggyback off: diff requests {without_pb.diff_requests:,}, "
        f"msgs {without_pb.net.num_msg:,}, time {without_pb.time:.3f} s"
    )
    attach(benchmark, table, {"diffreq_off": without_pb.diff_requests})

    # piggybacking is what makes "Diff Requests = 0"
    assert with_pb.diff_requests == 0
    assert without_pb.diff_requests > 0
    # request/reply round trips inflate the message count and the runtime
    assert without_pb.net.num_msg > with_pb.net.num_msg
    assert without_pb.time > with_pb.time
