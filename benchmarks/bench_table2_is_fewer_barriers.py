"""Table 2 — Statistics of IS with fewer barriers on 16 processors.

The §3.2 optimisation: in VOPP the in-loop barrier only provided access
exclusion, which views already guarantee, so it moves outside the loop.
Paper finding: the fewer-barrier version is significantly faster; acquires
stay the same; VC_sd still needs zero diff requests.
"""

from repro.apps import is_sort
from repro.bench import stats_experiment
from repro.bench.experiments import TABLES
from repro.bench.runner import Entry
from benchmarks.conftest import attach, run_once

SPEC = TABLES[2]


def test_table2_is_fewer_barriers(benchmark):
    def experiment():
        full = stats_experiment(
            is_sort, entries=(Entry("VC_sd (40 barriers)", "vc_sd"),)
        )
        return SPEC.run(), full

    lb, full = run_once(benchmark, experiment)
    attach(benchmark, SPEC.render(lb), {"vc_sd_lb_time": lb["VC_sd"].stats.time})

    assert all(r.verified for r in lb.values())
    # the barrier count collapsed (paper: 40 -> a handful)
    assert lb["VC_sd"].stats.barriers < full["VC_sd (40 barriers)"].stats.barriers / 5
    # fewer barriers is faster (the paper: "significantly faster")
    assert lb["VC_sd"].stats.time < full["VC_sd (40 barriers)"].stats.time
    # same acquires as the 40-barrier version (views unchanged)
    assert lb["VC_sd"].stats.acquires == full["VC_sd (40 barriers)"].stats.acquires
    # VC_sd still: no diff requests, fewer msgs than VC_d
    assert lb["VC_sd"].stats.diff_requests == 0
    assert lb["VC_sd"].stats.net.num_msg < lb["VC_d"].stats.net.num_msg
