"""Table 4 — Statistics of Gauss on 16 processors.

Paper findings: the VOPP version's local buffers (§3.1) remove the false
sharing of the packed shared matrix, so VC_d needs far fewer diff requests
than LRC_d, and the data volume / message count collapse accordingly.
"""

from repro.bench.experiments import TABLES
from benchmarks.conftest import attach, run_once

SPEC = TABLES[4]


def test_table4_gauss_stats(benchmark):
    results = run_once(benchmark, SPEC.run)
    lrc, vc_d, vc_sd = results["LRC_d"].stats, results["VC_d"].stats, results["VC_sd"].stats

    attach(benchmark, SPEC.render(results), {"lrc_time": lrc.time, "vc_sd_time": vc_sd.time})

    assert all(r.verified for r in results.values())
    # false sharing: LRC_d issues many times VC_d's diff requests
    assert lrc.diff_requests > 5 * vc_d.diff_requests
    # work for consistency maintenance greatly reduced (data and messages)
    assert vc_d.net.data_bytes < lrc.net.data_bytes / 4
    assert vc_d.net.num_msg < lrc.net.num_msg
    # both VC implementations beat LRC_d outright
    assert vc_d.time < lrc.time
    assert vc_sd.time < lrc.time
    # VC_sd needs no diff requests at all
    assert vc_sd.diff_requests == 0
