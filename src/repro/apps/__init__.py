"""The paper's application suite.

Four applications (paper §3/§5), each with a sequential reference, a
*traditional* lock/barrier version (run on LRC_d) and a *VOPP* version (run
on VC_d / VC_sd), plus the extra variants the paper evaluates:

========  =====================================================================
IS        bucket-sort integer ranking; VOPP version with the same barriers and
          a "fewer barriers" variant (barrier moved out of the loop, §3.2)
Gauss     Gaussian elimination; VOPP version keeps infrequently-shared rows in
          local buffers (§3.1)
SOR       red-black successive over-relaxation; VOPP version uses local
          buffers plus dedicated border views (§3.3)
NN        back-propagation neural network training; VOPP version uses local
          buffers and acquire_Rview for the weight reads (§3.4), plus an MPI
          version (Table 9)
========  =====================================================================

Each module's ``PROGRAMS`` table maps (programming model, variant) to the
builder of that program; :func:`repro.apps.common.run_app` runs exactly
those.  Every parallel run is validated against the sequential reference.
"""

from repro.apps.common import AppConfig, AppResult, run_app
from repro.apps import is_sort, gauss, sor, nn

APPS = {
    "is": is_sort,
    "gauss": gauss,
    "sor": sor,
    "nn": nn,
}

__all__ = ["AppConfig", "AppResult", "run_app", "APPS", "is_sort", "gauss", "sor", "nn"]
