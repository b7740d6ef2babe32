"""Host-time benchmark of the simulator: six workloads, three end-to-end
metrics, a per-layer ledger.  See README.md; entry point is ``run.py``."""
