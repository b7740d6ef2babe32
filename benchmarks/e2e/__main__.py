"""``python -m benchmarks.e2e``: the full report (see run.py)."""

import sys

from benchmarks.e2e.run import main

sys.exit(main())
