"""In-memory span log: ``(name, start, end, parent, workload, rep)``.

Times are ``time.perf_counter`` readings (CLOCK_MONOTONIC on Linux, shared by
every process of the host), so a child's spans sit on the harness's clock
without translation.  Kept in memory; ``run.py`` writes them out at exit.
"""

from __future__ import annotations

import os
import time
from contextlib import contextmanager
from typing import Optional


class Spans:
    def __init__(self, workload: str, root: Optional[str] = None):
        self.workload = workload
        self.rows: list[dict] = []
        self._stack = [root]

    @contextmanager
    def span(self, name: str, rep: Optional[int] = None):
        row = {
            "id": f"{os.getpid()}:{len(self.rows)}",
            "name": name,
            "start": time.perf_counter(),
            "end": None,
            "parent": self._stack[-1],
            "workload": self.workload,
            "rep": rep,
        }
        self.rows.append(row)
        self._stack.append(row["id"])
        try:
            yield row
        finally:
            self._stack.pop()
            row["end"] = time.perf_counter()
