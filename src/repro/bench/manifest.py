"""Common run-manifest block embedded in every BENCH report.

Every benchmark writer (``sweep``, ``degradation``) stamps
its JSON document with a ``"manifest"`` object so a BENCH file is
self-describing: which host/python/git revision produced it, a hash of the
resolved configuration, and the run's wall/RSS cost.  ``python -m repro
report`` reads these blocks to label its revision columns.

The manifest never participates in the simulated fingerprints — those hash
only ``table_row()`` — so adding it to a writer cannot change any committed
fingerprint.

Schema (``MANIFEST_SCHEMA = 1``)::

    {
      "schema": 1,
      "host": {"system": "Linux", "machine": "x86_64", "cpus": 8},
      "python": "3.11.7",
      "git_rev": "abc1234..." | null,
      "config_hash": "16-hex-digest" | null,
      "wall_seconds": 12.34 | null,
      "peak_rss_kb": 123456 | null
    }

Files written before this block existed are *schema 0*:
``repro.obs.report.load_report`` backfills ``{"schema": 0}`` with a warning
so historical ``git:REV`` specs keep working.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import subprocess
from typing import Any, Optional

__all__ = ["MANIFEST_SCHEMA", "run_manifest", "config_hash", "git"]

#: current manifest schema version; bump on incompatible layout changes
MANIFEST_SCHEMA = 1


def config_hash(config: Any) -> str:
    """Stable 16-hex digest of a resolved configuration object.

    Accepts anything: dataclass-like objects hash their ``repr`` via the
    ``default=repr`` fallback, dicts/lists hash their sorted JSON form.
    Equal configurations hash equal; that is the only contract.
    """
    blob = json.dumps(config, sort_keys=True, default=repr)
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def git(*args: str, **run_kwargs) -> subprocess.CompletedProcess:
    """Run ``git ARGS`` in the checkout that holds this ``repro`` package,
    whatever the caller's cwd, and capture its output."""
    return subprocess.run(
        ["git", *args], capture_output=True,
        cwd=os.path.dirname(os.path.abspath(__file__)), **run_kwargs,
    )


def _git_rev() -> Optional[str]:
    try:
        proc = git("rev-parse", "HEAD", text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):  # pragma: no cover - no git
        return None
    rev = proc.stdout.strip()
    return rev if proc.returncode == 0 and rev else None


def run_manifest(config: Any = None, wall_seconds: Optional[float] = None,
                 peak_rss_kb: Optional[int] = None) -> dict:
    """Build the manifest block for one benchmark run.

    ``config`` is the writer's resolved configuration (hashed, not stored);
    ``wall_seconds``/``peak_rss_kb`` are the run's own measured cost when
    the writer tracks them (``None`` otherwise).
    """
    if peak_rss_kb is None:
        try:
            import resource

            peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        except Exception:  # pragma: no cover - non-POSIX
            peak_rss_kb = None
    return {
        "schema": MANIFEST_SCHEMA,
        "host": {
            "system": platform.system(),
            "machine": platform.machine(),
            "cpus": os.cpu_count(),
        },
        "python": platform.python_version(),
        "git_rev": _git_rev(),
        "config_hash": config_hash(config) if config is not None else None,
        "wall_seconds": round(wall_seconds, 4) if wall_seconds is not None else None,
        "peak_rss_kb": peak_rss_kb,
    }
