"""DSM consistency protocols.

Four protocol implementations: the paper's three systems and one extension:

* :class:`repro.protocols.lrc.LrcProtocol` — **LRC_d**: diff-based Lazy
  Release Consistency as in TreadMarks (invalidate protocol, write notices,
  vector timestamps, diff requests on page faults, *consistency-maintaining
  centralised barriers*).
* :class:`repro.protocols.vc.VcProtocol` — **VC_d**: View-based Consistency
  built from the same machinery (views detected dynamically, consistency
  maintenance distributed through view acquire/release, synchronisation-only
  barriers; diff requests still happen on faults).
* :class:`repro.protocols.vc_sd.VcSdProtocol` — **VC_sd**: the optimal VC
  implementation with *diff integration* (one merged diff per page) and
  *diff piggybacking* on the view-grant message (zero diff requests).
* :class:`repro.protocols.hlrc.HlrcProtocol` — **HLRC_d**: home-based LRC,
  beyond the paper (writers push diffs eagerly to each page's home; a fault
  fetches the whole page from the home in one round trip).

All four share the interval/timestamp machinery (:mod:`.timestamps`), the
fault-handling base (:mod:`.base`) and the shared page and view metadata
(:mod:`.directory`).
"""

from repro.protocols.timestamps import VectorClock, IntervalNotice
from repro.protocols.directory import PageDirectory
from repro.protocols.base import BaseDsmProtocol, VoppDisciplineError, ViewOverlapError
from repro.protocols.lrc import LrcProtocol
from repro.protocols.hlrc import HlrcProtocol
from repro.protocols.vc import VcProtocol
from repro.protocols.vc_sd import VcSdProtocol
from repro.protocols.runstats import RunStats
from repro.protocols.system import DsmSystem

PROTOCOLS = {
    "lrc_d": LrcProtocol,
    "hlrc_d": HlrcProtocol,
    "vc_d": VcProtocol,
    "vc_sd": VcSdProtocol,
}

__all__ = [
    "RunStats",
    "DsmSystem",
    "VectorClock",
    "IntervalNotice",
    "PageDirectory",
    "BaseDsmProtocol",
    "VoppDisciplineError",
    "ViewOverlapError",
    "LrcProtocol",
    "HlrcProtocol",
    "VcProtocol",
    "VcSdProtocol",
    "PROTOCOLS",
]
