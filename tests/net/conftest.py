"""The one loss seam for network tests: a scripted stand-in for the injector.

``script_transfers`` installs, as ``sim.faults``, an object speaking the hook
protocol :class:`repro.faults.FaultInjector` speaks to the network and CPU
layers — ``transfer_level``/``duplicating``/``on_transfer`` plus the three
factor hooks — so
a test that drops or duplicates chosen frames drives the same departure path
a real fault plan does (see :class:`repro.net.nic.Switch`).
"""

DELIVER = (0.0, None)  # on_transfer verdict: no extra delay, no duplicate
DUPLICATE = (0.0, 0.0)  # ... and a second copy arriving at the same instant


class ScriptedTransfers:
    """``verdict(msg)`` decides every frame: ``None`` drops it, otherwise
    ``(extra_delay, duplicate_delay_or_None)`` as ``on_transfer`` returns.
    ``bandwidth(node, t)``, if given, scripts the wire-time factor."""

    transfer_level = True
    duplicating = True  # a verdict may duplicate any frame

    def __init__(self, verdict, bandwidth=None):
        self.on_transfer = verdict
        if bandwidth is not None:
            self.bandwidth_factor = bandwidth

    def buffer_factor(self, node):
        return 1.0

    def bandwidth_factor(self, node, t):
        return 1.0

    def compute_seconds(self, node, seconds):
        return seconds


def script_transfers(cluster, verdict, bandwidth=None) -> None:
    cluster.sim.faults = ScriptedTransfers(verdict, bandwidth)


def drop_frames(cluster, pred, count=None) -> list:
    """Drop (the first ``count``) frames matching ``pred``; returns the live
    list of dropped messages."""
    dropped = []

    def verdict(msg):
        if pred(msg) and (count is None or len(dropped) < count):
            dropped.append(msg)
            return None
        return DELIVER

    script_transfers(cluster, verdict)
    return dropped
