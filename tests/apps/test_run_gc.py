"""The cycle collector is paused for the length of a run — and only for that.

``run_app`` drives the simulation with ``gc`` disabled (a run's heap is
acyclic; generational collections re-walk it and free nothing), restores the
collector to the state it found on every way out, and releases the previous
run's cyclic cluster/system graph before the next run allocates.
"""

import gc
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from repro.apps import APPS, is_sort
from repro.apps.common import run_app
from repro.faults import Episode, FaultPlan, RunAborted
from repro.net.cluster import Node
from repro.net.message import MessageKind

SRC = Path(__file__).resolve().parents[2] / "src"
SMALL_IS = is_sort.IsConfig(n_keys=1500, b_max=64, reps=2, bucket_views=4,
                            work_factor=1.0)


@pytest.fixture
def handler_probe(monkeypatch):
    """Every protocol handler, generator or plain, records its kind and
    ``gc.isenabled()`` when it starts."""
    seen = []
    register = Node.register_handler

    def probing(self, kind, handler, cost=None):
        def probed(msg):
            seen.append((kind, gc.isenabled()))
            return handler(msg)

        register(self, kind, probed, cost)

    monkeypatch.setattr(Node, "register_handler", probing)
    return seen


@pytest.fixture(params=[True, False], ids=["entered-enabled", "entered-disabled"])
def gc_state(request):
    was = gc.isenabled()
    (gc.enable if request.param else gc.disable)()
    yield request.param
    (gc.enable if was else gc.disable)()


@pytest.mark.parametrize("protocol", ["vc_d", "mpi"])
def test_gc_is_paused_inside_handlers_and_restored_after(handler_probe, gc_state, protocol):
    app = is_sort if protocol != "mpi" else APPS["nn"]
    config = SMALL_IS if protocol != "mpi" else None
    result = run_app(app, protocol, 4, config)
    assert result.verified
    hot = MessageKind.DIFF_REQUEST if protocol != "mpi" else MessageKind.MPI_DATA
    assert (hot, False) in handler_probe and not any(on for _, on in handler_probe)
    assert gc.isenabled() is gc_state


def test_gc_is_restored_when_the_run_aborts(handler_probe, gc_state):
    plan = FaultPlan((Episode(kind="crash", node=1, start=0.005),))
    with pytest.raises(RunAborted):
        run_app(is_sort, "vc_sd", 4, SMALL_IS, faults=plan)
    assert handler_probe and not any(on for _, on in handler_probe)
    assert gc.isenabled() is gc_state


def test_gc_is_restored_when_the_run_dies_of_a_bug(gc_state, monkeypatch):
    def broken(self, msg):
        raise ZeroDivisionError("a genuine bug, not a fault outcome")

    monkeypatch.setattr(Node, "_on_frame", broken)
    with pytest.raises(Exception) as excinfo:
        run_app(is_sort, "vc_sd", 4, SMALL_IS)
    assert not isinstance(excinfo.value, RunAborted)
    assert gc.isenabled() is gc_state


def test_back_to_back_runs_do_not_accumulate():
    """A finished run is one big reference cycle; with the collector paused
    during runs nothing would ever free it.  Four runs of one cell in one
    interpreter, no explicit collect: the peak RSS after the fourth is the
    peak after the first (it is 1.5x without the release in run_app)."""
    script = textwrap.dedent("""
        import resource
        from repro.apps import APPS
        from repro.apps.common import run_app
        peaks = []
        for _ in range(4):
            run_app(APPS["sor"], "lrc_d", 8)
            peaks.append(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
        print(*peaks)
    """)
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run([sys.executable, "-c", script], env=env, check=True,
                         capture_output=True, text=True, timeout=120).stdout
    peaks = [int(x) for x in out.split()]
    assert len(peaks) == 4
    assert peaks[3] <= 1.1 * peaks[0], peaks
