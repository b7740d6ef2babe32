"""Unit tests for the simulator-local one-shot event."""

from repro.sim import Simulator, Timeout, Event


def test_event_wait_before_and_after_set():
    sim = Simulator()
    evt = Event(sim)
    out = []

    def early():
        out.append(("early", (yield evt.wait()), sim.now))

    def late():
        yield Timeout(5.0)
        out.append(("late", (yield evt.wait()), sim.now))

    def setter():
        yield Timeout(2.0)
        evt.set("v")

    sim.spawn(early())
    sim.spawn(late())
    sim.spawn(setter())
    sim.run()
    assert out == [("early", "v", 2.0), ("late", "v", 5.0)]


def test_event_set_is_idempotent():
    sim = Simulator()
    evt = Event(sim)
    evt.set(1)
    evt.set(2)
    out = []

    def proc():
        out.append((yield evt.wait()))

    sim.spawn(proc())
    sim.run()
    assert out == [1]
