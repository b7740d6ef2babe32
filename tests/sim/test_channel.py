"""Unit tests for simulator channels."""

from repro.sim import Simulator, Timeout, Channel


def test_put_then_get():
    sim = Simulator()
    chan = Channel(sim)
    out = []

    def consumer():
        out.append((yield chan.get()))

    chan.put("x")
    sim.spawn(consumer())
    sim.run()
    assert out == ["x"]


def test_get_blocks_until_put():
    sim = Simulator()
    chan = Channel(sim)
    out = []

    def consumer():
        out.append(((yield chan.get()), sim.now))

    def producer():
        yield Timeout(3.0)
        chan.put(99)

    sim.spawn(consumer())
    sim.spawn(producer())
    sim.run()
    assert out == [(99, 3.0)]


def test_fifo_ordering_of_items():
    sim = Simulator()
    chan = Channel(sim)
    out = []

    def consumer():
        for _ in range(3):
            out.append((yield chan.get()))

    for i in range(3):
        chan.put(i)
    sim.spawn(consumer())
    sim.run()
    assert out == [0, 1, 2]


def test_fifo_ordering_of_getters():
    sim = Simulator()
    chan = Channel(sim)
    out = []

    def consumer(tag):
        out.append((tag, (yield chan.get())))

    sim.spawn(consumer("a"))
    sim.spawn(consumer("b"))

    def producer():
        yield Timeout(1.0)
        chan.put(1)
        chan.put(2)

    sim.spawn(producer())
    sim.run()
    assert out == [("a", 1), ("b", 2)]
