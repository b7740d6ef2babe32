"""Tests for the simulated MPI library."""

import numpy as np
import pytest

from repro.mpi import MpiSystem


@pytest.mark.parametrize("n", [2, 3, 4, 7, 8])
def test_send_recv_ring(n):
    system = MpiSystem(n)

    def body(comm):
        data = np.array([comm.rank], dtype=np.int64)
        dest = (comm.rank + 1) % comm.size
        src = (comm.rank - 1) % comm.size
        yield from comm.send(data, dest, tag=1)
        got = yield from comm.recv(src, tag=1)
        return int(got[0])

    results = system.run_program(body)
    assert results == [(r - 1) % n for r in range(n)]


def test_tag_matching():
    system = MpiSystem(2)

    def body(comm):
        if comm.rank == 0:
            yield from comm.send(np.array([1]), 1, tag=10)
            yield from comm.send(np.array([2]), 1, tag=20)
            return None
        # receive out of order by tag
        b = yield from comm.recv(0, tag=20)
        a = yield from comm.recv(0, tag=10)
        return (int(a[0]), int(b[0]))

    assert system.run_program(body)[1] == (1, 2)


@pytest.mark.parametrize("n", [1, 2, 3, 5, 8])
def test_bcast(n):
    system = MpiSystem(n)

    def body(comm):
        data = np.arange(10) if comm.rank == 0 else None
        data = yield from comm.bcast(data, root=0)
        return list(data)

    for r in system.run_program(body):
        assert r == list(range(10))


@pytest.mark.parametrize("root", [0, 2])
def test_bcast_nonzero_root(root):
    system = MpiSystem(4)

    def body(comm):
        data = np.array([99]) if comm.rank == root else None
        data = yield from comm.bcast(data, root=root)
        return int(data[0])

    assert system.run_program(body) == [99] * 4


@pytest.mark.parametrize("n", [1, 2, 4, 6])
def test_reduce_sum(n):
    system = MpiSystem(n)

    def body(comm):
        data = np.full(3, comm.rank + 1, dtype=np.int64)
        result = yield from comm.reduce(data, op=np.add, root=0)
        return None if result is None else list(result)

    results = system.run_program(body)
    total = sum(range(1, n + 1))
    assert results[0] == [total] * 3
    assert all(r is None for r in results[1:])


@pytest.mark.parametrize("n", [1, 2, 3, 8])
def test_allreduce(n):
    system = MpiSystem(n)

    def body(comm):
        data = np.array([comm.rank], dtype=np.int64)
        result = yield from comm.allreduce(data, op=np.add)
        return int(result[0])

    assert system.run_program(body) == [sum(range(n))] * n


def test_reduce_max():
    system = MpiSystem(5)

    def body(comm):
        data = np.array([comm.rank * 7 % 5], dtype=np.int64)
        result = yield from comm.allreduce(data, op=np.maximum)
        return int(result[0])

    expected = max(r * 7 % 5 for r in range(5))
    assert system.run_program(body) == [expected] * 5


def test_gather_and_allgather():
    system = MpiSystem(4)

    def body(comm):
        data = np.array([comm.rank * 10], dtype=np.int64)
        gathered = yield from comm.gather(data, root=0)
        everyone = yield from comm.allgather(data)
        g = None if gathered is None else [int(x[0]) for x in gathered]
        return (g, [int(x[0]) for x in everyone])

    results = system.run_program(body)
    assert results[0][0] == [0, 10, 20, 30]
    for g, e in results[1:]:
        assert g is None
    for _, e in results:
        assert e == [0, 10, 20, 30]


def test_scatter():
    system = MpiSystem(3)

    def body(comm):
        chunks = None
        if comm.rank == 0:
            chunks = [np.array([i * 5]) for i in range(3)]
        mine = yield from comm.scatter(chunks, root=0)
        return int(mine[0])

    assert system.run_program(body) == [0, 5, 10]


def test_barrier_synchronises():
    system = MpiSystem(3)
    exits = {}

    def body(comm):
        yield from comm.compute(comm.rank * 1.0)  # staggered arrivals
        yield from comm.barrier()
        exits[comm.rank] = comm.node.sim.now

    system.run_program(body)
    # nobody exits before the slowest arrival
    assert min(exits.values()) >= 2.0


def test_self_send_rejected():
    system = MpiSystem(2)

    def body(comm):
        if comm.rank == 0:
            with pytest.raises(ValueError):
                yield from comm.send(np.zeros(1), 0)
        yield from comm.barrier()

    system.run_program(body)


@pytest.mark.parametrize("source", [0, -1, 2])
def test_recv_from_self_or_outside_the_communicator_rejected(source):
    """Such a recv could never be matched: it fails up front instead of
    parking until the run ends with "workers never finished"."""
    system = MpiSystem(2)

    def body(comm):
        if comm.rank == 0:
            with pytest.raises(ValueError):
                yield from comm.recv(source)
        yield from comm.barrier()

    system.run_program(body)


@pytest.mark.parametrize("dest", [0, -1, 2, 5])
def test_send_to_self_or_outside_the_communicator_rejected(dest):
    """Such a send has no receiver (the switch has no port for it): it fails
    up front, before the message is counted."""
    system = MpiSystem(2)

    def body(comm):
        if comm.rank == 0:
            counted = system.stats.num_msg
            with pytest.raises(ValueError, match=f"cannot send to {dest}: not another rank of 2"):
                yield from comm.send(1, dest, size=8)
            assert system.stats.num_msg == counted
        yield from comm.barrier()

    system.run_program(body)


def test_unsizeable_payload_rejected():
    system = MpiSystem(2)

    def body(comm):
        if comm.rank == 0:
            with pytest.raises(TypeError):
                yield from comm.send({"a": 1}, 1)
            yield from comm.send({"a": 1}, 1, size=64)  # explicit size is fine
            return None
        got = yield from comm.recv(0)
        return got

    assert system.run_program(body)[1] == {"a": 1}


def test_message_bytes_accounted():
    system = MpiSystem(2)

    def body(comm):
        if comm.rank == 0:
            yield from comm.send(np.zeros(1000, dtype=np.float64), 1)
            return None
        return (yield from comm.recv(0))

    system.run_program(body)
    assert system.stats.data_bytes == 8000 + 16  # payload + MPI header
