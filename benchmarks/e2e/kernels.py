"""Kernels: fixed-iteration calls into single public functions, seeded inputs.

Each kernel runs its loop ``BATCHES`` times and reports the median batch, so
one pre-empted batch does not own the number.  Iteration counts are fixed
(``scale`` only divides them for ``--quick``); nothing is scaled by time.
"""

from __future__ import annotations

import random
import statistics
import tempfile
import time
from typing import Callable

import numpy as np

from benchmarks.e2e import surface

BATCHES = 3
PAGE = 4096


def _median_batch(batch: Callable[[], float]) -> float:
    """Median of ``BATCHES`` calls of ``batch`` (each returns a per-op time)."""
    return statistics.median(batch() for _ in range(BATCHES))


# -- sim ------------------------------------------------------------------------------


def _hold(queue: str, pending: int, iters: int, seed: int) -> float:
    """Classic hold model: ``pending`` events are queued and each one, when it
    fires, schedules its successor a uniform(0, 1) delay ahead, so the queue
    population stays at ``pending``; returns ns per schedule+pop pair."""
    rand = random.Random(seed).random
    sim = surface.Simulator(queue=queue)

    def tick():
        sim.schedule(rand(), tick)

    for _ in range(pending):
        sim.schedule(rand(), tick)
    # each queued event fires about twice per simulated second
    t0 = time.perf_counter()
    sim.run(until=iters / (2 * pending))
    return (time.perf_counter() - t0) / sim.events_processed * 1e9


def _call_soon(iters: int) -> float:
    sim = surface.Simulator()
    left = [iters]

    def tick():
        left[0] -= 1
        if left[0]:
            sim.call_soon(tick)

    sim.call_soon(tick)
    t0 = time.perf_counter()
    sim.run()
    return (time.perf_counter() - t0) / iters * 1e9


def _resume(iters: int) -> float:
    sim = surface.Simulator()

    def sleeper():
        for _ in range(iters):
            yield surface.Timeout(1e-6)

    sim.spawn(sleeper())
    t0 = time.perf_counter()
    sim.run()
    return (time.perf_counter() - t0) / iters * 1e9


def _pingpong(iters: int) -> float:
    sim = surface.Simulator()
    ping, pong = surface.Channel(sim), surface.Channel(sim)

    def client():
        for i in range(iters):
            ping.put(i)
            yield pong.get()

    def server():
        for _ in range(iters):
            item = yield ping.get()
            pong.put(item)

    sim.spawn(server())
    sim.spawn(client())
    t0 = time.perf_counter()
    sim.run()
    return (time.perf_counter() - t0) / iters * 1e9


# -- net ------------------------------------------------------------------------------


def _rtt(iters: int) -> tuple[float, float]:
    """Host µs and engine events per ``Node.request`` -> ``reply_to`` trip."""
    cluster = surface.Cluster(2)
    client, server = cluster.nodes
    kind = surface.MessageKind.TEST

    def on_request(msg):
        server.reply_to(msg, kind, None, 8)
        return
        yield  # handlers are generators

    server.register_handler(kind, on_request)

    def caller():
        for _ in range(iters):
            yield from client.request(1, kind, None, 8)

    cluster.sim.spawn(caller())
    t0 = time.perf_counter()
    cluster.run()
    wall = time.perf_counter() - t0
    # the engine publishes its event count when run() returns, so the few
    # start-up events are amortised over the trips rather than subtracted
    return wall / iters * 1e6, cluster.sim.events_processed / iters


def _page_send(iters: int) -> float:
    cluster = surface.Cluster(2)
    sender, receiver = cluster.nodes
    kind = surface.MessageKind.TEST
    payload = bytes(PAGE)

    def on_page(msg):
        return
        yield

    receiver.register_handler(kind, on_page)

    def pusher():
        for _ in range(iters):
            yield from sender.send_reliable(1, kind, payload, PAGE)

    cluster.sim.spawn(pusher())
    t0 = time.perf_counter()
    cluster.run()
    return (time.perf_counter() - t0) / iters * 1e6


# -- memory ---------------------------------------------------------------------------


def _pages(seed: int) -> dict:
    """A twin and three modified copies with the run shapes the apps produce."""
    rng = np.random.RandomState(seed)
    twin = rng.randint(0, 256, PAGE).astype(np.uint8)
    sparse = twin.copy()
    sparse[1024:1088] ^= 0xFF  # one 64-byte run
    striped = twin.copy()  # 256 alternating 8-byte runs, as red/black SOR writes
    striped.reshape(256, 16)[:, :8] ^= 0xFF
    dense = twin ^ 0xFF  # the whole page
    return {"twin": twin, "sparse": sparse, "striped": striped, "dense": dense}


def _loop_ns(fn: Callable[[], object], iters: int) -> float:
    t0 = time.perf_counter()
    for _ in range(iters):
        fn()
    return (time.perf_counter() - t0) / iters * 1e9


def _read_hit(iters: int) -> float:
    cluster = surface.Cluster(1)
    space = surface.AddressSpace(PAGE)
    region = space.alloc("page", PAGE, page_aligned=True)
    manager = surface.MemoryManager(cluster.nodes[0], space)
    manager.zero_fill(region.base // PAGE)  # a valid, readable page

    def reader():
        for _ in range(iters):
            yield from manager.read_bytes(region.base + 512, 256)

    cluster.sim.spawn(reader())
    t0 = time.perf_counter()
    cluster.run()
    return (time.perf_counter() - t0) / iters * 1e9


# -- mpi ------------------------------------------------------------------------------


def _allreduce8(iters: int) -> tuple[float, float]:
    system = surface.MpiSystem(8)

    def body(comm):
        data = np.full(64, float(comm.rank))
        for _ in range(iters):
            yield from comm.allreduce(data)

    t0 = time.perf_counter()
    system.run_program(body)
    wall = time.perf_counter() - t0
    return wall / iters * 1e6, system.cluster.sim.events_processed / iters


# -- bench ----------------------------------------------------------------------------


def _cache(result, iters: int, scratch: str) -> tuple[float, float]:
    """µs per ``ResultCache.put`` and per ``get`` of ``result``."""
    with tempfile.TemporaryDirectory(dir=scratch) as root:
        cache = surface.ResultCache(root)
        keys = [f"{i:064x}" for i in range(iters)]
        t0 = time.perf_counter()
        for key in keys:
            cache.put(key, result, 1.0, 1)
        t1 = time.perf_counter()
        for key in keys:
            if cache.get(key) is None:
                raise AssertionError("cache lost an entry it just stored")
        t2 = time.perf_counter()
    return (t1 - t0) / iters * 1e6, (t2 - t1) / iters * 1e6


# -- the section ------------------------------------------------------------------------


def run_kernels(seed: int, scale: int, scratch: str) -> dict:
    """Every ``*.kernel.*`` metric; ``scale`` divides the iteration counts."""
    def n(iters: int) -> int:
        return max(1, iters // scale)

    out: dict = {}
    out["sim.kernel.heap_1e3_ns"] = _median_batch(
        lambda: _hold("heap", 1_000, n(100_000), seed))
    out["sim.kernel.heap_1e5_ns"] = _median_batch(
        lambda: _hold("heap", 100_000, n(100_000), seed))
    out["sim.kernel.calendar_1e5_ns"] = _median_batch(
        lambda: _hold("calendar", 100_000, n(100_000), seed))
    out["sim.kernel.call_soon_ns"] = _median_batch(lambda: _call_soon(n(200_000)))
    out["sim.kernel.resume_ns"] = _median_batch(lambda: _resume(n(100_000)))
    out["sim.kernel.channel_pingpong_ns"] = _median_batch(lambda: _pingpong(n(50_000)))

    rtts = [_rtt(n(5_000)) for _ in range(BATCHES)]
    out["net.kernel.rtt_host_us"] = statistics.median(r[0] for r in rtts)
    out["net.kernel.rtt_events"] = rtts[0][1]
    out["net.kernel.page_send_host_us"] = _median_batch(lambda: _page_send(n(3_000)))

    pages = _pages(seed)
    twin = pages["twin"]
    for shape in ("sparse", "striped", "dense"):
        current = pages[shape]
        out[f"memory.kernel.make_diff_{shape}_ns"] = _median_batch(
            lambda: _loop_ns(lambda: surface.make_diff(0, twin, current), n(2_000)))
    striped = surface.make_diff(0, twin, pages["striped"])
    target = twin.copy()
    out["memory.kernel.apply_diff_striped_ns"] = _median_batch(
        lambda: _loop_ns(lambda: surface.apply_diff(target, striped), n(20_000)))
    eight = []
    for shift in range(8):  # eight striped diffs whose runs partly overlap
        current = twin.copy()
        current.reshape(256, 16)[:, shift:shift + 8] ^= 0x55 + shift
        eight.append(surface.make_diff(0, twin, current))
    out["memory.kernel.integrate8_striped_ns"] = _median_batch(
        lambda: _loop_ns(lambda: surface.integrate_diffs(0, eight, PAGE), n(1_000)))
    out["memory.kernel.read_hit_ns"] = _median_batch(lambda: _read_hit(n(50_000)))

    reduces = [_allreduce8(n(300)) for _ in range(BATCHES)]
    out["mpi.kernel.allreduce8_host_us"] = statistics.median(r[0] for r in reduces)
    out["mpi.kernel.allreduce8_events"] = reduces[0][1]

    small = surface.run_app(  # a small real AppResult to pickle
        surface.APPS["is"], "vc_sd", 2,
        config=surface.IsConfig(n_keys=512, b_max=64, reps=2, bucket_views=2))
    caches = [_cache(small, n(300), scratch) for _ in range(BATCHES)]
    out["bench.kernel.cache_put_us"] = statistics.median(c[0] for c in caches)
    out["bench.kernel.cache_get_us"] = statistics.median(c[1] for c in caches)
    out["bench.kernel.code_fingerprint_ms"] = _median_batch(
        lambda: _loop_ns(lambda: surface.code_fingerprint(refresh=True), max(1, 3 // scale))
    ) / 1e6

    page = pages["dense"]
    out["obs.kernel.page_digest_ns"] = _median_batch(
        lambda: _loop_ns(lambda: surface.page_digest(page), n(20_000)))
    return out
