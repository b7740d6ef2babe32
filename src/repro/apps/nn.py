"""NN — parallel back-propagation neural network training, §3.4 / §5.4.

A 9-40-1 sigmoid network trained by full-batch gradient descent; each epoch
every processor computes the gradient over its slice of the training set, the
partial gradients are summed, and the weights are updated before the next
epoch (paper: "After each epoch, the errors of the weights are gathered from
each processor and the weights of the neural network are adjusted").

Variants
--------
* traditional (LRC_d): weights, gradient accumulator and training set all
  live packed in shared memory; partial gradients are added under a global
  lock; two consistency barriers per epoch.
* ``vopp`` (VC): the training set is divided into per-processor views copied
  to local buffers once (§3.1); the weight view is read with
  ``acquire_Rview`` so all processors read it **concurrently** (§3.4:
  "Without it the major part of the VOPP program would run sequentially");
  the gradient view is updated under ``acquire_view``.
* ``mpi``: weights replicated, gradient combined with ``allreduce`` — the
  Table 9 baseline.

Gradient summation order differs between versions (lock order, tree order),
so verification uses ``allclose`` plus a loss-decrease check instead of
bitwise equality.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Generator

import numpy as np

from repro.apps.common import AppConfig, charge, chunk_bounds

__all__ = [
    "NnConfig",
    "default_config",
    "sequential",
    "build",
    "extract",
    "outputs_match",
    "build_mpi",
]

CYC_GRAD = 20.0  # cycles per weight per sample (forward + backward)
CYC_UPDATE = 4.0  # cycles per weight updated


@dataclass
class NnConfig(AppConfig):
    """Paper: 9-40-1 network, 235 epochs.  Scaled default trains fewer epochs
    on a smaller synthetic set; ``work_factor`` restores the paper's
    compute/communication balance."""

    d_in: int = 9
    d_hidden: int = 40
    d_out: int = 1
    n_samples: int = 512
    epochs: int = 20
    lr: float = 0.5
    seed: int = 11
    grad_views: int = 4  # VOPP splits the gradient accumulator (§3.6)
    work_factor: float = 128.0


def default_config() -> NnConfig:
    return NnConfig()


def paper_config() -> NnConfig:
    return NnConfig(epochs=235, n_samples=32768, work_factor=1.0)


def _sigmoid(x: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-x))


def _dataset(config: NnConfig) -> tuple[np.ndarray, np.ndarray]:
    rng = np.random.RandomState(config.seed)
    x = rng.uniform(-1.0, 1.0, size=(config.n_samples, config.d_in))
    # target: a smooth nonlinear function of the inputs, in (0, 1)
    y = _sigmoid(x @ rng.uniform(-1, 1, size=(config.d_in, config.d_out)) * 2.0)
    return x, y


def n_weights(config: NnConfig) -> int:
    return (
        config.d_in * config.d_hidden
        + config.d_hidden
        + config.d_hidden * config.d_out
        + config.d_out
    )


def _init_weights(config: NnConfig) -> np.ndarray:
    rng = np.random.RandomState(config.seed + 1)
    return rng.uniform(-0.5, 0.5, size=n_weights(config))


def _unpack(w: np.ndarray, config: NnConfig):
    i, h, o = config.d_in, config.d_hidden, config.d_out
    p = 0
    w1 = w[p : p + i * h].reshape(i, h)
    p += i * h
    b1 = w[p : p + h]
    p += h
    w2 = w[p : p + h * o].reshape(h, o)
    p += h * o
    b2 = w[p : p + o]
    return w1, b1, w2, b2


def _gradient(w: np.ndarray, x: np.ndarray, y: np.ndarray, config: NnConfig) -> np.ndarray:
    """Batch MSE gradient of the 2-layer sigmoid net (flattened)."""
    w1, b1, w2, b2 = _unpack(w, config)
    hidden = _sigmoid(x @ w1 + b1)
    out = _sigmoid(hidden @ w2 + b2)
    delta_out = (out - y) * out * (1.0 - out)
    delta_hid = (delta_out @ w2.T) * hidden * (1.0 - hidden)
    g_w2 = hidden.T @ delta_out
    g_b2 = delta_out.sum(axis=0)
    g_w1 = x.T @ delta_hid
    g_b1 = delta_hid.sum(axis=0)
    return np.concatenate([g_w1.ravel(), g_b1, g_w2.ravel(), g_b2])


def _loss(w: np.ndarray, x: np.ndarray, y: np.ndarray, config: NnConfig) -> float:
    w1, b1, w2, b2 = _unpack(w, config)
    out = _sigmoid(_sigmoid(x @ w1 + b1) @ w2 + b2)
    return float(((out - y) ** 2).mean())


def sequential(config: NnConfig) -> dict:
    x, y = _dataset(config)
    w = _init_weights(config)
    initial = _loss(w, x, y, config)
    for _ in range(config.epochs):
        w = w - config.lr * _gradient(w, x, y, config) / config.n_samples
    return {"weights": w, "loss": _loss(w, x, y, config), "initial_loss": initial}


def outputs_match(got: dict, expected: dict) -> bool:
    close = np.allclose(got["weights"], expected["weights"], rtol=1e-8, atol=1e-10)
    trained = got["loss"] < expected["initial_loss"]
    return bool(close and trained)


# -- traditional ------------------------------------------------------------------------


def _build_traditional(system, config: NnConfig):
    P = system.nprocs
    W = n_weights(config)
    weights = system.alloc_array("weights", W, dtype="float64")
    grad = system.alloc_array("grad", W, dtype="float64")
    xs = system.alloc_array("xs", (config.n_samples, config.d_in), dtype="float64")
    ys = system.alloc_array("ys", (config.n_samples, config.d_out), dtype="float64")
    GRAD_LOCK = 0

    def body(rt) -> Generator:
        p = rt.rank
        lo, hi = chunk_bounds(config.n_samples, P, p)
        if p == 0:
            x, y = _dataset(config)
            yield from xs.write_all(rt, x)
            yield from ys.write_all(rt, y)
            yield from weights.write(rt, 0, _init_weights(config))
        yield from rt.barrier()
        # traditional style: training data read from shared memory directly
        my_x = (yield from xs.read(rt, lo * config.d_in, (hi - lo) * config.d_in)).reshape(
            hi - lo, config.d_in
        )
        my_y = (yield from ys.read(rt, lo * config.d_out, (hi - lo) * config.d_out)).reshape(
            hi - lo, config.d_out
        )
        for _ in range(config.epochs):
            w = yield from weights.read(rt)
            g = _gradient(w, my_x, my_y, config)
            yield from charge(rt, config, (hi - lo) * W, CYC_GRAD)
            yield from rt.acquire_lock(GRAD_LOCK)
            cur = yield from grad.read(rt)
            yield from grad.write(rt, 0, cur + g)
            yield from rt.release_lock(GRAD_LOCK)
            yield from rt.barrier()
            if p == 0:
                total = yield from grad.read(rt)
                w = yield from weights.read(rt)
                yield from weights.write(rt, 0, w - config.lr * total / config.n_samples)
                yield from grad.write(rt, 0, np.zeros(W))
                yield from charge(rt, config, W, CYC_UPDATE)
            yield from rt.barrier()
        if p == 0:
            w = yield from weights.read(rt)
            x, y = _dataset(config)
            system.app_output = {
                "weights": np.array(w),
                "loss": _loss(w, x, y, config),
                "initial_loss": _loss(_init_weights(config), x, y, config),
            }
        return None

    return body


# -- VOPP ----------------------------------------------------------------------------------


def _build_vopp(system, config: NnConfig, use_rview: bool = True):
    P = system.nprocs
    W = n_weights(config)
    V = config.grad_views
    weights = system.alloc_array("weights", W, dtype="float64", page_aligned=True)
    # the gradient accumulator is split into V page-disjoint sub-views so
    # processors add their partials concurrently in a staggered order (the
    # §3.6 rule of thumb; a single gradient view would serialise every epoch)
    seg_bounds = [chunk_bounds(W, V, v) for v in range(V)]
    grad_segs = [
        system.alloc_array(
            f"grad{v}", max(hi - lo, 1), dtype="float64", page_aligned=True
        )
        for v, (lo, hi) in enumerate(seg_bounds)
    ]
    x_chunks = []
    y_chunks = []
    for q in range(P):
        qlo, qhi = chunk_bounds(config.n_samples, P, q)
        rows = max(qhi - qlo, 1)
        x_chunks.append(
            system.alloc_array(f"x{q}", (rows, config.d_in), dtype="float64", page_aligned=True)
        )
        y_chunks.append(
            system.alloc_array(f"y{q}", (rows, config.d_out), dtype="float64", page_aligned=True)
        )
    WEIGHTS, GRAD, DATA = 0, 1, 1 + V  # view ids: GRAD+v per segment

    def body(rt) -> Generator:
        p = rt.rank
        lo, hi = chunk_bounds(config.n_samples, P, p)
        if p == 0:
            x, y = _dataset(config)
            for q in range(P):
                qlo, qhi = chunk_bounds(config.n_samples, P, q)
                yield from rt.acquire_view(DATA + q)
                yield from x_chunks[q].write_all(rt, x[qlo:qhi])
                yield from y_chunks[q].write_all(rt, y[qlo:qhi])
                yield from rt.release_view(DATA + q)
            yield from rt.acquire_view(WEIGHTS)
            yield from weights.write(rt, 0, _init_weights(config))
            yield from rt.release_view(WEIGHTS)
        yield from rt.barrier()
        # local buffers for the read-only training data (§3.1)
        yield from rt.acquire_Rview(DATA + p)
        my_x = (yield from x_chunks[p].read_all(rt)).copy()
        my_y = (yield from y_chunks[p].read_all(rt)).copy()
        yield from rt.release_Rview(DATA + p)
        for _ in range(config.epochs):
            if use_rview:
                # concurrent read of the weight view (§3.4); all processors
                # train against the weights simultaneously
                yield from rt.acquire_Rview(WEIGHTS)
                w = yield from weights.read(rt)
                g = _gradient(w, my_x, my_y, config)
                yield from charge(rt, config, (hi - lo) * W, CYC_GRAD)
                yield from rt.release_Rview(WEIGHTS)
            else:
                # ablation (§3.4: "Without it the major part of the VOPP
                # program would run sequentially"): exclusive access means
                # the view is held for the whole training step, serialising
                # every processor's epoch
                yield from rt.acquire_view(WEIGHTS)
                w = yield from weights.read(rt)
                g = _gradient(w, my_x, my_y, config)
                yield from charge(rt, config, (hi - lo) * W, CYC_GRAD)
                yield from rt.release_view(WEIGHTS)
            for i in range(V):
                v = (p + i) % V  # staggered order reduces contention
                slo, shi = seg_bounds[v]
                yield from rt.acquire_view(GRAD + v)
                cur = yield from grad_segs[v].read(rt)
                yield from grad_segs[v].write(rt, 0, cur + g[slo:shi])
                yield from rt.release_view(GRAD + v)
            yield from rt.barrier()
            if p == 0:
                total = np.empty(W)
                for v in range(V):
                    slo, shi = seg_bounds[v]
                    yield from rt.acquire_view(GRAD + v)
                    total[slo:shi] = yield from grad_segs[v].read(rt)
                    yield from grad_segs[v].write(rt, 0, np.zeros(shi - slo))
                    yield from rt.release_view(GRAD + v)
                yield from rt.acquire_view(WEIGHTS)
                w = yield from weights.read(rt)
                yield from weights.write(rt, 0, w - config.lr * total / config.n_samples)
                yield from rt.release_view(WEIGHTS)
                yield from charge(rt, config, W, CYC_UPDATE)
            yield from rt.barrier()
        if p == 0:
            yield from rt.acquire_Rview(WEIGHTS)
            w = yield from weights.read(rt)
            yield from rt.release_Rview(WEIGHTS)
            x, y = _dataset(config)
            system.app_output = {
                "weights": np.array(w),
                "loss": _loss(w, x, y, config),
                "initial_loss": _loss(_init_weights(config), x, y, config),
            }
        return None

    return body


def build(system, config: NnConfig, variant: str = "default"):
    """VOPP variants: ``"default"`` (Rviews for the weight reads, §3.4) or
    ``"no_rview"`` (exclusive views everywhere — the ablation)."""
    from repro.core.program import TraditionalSystem
    from repro.mpi import MpiSystem

    if isinstance(system, MpiSystem):
        return build_mpi(system, config)
    if isinstance(system, TraditionalSystem):
        return _build_traditional(system, config)
    return _build_vopp(system, config, use_rview=(variant != "no_rview"))


def extract(system, config: NnConfig):
    return system.app_output


# -- MPI -------------------------------------------------------------------------------------


def build_mpi(system, config: NnConfig):
    """Program body for the Table 9 MPI baseline: scatter data once,
    allreduce the gradient.  Rank 0 stashes the read-out on
    ``system.app_output``, like the DSM versions."""
    W = n_weights(config)

    def body(comm) -> Generator:
        p = comm.rank
        P = comm.size
        lo, hi = chunk_bounds(config.n_samples, P, p)
        chunks = None
        if p == 0:
            x, y = _dataset(config)
            chunks = []
            for q in range(P):
                qlo, qhi = chunk_bounds(config.n_samples, P, q)
                chunks.append((x[qlo:qhi], y[qlo:qhi]))
        my_x, my_y = yield from comm.scatter(chunks, root=0)
        w = yield from comm.bcast(_init_weights(config) if p == 0 else None, root=0)
        w = np.array(w)
        for _ in range(config.epochs):
            g = _gradient(w, my_x, my_y, config)
            seconds = config.charge_seconds((hi - lo) * W, CYC_GRAD, comm.node.cfg.cpu_hz)
            yield from comm.compute(seconds)
            total = yield from comm.allreduce(g, op=np.add)
            w = w - config.lr * total / config.n_samples
            yield from comm.compute(
                config.charge_seconds(W, CYC_UPDATE, comm.node.cfg.cpu_hz)
            )
        if p == 0:
            x, y = _dataset(config)
            system.app_output = {
                "weights": w,
                "loss": _loss(w, x, y, config),
                "initial_loss": _loss(_init_weights(config), x, y, config),
            }
        return None

    return body
