"""Scaling benchmark: graph build, forward and forward+backward time vs
station count.

For each N the network is generated: stations uniform in a 10°×10° box,
random identity features and grades, and their semantic vectors. Three
times and one memory count are reported per N:

- ``build_ms``: one ``build_hybrid_graph`` call, the graph the model runs
  on. Its semantic k-NN is O(N²), so this time grows faster than N.
- ``forward_ms``: the median no-grad ``forward``.
- ``step_ms``: the median ``masked_mae_loss(forward(...)).backward()``.
- ``traced_peak_b``: the peak bytes one such step allocates, counted by
  ``tracemalloc`` after the timed rounds, per (row x D), a row being one
  (b, t, n). Unlike peak RSS it does not move with heap placement.

The runtime phase touches only per-node and per-edge arrays, so the
log-log slope of forward time against N should sit near 1.
"""

from __future__ import annotations

import csv
import resource
import time
import tracemalloc
from dataclasses import dataclass

import numpy as np

from .autodiff import Tensor, no_grad, zero_grads
from .config import RunConfig
from .data import CHANNELS, N_GRADES
from .encoder import semantic_feature_matrix
from .model import ModelState, forward, identity_input_dim, init_params, masked_mae_loss
from .topology import build_hybrid_graph


def pin_allocator() -> None:
    """Keep large temporaries heap-resident for the rest of the process.

    glibc serves blocks above its mmap threshold (capped at 32 MB) straight
    from mmap and unmaps them on free, and it gives the top of the heap back
    to the system once more than its trim threshold (128 KB) is free there.
    Either way the next forward or training step faults the same memory in
    and zeroes it again; at large N that artifact, not compute, bends the
    measured scaling. Raising both thresholds to 1 GiB removes it.

    This changes the whole process, so it is called in one place: importing
    ``omniair`` calls it once, and no library function calls it again. The
    trade is that the process keeps up to 1 GiB of freed heap instead of
    returning it to the system. It does nothing where glibc is absent.
    """
    import ctypes

    try:
        libc = ctypes.CDLL("libc.so.6")
        libc.mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
        libc.mallopt.restype = ctypes.c_int
        libc.mallopt(-3, 1 << 30)  # M_MMAP_THRESHOLD
        libc.mallopt(-1, 1 << 30)  # M_TRIM_THRESHOLD
    except (OSError, AttributeError):  # pragma: no cover - non-glibc platform
        pass


@dataclass
class BenchRow:
    n: int
    k: int
    edges: int
    build_ms: float  # one build_hybrid_graph call
    forward_ms: float  # median over repeats
    step_ms: float  # median forward+loss+backward over repeats
    rss_mb: float
    traced_peak_b: float  # traced peak of one step, bytes per (row x D)


@dataclass
class BenchReport:
    rows: list[BenchRow]
    slope: float  # of forward_ms
    repeats: int


def fit_loglog_slope(ns, times_ms) -> float:
    """Least-squares slope of log(time) against log(N)."""
    ns = np.asarray(ns, dtype=np.float64)
    times_ms = np.asarray(times_ms, dtype=np.float64)
    if len(ns) < 3:
        raise ValueError("slope fit needs at least 3 sizes")
    return float(np.polyfit(np.log(ns), np.log(times_ms), 1)[0])


def bench_config(k: int, t_in: int) -> RunConfig:
    return RunConfig(
        d_model=32,
        heads=4,
        fourier_dim=32,
        t_in=t_in,
        tau=2,
        k_geo=max(k - 5, 1),
        k_sem=min(5, k - 1),
        batch=1,
        attn_dim=16,
        head_hidden=64,
    )


def scaling_case(
    cfg: RunConfig, n: int, seed: int
) -> tuple[float, ModelState, dict[str, Tensor], np.ndarray, np.ndarray]:
    """One generated network of ``n`` stations: the ms its graph build took,
    its state, fresh parameters, and one random (1, t_in) input window with
    its (1, tau) target."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, n]))
    points = np.stack([rng.uniform(30.0, 40.0, n), rng.uniform(100.0, 110.0, n)], axis=1)
    grades = rng.integers(0, N_GRADES, size=n)
    id_features = rng.normal(size=(n, identity_input_dim(cfg) - cfg.grade_embed))
    sem_vectors = semantic_feature_matrix(id_features, grades)
    t0 = time.perf_counter()
    graph = build_hybrid_graph(points, sem_vectors, cfg.k_geo, cfg.k_sem, cfg.kappa_km)
    build_ms = (time.perf_counter() - t0) * 1e3
    state = ModelState(cfg, [], None, None, graph, id_features, grades, sem_vectors)
    params = init_params(cfg, rng)
    x = rng.normal(size=(1, cfg.t_in, n, len(CHANNELS)))
    target = rng.normal(size=(1, cfg.tau, n, len(CHANNELS)))
    return build_ms, state, params, x, target


def traced_step(state: ModelState, params: dict[str, Tensor], x, target) -> tuple[int, int, int]:
    """Bytes one taped step allocates, counted by ``tracemalloc``: held once
    the loss is built, the peak, and held after ``backward()`` while the loss
    is still alive. Parameter gradients are cleared before tracing starts."""
    mask = np.ones(target.shape, dtype=bool)
    zero_grads(params)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        loss = masked_mae_loss(forward(params, state, x), target, mask)
        held = tracemalloc.get_traced_memory()[0] - base
        loss.backward()
        after, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return held, peak - base, after - base


def run_scaling(
    n_list: tuple[int, ...],
    k: int = 15,
    t_in: int = 4,
    repeats: int = 5,
    seed: int = 0,
) -> BenchReport:
    """Time the graph build, the forward and the forward+backward across
    station counts, fit the slope of the forward, then trace the memory of
    one more step per N."""
    if len(n_list) < 3:
        raise ValueError("need at least 3 station counts for a slope")
    if list(n_list) != sorted(set(n_list)):
        raise ValueError("station counts must be strictly increasing")
    if repeats < 5:
        raise ValueError("need at least 5 repeats")
    if k < 1:
        raise ValueError(f"k must be at least 1, got {k}")
    cfg = bench_config(k, t_in)
    setups = []
    build_ms = {}
    for n in n_list:
        build_ms[n], *setup = scaling_case(cfg, n, seed)
        setups.append((n, *setup))

    def timed_forward(state, params, x, _target) -> float:
        with no_grad():
            t0 = time.perf_counter()
            forward(params, state, x)
            return (time.perf_counter() - t0) * 1e3

    def timed_step(state, params, x, target) -> float:
        zero_grads(params)
        mask = np.ones(target.shape, dtype=bool)
        t0 = time.perf_counter()
        masked_mae_loss(forward(params, state, x), target, mask).backward()
        return (time.perf_counter() - t0) * 1e3

    def medians(timed_run) -> dict[int, float]:
        # warm-up sweep excluded, then interleaved rounds so every size sees
        # the same allocator and cache history
        samples = {n: [] for n in n_list}
        for _, *args in setups:
            timed_run(*args)
        for _ in range(repeats):
            for n, *args in setups:
                samples[n].append(timed_run(*args))
        return {n: float(np.median(s)) for n, s in samples.items()}

    # the forward pass runs first, so the medians the slope fits see the
    # allocator history of a forward-only sweep
    forward_ms = medians(timed_forward)
    step_ms = medians(timed_step)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    rows = []
    for n, state, params, x, target in setups:
        peak = traced_step(state, params, x, target)[1] / (x.shape[0] * t_in * n * cfg.d_model)
        rows.append(BenchRow(n, k, state.graph.n_edges, build_ms[n], forward_ms[n], step_ms[n],
                             rss_mb, peak))
    slope = fit_loglog_slope([r.n for r in rows], [r.forward_ms for r in rows])
    return BenchReport(rows, slope, repeats)


def write_bench_csv(report: BenchReport, path) -> None:
    columns = ["n", "k", "edges", "build_ms", "forward_ms", "step_ms", "rss_mb", "traced_peak_b"]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(columns)
        for r in report.rows:
            writer.writerow([r.n, r.k, r.edges, repr(r.build_ms), repr(r.forward_ms),
                             repr(r.step_ms), repr(r.rss_mb), repr(r.traced_peak_b)])
        writer.writerow(["slope", repr(report.slope)] + [""] * (len(columns) - 2))


def write_loglog(report: BenchReport, path) -> None:
    """Two-column plot-ready file: log N, log median forward ms."""
    with open(path, "w") as fh:
        for r in report.rows:
            fh.write(f"{float(np.log(r.n))!r} {float(np.log(r.forward_ms))!r}\n")
