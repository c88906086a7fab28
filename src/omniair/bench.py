"""Scaling benchmark: median forward wall time vs station count.

The runtime phase touches only per-node and per-edge arrays, so the
log-log slope of forward time against N should sit near 1. Synthetic
random graphs keep graph construction out of the measured path; build
time is reported separately.
"""

from __future__ import annotations

import csv
import resource
import time
from dataclasses import dataclass

import numpy as np

from .autodiff import no_grad
from .config import RunConfig
from .data import CHANNELS, N_GRADES
from .model import ModelState, forward, identity_input_dim, init_params
from .topology import HybridGraph


def _pin_allocator() -> None:
    """Keep large temporaries heap-resident across forward passes.

    glibc serves blocks above its mmap threshold (capped at 32 MB) straight
    from mmap and unmaps them on free, so every repeat re-faults and re-zeros
    the big message buffers at large N. That artifact, not compute, bends the
    measured scaling; raising the threshold removes it.
    """
    import ctypes

    try:
        libc = ctypes.CDLL("libc.so.6")
        libc.mallopt(-3, 1 << 30)  # M_MMAP_THRESHOLD
    except (OSError, AttributeError):  # pragma: no cover - non-glibc platform
        pass


@dataclass
class BenchRow:
    n: int
    k: int
    edges: int
    build_ms: float
    forward_ms: float  # median over repeats
    rss_mb: float


@dataclass
class BenchReport:
    rows: list[BenchRow]
    slope: float
    repeats: int


def fit_loglog_slope(ns, times_ms) -> float:
    """Least-squares slope of log(time) against log(N)."""
    ns = np.asarray(ns, dtype=np.float64)
    times_ms = np.asarray(times_ms, dtype=np.float64)
    if len(ns) < 3:
        raise ValueError("slope fit needs at least 3 sizes")
    return float(np.polyfit(np.log(ns), np.log(times_ms), 1)[0])


def _random_graph(n: int, k: int, rng: np.random.Generator) -> HybridGraph:
    """k random distinct non-self targets per node, kernel-like weights."""
    nbr = np.empty((n, k), dtype=np.intp)
    for i in range(n):
        picks = rng.choice(n - 1, size=k, replace=False)
        picks[picks >= i] += 1
        nbr[i] = np.sort(picks)
    km = rng.uniform(1.0, 400.0, size=(n, k))
    return HybridGraph(nbr, np.exp(-(km**2) / (2.0 * 100.0**2)))


def _synthetic_state(n: int, k: int, cfg: RunConfig, rng: np.random.Generator) -> ModelState:
    graph = _random_graph(n, k, rng)
    feat_dim = identity_input_dim(cfg) - cfg.grade_embed
    return ModelState(
        cfg=cfg,
        stations=[],
        stats=None,
        contexts=[],
        graph=graph,
        id_features=rng.normal(size=(n, feat_dim)),
        grades=rng.integers(0, N_GRADES, size=n),
        sem_vectors=np.empty((n, 0)),
    )


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


def run_scaling(
    n_list: tuple[int, ...],
    k: int = 15,
    t_in: int = 4,
    repeats: int = 5,
    seed: int = 0,
) -> BenchReport:
    """Time the sparse forward pass across station counts and fit the slope."""
    if len(n_list) < 3:
        raise ValueError("need at least 3 station counts for a slope")
    if list(n_list) != sorted(set(n_list)):
        raise ValueError("station counts must be strictly increasing")
    if repeats < 5:
        raise ValueError("need at least 5 repeats")
    _pin_allocator()
    cfg = bench_config(k, t_in)
    setups = []
    build_ms = {}
    for n in n_list:
        rng = np.random.default_rng(np.random.SeedSequence([seed, n]))
        t0 = time.perf_counter()
        state = _synthetic_state(n, k, cfg, rng)
        build_ms[n] = (time.perf_counter() - t0) * 1e3
        params = init_params(cfg, rng)
        x = rng.normal(size=(1, t_in, n, len(CHANNELS)))
        setups.append((n, state, params, x))

    def timed_run(state, params, x) -> float:
        with no_grad():
            t0 = time.perf_counter()
            forward(params, state, x)
            return (time.perf_counter() - t0) * 1e3

    # warm-up sweep excluded, then interleaved rounds so every size sees the
    # same allocator and cache history
    samples = {n: [] for n in n_list}
    for _, state, params, x in setups:
        timed_run(state, params, x)
    for _ in range(repeats):
        for n, state, params, x in setups:
            samples[n].append(timed_run(state, params, x))
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    rows = [
        BenchRow(n, k, state.graph.n_edges, build_ms[n], float(np.median(samples[n])), rss_mb)
        for n, state, params, x in setups
    ]
    slope = fit_loglog_slope([r.n for r in rows], [r.forward_ms for r in rows])
    return BenchReport(rows, slope, repeats)


def write_bench_csv(report: BenchReport, path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["n", "k", "edges", "build_ms", "forward_ms", "rss_mb"])
        for r in report.rows:
            writer.writerow([r.n, r.k, r.edges, repr(r.build_ms), repr(r.forward_ms), repr(r.rss_mb)])
        writer.writerow(["slope", repr(report.slope), "", "", "", ""])


def write_loglog(report: BenchReport, path) -> None:
    """Two-column plot-ready file: log N, log median forward ms."""
    with open(path, "w") as fh:
        for r in report.rows:
            fh.write(f"{np.log(r.n)!r} {np.log(r.forward_ms)!r}\n")
