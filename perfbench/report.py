"""Sample summaries and the environment record attached to every result."""

from __future__ import annotations

import os
import platform
import sys

import numpy as np

TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0)
MIN_BEYOND = 10


def summarize(samples) -> dict:
    """Median, the highest ladder percentile with at least ten samples beyond
    it (None when there are fewer than 20 samples), and the sample count."""
    x = np.asarray(samples, dtype=np.float64)
    out = {"median": float(np.median(x)), "n": int(len(x)), "tail": None}
    for p in TAIL_LADDER:
        if len(x) * (1.0 - p / 100.0) >= MIN_BEYOND:
            out["tail"] = {"percentile": p, "value": float(np.percentile(x, p))}
            break
    return out


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _blas() -> dict:
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy < 2 has no dict mode
        return {"name": "unknown", "version": "unknown"}
    return {"name": deps.get("name", "unknown"), "version": deps.get("version", "unknown")}


THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def environment(mmap_threshold_raised: bool) -> dict:
    return {
        "cpu_count": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": _cpu_model(),
        "blas": _blas(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas_threads": {k: os.environ.get(k) for k in THREAD_VARS},
        "blas_pinning": "environment variables set before numpy is imported",
        "mmap_threshold_raised": mmap_threshold_raised,
    }
