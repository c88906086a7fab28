"""Inductive sparse-graph forecasting engine for station-level air quality.

The package is organized around a fixed sparse station graph whose edge
weights are recomputed from the input window on every forward pass:

- :mod:`omniair.geo` - great-circle distance, exact k-NN, terrain features
- :mod:`omniair.encoder` - coordinate Fourier features and station identities
- :mod:`omniair.topology` - hybrid graph build, signed attention, soft pruning
- :mod:`omniair.propagation` - restart diffusion and signed aggregation
- :mod:`omniair.autodiff` / :mod:`omniair.optim` - reverse-mode tape and Adam
- :mod:`omniair.data` / :mod:`omniair.evaluation` - frames, splits, metrics
- :mod:`omniair.oracle` - synthetic simulator and dense reference path
- :mod:`omniair.training` / :mod:`omniair.inference` - loops and prediction
- :mod:`omniair.bench` - forward-pass scaling measurements

Importing the package raises glibc's mmap and trim thresholds to 1 GiB for
the whole process (:func:`omniair.bench.pin_allocator`).
"""

from . import bench
from .autodiff import Tensor, grad_check, no_grad
from .config import RunConfig
from .data import (
    CHANNELS,
    SeriesFrame,
    StationMeta,
    chrono_split,
    compute_norm_stats,
    load_series,
    load_stations,
    make_windows,
)
from .evaluation import lv_baseline, masked_metrics
from .geo import gaussian_static_weight, haversine, knn_geo, roughness, tpi
from .model import build_state, forward, init_params, masked_mae_loss
from .optim import Adam
from .oracle import RDScenario, SourceSpec, dense_forward, simulate_rd
from .training import train_model

__version__ = "0.1.0"

bench.pin_allocator()

__all__ = [
    "Adam",
    "CHANNELS",
    "RDScenario",
    "RunConfig",
    "SeriesFrame",
    "SourceSpec",
    "StationMeta",
    "Tensor",
    "build_state",
    "chrono_split",
    "compute_norm_stats",
    "dense_forward",
    "forward",
    "gaussian_static_weight",
    "grad_check",
    "haversine",
    "init_params",
    "knn_geo",
    "load_series",
    "load_stations",
    "lv_baseline",
    "make_windows",
    "masked_mae_loss",
    "masked_metrics",
    "no_grad",
    "roughness",
    "simulate_rd",
    "tpi",
    "train_model",
    "__version__",
]
