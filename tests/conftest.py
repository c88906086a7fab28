import contextlib
from unittest import mock

import numpy as np
import pytest

from omniair import autodiff as ad
from omniair.config import RunConfig
from omniair.data import chrono_split, make_windows
from omniair.model import build_state, init_params
from omniair.oracle import RDScenario, simulate_rd


def small_config(**overrides) -> RunConfig:
    base = dict(
        d_model=16,
        heads=4,
        fourier_dim=32,
        t_in=8,
        tau=3,
        k_geo=3,
        k_sem=2,
        batch=8,
        max_epochs=3,
        patience=20,
        seed=42,
        attn_dim=8,
        head_hidden=32,
    )
    base.update(overrides)
    return RunConfig(**base)


REGIMES = ("dense", "table")


@contextlib.contextmanager
def diffusion_regime(regime: str):
    """Force ``ad.diffuse`` onto its dense per-batch operator or its table."""
    with mock.patch.object(ad, "_DENSE_ROWS", {"dense": 10**9, "table": 0}[regime]):
        yield


@pytest.fixture(scope="session")
def tiny_cfg():
    return small_config()


@pytest.fixture(scope="session")
def tiny_dataset():
    scn = RDScenario(n=12, steps=100, seed=3, noise_std=0.2, missing_rate=0.05)
    return simulate_rd(scn)


@pytest.fixture(scope="session")
def tiny_state(tiny_cfg, tiny_dataset):
    stations, frame = tiny_dataset
    train, _, _ = chrono_split(frame)
    return build_state(tiny_cfg, stations, train)


@pytest.fixture()
def tiny_params(tiny_cfg):
    return init_params(tiny_cfg, np.random.default_rng(0))


@pytest.fixture()
def tiny_batch(tiny_cfg, tiny_dataset, tiny_state):
    _, frame = tiny_dataset
    train, _, _ = chrono_split(frame)
    return next(make_windows(train, tiny_cfg.t_in, tiny_cfg.tau, tiny_state.stats, 4))
