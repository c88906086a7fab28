"""Correctness gate, run in every workload process before any timing."""

from __future__ import annotations

import numpy as np

from omniair import autodiff, data, model, oracle

from workloads import C9_FULL, C9_TINY, c9_inputs

DENSE_ATOL = 1e-10  # sparse forward vs. the dense O(N^2) reference
GRAD_RTOL = 1e-4  # full-model finite-difference check


class GateFailed(Exception):
    pass


def check(seed: int, tiny: bool = False) -> dict[str, float]:
    """Dense-vs-sparse forward on the train-c9 state and the toy gradient
    check; raises ``GateFailed`` when either is out of tolerance."""
    size = C9_TINY if tiny else C9_FULL
    cfg = size.cfg
    stations, frame = c9_inputs(seed, size)
    train, _, _ = data.chrono_split(frame, min_len=cfg.t_in + cfg.tau)
    state = model.build_state(cfg, stations, train)
    params = model.init_params(cfg, np.random.default_rng(cfg.seed))
    batch = next(data.make_windows(train, cfg.t_in, cfg.tau, state.stats, 2))
    with autodiff.no_grad():
        sparse = model.forward(params, state, batch.inputs).data
    dense = oracle.dense_forward({k: p.data for k, p in params.items()}, state, batch.inputs)
    dense_dev = float(np.abs(sparse - dense).max())
    grad_err = float(oracle.toy_grad_check())
    if not dense_dev <= DENSE_ATOL:
        raise GateFailed(f"sparse forward deviates from the dense reference by {dense_dev:.3e}")
    if not grad_err < GRAD_RTOL:
        raise GateFailed(f"toy gradient check error {grad_err:.3e} >= {GRAD_RTOL}")
    return {"dense_max_abs_dev": dense_dev, "toy_grad_rel_err": grad_err}
