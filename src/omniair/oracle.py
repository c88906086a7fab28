"""Ground-truth machinery: a graph reaction-diffusion simulator for synthetic
datasets, a dense O(N^2) reference forward pass, and closed-form checkers for
the kernel and stability properties of the encoder.

Everything here exists to be compared against: the simulator obeys known
conservation laws, the dense forward must agree with the sparse engine to
float64 accuracy, and the checkers hold learned components to analytic
bounds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .autodiff import grad_check
from .config import RunConfig
from .data import CHANNELS, SeriesFrame, StationMeta, chrono_split, make_windows
from .encoder import normalize_coords
from .geo import gaussian_static_weight, knn_geo
from .model import ModelState, build_state, forward, init_params, masked_mae_loss
from .topology import NORM_EPS

_EXTRA_CHANNEL_SCALES = (0.85, 0.7, 0.55, 0.4, 0.25)
# the simulated network: stations uniform in a 10 x 10 degree box, linked by
# Gaussian-weighted geographic k-NN edges, one step per day from SIM_START
SIM_LAT_RANGE = (30.0, 40.0)
SIM_LON_RANGE = (100.0, 110.0)
SIM_KAPPA_KM = 100.0
SIM_START = np.datetime64("2020-01-01", "D")
POWER_ITERATIONS = 100  # rounds of power_iteration
LIPSCHITZ_SCALE = 3.0  # standard deviation of check_lipschitz's random inputs


@dataclass(frozen=True)
class SourceSpec:
    """Emission source: constant when period is 0, else square-wave on/off."""

    node: int
    amplitude: float
    period: int = 0
    on_steps: int = 0

    def active(self, t: int) -> bool:
        if self.period <= 0:
            return True
        return (t % self.period) < self.on_steps


@dataclass
class RDScenario:
    """A simulated network and its dynamics; the station box, the edge
    bandwidth and the first date are the module's ``SIM_*`` constants."""

    n: int = 20
    steps: int = 400
    dt: float = 0.1
    diffusion: float = 0.15
    decay: float = 0.05
    sources: tuple[SourceSpec, ...] = ()
    noise_std: float = 0.0
    missing_rate: float = 0.0
    seed: int = 0
    k_neighbors: int = 4
    base_level: float = 5.0


def _random_stations(scn: RDScenario, rng: np.random.Generator) -> np.ndarray:
    lat = rng.uniform(*SIM_LAT_RANGE, size=scn.n)
    lon = rng.uniform(*SIM_LON_RANGE, size=scn.n)
    return np.stack([lat, lon], axis=1)


def _check_scenario(scn: RDScenario) -> None:
    """Refuse a scenario the simulator cannot run as asked, naming the field."""
    rules = [("n", scn.n, scn.n > scn.k_neighbors, f"more than k_neighbors={scn.k_neighbors}"),
             ("steps", scn.steps, scn.steps >= 1, "at least 1"),
             ("missing_rate", scn.missing_rate, 0 <= scn.missing_rate < 1, "in [0, 1)"),
             ("dt", scn.dt, scn.dt > 0, "positive")]
    rules += [(f, getattr(scn, f), getattr(scn, f) >= 0, "non-negative")
              for f in ("diffusion", "decay", "noise_std")]
    for i, s in enumerate(scn.sources):
        rules += [(f"sources[{i}].node", s.node, 0 <= s.node < scn.n, f"in [0, {scn.n})"),
                  (f"sources[{i}].amplitude", s.amplitude, math.isfinite(s.amplitude), "finite"),
                  (f"sources[{i}].period", s.period, s.period >= 0, "non-negative"),
                  (f"sources[{i}].on_steps", s.on_steps, 0 <= s.on_steps <= s.period,
                   f"in [0, period={s.period}]")]
    for name, value, ok, need in rules:
        if not ok:
            raise ValueError(f"scenario {name}={value!r}: must be {need}")


def build_sim_laplacian(points: np.ndarray, k: int, kappa_km: float) -> np.ndarray:
    """Combinatorial Laplacian of the union-symmetrized geographic k-NN graph."""
    n = len(points)
    idx, dist = knn_geo(points, k)
    adj = np.zeros((n, n))
    np.put_along_axis(adj, idx, gaussian_static_weight(dist, kappa_km), axis=1)
    adj = np.maximum(adj, adj.T)
    return np.diag(adj.sum(axis=1)) - adj


def stability_bound(lap: np.ndarray, diffusion: float, decay: float) -> float:
    """Gershgorin bound on the explicit-Euler growth factor: must stay < 1."""
    lam_max = 2.0 * lap.diagonal().max()
    return diffusion * lam_max + decay


def simulate_rd(scn: RDScenario) -> tuple[list[StationMeta], SeriesFrame]:
    """Explicit-Euler reaction-diffusion rollout on a station graph.

    C_{t+1} = C_t + dt * (-D L C_t + S_t - decay * C_t); observation noise
    and missingness are applied to the recorded values only, never fed back
    into the dynamics.
    """
    _check_scenario(scn)
    rng = np.random.default_rng(scn.seed)
    points = _random_stations(scn, rng)
    lap = build_sim_laplacian(points, scn.k_neighbors, SIM_KAPPA_KM)
    growth = scn.dt * stability_bound(lap, scn.diffusion, scn.decay)
    if growth >= 1.0:
        raise ValueError(
            f"unstable scenario: dt * (D * 2 max_deg + decay) = {growth:.3f} >= 1"
        )
    conc = np.empty((scn.steps, scn.n))
    c = np.full(scn.n, scn.base_level) + rng.normal(0.0, 0.1 * scn.base_level, scn.n)
    for t in range(scn.steps):
        conc[t] = c
        s = np.zeros(scn.n)
        for src in scn.sources:
            if src.active(t):
                s[src.node] += src.amplitude
        c = c + scn.dt * (-scn.diffusion * (lap @ c) + s - scn.decay * c)

    n_ch = len(CHANNELS)
    values = np.empty((scn.steps, scn.n, n_ch))
    values[:, :, 0] = conc
    lagged = np.vstack([conc[:1], conc[:-1]])
    for k, scale in enumerate(_EXTRA_CHANNEL_SCALES, start=1):
        values[:, :, k] = scale * lagged
    if scn.noise_std > 0:
        values = values + rng.normal(0.0, scn.noise_std, size=values.shape)
    valid = np.ones_like(values, dtype=bool)
    if scn.missing_rate > 0:
        valid &= rng.random(values.shape) >= scn.missing_rate
    values = np.where(valid, values, 0.0)

    station_means = conc.mean(axis=0)
    quantiles = np.quantile(station_means, np.linspace(0, 1, 7)[1:-1])
    grades = np.digitize(station_means, quantiles)
    stations = []
    for i in range(scn.n):
        feats = np.array(
            [
                rng.normal(500.0, 200.0),
                abs(rng.normal(10.0, 3.0)),
                rng.uniform(0.0, 360.0),
                rng.normal(0.0, 30.0),
                abs(rng.normal(0.0, 20.0)),
                rng.uniform(0.0, 500.0),
            ]
        )
        stations.append(
            StationMeta(
                f"s{i:03d}", float(points[i, 0]), float(points[i, 1]), feats, int(grades[i])
            )
        )
    timestamps = SIM_START + np.arange(scn.steps)
    frame = SeriesFrame(timestamps, values, valid, tuple(s.id for s in stations))
    return stations, frame


# -- dense reference forward -----------------------------------------------------

_DENSE_LIMIT = 64


def _sigmoid(x: np.ndarray) -> np.ndarray:
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def dense_forward(
    params: dict[str, np.ndarray], state: ModelState, x: np.ndarray
) -> np.ndarray:
    """O(N^2) forward pass with dense adjacency matrices, plain numpy.

    Refuses more than 64 stations: this path exists to check the sparse
    engine at toy scale, not to run.
    """
    cfg = state.cfg
    n = state.n_stations
    if n > _DENSE_LIMIT:
        raise ValueError(f"dense reference refused for N={n} > {_DENSE_LIMIT}")
    b, t_in, _, n_ch = x.shape
    d = cfg.d_model

    # the stored blocks, joined back into the paper's concatenated products
    table = params["grade_embed.table"][state.grades]
    feats = np.concatenate([state.id_features, table], axis=1)
    w_id = np.concatenate([params["id_mlp.w1_feat"], params["id_mlp.w1_grade"]])
    hid = np.tanh(feats @ w_id + params["id_mlp.b1"])
    e_id = hid @ params["id_mlp.w2"] + params["id_mlp.b2"]
    w_in, b_in = params["input_proj.w"][:-1], params["input_proj.w"][-1]
    w_attn = np.concatenate([params["attn.we_own"], params["attn.we_src"]])
    w_edge = np.concatenate([params["edge_gate.w_own"][:, 0], params["edge_gate.w_src"][:, 0],
                             params["edge_gate.w_static"]])
    w_out = np.concatenate([params["out_gate.w_z"], params["out_gate.w_id"]])
    h = x @ w_in + b_in
    h_edge = h[:, -1]

    cand = np.zeros((n, n), dtype=bool)
    w_static = np.zeros((n, n))
    g = state.graph
    rows = np.arange(n)[:, None]
    cand[rows, g.nbr] = True
    w_static[rows, g.nbr] = g.w_static

    pair = np.concatenate(
        [
            np.broadcast_to(h_edge[:, :, None, :], (b, n, n, d)),
            np.broadcast_to(h_edge[:, None, :, :], (b, n, n, d)),
        ],
        axis=-1,
    )
    hidden = pair @ w_attn
    hidden = np.where(hidden > 0, hidden, 0.1 * hidden)
    alpha = np.tanh(hidden @ params["attn.a"][:, 0])

    gate_in = np.concatenate(
        [pair, np.broadcast_to(w_static[None, :, :, None], (b, n, n, 1))], axis=-1
    )
    gate = _sigmoid(gate_in @ w_edge + params["edge_gate.b"])
    w_dyn = gate * w_static + (1.0 - gate) * alpha
    w_dyn = np.where(cand, w_dyn, 0.0)

    bh = np.tanh(h_edge @ params["beta_mlp.w1"] + params["beta_mlp.b1"])
    beta = float(g.k) * _sigmoid(bh @ params["beta_mlp.w2"] + params["beta_mlp.b2"])[..., 0]

    ranks = np.zeros((b, n, n))
    for q in range(b):
        for i in range(n):
            cols = np.flatnonzero(cand[i])
            order = np.lexsort((cols, -np.abs(w_dyn[q, i, cols])))
            ranks[q, i, cols[order]] = np.arange(1, len(cols) + 1)
    mask = np.where(cand, _sigmoid(-cfg.eta * (ranks - beta[:, :, None])), 0.0)
    wm = w_dyn * mask
    denom = np.abs(wm).sum(axis=2, keepdims=True) + NORM_EPS
    w_tilde = np.where(cand, wm / denom, 0.0)

    stack = [h]
    for _ in range(cfg.diffusion_steps):
        agg = np.einsum("bij,btjd->btid", w_tilde, stack[-1])
        stack.append(agg + cfg.restart * h)

    n_steps = len(stack)
    dh = d // cfg.heads
    parts = []
    for gidx in range(cfg.heads):
        lo, hi = gidx * dh, (gidx + 1) * dh
        states = [s[..., lo:hi] for s in stack]
        wq = params["agg.wq"][gidx]
        wk = params["agg.wk"][gidx]
        query = sum(s @ wq for s in states) / n_steps
        scores = [ (query * (s @ wk)).sum(axis=-1) / math.sqrt(dh) for s in states ]
        if cfg.coeff_mode == "signed":
            coeffs = [np.tanh(s) * params["agg.step_bias"][l] for l, s in enumerate(scores)]
        else:
            stacked = np.stack(scores, axis=-1)
            stacked = stacked - stacked.max(axis=-1, keepdims=True)
            ex = np.exp(stacked)
            soft = ex / ex.sum(axis=-1, keepdims=True)
            coeffs = [soft[..., l] for l in range(n_steps)]
        parts.append(sum(c[..., None] * s for c, s in zip(coeffs, states)))
    z = parts[0] if cfg.heads == 1 else np.concatenate(parts, axis=-1)

    e_b = np.broadcast_to(e_id[None, None], z.shape)
    gate_id = _sigmoid(
        np.concatenate([z, e_b], axis=-1) @ w_out + params["out_gate.b"]
    )
    zhat = gate_id * z + (1.0 - gate_id) * e_b

    flat = zhat.transpose(0, 2, 1, 3).reshape(b, n, t_in * d)
    hidden = np.maximum(flat @ params["head.w1"] + params["head.b1"], 0.0)
    out = hidden @ params["head.w2"] + params["head.b2"]
    return out.reshape(b, n, cfg.tau, n_ch).transpose(0, 2, 1, 3)


def toy_grad_check(seed: int = 0) -> float:
    """Finite-difference check of the full model on a 5-station toy, at 6
    sampled coordinates per parameter and ``grad_check``'s step.

    All modules are active, including pruning, so gradients flow through the
    soft mask and its normalization. Returns the max relative error.
    """
    cfg = RunConfig(
        d_model=8, heads=4, fourier_dim=32, t_in=6, tau=2,
        k_geo=2, k_sem=1, batch=2, attn_dim=8, head_hidden=16,
    )
    scn = RDScenario(n=5, steps=40, seed=seed + 7, noise_std=0.3, missing_rate=0.1)
    stations, frame = simulate_rd(scn)
    train, _, _ = chrono_split(frame)
    state = build_state(cfg, stations, train)
    params = init_params(cfg, np.random.default_rng(seed + 1))
    batch = next(make_windows(train, cfg.t_in, cfg.tau, state.stats, 2))
    target_norm = state.stats.normalize(batch.targets)

    def loss_fn():
        pred = forward(params, state, batch.inputs)
        return masked_mae_loss(pred, target_norm, batch.target_valid)

    return grad_check(params=params, f=loss_fn, samples_per_param=6, seed=seed)


# -- closed-form checkers ---------------------------------------------------------


def random_fourier_features(points_deg, features: int, bandwidth: float, seed: int) -> np.ndarray:
    """Unit-norm random Fourier features of coordinates: ``features`` 2-d
    frequencies drawn from N(0, bandwidth^2), one cos/sin pair per draw;
    shape (..., 2 * features). Their inner product approximates a Gaussian
    kernel of the normalized coordinates."""
    if features <= 0:
        raise ValueError("feature count must be positive")
    if bandwidth <= 0:
        raise ValueError("bandwidth must be positive")
    p = normalize_coords(points_deg)
    rng = np.random.default_rng(seed)
    b = rng.normal(0.0, bandwidth, size=(features, 2))  # (M, 2)
    args = 2.0 * np.pi * (p @ b.T)  # (..., M)
    scale = 1.0 / np.sqrt(features)
    return np.concatenate([np.cos(args), np.sin(args)], axis=-1) * scale


def check_kernel(
    bandwidth: float = 1.0,
    m_list: tuple[int, ...] = (64, 256, 1024, 4096),
    n_pairs: int = 100,
    seed: int = 0,
) -> list[tuple[int, float]]:
    """Mean absolute deviation of the empirical feature kernel from its
    Gaussian limit exp(-2 pi^2 bandwidth^2 ||dx||^2), per feature count."""
    rng = np.random.default_rng(seed)
    p_norm = rng.uniform(-1.0, 1.0, size=(2, n_pairs, 2))
    degrees = p_norm * np.array([90.0, 180.0])
    delta = p_norm[0] - p_norm[1]
    target = np.exp(-2.0 * np.pi**2 * bandwidth**2 * (delta**2).sum(axis=1))
    out = []
    for m in m_list:
        gx = random_fourier_features(degrees[0], m, bandwidth, seed)
        gy = random_fourier_features(degrees[1], m, bandwidth, seed)
        empirical = (gx * gy).sum(axis=1)
        out.append((m, float(np.abs(empirical - target).mean())))
    return out


def power_iteration(w: np.ndarray, seed: int = 0) -> float:
    """Largest singular value estimate of a 2-d matrix."""
    rng = np.random.default_rng(seed)
    v = rng.normal(size=w.shape[1])
    v /= np.linalg.norm(v)
    for _ in range(POWER_ITERATIONS):
        u = w @ v
        v = w.T @ u
        norm = np.linalg.norm(v)
        if norm == 0:
            return 0.0
        v /= norm
    return float(np.linalg.norm(w @ v))


def check_lipschitz(
    params: dict[str, np.ndarray],
    n_pairs: int = 1000,
    seed: int = 0,
) -> tuple[float, float]:
    """Max embedding-distance ratio over random pairs vs the spectral bound.

    The encoder MLP is 1-Lipschitz-activation affine, so the ratio can never
    exceed the product of layer spectral norms.
    """
    w1 = np.concatenate([params["id_mlp.w1_feat"], params["id_mlp.w1_grade"]])
    b1 = params["id_mlp.b1"]
    w2, b2 = params["id_mlp.w2"], params["id_mlp.b2"]
    bound = power_iteration(w1, seed=seed) * power_iteration(w2, seed=seed + 1)
    rng = np.random.default_rng(seed)
    x = rng.normal(0.0, LIPSCHITZ_SCALE, size=(n_pairs, w1.shape[0]))
    y = rng.normal(0.0, LIPSCHITZ_SCALE, size=(n_pairs, w1.shape[0]))
    fx = np.tanh(x @ w1 + b1) @ w2 + b2
    fy = np.tanh(y @ w1 + b1) @ w2 + b2
    num = np.linalg.norm(fx - fy, axis=1)
    den = np.linalg.norm(x - y, axis=1)
    ratio = float((num / np.maximum(den, 1e-300)).max())
    return ratio, float(bound)
