"""Model assembly: parameter construction, one sparse forward pass (for the
base stations, or for unseen stations attached to a base run) and the loss."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .config import RunConfig
from .data import CHANNELS, NormStats, SeriesFrame, StationMeta
from .encoder import (
    CONTEXT_DIM,
    FourierConfig,
    NeighborContext,
    anchor_context,
    build_contexts,
    encode_identity,
    identity_feature_matrix,
    resolve_grade,
    semantic_feature_matrix,
)
from .geo import knn_geo
from .propagation import diffuse, forecast_head, fuse_and_gate, signed_aggregate
from .topology import HybridGraph, attach_new_nodes, build_hybrid_graph, edge_weights

N_GEO_FEATURES = 6


def identity_input_dim(cfg: RunConfig) -> int:
    return cfg.fourier_dim + CONTEXT_DIM + N_GEO_FEATURES + cfg.grade_embed


def init_params(
    cfg: RunConfig, rng: np.random.Generator, n_channels: int = len(CHANNELS)
) -> dict[str, Tensor]:
    """Glorot-initialized learnable tensors, one entry per model symbol."""

    def glorot(*shape, fans: tuple[int, int] | None = None):
        fan_in, fan_out = fans if fans is not None else (shape[-2], shape[-1])
        std = np.sqrt(2.0 / (fan_in + fan_out))
        return Tensor(rng.normal(0.0, std, size=shape), requires_grad=True)

    def zeros(*shape):
        return Tensor(np.zeros(shape), requires_grad=True)

    d = cfg.d_model
    dh = d // cfg.heads
    l1 = cfg.diffusion_steps + 1
    params: dict[str, Tensor] = {}
    params["input_proj.w"] = glorot(n_channels, d)
    params["input_proj.b"] = zeros(d)
    params["grade_embed.table"] = glorot(6, cfg.grade_embed)
    params["id_mlp.w1"] = glorot(identity_input_dim(cfg), cfg.id_hidden)
    params["id_mlp.b1"] = zeros(cfg.id_hidden)
    params["id_mlp.w2"] = glorot(cfg.id_hidden, cfg.id_dim)
    params["id_mlp.b2"] = zeros(cfg.id_dim)
    params["attn.we"] = glorot(2 * d, cfg.attn_dim)
    params["attn.a"] = glorot(cfg.attn_dim, fans=(cfg.attn_dim, 1))
    params["edge_gate.w"] = glorot(2 * d + 1, fans=(2 * d + 1, 1))
    params["edge_gate.b"] = zeros(1)
    params["beta_mlp.w1"] = glorot(d, 16)
    params["beta_mlp.b1"] = zeros(16)
    params["beta_mlp.w2"] = glorot(16, 1)
    params["beta_mlp.b2"] = zeros(1)
    params["agg.wq"] = glorot(cfg.heads, dh, dh)
    params["agg.wk"] = glorot(cfg.heads, dh, dh)
    params["agg.step_bias"] = Tensor(np.ones(l1), requires_grad=True)
    params["out_gate.w"] = glorot(2 * d, d)
    params["out_gate.b"] = zeros(d)
    params["head.w1"] = glorot(cfg.t_in * d, cfg.head_hidden)
    params["head.b1"] = zeros(cfg.head_hidden)
    params["head.w2"] = glorot(cfg.head_hidden, cfg.tau * n_channels)
    params["head.b2"] = zeros(cfg.tau * n_channels)
    return params


@dataclass
class ModelState:
    """Everything fixed at graph-build time: stats, contexts, topology."""

    cfg: RunConfig
    stations: list[StationMeta]
    stats: NormStats
    contexts: list[NeighborContext]
    graph: HybridGraph
    id_features: np.ndarray  # (N, fourier+context+geo)
    grades: np.ndarray  # (N,) resolved grades
    sem_vectors: np.ndarray  # (N, ...) raw vectors for semantic k-NN

    @property
    def n_stations(self) -> int:
        return self.graph.n_nodes


def build_state(
    cfg: RunConfig,
    stations: list[StationMeta],
    train: SeriesFrame,
    stats: NormStats | None = None,
) -> ModelState:
    """Compute contexts and the hybrid graph from the training split."""
    from .data import compute_norm_stats

    if stats is None:
        stats = compute_norm_stats(train, stations, per_station=cfg.per_station_norm)
    points = np.stack([s.point for s in stations])
    geo = knn_geo(points, cfg.k_geo)
    contexts = build_contexts(stations, train, geo[0])
    fcfg = FourierConfig(levels=cfg.fourier_levels)
    id_features = identity_feature_matrix(stations, contexts, fcfg, stats)
    sem_vectors = semantic_feature_matrix(stations, contexts, fcfg, stats)
    graph = build_hybrid_graph(points, sem_vectors, cfg.k_geo, cfg.k_sem, cfg.kappa_km, geo=geo)
    grades = np.array([resolve_grade(s.grade, c) for s, c in zip(stations, contexts)])
    return ModelState(cfg, stations, stats, contexts, graph, id_features, grades, sem_vectors)


def _pass(
    params: dict[str, Tensor],
    cfg: RunConfig,
    graph: HybridGraph,
    id_features: np.ndarray,
    grades: np.ndarray,
    x: np.ndarray,
    base: dict | None = None,
) -> tuple[Tensor, dict]:
    """Forward pipeline for the nodes owning ``graph``'s rows -> (forecast,
    collect dict). With ``base`` (a base run's collect dict), edge targets and
    diffusion messages come from its features and states, read-only."""
    if x.ndim != 4 or x.shape[2] != graph.n_nodes or x.shape[3] != len(CHANNELS):
        raise ValueError(f"bad input shape {x.shape}")
    e_id = encode_identity(id_features, grades, params)
    h = ad.matmul(Tensor(x), params["input_proj.w"]) + params["input_proj.b"]
    b, t, n, d = h.shape
    h_edge = ad.slice_axis(h, 1, t - 1, t).reshape((b, n, d))  # last input step
    h_src, src_stack = (None, None) if base is None else (base["h_edge"], base["stack"])
    edges = edge_weights(h_edge, graph, params, k_max=cfg.k_max, eta=cfg.eta, h_src=h_src)
    stack = diffuse(h, edges["w_tilde"], graph, cfg.diffusion_steps, cfg.restart, src_stack)
    z = signed_aggregate(stack, params, cfg.heads, cfg.coeff_mode)
    gate, zhat = fuse_and_gate(z, e_id, params)
    forecast = forecast_head(zhat, params, cfg.tau, len(CHANNELS))
    return forecast, {"e_id": e_id, "h": h, "h_edge": h_edge, "edges": edges,
                      "stack": stack, "z": z, "gate": gate, "zhat": zhat}


def forward(
    params: dict[str, Tensor],
    state: ModelState,
    x: np.ndarray,
    collect: bool = False,
) -> Tensor | tuple[Tensor, dict]:
    """Full forward pass on one batch of normalized inputs (B, T, N, C)."""
    out = _pass(params, state.cfg, state.graph, state.id_features, state.grades, x)
    return out if collect else out[0]


@dataclass
class ExtensionState:
    """Unseen stations attached to a trained base graph by directed edges."""

    stations: list[StationMeta]
    contexts: list[NeighborContext]
    attach: HybridGraph  # row i = new node i, nbr = base nodes
    id_features: np.ndarray
    grades: np.ndarray


def build_extension(state: ModelState, new_stations: list[StationMeta]) -> ExtensionState:
    """Contexts, identity features, and attachment edges for unseen stations."""
    existing = {s.id for s in state.stations}
    for s in new_stations:
        if s.id in existing:
            raise ValueError(f"new station id {s.id!r} collides with an existing station")
    base_points = np.stack([s.point for s in state.stations])
    new_points = np.stack([s.point for s in new_stations])
    contexts = anchor_context(new_points, base_points, state.contexts)
    fcfg = FourierConfig(levels=state.cfg.fourier_levels)
    id_features = identity_feature_matrix(new_stations, contexts, fcfg, state.stats)
    sem_vectors = semantic_feature_matrix(new_stations, contexts, fcfg, state.stats)
    attach = attach_new_nodes(
        base_points,
        state.sem_vectors,
        new_points,
        sem_vectors,
        state.cfg.k_geo,
        state.cfg.k_sem,
        state.cfg.kappa_km,
    )
    grades = np.array(
        [resolve_grade(s.grade, c) for s, c in zip(new_stations, contexts)]
    )
    return ExtensionState(new_stations, contexts, attach, id_features, grades)


def forward_extension(
    params: dict[str, Tensor],
    state: ModelState,
    ext: ExtensionState,
    x_new: np.ndarray,
    base: dict,
) -> Tensor:
    """Forecast unseen stations from the base run's diffusion states.

    The base states in ``base`` (from ``forward(..., collect=True)``) are
    consumed read-only; nothing existing is recomputed, which is what makes
    the existing stations' forecasts identical with or without new nodes.
    """
    return _pass(params, state.cfg, ext.attach, ext.id_features, ext.grades, x_new, base)[0]


def masked_mae_loss(pred: Tensor, target_norm: np.ndarray, mask: np.ndarray) -> Tensor:
    """Mean absolute error over valid entries, in normalized units."""
    m = mask.astype(np.float64)
    total = max(float(m.sum()), 1.0)
    return (ad.abs_(pred - Tensor(target_norm)) * Tensor(m)).sum() / total
