"""Model assembly: parameter construction, one sparse forward pass (for the
base stations, or for unseen stations attached to a base run) and the loss."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .config import RunConfig
from .data import (CHANNELS, GEO_FEATURES, N_GRADES, NormStats, SeriesFrame, StationMeta,
                   compute_norm_stats)
from .encoder import (
    CONTEXT_DIM,
    Contexts,
    anchor_context,
    build_contexts,
    encode_identity,
    identity_feature_matrix,
    resolve_grade,
    semantic_feature_matrix,
)
from .geo import knn_geo
from .propagation import aggregate_and_fuse, diffuse, forecast_head
from .topology import (HybridGraph, attach_new_nodes, build_hybrid_graph, edge_weights,
                       table_graph)

N_GEO_FEATURES = len(GEO_FEATURES)


def identity_input_dim(cfg: RunConfig) -> int:
    return cfg.fourier_dim + CONTEXT_DIM + N_GEO_FEATURES + cfg.grade_embed


def init_params(cfg: RunConfig, rng: np.random.Generator) -> dict[str, Tensor]:
    """Glorot-initialized learnable tensors, one entry per model symbol."""

    def glorot(*shape, fans: tuple[int, int] | None = None):
        fan_in, fan_out = fans if fans is not None else (shape[-2], shape[-1])
        std = np.sqrt(2.0 / (fan_in + fan_out))
        return Tensor(rng.normal(0.0, std, size=shape), requires_grad=True)

    def zeros(*shape):
        return Tensor(np.zeros(shape), requires_grad=True)

    d = cfg.d_model
    dh = d // cfg.heads
    n_channels = len(CHANNELS)
    l1 = cfg.diffusion_steps + 1
    # a block takes the fans of its joined matrix and is drawn in its row order
    pair, gate_in = (2 * d, cfg.attn_dim), (2 * d + 1, 1)
    id_in = (identity_input_dim(cfg), cfg.id_hidden)
    params: dict[str, Tensor] = {}
    params["input_proj.w"] = Tensor(np.vstack([glorot(n_channels, d).data, np.zeros((1, d))]),
                                    requires_grad=True)  # [W_in; b_in]
    params["grade_embed.table"] = glorot(N_GRADES, cfg.grade_embed)
    params["id_mlp.w1_feat"] = glorot(id_in[0] - cfg.grade_embed, cfg.id_hidden, fans=id_in)
    params["id_mlp.w1_grade"] = glorot(cfg.grade_embed, cfg.id_hidden, fans=id_in)
    params["id_mlp.b1"] = zeros(cfg.id_hidden)
    params["id_mlp.w2"] = glorot(cfg.id_hidden, d)
    params["id_mlp.b2"] = zeros(d)
    params["attn.we_own"] = glorot(d, cfg.attn_dim, fans=pair)
    params["attn.we_src"] = glorot(d, cfg.attn_dim, fans=pair)
    params["attn.a"] = glorot(cfg.attn_dim, 1)
    params["edge_gate.w_own"] = glorot(d, 1, fans=gate_in)
    params["edge_gate.w_src"] = glorot(d, 1, fans=gate_in)
    params["edge_gate.w_static"] = glorot(1, fans=gate_in)
    params["edge_gate.b"] = zeros(1)
    params["beta_mlp.w1"] = glorot(d, 16)
    params["beta_mlp.b1"] = zeros(16)
    params["beta_mlp.w2"] = glorot(16, 1)
    params["beta_mlp.b2"] = zeros(1)
    params["agg.wq"] = glorot(cfg.heads, dh, dh)
    params["agg.wk"] = glorot(cfg.heads, dh, dh)
    params["agg.step_bias"] = Tensor(np.ones(l1), requires_grad=True)
    params["out_gate.w_z"] = glorot(d, d, fans=(2 * d, d))
    params["out_gate.w_id"] = glorot(d, d, fans=(2 * d, d))
    params["out_gate.b"] = zeros(d)
    params["head.w1"] = glorot(cfg.t_in * d, cfg.head_hidden)
    params["head.b1"] = zeros(cfg.head_hidden)
    params["head.w2"] = glorot(cfg.head_hidden, cfg.tau * n_channels)
    params["head.b2"] = zeros(cfg.tau * n_channels)
    return params


@dataclass
class ModelState:
    """Everything fixed at graph-build time: stats, contexts, topology. The
    stations are the base stations, or unseen ones (``build_extension``)
    whose ``cross`` graph attaches them to a base state's stations."""

    cfg: RunConfig
    stations: list[StationMeta]
    stats: NormStats
    contexts: Contexts
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
) -> ModelState:
    """Compute stats, contexts and the hybrid graph from the training split."""
    stats = compute_norm_stats(train, stations)
    points = np.stack([s.point for s in stations])
    geo_idx = knn_geo(points, cfg.k_geo)[0]
    contexts = build_contexts(stations, train, geo_idx, points)
    return _derive_state(cfg, stations, points, stats, contexts, geo_idx)


def _derive_state(
    cfg: RunConfig,
    stations: list[StationMeta],
    points: np.ndarray,
    stats: NormStats,
    contexts: Contexts,
    geo_idx: np.ndarray | None = None,
    nbr: np.ndarray | None = None,
) -> ModelState:
    """The model state as a pure function of the stations and their (N, 2)
    coordinates, the training-split statistics and contexts: training and
    reload both build it here, so a reloaded model runs on exactly the graph
    it was trained on. On reload ``nbr``, the checkpoint's (N, K) neighbour
    table, takes the place of both searches that training runs."""
    id_features, grades, sem_vectors = _identity_inputs(cfg, stations, points, contexts, stats)
    if nbr is None:
        graph = build_hybrid_graph(points, sem_vectors, cfg.k_geo, cfg.k_sem, cfg.kappa_km,
                                   geo_idx=geo_idx)
    else:
        graph = table_graph(points, nbr, cfg.kappa_km)
    return ModelState(cfg, stations, stats, contexts, graph, id_features, grades, sem_vectors)


def _identity_inputs(
    cfg: RunConfig,
    stations: list[StationMeta],
    points: np.ndarray,
    contexts: Contexts,
    stats: NormStats,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Identity features, resolved grades and semantic vectors of ``stations``,
    one row each: base and unseen stations get them from the same attributes
    and the same training-split statistics."""
    id_features = identity_feature_matrix(stations, points, contexts, cfg.fourier_levels, stats)
    grades = resolve_grade(np.array([s.grade for s in stations]), contexts)
    return id_features, grades, semantic_feature_matrix(id_features, grades)


def forward(
    params: dict[str, Tensor],
    state: ModelState,
    x: np.ndarray,
    collect: bool = False,
    base: dict | None = None,
) -> Tensor | tuple[Tensor, dict]:
    """Forward pass on one batch of normalized inputs (B, T, N, C) for the
    nodes owning ``state.graph``'s rows -> forecast, or (forecast, collect
    dict) with ``collect``.

    Diffusion runs on the C + 1 input channels ``[x || 1]``, not on the D
    projected features ``h = x W_in + b_in``: the graph operator mixes only
    the node axis, so it commutes with the projection, and the (L+1, B, T,
    N, C+1) channel stack times ``input_proj.w = [W_in; b_in]`` is the stack
    that diffusing ``h`` would give. The stations of a ``build_extension``
    state gather from a base run over a ``cross`` graph: ``base`` is that
    run's collect dict, whose ``h_edge`` gives the edge targets and whose
    ``channel_stack`` gives the diffusion messages, read-only. Nothing
    existing is recomputed, which is what makes the existing stations'
    forecasts identical with or without new nodes. The collect dict also
    holds the tail's ``z``, ``gate`` and step ``coeffs`` (see
    ``aggregate_and_fuse``), as tensors off the tape; the lifted stack is
    ``channel_stack @ input_proj.w``.
    """
    cfg, graph = state.cfg, state.graph
    if graph.cross and base is None:
        raise ValueError("the stations of a cross graph need the base run (base=)")
    if base is not None and not graph.cross:
        raise ValueError("base= is only for the stations of a cross graph")
    if x.ndim != 4 or x.shape[2] != graph.n_nodes or x.shape[3] != len(CHANNELS):
        raise ValueError(f"bad input shape {x.shape}")
    e_id = encode_identity(state.id_features, state.grades, params)
    w = params["input_proj.w"]
    u0 = Tensor(np.concatenate([x, np.ones(x.shape[:3] + (1,))], axis=3))
    h_edge = ad.matmul(Tensor(u0.data[:, -1]), w)  # last input step, (B, N, D)
    h_src, u_src = (None, None) if base is None else (base["h_edge"], base["channel_stack"])
    edges = edge_weights(h_edge, graph, params, eta=cfg.eta, h_src=h_src)
    u_stack = diffuse(u0, edges["w_tilde"], graph, cfg.diffusion_steps, cfg.restart, u_src)
    parts = {} if collect else None
    zhat = aggregate_and_fuse(u_stack, e_id, params, cfg.heads, cfg.coeff_mode, parts)
    forecast = forecast_head(zhat, params, cfg.tau, len(CHANNELS))
    if not collect:
        return forecast
    return forecast, {"e_id": e_id, "h_edge": h_edge, "edges": edges, "channel_stack": u_stack,
                      **{name: Tensor(a) for name, a in parts.items()}, "zhat": zhat}


def build_extension(state: ModelState, new_stations: list[StationMeta]) -> ModelState:
    """Unseen stations as a model state of their own: contexts anchored in
    the base stations, identity features from the same attributes and
    training-split statistics, and a ``cross`` graph of directed attachment
    edges into the base graph.

    One geographic search serves both: column 0 of the new stations'
    ``knn_geo`` table is each one's nearest base station, its anchor, and
    the whole table gives the attachment's geographic edges."""
    existing = {s.id for s in state.stations}
    for s in new_stations:
        if s.id in existing:
            raise ValueError(f"new station id {s.id!r} collides with an existing station")
    cfg = state.cfg
    base_points = np.stack([s.point for s in state.stations])
    new_points = np.stack([s.point for s in new_stations])
    geo_idx = knn_geo(base_points, cfg.k_geo, queries=new_points)[0]
    contexts = anchor_context(new_points, geo_idx[:, 0], state.contexts)
    id_features, grades, sem_vectors = _identity_inputs(
        cfg, new_stations, new_points, contexts, state.stats
    )
    graph = attach_new_nodes(base_points, state.sem_vectors, new_points, sem_vectors, cfg.k_geo,
                             cfg.k_sem, cfg.kappa_km, geo_idx=geo_idx)
    return ModelState(cfg, new_stations, state.stats, contexts, graph, id_features, grades,
                      sem_vectors)


def masked_mae_loss(pred: Tensor, target_norm: np.ndarray, mask: np.ndarray) -> Tensor:
    """Mean absolute error over valid entries, in normalized units."""
    m = mask.astype(np.float64)
    total = max(float(m.sum()), 1.0)
    return (ad.abs_(pred - Tensor(target_norm)) * Tensor(m)).sum() / total
