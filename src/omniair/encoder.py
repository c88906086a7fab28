"""Inductive station identity encoding.

A station's identity is computed from observable attributes only: a
multi-scale Fourier map of its coordinates, statistics of its geographic
neighborhood, z-scored static attributes, and a learnable embedding of its
pollution grade. Nothing here indexes a per-station table, which is what
makes the encoder applicable to stations never seen during training.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .data import N_GRADES, NormStats, SeriesFrame, StationMeta
from .geo import haversine, knn_geo

log = logging.getLogger("omniair")


@dataclass(frozen=True)
class FourierConfig:
    """Coordinate feature mapping configuration.

    ``deterministic`` mode uses a geometric frequency ladder 2^j and
    emits sin/cos per coordinate per level (dimension 4*levels).
    ``gaussian`` mode draws random 2-d frequencies from N(0, bandwidth^2)
    and emits one sin/cos pair per draw (dimension 2*levels).
    Both are scaled so the feature vector has unit Euclidean norm.
    """

    levels: int = 8
    mode: str = "deterministic"
    bandwidth: float = 1.0
    seed: int = 0

    def __post_init__(self):
        if self.levels <= 0:
            raise ValueError("fourier levels must be positive")
        if self.mode not in ("deterministic", "gaussian"):
            raise ValueError(f"unknown fourier mode {self.mode!r}")
        if self.mode == "gaussian" and self.bandwidth <= 0:
            raise ValueError("bandwidth must be positive")

    @property
    def dim(self) -> int:
        return 4 * self.levels if self.mode == "deterministic" else 2 * self.levels


def normalize_coords(points_deg: np.ndarray) -> np.ndarray:
    """Map (lat, lon) degrees onto [-1, 1]^2."""
    p = np.asarray(points_deg, dtype=np.float64)
    return p / np.array([90.0, 180.0])


def fourier_features(points_deg, cfg: FourierConfig) -> np.ndarray:
    """Unit-norm Fourier features of coordinates; shape (..., cfg.dim)."""
    p = normalize_coords(points_deg)
    if p.shape[-1] != 2:
        raise ValueError("points must have a trailing (lat, lon) axis")
    if cfg.mode == "deterministic":
        freqs = 2.0 ** np.arange(cfg.levels)  # (M,)
        args = 2.0 * np.pi * freqs[:, None] * p[..., None, :]  # (..., M, 2)
        feats = np.concatenate([np.sin(args), np.cos(args)], axis=-1)  # (..., M, 4)
        scale = 1.0 / np.sqrt(2.0 * cfg.levels)
        return (feats * scale).reshape(p.shape[:-1] + (4 * cfg.levels,))
    rng = np.random.default_rng(cfg.seed)
    b = rng.normal(0.0, cfg.bandwidth, size=(cfg.levels, 2))  # (M, 2)
    args = 2.0 * np.pi * (p @ b.T)  # (..., M)
    scale = 1.0 / np.sqrt(cfg.levels)
    return np.concatenate([np.cos(args), np.sin(args)], axis=-1) * scale


CONTEXT_DIM = 4 + N_GRADES


@dataclass
class NeighborContext:
    """Training-split statistics of a station's geographic neighborhood."""

    mu_nbr: float
    sigma_nbr: float
    delta_c_km: float
    delta_self: float
    level_dist: np.ndarray  # (6,), sums to 1
    centroid: np.ndarray  # (lat, lon) of the pollution-weighted centroid
    fallback: bool = False

    def vector(self) -> np.ndarray:
        return np.concatenate(
            [[self.mu_nbr, self.sigma_nbr, self.delta_c_km, self.delta_self], self.level_dist]
        )

    @classmethod
    def from_vector(
        cls, vector: np.ndarray, centroid: np.ndarray, fallback: bool
    ) -> "NeighborContext":
        """The inverse of ``vector``; the centroid and fallback flag are stored apart."""
        mu, sigma, delta_c, delta_self = map(float, vector[:4])
        return cls(mu, sigma, delta_c, delta_self, np.array(vector[4:]), np.array(centroid),
                   bool(fallback))


def station_historical_means(train: SeriesFrame) -> tuple[np.ndarray, np.ndarray]:
    """Per-station mean of the first channel over valid training entries.

    Returns (means, defined) where defined marks stations with at least one
    valid observation.
    """
    vals = train.values[:, :, 0]
    mask = train.valid[:, :, 0]
    count = mask.sum(axis=0)
    total = np.where(mask, vals, 0.0).sum(axis=0)
    defined = count > 0
    means = np.where(defined, total / np.maximum(count, 1), 0.0)
    return means, defined


def build_contexts(
    stations: list[StationMeta],
    train: SeriesFrame,
    nbr_idx: np.ndarray,
) -> list[NeighborContext]:
    """Neighborhood context per station from the geographic k-NN lists."""
    c_means, defined = station_historical_means(train)
    global_mean = float(c_means[defined].mean()) if defined.any() else 0.0
    points = np.stack([s.point for s in stations])
    grades = np.array([s.grade for s in stations])
    contexts = []
    for i, nbrs in enumerate(nbr_idx):
        nbrs = np.asarray(nbrs)
        usable = nbrs[defined[nbrs]]
        level = np.bincount(np.clip(grades[nbrs], 0, None), minlength=N_GRADES)[:N_GRADES]
        level = level / max(level.sum(), 1)
        c_i = c_means[i] if defined[i] else global_mean
        if usable.size == 0:
            log.warning(
                "station %s: no neighbor history, falling back to global mean",
                stations[i].id,
            )
            contexts.append(
                NeighborContext(
                    global_mean, 0.0, 0.0, c_i - global_mean, level, points[i].copy(), True
                )
            )
            continue
        c = c_means[usable]
        mu = float(c.mean())
        sigma = float(c.std())
        weight = c.sum()
        if abs(weight) < 1e-12:
            centroid = points[usable].mean(axis=0)
        else:
            centroid = (c[:, None] * points[usable]).sum(axis=0) / weight
        delta_c = float(haversine(points[i], centroid))
        contexts.append(NeighborContext(mu, sigma, delta_c, c_i - mu, level, centroid))
    return contexts


def anchor_context(
    points_new,
    anchor_points: np.ndarray,
    anchor_contexts: list[NeighborContext],
) -> list[NeighborContext]:
    """Contexts for unseen locations: copy the nearest anchor's statistics.

    ``points_new`` is (M, 2); one nearest-anchor search serves all M. The
    centroid offset is recomputed from the new coordinates and the local
    anomaly is zeroed (a new station has no history of its own).
    Equidistant anchors resolve to the lower index.
    """
    if len(anchor_contexts) == 0:
        raise ValueError("anchor_context: need at least one anchor")
    points_new = np.asarray(points_new, dtype=np.float64)
    if points_new.ndim != 2 or points_new.shape[1] != 2:
        raise ValueError(f"anchor_context: points must be (M, 2), got {points_new.shape}")
    idx, _ = knn_geo(anchor_points, 1, queries=points_new)
    contexts = []
    for p, i in zip(points_new, idx[:, 0]):
        a = anchor_contexts[int(i)]
        contexts.append(
            NeighborContext(
                a.mu_nbr,
                a.sigma_nbr,
                float(haversine(p, a.centroid)),
                0.0,
                a.level_dist.copy(),
                a.centroid.copy(),
                a.fallback,
            )
        )
    return contexts


def resolve_grade(grade: int, ctx: NeighborContext) -> int:
    """Unknown grades (-1) take the most common grade in the neighborhood."""
    return int(np.argmax(ctx.level_dist)) if grade < 0 else grade


def identity_feature_matrix(
    stations: list[StationMeta],
    contexts: list[NeighborContext],
    cfg: FourierConfig,
    stats: NormStats,
) -> np.ndarray:
    """Constant (non-learnable) part of the encoder input, one row per station."""
    points = np.stack([s.point for s in stations])
    fourier = fourier_features(points, cfg)
    ctx = np.stack([c.vector() for c in contexts])
    geo = stats.normalize_geo(np.stack([s.geo_feats for s in stations]))
    return np.concatenate([fourier, ctx, geo], axis=1)


def semantic_feature_matrix(id_features: np.ndarray, grades: np.ndarray) -> np.ndarray:
    """Raw feature vectors used for semantic nearest-neighbor search: the
    identity features of ``identity_feature_matrix`` and the resolved grades.

    Uses a one-hot grade instead of the learnable grade embedding so the
    semantic graph can be fixed once before any training happens.
    """
    return np.concatenate([id_features, np.eye(N_GRADES)[grades]], axis=1)


def encode_identity(
    features: np.ndarray,
    grades: np.ndarray,
    params: dict[str, Tensor],
) -> Tensor:
    """Identity embeddings (N, D_id) from constant features + grade lookup.

    Two-layer tanh MLP over [features || grade_embedding[grade]]. The grade
    table is indexed by grade (6 rows), never by station, so unseen stations
    encode with the same parameters as training stations.
    """
    table = params["grade_embed.table"]
    expected = params["id_mlp.w1"].shape[0] - table.shape[1]
    if features.shape[1] != expected:
        raise ValueError(
            f"identity features have dim {features.shape[1]}, expected {expected}"
        )
    psi = ad.gather(table, np.asarray(grades, dtype=np.intp), axis=0)
    x = ad.concat([Tensor(features), psi], axis=1)
    h = ad.tanh(ad.matmul(x, params["id_mlp.w1"]) + params["id_mlp.b1"])
    return ad.matmul(h, params["id_mlp.w2"]) + params["id_mlp.b2"]
