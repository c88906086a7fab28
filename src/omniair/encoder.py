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
from .data import CHANNELS, N_GRADES, NormStats, SeriesFrame, StationMeta
from .geo import haversine

log = logging.getLogger("omniair")


def normalize_coords(points_deg: np.ndarray) -> np.ndarray:
    """Map (lat, lon) degrees onto [-1, 1]^2."""
    p = np.asarray(points_deg, dtype=np.float64)
    if p.shape[-1] != 2:
        raise ValueError("points must have a trailing (lat, lon) axis")
    return p / np.array([90.0, 180.0])


def fourier_features(points_deg, levels: int) -> np.ndarray:
    """Unit-norm multi-scale features of coordinates: sin and cos of
    2 pi 2^j x per coordinate and level j < ``levels``; shape (..., 4 * levels)."""
    if levels <= 0:
        raise ValueError("fourier levels must be positive")
    p = normalize_coords(points_deg)
    freqs = 2.0 ** np.arange(levels)  # (M,)
    args = 2.0 * np.pi * freqs[:, None] * p[..., None, :]  # (..., M, 2)
    feats = np.concatenate([np.sin(args), np.cos(args)], axis=-1)  # (..., M, 4)
    scale = 1.0 / np.sqrt(2.0 * levels)
    return (feats * scale).reshape(p.shape[:-1] + (4 * levels,))


CONTEXT_DIM = 4 + N_GRADES


@dataclass(frozen=True)
class Contexts:
    """Training-split statistics of each station's geographic neighborhood,
    one row per station; the two arrays are the checkpoint's buffers.

    ``vectors`` columns: the neighbors' mean mu and standard deviation sigma
    of their historical means, the km from the station to the neighbors'
    pollution-weighted centroid, the station's own mean minus mu, and the
    grade distribution of the neighbors of known grade (``N_GRADES`` columns
    summing to 1, all zero when no neighbor's grade is known).
    """

    vectors: np.ndarray  # (N, CONTEXT_DIM)
    centroids: np.ndarray  # (N, 2) (lat, lon)

    @property
    def level_dist(self) -> np.ndarray:
        return self.vectors[:, 4:]


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
    points: np.ndarray,
) -> Contexts:
    """Neighborhood contexts from the (N, k) geographic neighbor table and
    the stations' (N, 2) coordinates.

    A station without history of its own uses the global mean as its own
    mean; one whose neighbors all lack history falls back to the global mean
    with zero spread and its own location as centroid. Both are logged, as
    is a station of unknown grade with no neighbor of known grade (it
    resolves to grade 0).
    Rows are reduced in groups of equal usable-neighbor count m, so every
    statistic sums the same m values in the same order as a per-station
    reduction would.
    """
    c_means, defined = station_historical_means(train)
    global_mean = float(c_means[defined].mean()) if defined.any() else 0.0
    for i in np.flatnonzero(~defined):
        log.warning("station %s: no %s observation in the training split, "
                    "its own mean is the global mean", stations[i].id, CHANNELS[0])
    n = len(stations)
    own_grades = np.array([s.grade for s in stations])
    grades = own_grades[nbr_idx]  # (N, k); an unknown grade (-1) is not counted
    cells = np.arange(n)[:, None] * N_GRADES + grades
    known = (grades >= 0) & (grades < N_GRADES)
    level = np.bincount(cells[known], minlength=n * N_GRADES).reshape(n, N_GRADES)
    counted = level.sum(axis=1)
    for i in np.flatnonzero((own_grades < 0) & (counted == 0)):
        log.warning("station %s: unknown grade and no neighbor of known grade, "
                    "it resolves to grade 0", stations[i].id)
    vectors = np.zeros((n, CONTEXT_DIM))
    vectors[:, 0] = global_mean
    vectors[:, 4:] = level / np.maximum(counted, 1)[:, None]
    centroids = points.astype(np.float64)
    usable = defined[nbr_idx]
    count = usable.sum(axis=1)
    for m in np.unique(count[count > 0]):
        group = np.flatnonzero(count == m)
        idx = nbr_idx[group][usable[group]].reshape(len(group), m)
        c, p = c_means[idx], points[idx]  # (G, m), (G, m, 2)
        weight = c.sum(axis=1)
        flat = np.abs(weight) < 1e-12
        weighted = (c[:, :, None] * p).sum(axis=1) / np.where(flat, 1.0, weight)[:, None]
        centroids[group] = np.where(flat[:, None], p.mean(axis=1), weighted)
        vectors[group, 0] = c.mean(axis=1)
        vectors[group, 1] = c.std(axis=1)
        vectors[group, 2] = haversine(points[group], centroids[group])
    for i in np.flatnonzero(count == 0):
        log.warning("station %s: no neighbor history, falling back to global mean",
                    stations[i].id)
    vectors[:, 3] = np.where(defined, c_means, global_mean) - vectors[:, 0]
    return Contexts(vectors, centroids)


def anchor_context(points_new, nearest: np.ndarray, anchors: Contexts) -> Contexts:
    """Contexts for unseen locations: copy the nearest anchor's statistics.

    ``points_new`` is (M, 2) and ``nearest`` the (M,) index of each one's
    nearest anchor. The centroid offset is recomputed from the new
    coordinates and the local anomaly is zeroed (a new station has no
    history of its own).
    """
    vectors = anchors.vectors[nearest]
    centroids = anchors.centroids[nearest]
    vectors[:, 2] = haversine(points_new, centroids)
    vectors[:, 3] = 0.0
    return Contexts(vectors, centroids)


def resolve_grade(grades: np.ndarray, contexts: Contexts) -> np.ndarray:
    """Unknown grades (-1) take the most common grade in the neighborhood."""
    return np.where(grades < 0, contexts.level_dist.argmax(axis=1), grades)


def identity_feature_matrix(
    stations: list[StationMeta],
    points: np.ndarray,
    contexts: Contexts,
    levels: int,
    stats: NormStats,
) -> np.ndarray:
    """Constant (non-learnable) part of the encoder input, one row per station."""
    fourier = fourier_features(points, levels)
    geo = stats.normalize_geo(np.stack([s.geo_feats for s in stations]))
    return np.concatenate([fourier, contexts.vectors, geo], axis=1)


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

    Two-layer tanh MLP over [features || grade_embedding[grade]], with the
    first layer's weight stored as its two row blocks ``id_mlp.w1_feat`` and
    ``id_mlp.w1_grade``: ``tanh(features w1_feat + (table w1_grade +
    b1)[grade])``. The grade table is projected once, 6 rows, and indexed
    by grade, never by station, so unseen stations encode with the same
    parameters as training stations.
    """
    w1_feat = params["id_mlp.w1_feat"]
    if features.shape[1] != w1_feat.shape[0]:
        raise ValueError(
            f"identity features have dim {features.shape[1]}, expected {w1_feat.shape[0]}"
        )
    # the bias rides on the 6 grade rows, so no (N, id_hidden) sum is added for it
    grade_rows = ad.matmul(params["grade_embed.table"], params["id_mlp.w1_grade"])
    grade_rows = grade_rows + params["id_mlp.b1"]
    psi = ad.gather(grade_rows, np.asarray(grades, dtype=np.intp), axis=0)
    h = ad.tanh(ad.matmul(Tensor(features), w1_feat) + psi)
    return ad.matmul(h, params["id_mlp.w2"]) + params["id_mlp.b2"]
