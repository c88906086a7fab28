"""Geographic primitives: great-circle distance, exact k-NN, kernel weights,
and terrain descriptors computed from elevation windows.

Every neighbour search of the engine, geographic here and semantic in
``topology``, selects with ``smallest_k`` from blocks of a full distance
matrix, so results are exact and ties break the same way everywhere.
"""

from __future__ import annotations

import numpy as np

EARTH_RADIUS_KM = 6371.0

# entries per distance block in ``smallest_k`` (8 MiB of float64)
_BLOCK_ENTRIES = 1 << 20


def _check_latlon(p: np.ndarray, name: str) -> None:
    if not np.isfinite(p).all():
        raise ValueError(f"{name}: coordinates must be finite")
    lat, lon = p[..., 0], p[..., 1]
    if np.any(np.abs(lat) > 90.0) or np.any(np.abs(lon) > 180.0):
        raise ValueError(f"{name}: latitude in [-90, 90], longitude in [-180, 180]")


def haversine(a, b) -> np.ndarray | float:
    """Great-circle distance in km between (lat, lon) points, broadcasting.

    Accepts arrays of shape (..., 2) in degrees. Longitudes -180 and +180
    refer to the same meridian and give distance 0.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    _check_latlon(a, "a")
    _check_latlon(b, "b")
    lat1, lon1 = np.radians(a[..., 0]), np.radians(a[..., 1])
    lat2, lon2 = np.radians(b[..., 0]), np.radians(b[..., 1])
    sdlat = np.sin((lat2 - lat1) / 2.0)
    sdlon = np.sin((lon2 - lon1) / 2.0)
    h = sdlat * sdlat + np.cos(lat1) * np.cos(lat2) * sdlon * sdlon
    d = 2.0 * EARTH_RADIUS_KM * np.arcsin(np.sqrt(np.clip(h, 0.0, 1.0)))
    return d if d.ndim else float(d)


def gaussian_static_weight(d, kappa: float):
    """Distance-decay kernel exp(-d^2 / (2 kappa^2)); d in km, kappa > 0."""
    if not np.isfinite(kappa) or kappa <= 0:
        raise ValueError("kappa must be positive and finite")
    d = np.asarray(d, dtype=np.float64)
    if not np.isfinite(d).all() or np.any(d < 0):
        raise ValueError("distances must be finite and non-negative")
    w = np.exp(-(d * d) / (2.0 * kappa * kappa))
    return w if w.ndim else float(w)


def tpi(center: float, neighbors) -> float:
    """Topographic position index: center elevation minus neighborhood mean."""
    neighbors = np.asarray(neighbors, dtype=np.float64)
    if neighbors.size == 0:
        raise ValueError("tpi: neighbor window must be non-empty")
    if not (np.isfinite(center) and np.isfinite(neighbors).all()):
        raise ValueError("tpi: elevations must be finite")
    return float(center - neighbors.mean())


def roughness(center: float, neighbors) -> float:
    """Population standard deviation of the window including its center."""
    neighbors = np.asarray(neighbors, dtype=np.float64)
    if neighbors.size == 0:
        raise ValueError("roughness: neighbor window must be non-empty")
    window = np.concatenate([[center], neighbors])
    if not np.isfinite(window).all():
        raise ValueError("roughness: elevations must be finite")
    return float(window.std())


def smallest_k(block, n_rows: int, n_cols: int, k: int):
    """Each row's k smallest entries of an (n_rows, n_cols) distance matrix.

    ``block(lo, hi)`` returns rows ``lo:hi`` of the matrix; an entry set to
    inf is taken only when nothing smaller is left. The matrix is built in
    blocks of about ``_BLOCK_ENTRIES`` entries, so memory stays bounded for
    any N. Returns (idx, dist), each (n_rows, k), rows sorted by ascending
    distance with equal distances broken toward the lower column.
    """
    idx = np.empty((n_rows, k), dtype=np.int64)
    dist = np.empty((n_rows, k))
    if k == 0:
        return idx, dist
    step = max(1, _BLOCK_ENTRIES // n_cols)
    for lo in range(0, n_rows, step):
        hi = min(lo + step, n_rows)
        d = block(lo, hi)
        kth = np.partition(d, k - 1, axis=1)[:, k - 1 : k]
        # keep every entry tied with the k-th value, so that the lexsort
        # below decides ties by column over all of them
        m = int(np.count_nonzero(d <= kth, axis=1).max())
        cand = np.argpartition(d, m - 1, axis=1)[:, :m]
        cand_d = np.take_along_axis(d, cand, axis=1)
        order = np.lexsort((cand, cand_d), axis=1)[:, :k]
        idx[lo:hi] = np.take_along_axis(cand, order, axis=1)
        dist[lo:hi] = np.take_along_axis(cand_d, order, axis=1)
    return idx, dist


def knn_geo(points, k: int, queries=None):
    """k nearest stations by great-circle distance, exact for any N.

    Without ``queries`` every station queries the others and never picks
    itself. With ``queries`` ((M, 2) lat/lon), each query picks among all of
    ``points``. Returns (idx, dist), each (M, k), rows sorted by ascending
    distance; equal distances break toward the lower station index.
    """
    points = np.asarray(points, dtype=np.float64)
    _check_latlon(points, "points")
    n = len(points)
    cross = queries is not None
    if cross:
        q = np.asarray(queries, dtype=np.float64)
        _check_latlon(q, "queries")
    else:
        q = points
    limit = n if cross else n - 1
    if not 0 < k <= limit:
        raise ValueError(f"knn_geo: need 0 < k <= {limit}, got k={k}, N={n}")

    def block(lo, hi):
        d = haversine(q[lo:hi, None], points[None])
        if not cross:
            d[np.arange(hi - lo), np.arange(lo, hi)] = np.inf
        return d

    return smallest_k(block, len(q), n, k)
