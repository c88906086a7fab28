"""Geographic primitives: great-circle distance, exact k-NN, kernel weights,
and terrain descriptors computed from elevation windows.

Every neighbour search of the engine, geographic here and semantic in
``topology``, selects with ``smallest_k`` from blocks of a full distance
matrix, so results are exact and ties break the same way everywhere. The
geographic search ranks by chord first and certifies each row against the
haversine distances (see ``knn_geo``).
"""

from __future__ import annotations

import numpy as np

EARTH_RADIUS_KM = 6371.0

# entries per distance block in ``smallest_k`` (8 MiB of float64)
_BLOCK_ENTRIES = 1 << 20
# candidates per row that ``knn_geo``'s chord search takes beyond k
_CHORD_EXTRA = 8
# rounding allowance of a computed squared chord between unit vectors, and
# of a computed haversine distance in km (both far above the float64 error)
_CHORD2_SLACK = 1e-12
_HAVERSINE_SLACK_KM = 1e-3


def _check_latlon(p: np.ndarray, name: str) -> None:
    if not np.isfinite(p).all():
        raise ValueError(f"{name}: coordinates must be finite")
    lat, lon = p[..., 0], p[..., 1]
    if np.any(np.abs(lat) > 90.0) or np.any(np.abs(lon) > 180.0):
        raise ValueError(f"{name}: latitude in [-90, 90], longitude in [-180, 180]")


def _radians(p: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    return np.radians(p[..., 0]), np.radians(p[..., 1])


def _great_circle(lat1, lon1, lat2, lon2) -> np.ndarray:
    """Haversine distance in km between points given in radians, unchecked."""
    sdlat = np.sin((lat2 - lat1) / 2.0)
    sdlon = np.sin((lon2 - lon1) / 2.0)
    h = sdlat * sdlat + np.cos(lat1) * np.cos(lat2) * sdlon * sdlon
    return 2.0 * EARTH_RADIUS_KM * np.arcsin(np.sqrt(np.clip(h, 0.0, 1.0)))


def haversine(a, b) -> np.ndarray | float:
    """Great-circle distance in km between (lat, lon) points, broadcasting.

    Accepts arrays of shape (..., 2) in degrees. Longitudes -180 and +180
    refer to the same meridian and give distance 0.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    _check_latlon(a, "a")
    _check_latlon(b, "b")
    d = _great_circle(*_radians(a), *_radians(b))
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


def _unit_vectors(lat: np.ndarray, lon: np.ndarray) -> np.ndarray:
    """(M, 3) points on the unit sphere for latitudes and longitudes in radians."""
    cos_lat = np.cos(lat)
    return np.stack([cos_lat * np.cos(lon), cos_lat * np.sin(lon), np.sin(lat)], axis=1)


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

    Candidates come from the squared chord between 3-D unit vectors (one
    matmul per block; the chord grows with the great-circle angle), ``k``
    plus ``_CHORD_EXTRA`` per row, re-ranked by ``haversine``. A row is kept
    only when its k-th distance is below what any point outside its
    candidates can reach; every other row is searched again over all
    points by ``haversine``, so the result equals the full haversine search
    bit for bit.
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
    p_lat, p_lon = _radians(points)
    q_lat, q_lon = (p_lat, p_lon) if not cross else _radians(q)

    # candidates by chord: ascending -u.v is ascending chord^2 = 2 - 2 u.v
    m = min(k + _CHORD_EXTRA, limit)
    neg_uq = -_unit_vectors(q_lat, q_lon)
    up_t = _unit_vectors(p_lat, p_lon).T.copy()

    def chord_block(lo, hi):
        d = neg_uq[lo:hi] @ up_t
        if not cross:
            d[np.arange(hi - lo), np.arange(lo, hi)] = np.inf
        return d

    cand, neg_dot = smallest_k(chord_block, len(q), n, m)
    cand_km = _great_circle(q_lat[:, None], q_lon[:, None], p_lat[cand], p_lon[cand])
    order = np.lexsort((cand, cand_km), axis=1)[:, :k]
    idx = np.take_along_axis(cand, order, axis=1)
    dist = np.take_along_axis(cand_km, order, axis=1)
    if m == limit:  # every point is a candidate
        return idx, dist

    # any point outside the candidates has chord^2 >= the last candidate's
    chord2 = np.maximum(2.0 + 2.0 * neg_dot[:, -1] - _CHORD2_SLACK, 0.0)
    reach_km = 2.0 * EARTH_RADIUS_KM * np.arcsin(np.minimum(np.sqrt(chord2) / 2.0, 1.0))
    redo = np.flatnonzero(~(dist[:, -1] < reach_km - _HAVERSINE_SLACK_KM))
    if len(redo):

        def haversine_block(lo, hi):
            rows = redo[lo:hi]
            d = _great_circle(q_lat[rows, None], q_lon[rows, None], p_lat[None], p_lon[None])
            if not cross:
                d[np.arange(hi - lo), rows] = np.inf
            return d

        idx[redo], dist[redo] = smallest_k(haversine_block, len(redo), n, k)
    return idx, dist
