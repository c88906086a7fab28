import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import omniair.geo as geo_mod
from omniair.geo import (
    EARTH_RADIUS_KM,
    gaussian_static_weight,
    haversine,
    knn_geo,
    roughness,
    tpi,
)


def reference_haversine(lat1, lon1, lat2, lon2):
    """Independent scalar implementation used as the oracle."""
    p1, l1, p2, l2 = map(math.radians, (lat1, lon1, lat2, lon2))
    h = math.sin((p2 - p1) / 2) ** 2 + math.cos(p1) * math.cos(p2) * math.sin((l2 - l1) / 2) ** 2
    return 2 * EARTH_RADIUS_KM * math.asin(math.sqrt(h))


def reference_knn_geo(points, k, queries=None):
    """Per-row search: full lexsort of each query's distances, (distance, index)."""
    q = points if queries is None else queries
    idx = np.empty((len(q), k), dtype=np.int64)
    dist = np.empty((len(q), k))
    for i, p in enumerate(q):
        d = np.atleast_1d(haversine(p, points))
        if queries is None:
            d[i] = np.inf
        order = np.lexsort((np.arange(len(points)), d))[:k]
        idx[i], dist[i] = order, d[order]
    return idx, dist


@st.composite
def station_sets(draw):
    """Global stations drawn from a small pool, so that duplicates force ties,
    a k from 1 to N - 1, queries from the same pool, and a block size."""
    coord = st.tuples(st.floats(-90, 90), st.floats(-180, 180))
    pool = np.array(draw(st.lists(coord, min_size=1, max_size=8)))
    n = draw(st.integers(2, 30))
    points = pool[draw(st.lists(st.integers(0, len(pool) - 1), min_size=n, max_size=n))]
    k = draw(st.one_of(st.just(1), st.just(n - 1), st.integers(1, n - 1)))
    m = draw(st.integers(1, 6))
    queries = pool[draw(st.lists(st.integers(0, len(pool) - 1), min_size=m, max_size=m))]
    block_entries = draw(st.sampled_from([1, 37, 1 << 20]))
    return points, k, queries, block_entries


class TestHaversine:
    def test_identical_points(self):
        assert haversine((0.0, 0.0), (0.0, 0.0)) == 0.0

    def test_antipodal_equatorial(self):
        assert haversine((0.0, 0.0), (0.0, 180.0)) == pytest.approx(
            math.pi * EARTH_RADIUS_KM, abs=1e-6
        )

    def test_paris_london(self):
        paris, london = (48.8566, 2.3522), (51.5074, -0.1278)
        expected = reference_haversine(*paris, *london)
        assert abs(expected - 343.5) < 1.0
        assert haversine(paris, london) == pytest.approx(expected, abs=1e-9)

    def test_dateline_equivalence(self):
        assert haversine((10.0, -180.0), (10.0, 180.0)) == pytest.approx(0.0, abs=1e-9)

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            haversine((np.nan, 0.0), (0.0, 0.0))
        with pytest.raises(ValueError):
            haversine((95.0, 0.0), (0.0, 0.0))

    @given(
        st.tuples(
            st.floats(-90, 90),
            st.floats(-180, 180),
            st.floats(-90, 90),
            st.floats(-180, 180),
        )
    )
    @settings(max_examples=100, deadline=None)
    def test_symmetry_exact(self, coords):
        lat1, lon1, lat2, lon2 = coords
        a, b = (lat1, lon1), (lat2, lon2)
        assert haversine(a, b) == haversine(b, a)
        assert haversine(a, b) >= 0.0

    def test_triangle_inequality_random(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            pts = np.stack(
                [rng.uniform(-90, 90, size=3), rng.uniform(-180, 180, size=3)], axis=1
            )
            ab = haversine(pts[0], pts[1])
            bc = haversine(pts[1], pts[2])
            ac = haversine(pts[0], pts[2])
            assert ac <= ab + bc + 1e-9


class TestKnn:
    def test_collinear_tie_breaks_low_index(self):
        pts = [(0.0, 0.0), (0.0, 1.0), (0.0, 2.0)]
        idx, dist = knn_geo(pts, 1)
        assert idx[1, 0] == 0  # equidistant endpoints resolve to the lower index
        one_degree = math.pi * EARTH_RADIUS_KM / 180.0
        assert dist[1, 0] == pytest.approx(one_degree, abs=1e-9)

    def test_k2_middle_point(self):
        pts = [(0.0, 0.0), (0.0, 1.0), (0.0, 2.0)]
        idx, dist = knn_geo(pts, 2)
        one_degree = math.pi * EARTH_RADIUS_KM / 180.0
        assert set(idx[1]) == {0, 2}
        np.testing.assert_allclose(dist[1], one_degree, atol=1e-9)
        assert abs(one_degree - 111.19) < 0.01

    def test_two_points(self):
        idx, _ = knn_geo([(10.0, 20.0), (-5.0, 30.0)], 1)
        assert idx[0, 0] == 1 and idx[1, 0] == 0

    def test_k_too_large(self):
        with pytest.raises(ValueError):
            knn_geo([(0.0, 0.0), (1.0, 1.0)], 2)

    def test_sorted_by_distance(self):
        rng = np.random.default_rng(1)
        pts = np.stack([rng.uniform(-60, 60, 40), rng.uniform(-150, 150, 40)], axis=1)
        idx, dist = knn_geo(pts, 5)
        assert np.all(np.diff(dist, axis=1) >= 0)
        assert not np.any(idx == np.arange(40)[:, None])

    def test_deterministic(self):
        rng = np.random.default_rng(2)
        pts = np.stack([rng.uniform(-60, 60, 30), rng.uniform(-150, 150, 30)], axis=1)
        idx1, dist1 = knn_geo(pts, 4)
        idx2, dist2 = knn_geo(pts, 4)
        assert np.array_equal(idx1, idx2)
        assert np.array_equal(dist1, dist2)

    def test_banded_path_matches_brute_force(self):
        # a global network large enough to span several row blocks
        rng = np.random.default_rng(4)
        n = 2300
        pts = np.stack([rng.uniform(-80, 80, n), rng.uniform(-179, 179, n)], axis=1)
        idx, dist = knn_geo(pts, 3)
        idx_ref, dist_ref = reference_knn_geo(pts, 3)
        assert np.array_equal(idx, idx_ref)
        np.testing.assert_array_equal(dist, dist_ref)

    @given(station_sets())
    @settings(max_examples=60, deadline=None)
    def test_matches_per_row_reference(self, case):
        points, k, queries, block_entries = case
        with mock.patch.object(geo_mod, "_BLOCK_ENTRIES", block_entries):
            idx, dist = knn_geo(points, k)
            q_idx, q_dist = knn_geo(points, k, queries=queries)
        idx_ref, dist_ref = reference_knn_geo(points, k)
        assert np.array_equal(idx, idx_ref)
        np.testing.assert_array_equal(dist, dist_ref)
        q_idx_ref, q_dist_ref = reference_knn_geo(points, k, queries)
        assert np.array_equal(q_idx, q_idx_ref)
        np.testing.assert_array_equal(q_dist, q_dist_ref)

    def test_queries_may_pick_every_point(self):
        pts = [(0.0, 0.0), (0.0, 1.0)]
        idx, dist = knn_geo(pts, 2, queries=[(0.0, 0.0)])
        assert list(idx[0]) == [0, 1] and dist[0, 0] == 0.0
        with pytest.raises(ValueError):
            knn_geo(pts, 3, queries=[(0.0, 0.0)])


class TestChordCertificate:
    """Point sets where the chord candidates cannot prove every row, so some
    rows go back to the full haversine search; results must still equal the
    per-row reference."""

    def _check(self, points, k, queries=None, fallback=True):
        with mock.patch.object(geo_mod, "smallest_k", wraps=geo_mod.smallest_k) as spy:
            idx, dist = knn_geo(points, k, queries=queries)
        idx_ref, dist_ref = reference_knn_geo(np.asarray(points, dtype=float), k,
                                              None if queries is None else np.asarray(queries))
        assert np.array_equal(idx, idx_ref)
        np.testing.assert_array_equal(dist, dist_ref)
        assert spy.call_count == (2 if fallback else 1)

    def test_duplicated_points(self):
        # 20 copies of one place: every candidate and the points past them
        # are at distance 0
        pts = np.array([(12.5, 40.25)] * 20 + [(13.0, 41.0)] * 20)
        self._check(pts, 3)

    @pytest.mark.parametrize("k", [1, 2, 5])
    def test_grid_ties(self, k):
        # on a 1-degree grid the east and west neighbours tie exactly (and on
        # the equator the north and south ones too); with one extra
        # candidate such a tie runs past the candidates
        lat, lon = np.meshgrid(np.arange(-4.0, 5.0), np.arange(-4.0, 5.0), indexing="ij")
        pts = np.stack([lat.ravel(), lon.ravel()], axis=1)
        with mock.patch.object(geo_mod, "_CHORD_EXTRA", 1):
            self._check(pts, k)

    def test_antipodes(self):
        # each query's antipode is on the ring, and its nearest stations are
        # ten copies of one point
        ring = [(0.0, lon) for lon in np.arange(-180.0, 180.0, 15.0)]
        pts = np.array(ring + [(0.0, 0.0)] * 10)
        self._check(pts, 2, queries=[(0.0, 180.0), (0.0, -180.0), (0.0, 0.0)])

    def test_poles(self):
        # every longitude names the same pole point
        pts = np.array([(90.0, lon) for lon in np.linspace(-180, 180, 15)]
                       + [(-90.0, lon) for lon in np.linspace(-180, 180, 15)])
        self._check(pts, 5)

    def test_date_line(self):
        # longitudes -180 and 180 name one place: 20 points at distance 0
        pts = np.array([(5.0, 180.0), (5.0, -180.0)] * 10
                       + [(lat, 179.5) for lat in np.linspace(-10, 10, 12)])
        self._check(pts, 3, queries=[(5.0, -180.0), (-3.0, 180.0)])

    def test_spread_points_need_no_fallback(self):
        rng = np.random.default_rng(7)
        pts = np.stack([rng.uniform(30, 40, 500), rng.uniform(100, 110, 500)], axis=1)
        self._check(pts, 10, fallback=False)

    def test_every_point_a_candidate(self):
        pts = np.array([(0.0, 0.0)] * 6)
        self._check(pts, 2, fallback=False)


class TestGaussianWeight:
    def test_zero_distance(self):
        assert gaussian_static_weight(0.0, 10.0) == 1.0

    def test_d_equals_kappa(self):
        assert gaussian_static_weight(100.0, 100.0) == pytest.approx(math.exp(-0.5), rel=1e-12)

    def test_threshold_scale(self):
        # 300 km at the 100 km kernel scale
        assert gaussian_static_weight(300.0, 100.0) == pytest.approx(math.exp(-4.5), rel=1e-12)
        assert math.exp(-4.5) == pytest.approx(0.011109, abs=1e-6)

    def test_invalid_kappa(self):
        with pytest.raises(ValueError):
            gaussian_static_weight(1.0, 0.0)
        with pytest.raises(ValueError):
            gaussian_static_weight(1.0, -3.0)

    @given(st.floats(1e-3, 1e4), st.floats(0.0, 20.0))
    @settings(max_examples=100, deadline=None)
    def test_range(self, kappa, ratio):
        # d/kappa capped where exp() stays representable in float64
        w = gaussian_static_weight(ratio * kappa, kappa)
        assert 0.0 < w <= 1.0

    def test_monotone_decreasing(self):
        d = np.linspace(0, 500, 100)
        w = gaussian_static_weight(d, 77.0)
        assert np.all(np.diff(w) < 0)


class TestTerrain:
    def test_flat(self):
        assert tpi(100.0, [100.0, 100.0]) == 0.0

    def test_ridge(self):
        assert tpi(100.0, [80.0, 80.0, 80.0]) == pytest.approx(20.0)

    def test_valley(self):
        assert tpi(50.0, [100.0]) == pytest.approx(-50.0)

    def test_empty_window(self):
        with pytest.raises(ValueError):
            tpi(1.0, [])
        with pytest.raises(ValueError):
            roughness(1.0, [])

    def test_roughness_constant(self):
        assert roughness(250.0, [250.0, 250.0, 250.0]) == 0.0

    def test_roughness_two_values(self):
        # window [0, 10]: population std = 5
        assert roughness(0.0, [10.0]) == pytest.approx(5.0)

    def test_roughness_hand_computed(self):
        # window [0, 0, 0, 12]: mean 3, var (3*9 + 81)/4 = 27, std = 3*sqrt(3)
        expected = math.sqrt((3 * 9 + 81) / 4)
        assert expected == pytest.approx(3 * math.sqrt(3), rel=1e-12)
        assert roughness(0.0, [0.0, 0.0, 12.0]) == pytest.approx(expected, rel=1e-12)

    @given(st.floats(-1e4, 1e4), st.integers(1, 8))
    @settings(max_examples=50, deadline=None)
    def test_constant_window_properties(self, level, n):
        # rounding of the window mean allows an ulp-scale residual
        tol = 1e-11 * max(abs(level), 1.0)
        assert abs(tpi(level, [level] * n)) <= tol
        assert roughness(level, [level] * n) <= tol
