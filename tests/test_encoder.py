import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from omniair.autodiff import Tensor
from omniair.data import SeriesFrame, StationMeta
from omniair.encoder import (
    CONTEXT_DIM,
    FourierConfig,
    NeighborContext,
    anchor_context,
    build_contexts,
    encode_identity,
    fourier_features,
    resolve_grade,
)
from omniair.geo import EARTH_RADIUS_KM
from omniair.oracle import check_lipschitz


class TestFourierMap:
    def test_origin_deterministic(self):
        cfg = FourierConfig(levels=8)
        f = fourier_features((0.0, 0.0), cfg)
        assert f.shape == (32,)
        sin_part = f.reshape(8, 4)[:, :2]
        cos_part = f.reshape(8, 4)[:, 2:]
        np.testing.assert_array_equal(sin_part, 0.0)
        np.testing.assert_allclose(cos_part, 1.0 / math.sqrt(16.0), rtol=1e-15)
        assert np.linalg.norm(f) == pytest.approx(1.0, abs=1e-9)

    @given(st.floats(-90, 90), st.floats(-180, 180), st.integers(1, 12))
    @settings(max_examples=60, deadline=None)
    def test_unit_norm_deterministic(self, lat, lon, levels):
        f = fourier_features((lat, lon), FourierConfig(levels=levels))
        assert abs(np.linalg.norm(f) - 1.0) < 1e-9

    @given(st.floats(-90, 90), st.floats(-180, 180))
    @settings(max_examples=30, deadline=None)
    def test_unit_norm_gaussian(self, lat, lon):
        cfg = FourierConfig(levels=64, mode="gaussian", bandwidth=2.0, seed=1)
        f = fourier_features((lat, lon), cfg)
        assert abs(np.linalg.norm(f) - 1.0) < 1e-9

    def test_kernel_symmetry_exact(self):
        cfg = FourierConfig(levels=32, mode="gaussian", seed=2)
        rng = np.random.default_rng(0)
        x = rng.uniform(-90, 90, 2), rng.uniform(-180, 180, 2)
        fx = fourier_features((x[0][0], x[1][0]), cfg)
        fy = fourier_features((x[0][1], x[1][1]), cfg)
        assert float(fx @ fy) == float(fy @ fx)

    def test_bad_levels(self):
        with pytest.raises(ValueError):
            FourierConfig(levels=0)

    def test_gaussian_kernel_monte_carlo(self):
        # empirical kernel vs the closed-form Gaussian limit; tolerance from
        # the 1/sqrt(M) concentration at M=4096
        rng = np.random.default_rng(3)
        p = rng.uniform(-1, 1, size=(2, 100, 2))
        degrees = p * np.array([90.0, 180.0])
        cfg = FourierConfig(levels=4096, mode="gaussian", bandwidth=1.0, seed=11)
        gx = fourier_features(degrees[0], cfg)
        gy = fourier_features(degrees[1], cfg)
        target = np.exp(-2 * np.pi**2 * ((p[0] - p[1]) ** 2).sum(axis=1))
        dev = np.abs((gx * gy).sum(axis=1) - target)
        assert dev.mean() < 0.05


def _station(i, lat, lon, grade=2):
    return StationMeta(f"s{i}", lat, lon, np.zeros(6), grade)


def _frame(values, valid=None):
    values = np.asarray(values, dtype=np.float64)
    t, n = values.shape
    full = np.zeros((t, n, 6))
    full[:, :, 0] = values
    mask = np.zeros((t, n, 6), dtype=bool)
    mask[:, :, 0] = True if valid is None else valid
    full = np.where(mask, full, 0.0)
    ts = np.arange("2020-01-01", "2020-01-01", dtype="datetime64[D]")
    ts = np.datetime64("2020-01-01") + np.arange(t)
    return SeriesFrame(ts.astype("datetime64[D]"), full, mask, tuple(f"s{i}" for i in range(n)))


class TestNeighborContext:
    def test_uniform_neighborhood(self):
        stations = [_station(0, 0, 0), _station(1, 0, 1), _station(2, 0, -1)]
        frame = _frame(np.full((5, 3), 10.0))
        ctx = build_contexts(stations, frame, np.array([[1, 2], [0, 2], [0, 1]]))
        c = ctx[0]
        assert c.mu_nbr == pytest.approx(10.0)
        assert c.sigma_nbr == pytest.approx(0.0)
        assert c.delta_self == pytest.approx(0.0)
        assert c.level_dist.sum() == pytest.approx(1.0)

    def test_symmetric_offsets_cancel(self):
        stations = [_station(0, 0, 0), _station(1, 0, 1), _station(2, 0, -1)]
        frame = _frame(np.full((5, 3), 7.0))
        ctx = build_contexts(stations, frame, np.array([[1, 2], [0, 2], [0, 1]]))
        assert ctx[0].delta_c_km == pytest.approx(0.0, abs=1e-9)

    def test_weighted_centroid_hand_computed(self):
        # neighbors at lon -1 and +1 with c = 5 and 15: centroid at +0.5 deg,
        # offset = half a degree of equatorial arc
        stations = [_station(0, 0, 0), _station(1, 0, -1), _station(2, 0, 1)]
        vals = np.zeros((4, 3))
        vals[:, 0] = 10.0
        vals[:, 1] = 5.0
        vals[:, 2] = 15.0
        frame = _frame(vals)
        ctx = build_contexts(stations, frame, np.array([[1, 2], [0, 2], [0, 1]]))
        centroid_lon = (5 * (-1) + 15 * 1) / (5 + 15)
        assert centroid_lon == 0.5
        expected_km = math.pi * EARTH_RADIUS_KM * 0.5 / 180.0
        assert expected_km == pytest.approx(55.597, abs=1e-3)
        assert ctx[0].delta_c_km == pytest.approx(expected_km, rel=1e-9)
        assert ctx[0].mu_nbr == pytest.approx(10.0)
        assert ctx[0].delta_self == pytest.approx(0.0)

    def test_all_neighbors_missing_falls_back(self, caplog):
        stations = [_station(0, 0, 0), _station(1, 0, 1), _station(2, 0, -1)]
        valid = np.zeros((5, 3), dtype=bool)
        valid[:, 0] = True  # only the center station has history
        frame = _frame(np.full((5, 3), 4.0), valid)
        with caplog.at_level("WARNING", logger="omniair"):
            ctx = build_contexts(stations, frame, np.array([[1, 2], [0, 2], [0, 1]]))
        assert ctx[0].fallback
        assert ctx[0].delta_c_km == 0.0
        assert any("falling back" in r.message for r in caplog.records)

    @pytest.mark.parametrize("fallback", [False, True])
    def test_vector_round_trip(self, fallback):
        level = np.array([0.5, 0.0, 0.25, 0.0, 0.25, 0.0])
        ctx = NeighborContext(12.5, 3.25, 41.0, -1.75, level, np.array([35.5, 104.25]), fallback)
        vector = ctx.vector()
        assert vector.shape == (CONTEXT_DIM,)
        back = NeighborContext.from_vector(vector, ctx.centroid, float(fallback))
        assert (back.mu_nbr, back.sigma_nbr, back.delta_c_km, back.delta_self) == (
            12.5, 3.25, 41.0, -1.75)
        assert np.array_equal(back.level_dist, level)
        assert np.array_equal(back.centroid, ctx.centroid)
        assert back.fallback is fallback
        assert np.array_equal(back.vector(), vector)
        vector[:] = 0.0  # the rebuilt context owns its arrays
        assert np.array_equal(back.level_dist, level)

    def test_grade_change_only_touches_level_dist(self):
        def grades_to_ctx(grade_of_1):
            stations = [
                _station(0, 0, 0),
                _station(1, 0, 1, grade=grade_of_1),
                _station(2, 0, -1, grade=5),
            ]
            frame = _frame(np.arange(15.0).reshape(5, 3))
            return build_contexts(stations, frame, np.array([[1, 2], [0, 2], [0, 1]]))[0]

        a, b = grades_to_ctx(1), grades_to_ctx(3)
        assert a.mu_nbr == b.mu_nbr and a.sigma_nbr == b.sigma_nbr
        assert a.delta_c_km == b.delta_c_km and a.delta_self == b.delta_self
        assert not np.array_equal(a.level_dist, b.level_dist)
        assert a.level_dist.sum() == pytest.approx(1.0, abs=1e-9)
        assert b.level_dist.sum() == pytest.approx(1.0, abs=1e-9)


class TestAnchorContext:
    def _anchors(self):
        stations = [_station(0, 0, 0), _station(1, 0, 10)]
        vals = np.zeros((4, 2))
        vals[:, 0] = 5.0
        vals[:, 1] = 20.0
        frame = _frame(vals)
        ctx = build_contexts(stations, frame, np.array([[1], [0]]))
        points = np.stack([s.point for s in stations])
        return points, ctx

    def test_coincident_anchor(self):
        points, ctx = self._anchors()
        got = anchor_context([(0.0, 0.0)], points, ctx)[0]
        assert got.mu_nbr == ctx[0].mu_nbr
        assert got.sigma_nbr == ctx[0].sigma_nbr
        assert got.delta_self == 0.0
        np.testing.assert_array_equal(got.level_dist, ctx[0].level_dist)
        # recomputed from the same coordinates: same centroid offset
        assert got.delta_c_km == pytest.approx(ctx[0].delta_c_km, abs=1e-12)

    def test_tie_breaks_low_index(self):
        points, ctx = self._anchors()
        got = anchor_context([(0.0, 5.0)], points, ctx)[0]  # equidistant
        assert got.mu_nbr == ctx[0].mu_nbr

    def test_nearest_wins(self):
        points, ctx = self._anchors()
        got = anchor_context([(0.0, 2.0)], points, ctx)[0]
        assert got.mu_nbr == ctx[0].mu_nbr
        got = anchor_context([(0.0, 9.0)], points, ctx)[0]
        assert got.mu_nbr == ctx[1].mu_nbr

    def test_empty_anchor_set(self):
        with pytest.raises(ValueError):
            anchor_context([(0.0, 0.0)], np.zeros((0, 2)), [])

    def test_batch_equals_per_station_calls(self):
        # (0, 5) is equidistant from both anchors, (0, 0) coincides with one
        points, ctx = self._anchors()
        queries = np.array([[0.0, 5.0], [0.0, 9.0], [0.0, 0.0], [1.0, 5.0], [0.0, 2.0]])
        batch = anchor_context(queries, points, ctx)
        assert len(batch) == len(queries)
        for q, got in zip(queries, batch):
            want = anchor_context(q[None], points, ctx)[0]
            assert got.mu_nbr == want.mu_nbr and got.sigma_nbr == want.sigma_nbr
            assert got.delta_c_km == want.delta_c_km and got.delta_self == 0.0
            np.testing.assert_array_equal(got.level_dist, want.level_dist)
            np.testing.assert_array_equal(got.centroid, want.centroid)
        assert batch[0].mu_nbr == ctx[0].mu_nbr and batch[1].mu_nbr == ctx[1].mu_nbr

    def test_resolve_grade_argmax(self):
        points, ctx = self._anchors()
        got = anchor_context([(0.0, 0.1)], points, ctx)[0]
        assert resolve_grade(-1, got) == int(np.argmax(got.level_dist))
        assert resolve_grade(4, got) == 4


class TestEncodeIdentity:
    def _params(self, feat_dim, hidden=12, out=6, grade_dim=4, rng=None):
        rng = rng or np.random.default_rng(0)
        total = feat_dim + grade_dim
        return {
            "grade_embed.table": Tensor(rng.normal(size=(6, grade_dim)), requires_grad=True),
            "id_mlp.w1": Tensor(rng.normal(size=(total, hidden)) * 0.3, requires_grad=True),
            "id_mlp.b1": Tensor(np.zeros(hidden), requires_grad=True),
            "id_mlp.w2": Tensor(rng.normal(size=(hidden, out)) * 0.3, requires_grad=True),
            "id_mlp.b2": Tensor(np.zeros(out), requires_grad=True),
        }

    def test_zero_params_zero_embedding(self):
        params = self._params(10)
        for name in ("id_mlp.w1", "id_mlp.b1", "id_mlp.w2", "id_mlp.b2"):
            params[name] = Tensor(np.zeros_like(params[name].data), requires_grad=True)
        feats = np.random.default_rng(1).normal(size=(5, 10))
        out = encode_identity(feats, np.array([0, 1, 2, 3, 4]), params)
        np.testing.assert_array_equal(out.data, 0.0)

    def test_deterministic(self):
        params = self._params(10)
        feats = np.random.default_rng(2).normal(size=(4, 10))
        grades = np.array([1, 1, 2, 3])
        a = encode_identity(feats, grades, params)
        b = encode_identity(feats, grades, params)
        assert np.array_equal(a.data, b.data)

    def test_dimension_mismatch(self):
        params = self._params(10)
        with pytest.raises(ValueError):
            encode_identity(np.zeros((2, 9)), np.array([0, 0]), params)

    def test_lipschitz_bound_random_pairs(self):
        # spectral-norm product bound over 1000 pairs, 1e-6 slack
        rng = np.random.default_rng(5)
        params = {
            "id_mlp.w1": rng.normal(size=(20, 16)),
            "id_mlp.b1": rng.normal(size=16),
            "id_mlp.w2": rng.normal(size=(16, 8)),
            "id_mlp.b2": rng.normal(size=8),
        }
        ratio, bound = check_lipschitz(params, n_pairs=1000, seed=7)
        assert ratio <= bound * (1.0 + 1e-6)

    def test_lipschitz_tight_identity_case(self):
        # single effective layer W = 2 I: ratio exactly 2, bound 2
        params = {
            "id_mlp.w1": np.eye(6) * 2.0,
            "id_mlp.b1": np.zeros(6),
            "id_mlp.w2": np.eye(6),
            "id_mlp.b2": np.zeros(6),
        }
        x = np.array([[1e-9] * 6])
        y = np.zeros((1, 6))
        fx = np.tanh(x @ params["id_mlp.w1"]) @ params["id_mlp.w2"]
        fy = np.tanh(y @ params["id_mlp.w1"]) @ params["id_mlp.w2"]
        ratio = np.linalg.norm(fx - fy) / np.linalg.norm(x - y)
        from omniair.oracle import power_iteration

        bound = power_iteration(params["id_mlp.w1"]) * power_iteration(params["id_mlp.w2"])
        assert bound == pytest.approx(2.0, rel=1e-9)
        assert ratio == pytest.approx(2.0, rel=1e-6)
        assert ratio <= bound * (1 + 1e-6)

    def test_zero_weights_zero_ratio(self):
        params = {
            "id_mlp.w1": np.zeros((5, 4)),
            "id_mlp.b1": np.zeros(4),
            "id_mlp.w2": np.zeros((4, 3)),
            "id_mlp.b2": np.zeros(3),
        }
        ratio, bound = check_lipschitz(params, n_pairs=10, seed=0)
        assert ratio == 0.0 and bound == 0.0

    def test_no_per_station_parameters(self, tiny_cfg, tiny_state, tiny_params):
        # inductive contract: every learnable shape is independent of N
        n = tiny_state.n_stations
        for name, p in tiny_params.items():
            assert n not in p.shape, f"{name} has a station-indexed dimension"

    def test_gradient_reaches_grade_table(self):
        params = self._params(10)
        feats = np.random.default_rng(3).normal(size=(4, 10))
        out = encode_identity(feats, np.array([0, 0, 1, 2]), params)
        out.sum().backward()
        g = params["grade_embed.table"].grad
        assert g is not None
        assert np.any(g[0] != 0) and np.any(g[2] != 0)
        np.testing.assert_array_equal(g[4], 0.0)  # grade 4 unused


class TestFeatureMatrix:
    def test_layout(self, tiny_state, tiny_cfg):
        feats = tiny_state.id_features
        assert feats.shape[1] == tiny_cfg.fourier_dim + CONTEXT_DIM + 6
        assert np.isfinite(feats).all()
