import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from omniair.autodiff import Tensor
from omniair.checkpoint import load_checkpoint, save_checkpoint
from omniair.data import N_GRADES, SeriesFrame, StationMeta, chrono_split
from omniair.encoder import (
    CONTEXT_DIM,
    Contexts,
    anchor_context,
    build_contexts,
    encode_identity,
    fourier_features,
    resolve_grade,
    station_historical_means,
)
from omniair.geo import EARTH_RADIUS_KM, haversine, knn_geo
from omniair.inference import rebuild_state
from omniair.model import build_state, init_params
from omniair.oracle import RDScenario, check_lipschitz, random_fourier_features, simulate_rd
from omniair.training import model_buffers

from conftest import small_config


class TestFourierMap:
    def test_origin_deterministic(self):
        f = fourier_features((0.0, 0.0), 8)
        assert f.shape == (32,)
        sin_part = f.reshape(8, 4)[:, :2]
        cos_part = f.reshape(8, 4)[:, 2:]
        np.testing.assert_array_equal(sin_part, 0.0)
        np.testing.assert_allclose(cos_part, 1.0 / math.sqrt(16.0), rtol=1e-15)
        assert np.linalg.norm(f) == pytest.approx(1.0, abs=1e-9)

    @given(st.floats(-90, 90), st.floats(-180, 180), st.integers(1, 12))
    @settings(max_examples=60, deadline=None)
    def test_unit_norm_deterministic(self, lat, lon, levels):
        f = fourier_features((lat, lon), levels)
        assert abs(np.linalg.norm(f) - 1.0) < 1e-9

    def test_bad_levels(self):
        with pytest.raises(ValueError):
            fourier_features((0.0, 0.0), 0)

    # the random (gaussian) features that criterion 3 checks live in the oracle

    @given(st.floats(-90, 90), st.floats(-180, 180))
    @settings(max_examples=30, deadline=None)
    def test_unit_norm_gaussian(self, lat, lon):
        f = random_fourier_features((lat, lon), 64, 2.0, 1)
        assert abs(np.linalg.norm(f) - 1.0) < 1e-9

    def test_kernel_symmetry_exact(self):
        rng = np.random.default_rng(0)
        x = rng.uniform(-90, 90, 2), rng.uniform(-180, 180, 2)
        fx = random_fourier_features((x[0][0], x[1][0]), 32, 1.0, 2)
        fy = random_fourier_features((x[0][1], x[1][1]), 32, 1.0, 2)
        assert float(fx @ fy) == float(fy @ fx)

    def test_bad_bandwidth(self):
        with pytest.raises(ValueError):
            random_fourier_features((0.0, 0.0), 8, 0.0, 0)

    def test_gaussian_kernel_monte_carlo(self):
        # empirical kernel vs the closed-form Gaussian limit; tolerance from
        # the 1/sqrt(M) concentration at M=4096
        rng = np.random.default_rng(3)
        p = rng.uniform(-1, 1, size=(2, 100, 2))
        degrees = p * np.array([90.0, 180.0])
        gx = random_fourier_features(degrees[0], 4096, 1.0, 11)
        gy = random_fourier_features(degrees[1], 4096, 1.0, 11)
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


NBRS3 = np.array([[1, 2], [0, 2], [0, 1]])


def _contexts(stations, frame, nbr_idx):
    return build_contexts(stations, frame, nbr_idx, np.stack([s.point for s in stations]))


def _row(contexts, i):
    """(mu, sigma, delta_c_km, delta_self) of station i."""
    return tuple(float(v) for v in contexts.vectors[i, :4])


# The per-station loops that build_contexts, anchor_context and resolve_grade
# replaced, kept as references: the array versions must equal them bit for bit.


def reference_contexts(stations, train, nbr_idx):
    c_means, defined = station_historical_means(train)
    global_mean = float(c_means[defined].mean()) if defined.any() else 0.0
    points = np.stack([s.point for s in stations])
    grades = np.array([s.grade for s in stations])
    vectors, centroids = [], []
    for i, nbrs in enumerate(nbr_idx):
        nbrs = np.asarray(nbrs)
        usable = nbrs[defined[nbrs]]
        known = grades[nbrs][grades[nbrs] >= 0]
        level = np.bincount(known, minlength=N_GRADES)[:N_GRADES]
        level = level / max(level.sum(), 1)
        c_i = c_means[i] if defined[i] else global_mean
        if usable.size == 0:
            vectors.append(np.concatenate([[global_mean, 0.0, 0.0, c_i - global_mean], level]))
            centroids.append(points[i].copy())
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
        vectors.append(np.concatenate([[mu, sigma, delta_c, c_i - mu], level]))
        centroids.append(centroid)
    return Contexts(np.stack(vectors), np.stack(centroids))


def reference_anchor_context(points_new, nearest, anchors):
    points_new = np.asarray(points_new, dtype=np.float64)
    vectors = []
    for p, i in zip(points_new, nearest):
        a = anchors.vectors[i]
        delta_c = float(haversine(p, anchors.centroids[i]))
        vectors.append(np.concatenate([[a[0], a[1], delta_c, 0.0], a[4:].copy()]))
    return Contexts(np.stack(vectors), anchors.centroids[nearest])


def reference_resolve_grade(grades, contexts):
    return np.array([int(np.argmax(level)) if g < 0 else g
                     for g, level in zip(grades, contexts.level_dist)])


def assert_bit_equal(got: Contexts, want: Contexts):
    assert got.vectors.shape == want.vectors.shape
    assert got.vectors.tobytes() == want.vectors.tobytes()
    assert got.centroids.tobytes() == want.centroids.astype(np.float64).tobytes()


FALLBACK = "station %s: no neighbor history, falling back to global mean"


def assert_falls_back(ctx: Contexts, i: int, point, global_mean: float):
    """Row i holds the fallback values: the global mean as mu, zero spread
    and the station's own location as centroid, so no centroid offset."""
    assert ctx.vectors[i, 0] == global_mean
    assert ctx.vectors[i, 1] == 0.0 and ctx.vectors[i, 2] == 0.0
    np.testing.assert_array_equal(ctx.centroids[i], point)


def fallback_ids(records) -> list[str]:
    return [r.args[0] for r in records if r.msg == FALLBACK]


class TestNeighborContext:
    def test_record_layout(self):
        stations = [_station(0, 0, 0), _station(1, 0, 1), _station(2, 0, -1)]
        ctx = _contexts(stations, _frame(np.full((5, 3), 10.0)), NBRS3)
        assert ctx.vectors.shape == (3, CONTEXT_DIM)
        assert ctx.centroids.shape == (3, 2)
        assert [f.name for f in dataclasses.fields(ctx)] == ["vectors", "centroids"]
        np.testing.assert_array_equal(ctx.level_dist, ctx.vectors[:, 4:])

    def test_uniform_neighborhood(self):
        stations = [_station(0, 0, 0), _station(1, 0, 1), _station(2, 0, -1)]
        frame = _frame(np.full((5, 3), 10.0))
        mu, sigma, _, delta_self = _row(_contexts(stations, frame, NBRS3), 0)
        assert mu == pytest.approx(10.0)
        assert sigma == pytest.approx(0.0)
        assert delta_self == pytest.approx(0.0)
        assert _contexts(stations, frame, NBRS3).level_dist[0].sum() == pytest.approx(1.0)

    def test_symmetric_offsets_cancel(self):
        stations = [_station(0, 0, 0), _station(1, 0, 1), _station(2, 0, -1)]
        frame = _frame(np.full((5, 3), 7.0))
        assert _row(_contexts(stations, frame, NBRS3), 0)[2] == pytest.approx(0.0, abs=1e-9)

    def test_weighted_centroid_hand_computed(self):
        # neighbors at lon -1 and +1 with c = 5 and 15: centroid at +0.5 deg,
        # offset = half a degree of equatorial arc
        stations = [_station(0, 0, 0), _station(1, 0, -1), _station(2, 0, 1)]
        vals = np.zeros((4, 3))
        vals[:, 0] = 10.0
        vals[:, 1] = 5.0
        vals[:, 2] = 15.0
        frame = _frame(vals)
        mu, _, delta_c, delta_self = _row(_contexts(stations, frame, NBRS3), 0)
        centroid_lon = (5 * (-1) + 15 * 1) / (5 + 15)
        assert centroid_lon == 0.5
        expected_km = math.pi * EARTH_RADIUS_KM * 0.5 / 180.0
        assert expected_km == pytest.approx(55.597, abs=1e-3)
        assert delta_c == pytest.approx(expected_km, rel=1e-9)
        assert mu == pytest.approx(10.0)
        assert delta_self == pytest.approx(0.0)

    def test_all_neighbors_missing_falls_back(self, caplog):
        stations = [_station(0, 0, 0), _station(1, 0, 1), _station(2, 0, -1)]
        valid = np.zeros((5, 3), dtype=bool)
        valid[:, 0] = True  # only the center station has history
        frame = _frame(np.full((5, 3), 4.0), valid)
        with caplog.at_level("WARNING", logger="omniair"):
            ctx = _contexts(stations, frame, NBRS3)
        assert_falls_back(ctx, 0, stations[0].point, 4.0)
        assert fallback_ids(caplog.records) == ["s0"]

    def test_station_without_history_is_logged(self, caplog):
        # s1 has no observation: its own mean is the global mean (4.0, from
        # s0 and s2), so its delta_self is the global mean minus mu
        stations = [_station(0, 0, 0), _station(1, 0, 1), _station(2, 0, -1)]
        valid = np.ones((5, 3), dtype=bool)
        valid[:, 1] = False
        frame = _frame(np.column_stack([np.full(5, 2.0), np.zeros(5), np.full(5, 6.0)]), valid)
        with caplog.at_level("WARNING", logger="omniair"):
            ctx = _contexts(stations, frame, NBRS3)
        messages = [r.getMessage() for r in caplog.records]
        assert messages == [
            "station s1: no pm25 observation in the training split, "
            "its own mean is the global mean"
        ]
        mu, _, _, delta_self = _row(ctx, 1)
        assert mu == 4.0 and delta_self == 0.0
        assert _row(ctx, 0)[0] == 6.0  # s1 is not a usable neighbor of s0

    @pytest.mark.parametrize("fallback", [False, True])
    def test_vector_round_trip(self, tmp_path, caplog, fallback):
        # the record passes through the checkpoint's two buffers unchanged
        stations, frame = simulate_rd(RDScenario(n=10, steps=40, seed=2))
        train = chrono_split(frame)[0]
        cfg = small_config(k_geo=3, k_sem=2)
        if fallback:  # no neighbor of station 0 has history
            nbr = knn_geo(np.stack([s.point for s in stations]), 3)[0]
            train.valid[:, nbr[0], 0] = False
        with caplog.at_level("WARNING", logger="omniair"):
            state = build_state(cfg, stations, train)
        assert fallback_ids(caplog.records) == ([stations[0].id] if fallback else [])
        if fallback:
            c_means, defined = station_historical_means(train)
            assert_falls_back(state.contexts, 0, stations[0].point, c_means[defined].mean())
        save_checkpoint(tmp_path / "ck", init_params(cfg, np.random.default_rng(0)),
                        model_buffers(state), cfg, 0, tuple(s.id for s in stations))
        _, buffers, _, _ = load_checkpoint(tmp_path / "ck")
        back = rebuild_state(cfg, stations, buffers).contexts
        assert back.vectors.shape == (10, CONTEXT_DIM)
        assert_bit_equal(back, state.contexts)

    def test_grade_change_only_touches_level_dist(self):
        def grades_to_ctx(grade_of_1):
            stations = [
                _station(0, 0, 0),
                _station(1, 0, 1, grade=grade_of_1),
                _station(2, 0, -1, grade=5),
            ]
            frame = _frame(np.arange(15.0).reshape(5, 3))
            ctx = _contexts(stations, frame, NBRS3)
            return _row(ctx, 0), ctx.level_dist[0]

        (a, a_level), (b, b_level) = grades_to_ctx(1), grades_to_ctx(3)
        assert a == b
        assert not np.array_equal(a_level, b_level)
        assert a_level.sum() == pytest.approx(1.0, abs=1e-9)
        assert b_level.sum() == pytest.approx(1.0, abs=1e-9)


class TestContextsMatchReference:
    @staticmethod
    def _check(stations, frame, k):
        points = np.stack([s.point for s in stations])
        nbr = knn_geo(points, k)[0]
        got = build_contexts(stations, frame, nbr, points)
        want = reference_contexts(stations, frame, nbr)
        assert_bit_equal(got, want)
        grades = np.array([s.grade for s in stations])
        got_grades = resolve_grade(grades, got)
        assert got_grades.tobytes() == reference_resolve_grade(grades, want).tobytes()
        return got

    def test_criterion_9_scenario(self):
        stations, frame = simulate_rd(RDScenario(n=50, steps=400, seed=0, noise_std=0.1,
                                                 diffusion=0.3, dt=0.3))
        self._check(stations, chrono_split(frame)[0], 6)

    def test_partly_usable_neighborhoods(self):
        # blank stations leave rows with usable counts from 0 to k = 10,
        # including the >= 8 counts that numpy sums with unrolled accumulators
        stations, frame = simulate_rd(RDScenario(n=120, steps=60, seed=4, missing_rate=0.3))
        nbr = knn_geo(np.stack([s.point for s in stations]), 10)[0]
        blank = np.random.default_rng(4).choice(120, size=40, replace=False)
        frame.valid[:, np.union1d(blank, nbr[0]), 0] = False  # station 0 falls back
        counts = set(frame.valid[:, :, 0].any(axis=0)[nbr].sum(axis=1).tolist())
        assert {0, 3, 8, 9, 10} <= counts
        logged = []
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr("omniair.encoder.log.warning", lambda *a: logged.append(a))
            ctx = self._check(stations, frame, 10)
        c_means, defined = station_historical_means(frame)
        alone = np.flatnonzero(~defined[nbr].any(axis=1))
        assert alone[0] == 0 and len(alone) < 120
        assert [a[1] for a in logged if a[0] == FALLBACK] == [stations[i].id for i in alone]
        for i in alone:
            assert_falls_back(ctx, i, stations[i].point, c_means[defined].mean())

    def test_fallback_station(self, caplog):
        stations = [_station(0, 0, 0), _station(1, 0, 1), _station(2, 0, -1)]
        valid = np.zeros((5, 3), dtype=bool)
        valid[:, 0] = True
        with caplog.at_level("WARNING", logger="omniair"):
            ctx = self._check(stations, _frame(np.full((5, 3), 4.0), valid), 2)
        assert fallback_ids(caplog.records) == ["s0"]
        assert_falls_back(ctx, 0, stations[0].point, 4.0)
        assert ctx.vectors[1:, 0].tolist() == [4.0, 4.0]  # s0 is s1's and s2's neighbor

    def test_zero_weight_centroid(self):
        # neighbors' means +5 and -5 sum to zero: the plain mean is the centroid
        stations = [_station(0, 0, 0), _station(1, 1, -1), _station(2, 3, 2)]
        vals = np.column_stack([np.full(4, 1.0), np.full(4, 5.0), np.full(4, -5.0)])
        frame = _frame(vals)
        points = np.stack([s.point for s in stations])
        got = build_contexts(stations, frame, NBRS3, points)
        assert_bit_equal(got, reference_contexts(stations, frame, NBRS3))
        np.testing.assert_array_equal(got.centroids[0], points[1:].mean(axis=0))

    def test_unknown_grades(self):
        rng = np.random.default_rng(8)
        stations, frame = simulate_rd(RDScenario(n=40, steps=50, seed=8))
        stations = [StationMeta(s.id, s.lat, s.lon, s.geo_feats, int(g))
                    for s, g in zip(stations, rng.integers(-1, N_GRADES, size=40))]
        assert any(s.grade < 0 for s in stations)
        ctx = self._check(stations, frame, 5)
        grades = resolve_grade(np.array([s.grade for s in stations]), ctx)
        assert (grades >= 0).all()

    def test_unknown_grades_do_not_vote(self, caplog):
        # three stations of unknown grade inherit the one known grade; the
        # known station's neighbors are all unknown, so its row is all zero
        stations = [_station(i, 0.0, float(i), grade=g) for i, g in enumerate((-1, -1, -1, 5))]
        with caplog.at_level("WARNING", logger="omniair"):
            ctx = self._check(stations, _frame(np.full((5, 4), 3.0)), 3)
        np.testing.assert_array_equal(ctx.level_dist[:3], np.eye(N_GRADES)[[5, 5, 5]])
        np.testing.assert_array_equal(ctx.level_dist[3], 0.0)
        assert resolve_grade(np.array([-1, -1, -1, 5]), ctx).tolist() == [5, 5, 5, 5]
        assert not caplog.records

    def test_no_known_grade_is_logged(self, caplog):
        # s2 is of known grade but no station's neighbor
        stations = [_station(0, 0, 0, -1), _station(1, 0, 1, -1), _station(2, 40, 40, 2),
                    _station(3, 0, 2, -1)]
        nbr = np.array([[1, 3], [0, 3], [0, 1], [0, 1]])
        frame = _frame(np.full((5, 4), 3.0))
        with caplog.at_level("WARNING", logger="omniair"):
            ctx = build_contexts(stations, frame, nbr, np.stack([s.point for s in stations]))
        assert_bit_equal(ctx, reference_contexts(stations, frame, nbr))
        assert [r.getMessage() for r in caplog.records] == [
            f"station s{i}: unknown grade and no neighbor of known grade, it resolves to grade 0"
            for i in (0, 1, 3)
        ]
        np.testing.assert_array_equal(ctx.level_dist, 0.0)
        assert resolve_grade(np.array([-1, -1, 2, -1]), ctx).tolist() == [0, 0, 2, 0]

    def test_anchor_batch(self):
        stations, frame = simulate_rd(RDScenario(n=30, steps=50, seed=5, missing_rate=0.2))
        frame.valid[:, :3, 0] = False
        points = np.stack([s.point for s in stations])
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr("omniair.encoder.log.warning", lambda *a: None)
            anchors = build_contexts(stations, frame, knn_geo(points, 2)[0], points)
        queries = np.concatenate([
            np.random.default_rng(5).uniform((30.0, 100.0), (40.0, 110.0), size=(64, 2)),
            points[:4],  # coincident with anchors
        ])
        # column 0 of a wider table, as build_extension passes it
        nearest = knn_geo(points, 4, queries=queries)[0][:, 0]
        got = anchor_context(queries, nearest, anchors)
        assert_bit_equal(got, reference_anchor_context(queries, nearest, anchors))


class TestAnchorContext:
    # which anchor is nearest comes from build_extension's geographic table
    # (tests/test_model.py, TestExtension); here it is given

    def _anchors(self):
        stations = [_station(0, 0, 0), _station(1, 0, 10)]
        vals = np.zeros((4, 2))
        vals[:, 0] = 5.0
        vals[:, 1] = 20.0
        frame = _frame(vals)
        return _contexts(stations, frame, np.array([[1], [0]]))

    def test_coincident_anchor(self):
        ctx = self._anchors()
        got = anchor_context([(0.0, 0.0)], np.array([0]), ctx)
        assert got.vectors[0, 0] == ctx.vectors[0, 0]
        assert got.vectors[0, 1] == ctx.vectors[0, 1]
        assert got.vectors[0, 3] == 0.0
        np.testing.assert_array_equal(got.level_dist[0], ctx.level_dist[0])
        # recomputed from the same coordinates: same centroid offset
        assert got.vectors[0, 2] == pytest.approx(ctx.vectors[0, 2], abs=1e-12)

    def test_copies_the_given_anchor(self):
        ctx = self._anchors()
        got = anchor_context([(0.0, 2.0), (0.0, 9.0)], np.array([1, 0]), ctx)
        np.testing.assert_array_equal(got.centroids, ctx.centroids[[1, 0]])
        np.testing.assert_array_equal(got.vectors[:, [0, 1]], ctx.vectors[[1, 0]][:, [0, 1]])
        np.testing.assert_array_equal(got.level_dist, ctx.level_dist[[1, 0]])

    def test_anchors_are_not_written(self):
        ctx = self._anchors()
        before = ctx.vectors.copy(), ctx.centroids.copy()
        got = anchor_context([(0.0, 0.0), (0.0, 9.0)], np.array([0, 1]), ctx)
        got.vectors[:] = 0.0
        got.centroids[:] = 0.0
        np.testing.assert_array_equal(ctx.vectors, before[0])
        np.testing.assert_array_equal(ctx.centroids, before[1])

    def test_batch_equals_per_station_calls(self):
        ctx = self._anchors()
        queries = np.array([[0.0, 5.0], [0.0, 9.0], [0.0, 0.0], [1.0, 5.0], [0.0, 2.0]])
        nearest = np.array([0, 1, 0, 0, 0])
        batch = anchor_context(queries, nearest, ctx)
        assert len(batch.vectors) == len(queries)
        for i, q in enumerate(queries):
            want = anchor_context(q[None], nearest[i : i + 1], ctx)
            assert batch.vectors[i].tobytes() == want.vectors[0].tobytes()
            assert batch.vectors[i, 3] == 0.0
            np.testing.assert_array_equal(batch.centroids[i], want.centroids[0])

    def test_resolve_grade_argmax(self):
        ctx = self._anchors()
        got = anchor_context([(0.0, 0.1), (0.0, 0.1)], np.array([0, 0]), ctx)
        resolved = resolve_grade(np.array([-1, 4]), got)
        assert resolved.tolist() == [int(np.argmax(got.level_dist[0])), 4]


class TestEncodeIdentity:
    def _params(self, feat_dim, hidden=12, out=6, grade_dim=4, rng=None):
        rng = rng or np.random.default_rng(0)
        table = rng.normal(size=(6, grade_dim))
        w1 = rng.normal(size=(feat_dim + grade_dim, hidden)) * 0.3
        return {
            "grade_embed.table": Tensor(table, requires_grad=True),
            "id_mlp.w1_feat": Tensor(w1[:feat_dim], requires_grad=True),
            "id_mlp.w1_grade": Tensor(w1[feat_dim:], requires_grad=True),
            "id_mlp.b1": Tensor(np.zeros(hidden), requires_grad=True),
            "id_mlp.w2": Tensor(rng.normal(size=(hidden, out)) * 0.3, requires_grad=True),
            "id_mlp.b2": Tensor(np.zeros(out), requires_grad=True),
        }

    def test_zero_params_zero_embedding(self):
        params = self._params(10)
        for name in ("id_mlp.w1_feat", "id_mlp.w1_grade", "id_mlp.b1", "id_mlp.w2", "id_mlp.b2"):
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
        w1 = rng.normal(size=(20, 16))
        params = {
            "id_mlp.w1_feat": w1[:16],
            "id_mlp.w1_grade": w1[16:],
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
            "id_mlp.w1_feat": np.zeros((3, 4)),
            "id_mlp.w1_grade": np.zeros((2, 4)),
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
