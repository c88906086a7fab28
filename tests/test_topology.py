import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from omniair.autodiff import Tensor, grad_check
from omniair.geo import gaussian_static_weight, haversine
from omniair.topology import (
    HybridGraph,
    attach_new_nodes,
    build_hybrid_graph,
    compute_ranks,
    dynamic_attention,
    edge_weights,
    fuse_gate,
    normalize_weights,
    prune_mask,
    semantic_knn,
)


def edge_params(d, d_prime, rng=None, zero=False):
    rng = rng or np.random.default_rng(0)

    def make(shape):
        data = np.zeros(shape) if zero else rng.normal(size=shape) * 0.4
        return Tensor(data, requires_grad=True)

    return {
        "attn.we_own": make((d, d_prime)),
        "attn.we_src": make((d, d_prime)),
        "attn.a": make((d_prime, 1)),
        "edge_gate.w_own": make((d, 1)),
        "edge_gate.w_src": make((d, 1)),
        "edge_gate.w_static": make((1,)),
        "edge_gate.b": make((1,)),
        "beta_mlp.w1": make((d, 16)),
        "beta_mlp.b1": make((16,)),
        "beta_mlp.w2": make((16, 1)),
        "beta_mlp.b2": make((1,)),
    }


def line_graph(n, k=2):
    """Small deterministic test graph over n collinear equatorial stations."""
    points = np.stack([np.zeros(n), np.arange(n, dtype=np.float64)], axis=1)
    vectors = np.arange(n, dtype=np.float64).reshape(-1, 1) * np.ones((1, 3))
    return build_hybrid_graph(points, vectors, k_geo=k, k_sem=0, kappa_km=100.0), points


class TestGraphBuild:
    def test_small_n_rejected(self):
        points = np.zeros((3, 2))
        with pytest.raises(ValueError):
            build_hybrid_graph(points, np.zeros((3, 2)), k_geo=2, k_sem=1, kappa_km=100.0)

    def test_tie_broken_by_index_with_equal_embeddings(self):
        points = np.stack([np.zeros(3), np.array([0.0, 1.0, 2.0])], axis=1)
        vectors = np.ones((3, 4))
        g = build_hybrid_graph(points, vectors, k_geo=1, k_sem=1, kappa_km=100.0)
        # node 0: geo -> 1; sem ties (all equal) -> lowest non-excluded index 2
        assert list(g.nbr[0]) == [1, 2]
        g2 = build_hybrid_graph(points, vectors, k_geo=1, k_sem=1, kappa_km=100.0)
        assert np.array_equal(g.nbr, g2.nbr)

    def test_self_edge_refused(self):
        nbr = np.array([[1], [1], [0]])
        with pytest.raises(ValueError, match="self-edges"):
            HybridGraph(nbr, np.ones(nbr.shape))
        # a cross table indexes another node set, where row i may name node i
        assert HybridGraph(nbr, np.ones(nbr.shape), cross=True).n_edges == 3

    def test_static_weight_is_kernel_of_edge_length(self):
        # base and attachment graphs weigh every column, geographic or
        # semantic, by the kernel of its great-circle length
        rng = np.random.default_rng(6)
        points = np.stack([rng.uniform(-60, 60, 30), rng.uniform(-170, 170, 30)], axis=1)
        vectors = rng.normal(size=(30, 5))
        new = np.stack([rng.uniform(-60, 60, 4), rng.uniform(-170, 170, 4)], axis=1)
        base = build_hybrid_graph(points, vectors, 3, 2, 250.0)
        attach = attach_new_nodes(points, vectors, new, rng.normal(size=(4, 5)), 3, 2, 250.0)
        for q, g in ((points, base), (new, attach)):
            km = haversine(q[:, None], points[g.nbr])
            np.testing.assert_array_equal(g.w_static, gaussian_static_weight(km, 250.0))

    def test_attach_needs_k_base_stations(self):
        points, vectors = np.zeros((3, 2)), np.zeros((3, 2))
        with pytest.raises(ValueError, match="not enough base stations"):
            attach_new_nodes(points, vectors, np.ones((1, 2)), np.ones((1, 2)), 3, 1, 100.0)

    def test_identical_coordinates_full_weight(self):
        points = np.array([[10.0, 20.0], [10.0, 20.0], [0.0, 0.0], [50.0, 50.0]])
        vectors = np.arange(4.0).reshape(-1, 1) * np.ones((1, 2))
        g = build_hybrid_graph(points, vectors, k_geo=1, k_sem=1, kappa_km=100.0)
        assert g.nbr[0, 0] == 1 and g.w_static[0, 0] == 1.0

    def test_semantic_edges_beat_all_non_selected(self):
        # brute-force all-pairs distance oracle over 20 random stations
        rng = np.random.default_rng(4)
        points = np.stack([rng.uniform(-60, 60, 20), rng.uniform(-170, 170, 20)], axis=1)
        vectors = rng.normal(size=(20, 8))
        k_geo, k_sem = 4, 3
        g = build_hybrid_graph(points, vectors, k_geo, k_sem, kappa_km=100.0)
        d2 = ((vectors[:, None, :] - vectors[None, :, :]) ** 2).sum(axis=2)
        for i in range(20):
            geo, sem = g.nbr[i, :k_geo], g.nbr[i, k_geo:]
            allowed = set(range(20)) - set(geo) - {i}
            worst_selected = max(d2[i, j] for j in sem)
            best_unselected = min(d2[i, j] for j in allowed - set(sem))
            assert worst_selected <= best_unselected + 1e-12

    def test_no_duplicate_targets(self):
        rng = np.random.default_rng(5)
        points = np.stack([rng.uniform(-60, 60, 15), rng.uniform(-170, 170, 15)], axis=1)
        vectors = rng.normal(size=(15, 4))
        g = build_hybrid_graph(points, vectors, 5, 4, 100.0)
        for i in range(15):
            targets = g.nbr[i]
            assert len(set(targets)) == len(targets)
            assert i not in targets

    def test_semantic_knn_excludes(self):
        vectors = np.array([[0.0], [0.1], [0.2], [5.0]])
        # node 1 excludes 0; the other rows exclude only themselves again
        idx, dist = semantic_knn(vectors, 1, np.array([[0], [0], [2], [3]]))
        assert idx[0, 0] == 1
        assert idx[1, 0] == 2  # 0 excluded
        assert dist[3, 0] == pytest.approx(4.8)

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_semantic_knn_matches_per_row_reference(self, data):
        # small integer vectors from a pool: exact distances and forced ties
        n = data.draw(st.integers(2, 25))
        pool = data.draw(st.integers(1, 6))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**16)))
        vectors = rng.integers(-3, 4, size=(pool, 3)).astype(float)[rng.integers(0, pool, n)]
        queries = vectors[rng.integers(0, n, data.draw(st.integers(1, 5)))] + rng.integers(0, 2, 3)
        k = data.draw(st.one_of(st.just(1), st.just(n - 1), st.integers(1, n - 1)))
        e = data.draw(st.integers(0, 3))
        exclude = rng.integers(0, n, size=(n, e))
        q_exclude = rng.integers(0, n, size=(len(queries), e))

        def reference(q, excl, own):
            idx = np.empty((len(q), k), dtype=np.int64)
            dist = np.empty((len(q), k))
            for i, v in enumerate(q):
                d2 = ((vectors - v) ** 2).sum(axis=1)
                d2[excl[i]] = np.inf
                if own:
                    d2[i] = np.inf
                order = np.lexsort((np.arange(n), d2))[:k]
                idx[i], dist[i] = order, np.sqrt(d2[order])
            return idx, dist

        for got, want in (
            (semantic_knn(vectors, k, exclude), reference(vectors, exclude, True)),
            (semantic_knn(vectors, k, q_exclude, queries=queries),
             reference(queries, q_exclude, False)),
        ):
            assert np.array_equal(got[0], want[0])
            np.testing.assert_array_equal(got[1], want[1])


RING = np.array([[1, 2], [2, 3], [3, 4], [4, 5], [5, 0], [0, 1]])


class TestDynamicAttention:
    def test_zero_score_vector_gives_zero(self):
        params = edge_params(3, 4, zero=True)
        rng = np.random.default_rng(1)
        h = Tensor(rng.normal(size=(2, 6, 3)))
        alpha = dynamic_attention(h, h, RING, params)
        assert alpha.shape == (2, 6, 2)
        np.testing.assert_array_equal(alpha.data, 0.0)

    def test_saturates_to_unit_range(self):
        params = edge_params(1, 1)
        for name in ("attn.we_own", "attn.we_src", "attn.a"):
            params[name] = Tensor(np.full((1, 1), 100.0), requires_grad=True)
        h = Tensor(np.ones((1, 2, 1)))
        alpha = dynamic_attention(h, h, np.array([[1], [0]]), params)
        assert np.all(np.abs(alpha.data) <= 1.0)
        assert alpha.data[0, 0, 0] == pytest.approx(1.0, abs=1e-12)

    def test_matches_hand_rolled_scalar(self):
        # D=2, D'=2 case recomputed with explicit scalar arithmetic
        rng = np.random.default_rng(7)
        we = rng.normal(size=(4, 2))
        a = rng.normal(size=2)
        hi = rng.normal(size=2)
        hj = rng.normal(size=2)
        params = edge_params(2, 2)
        params["attn.we_own"] = Tensor(we[:2], requires_grad=True)
        params["attn.we_src"] = Tensor(we[2:], requires_grad=True)
        params["attn.a"] = Tensor(a[:, None], requires_grad=True)
        alpha = dynamic_attention(
            Tensor(hi.reshape(1, 1, 2)), Tensor(hj.reshape(1, 1, 2)), np.array([[0]]), params
        )
        cat = np.concatenate([hi, hj])
        pre = np.array([sum(cat[r] * we[r, c] for r in range(4)) for c in range(2)])
        act = np.array([v if v > 0 else 0.1 * v for v in pre])
        expected = math.tanh(a[0] * act[0] + a[1] * act[1])
        assert alpha.data[0, 0, 0] == pytest.approx(expected, abs=1e-12)

    def test_dimension_mismatch(self):
        params = edge_params(3, 4)
        h = Tensor(np.zeros((1, 2, 2)))
        with pytest.raises(ValueError):
            dynamic_attention(h, h, np.array([[1], [0]]), params)


class TestFuseGate:
    def test_zero_params_average(self):
        params = edge_params(3, 4, zero=True)
        rng = np.random.default_rng(2)
        h = Tensor(rng.normal(size=(2, 6, 3)))
        w_static = rng.uniform(0.1, 1.0, size=(6, 2))
        alpha = Tensor(rng.uniform(-1, 1, size=(2, 6, 2)))
        g, w_dyn = fuse_gate(h, h, RING, w_static, alpha, params)
        np.testing.assert_allclose(g.data, 0.5, rtol=1e-15)
        np.testing.assert_allclose(w_dyn.data, (w_static + alpha.data) / 2, rtol=1e-12)

    def test_gate_limits(self):
        params = edge_params(2, 2, zero=True)
        h = Tensor(np.zeros((1, 3, 2)))
        nbr = np.array([[1], [2], [0]])
        w_static = np.array([[0.9], [0.5], [0.1]])
        alpha = Tensor(np.array([[[-0.7], [0.2], [0.3]]]))
        params["edge_gate.b"] = Tensor(np.array([60.0]), requires_grad=True)
        _, w_dyn = fuse_gate(h, h, nbr, w_static, alpha, params)
        np.testing.assert_allclose(w_dyn.data[0], w_static, atol=1e-12)  # g -> 1
        params["edge_gate.b"] = Tensor(np.array([-60.0]), requires_grad=True)
        _, w_dyn = fuse_gate(h, h, nbr, w_static, alpha, params)
        np.testing.assert_allclose(w_dyn.data, alpha.data, atol=1e-12)  # g -> 0


class TestPerNodeProjection:
    """Attention and gate against the per-edge concatenation they replace,
    on a cross table with repeated targets and N_src != N."""

    NBR = np.array([[0, 0, 2], [1, 2, 1], [2, 2, 2], [0, 1, 0]])

    def _inputs(self, d=3):
        rng = np.random.default_rng(21)
        params = edge_params(d, 5, rng=rng)
        h_own = rng.normal(size=(2, 4, d))
        h_src = rng.normal(size=(2, 3, d))
        w_static = rng.uniform(0.05, 1.0, size=self.NBR.shape)
        return params, h_own, h_src, w_static

    def test_matches_concatenated_edge_rows(self):
        params, h_own, h_src, w_static = self._inputs()
        own = np.broadcast_to(h_own[:, :, None, :], h_src[:, self.NBR].shape)
        ws = np.broadcast_to(w_static[None, :, :, None], own.shape[:-1] + (1,))
        x = np.concatenate([own, h_src[:, self.NBR], ws], axis=-1)
        we = np.vstack([params["attn.we_own"].data, params["attn.we_src"].data])
        wg = np.concatenate([params[f"edge_gate.w_{part}"].data.ravel()
                             for part in ("own", "src", "static")])
        pre = x[..., :-1] @ we
        act = np.where(pre > 0, pre, 0.1 * pre)
        alpha_ref = np.tanh(act @ params["attn.a"].data[:, 0])
        score = x @ wg + params["edge_gate.b"].data
        gate_ref = 1.0 / (1.0 + np.exp(-score))

        alpha = dynamic_attention(Tensor(h_own), Tensor(h_src), self.NBR, params)
        gate, w_dyn = fuse_gate(
            Tensor(h_own), Tensor(h_src), self.NBR, w_static, alpha, params
        )
        np.testing.assert_allclose(alpha.data, alpha_ref, rtol=0, atol=1e-12)
        np.testing.assert_allclose(gate.data, gate_ref, rtol=0, atol=1e-12)
        np.testing.assert_allclose(
            w_dyn.data, gate_ref * w_static + (1 - gate_ref) * alpha_ref, rtol=0, atol=1e-12
        )

    def test_edge_weights_gradcheck_with_source_features(self):
        params, h_own, h_src, w_static = self._inputs()
        graph = HybridGraph(self.NBR, w_static, cross=True)
        checked = {name: params[name]
                   for name in ("attn.we_own", "attn.we_src", "attn.a", "edge_gate.w_own",
                                "edge_gate.w_src", "edge_gate.w_static", "edge_gate.b")}
        checked["h_own"] = Tensor(h_own, requires_grad=True)
        checked["h_src"] = Tensor(h_src, requires_grad=True)

        def f():
            out = edge_weights(checked["h_own"], graph, params, eta=5.0,
                               h_src=checked["h_src"])
            return (out["w_tilde"] * out["w_tilde"]).sum() + (out["gate"] * out["alpha"]).sum()

        assert grad_check(f, checked, samples_per_param=None) < 1e-6


class TestRanksAndMask:
    # two nodes with three candidates each; node 1's targets are unsorted
    NBR = np.array([[1, 2, 3], [0, 3, 2]])

    def test_ranks_are_segment_permutations(self):
        rng = np.random.default_rng(0)
        w = rng.normal(size=(3, 2, 3))
        r = compute_ranks(w, self.NBR)
        for b in range(3):
            assert sorted(r[b, 0]) == [1, 2, 3]
            assert sorted(r[b, 1]) == [1, 2, 3]
        assert np.array_equal(r, compute_ranks(w, self.NBR))

    def test_abs_vs_signed_mode(self):
        w = np.array([[[-5.0, 4.0, 1.0], [2.0, -3.0, 0.5]]])
        # ranks follow magnitude, not signed value: the large negative
        # candidates rank first
        r_abs = compute_ranks(w, self.NBR)
        assert list(r_abs[0, 0]) == [1, 2, 3]
        assert list(r_abs[0, 1]) == [2, 1, 3]
        by_value = np.argsort(np.argsort(-w, axis=-1), axis=-1) + 1
        assert not np.array_equal(r_abs, by_value)

    def test_rank_tie_by_target_index(self):
        w = np.array([[[0.5, 0.5, 0.5], [1.0, 1.0, 1.0]]])
        r = compute_ranks(w, self.NBR)
        assert list(r[0, 0]) == [1, 2, 3]  # targets 1, 2, 3
        assert list(r[0, 1]) == [1, 3, 2]  # targets 0, 3, 2: lower index wins

    def test_mask_analytic_values(self):
        beta = Tensor(np.array([[2.0, 1.5]]))
        ranks = np.array([[[1, 2, 3], [1, 2, 3]]])
        m = prune_mask(ranks, beta, eta=10.0)
        sig = lambda x: 1.0 / (1.0 + math.exp(-x))
        np.testing.assert_allclose(
            m.data[0],
            [[sig(10.0), sig(0.0), sig(-10.0)], [sig(5.0), sig(-5.0), sig(-15.0)]],
            rtol=1e-12,
        )
        assert m.data[0, 0, 1] == pytest.approx(0.5)
        assert m.data[0, 0, 2] == pytest.approx(4.5398e-5, rel=1e-4)

    def test_mask_strictly_decreasing_in_rank(self):
        beta = Tensor(np.full((1, 2), 1.7))
        ranks = np.array([[[1, 2, 3], [1, 2, 3]]])
        m = prune_mask(ranks, beta, eta=4.0).data[0]
        assert m[0, 0] > m[0, 1] > m[0, 2]
        assert m[1, 0] > m[1, 1] > m[1, 2]

    def test_hard_topk_limit(self):
        # large eta with beta = k + 0.5 reproduces exact top-k retention
        rng = np.random.default_rng(8)
        n, per = 6, 8
        w = Tensor(rng.normal(size=(1, n, per)))
        k = 3
        ranks = compute_ranks(w.data, np.tile(np.arange(per) + 10, (n, 1)))
        beta = Tensor(np.full((1, n), k + 0.5))
        m = prune_mask(ranks, beta, eta=50.0).data[0]
        assert np.all((m < 1e-4) | (m > 1 - 1e-4))
        kept = m > 0.5
        for i in range(n):
            top = np.argsort(-np.abs(w.data[0, i]))[:k]
            expected = np.zeros(per, dtype=bool)
            expected[top] = True
            assert np.array_equal(kept[i], expected)


class TestNormalization:
    def test_abs_sum_bounded_by_one(self):
        rng = np.random.default_rng(3)
        w = Tensor(rng.normal(size=(4, 2, 3)))
        m = Tensor(rng.uniform(0, 1, size=(4, 2, 3)))
        wt = normalize_weights(w, m).data
        for b in range(4):
            assert np.abs(wt[b, 0]).sum() <= 1.0 + 1e-9
            assert np.abs(wt[b, 1]).sum() <= 1.0 + 1e-9

    def test_signed_weights_survive_abs_mode(self):
        # candidates that cancel in a plain sum stay finite under abs
        w = Tensor(np.array([[[1.0, -1.0, 0.5], [1.0, -1.0, 0.0]]]))
        m = Tensor(np.ones((1, 2, 3)))
        wt = normalize_weights(w, m).data
        assert np.isfinite(wt).all()
        assert np.abs(wt[0, 1]).sum() == pytest.approx(1.0, rel=1e-6)


class TestPruningGradient:
    """Gradient flow through the soft mask, against finite differences."""

    def _toy(self, rng_seed=0):
        # 5-node toy graph, fixed dynamic weights, beta as the only variable
        rng = np.random.default_rng(rng_seed)
        n, per = 5, 4
        w_dyn = rng.normal(size=(1, n, per))
        ranks = compute_ranks(w_dyn, np.tile(np.arange(per) + 100, (n, 1)))
        beta0 = rng.uniform(1.0, 3.0, size=(1, n))
        return w_dyn, ranks, beta0

    def _loss_grad(self, w_dyn, ranks, beta_val, coeff, eta):
        beta = Tensor(beta_val, requires_grad=True)
        m = prune_mask(ranks, beta, eta)
        wt = normalize_weights(Tensor(w_dyn), m)
        loss = (wt * Tensor(coeff)).sum()
        loss.backward()
        return float(loss.data), beta.grad.copy()

    def test_reverse_mode_matches_finite_differences(self):
        eta = 4.0
        w_dyn, ranks, beta0 = self._toy()
        coeff = np.random.default_rng(1).normal(size=w_dyn.shape)
        _, analytic = self._loss_grad(w_dyn, ranks, beta0, coeff, eta)
        eps = 1e-6
        for i in range(beta0.shape[1]):
            hi = beta0.copy()
            hi[0, i] += eps
            lo = beta0.copy()
            lo[0, i] -= eps
            fhi, _ = self._loss_grad(w_dyn, ranks, hi, coeff, eta)
            flo, _ = self._loss_grad(w_dyn, ranks, lo, coeff, eta)
            numeric = (fhi - flo) / (2 * eps)
            assert abs(analytic[0, i] - numeric) / max(1.0, abs(numeric)) < 1e-6

    def test_threshold_gradient_formula_for_scale_free_loss(self):
        # The closed-form threshold gradient sum_j dL/dw~ * w~ * (1-m) * eta
        # drops the normalization-denominator path; it is exact when the loss
        # is locally orthogonal to the weight vector within each node, since
        # the |w m| denominator then only rescales w~ along itself. Build
        # such a loss and require all three quantities to agree.
        eta = 4.0
        w_dyn, ranks, beta0 = self._toy(rng_seed=3)
        beta = Tensor(beta0, requires_grad=True)
        m = prune_mask(ranks, beta, eta)
        wt = normalize_weights(Tensor(w_dyn), m)
        # per node, coefficients orthogonal to w~ at the evaluation point
        rng = np.random.default_rng(9)
        coeff = rng.normal(size=w_dyn.shape)
        for i in range(beta0.shape[1]):
            row = wt.data[0, i]
            c = coeff[0, i]
            coeff[0, i] = c - row * (c @ row) / (row @ row)
        loss = (wt * Tensor(coeff)).sum()
        loss.backward()
        analytic = beta.grad.copy()

        formula = np.zeros_like(beta0)
        for i in range(beta0.shape[1]):
            formula[0, i] = (coeff[0, i] * wt.data[0, i] * (1 - m.data[0, i]) * eta).sum()
        np.testing.assert_allclose(analytic, formula, rtol=1e-6, atol=1e-12)

        eps = 1e-6
        for i in range(beta0.shape[1]):
            hi = beta0.copy()
            hi[0, i] += eps
            lo = beta0.copy()
            lo[0, i] -= eps
            fhi, _ = self._loss_grad(w_dyn, ranks, hi, coeff, eta)
            flo, _ = self._loss_grad(w_dyn, ranks, lo, coeff, eta)
            numeric = (fhi - flo) / (2 * eps)
            assert abs(analytic[0, i] - numeric) / max(1.0, abs(numeric)) < 1e-6


class TestEdgeWeightsPipeline:
    def test_zero_features_zero_params_proportional_to_static(self, tiny_state):
        d = tiny_state.cfg.d_model
        params = edge_params(d, 8, zero=True)
        n = tiny_state.n_stations
        h = Tensor(np.zeros((1, n, d)))
        out = edge_weights(h, tiny_state.graph, params, eta=10.0)
        g = tiny_state.graph
        # gate 0.5 and alpha 0 make w_dyn = w_static / 2
        np.testing.assert_allclose(out["w_dyn"].data[0], g.w_static / 2, rtol=1e-12)
        wt = out["w_tilde"].data[0]
        for i in range(n):
            expected = g.w_static[i] * out["mask"].data[0, i]
            expected = expected / np.abs(expected).sum() if expected.any() else expected
            got = wt[i] / np.abs(wt[i]).sum()
            np.testing.assert_allclose(got, expected / np.abs(expected).sum(), rtol=1e-9)

    def test_structure_fixed_after_updates(self, tiny_cfg, tiny_dataset):
        # edge lists identical before and after training steps
        from omniair.data import chrono_split
        from omniair.training import train_model

        stations, frame = tiny_dataset
        cfg = type(tiny_cfg)(**{**tiny_cfg.to_dict(), "max_epochs": 2})
        result = train_model(cfg, stations, frame)
        train, _, _ = chrono_split(frame)
        from omniair.model import build_state

        fresh = build_state(cfg, stations, train)
        assert np.array_equal(result.state.graph.nbr, fresh.graph.nbr)
        assert np.array_equal(result.state.graph.w_static, fresh.graph.w_static)

    def test_beta_bound_is_table_width(self):
        # a saturated beta_mlp puts beta just below the width K of the table
        # the pass runs on: K = 5 for the base graph, 3 for the attachment
        rng = np.random.default_rng(3)
        d = 4
        params = edge_params(d, 3, rng=rng)
        params["beta_mlp.w2"] = Tensor(np.zeros((16, 1)))
        params["beta_mlp.b2"] = Tensor(np.array([20.0]))
        points, vectors = rng.uniform(-10, 10, size=(12, 2)), rng.normal(size=(12, 3))
        base = build_hybrid_graph(points, vectors, 3, 2, 100.0)
        attach = attach_new_nodes(points, vectors, rng.uniform(-10, 10, size=(4, 2)),
                                  rng.normal(size=(4, 3)), 2, 1, 100.0)
        h = Tensor(rng.normal(size=(2, 12, d)))
        for graph, h_own in ((base, h), (attach, Tensor(rng.normal(size=(2, 4, d))))):
            beta = edge_weights(h_own, graph, params, eta=10.0, h_src=h)["beta"].data
            assert beta.shape == (2, graph.n_nodes)
            assert (beta < graph.k).all()
            np.testing.assert_allclose(beta, graph.k / (1.0 + np.exp(-20.0)), rtol=1e-15)

    def test_edge_weight_gradcheck(self):
        d = 4
        params = edge_params(d, 3, rng=np.random.default_rng(11))
        nbr = np.array([[1, 2], [0, 2], [0, 1]])
        g = HybridGraph(nbr, np.full((3, 2), 0.7))
        h_data = np.random.default_rng(12).normal(size=(2, 3, d))

        def f():
            out = edge_weights(Tensor(h_data), g, params, eta=5.0)
            return (out["w_tilde"] * out["w_tilde"]).sum()

        err = grad_check(f, params, samples_per_param=None)
        assert err < 1e-6
