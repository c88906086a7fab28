import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from omniair.autodiff import Tensor, grad_check
from omniair.propagation import (
    diffuse,
    forecast_head,
    fuse_and_gate,
    signed_aggregate,
)
from omniair.topology import HybridGraph


def make_graph(nbr):
    nbr = np.asarray(nbr, dtype=np.intp)
    return HybridGraph(nbr, np.zeros(nbr.shape, np.int8), np.ones(nbr.shape), np.ones(nbr.shape))


def dense_matrix(g, w):
    """(N, N) adjacency holding the (N, K) edge weights ``w``."""
    dense = np.zeros((g.n_nodes, g.n_nodes))
    dense[np.arange(g.n_nodes)[:, None], g.nbr] = w
    return dense


def agg_params(d, heads, n_steps, rng=None, bias=None):
    rng = rng or np.random.default_rng(0)
    dh = d // heads
    return {
        "agg.wq": Tensor(rng.normal(size=(heads, dh, dh)) * 0.5, requires_grad=True),
        "agg.wk": Tensor(rng.normal(size=(heads, dh, dh)) * 0.5, requires_grad=True),
        "agg.step_bias": Tensor(
            np.ones(n_steps) if bias is None else np.asarray(bias, dtype=np.float64),
            requires_grad=True,
        ),
    }


class TestDiffuse:
    def test_isolated_node_restart_only(self):
        # node 1's only edge has weight 0; its state collapses to restart * h0
        g = make_graph([[1], [0]])
        h0 = Tensor(np.zeros((1, 1, 2, 1)))
        h0.data[0, 0, 1, 0] = 2.0
        h0.data[0, 0, 0, 0] = 5.0
        w = Tensor(np.array([[[1.0], [0.0]]]))
        stack = diffuse(h0, w, g, steps=2, restart=0.3)
        assert stack[1].data[0, 0, 1, 0] == pytest.approx(0.6)
        assert stack[2].data[0, 0, 1, 0] == pytest.approx(0.6)

    def test_two_clique_swap(self):
        g = make_graph([[1], [0]])
        h0 = Tensor(np.array([1.0, 3.0]).reshape(1, 1, 2, 1))
        w = Tensor(np.ones((1, 2, 1)))
        stack = diffuse(h0, w, g, steps=1, restart=0.0)
        np.testing.assert_allclose(stack[1].data[0, 0, :, 0], [3.0, 1.0])

    def test_restart_prevents_collapse(self):
        # row-stochastic swap with restart 0.5: the state difference obeys
        # d_{l+1} = -d_l - 1 from d_0 = -2, oscillating between 1 and -2,
        # so the two nodes never collapse at any depth
        g = make_graph([[1], [0]])
        h0 = Tensor(np.array([1.0, 3.0]).reshape(1, 1, 2, 1))
        w = Tensor(np.ones((1, 2, 1)))
        stack = diffuse(h0, w, g, steps=8, restart=0.5)
        for h in stack[1:]:
            assert abs(h.data[0, 0, 0, 0] - h.data[0, 0, 1, 0]) >= 1.0 - 1e-12

    def test_matches_dense_recursion(self):
        # 6-node random sparse graph vs a dense matrix recursion oracle
        rng = np.random.default_rng(2)
        n, per = 6, 3
        nbr = np.stack([rng.choice([j for j in range(n) if j != i], per, replace=False)
                        for i in range(n)])
        g = make_graph(nbr)
        w = rng.normal(size=(2, n, per))
        h0 = rng.normal(size=(2, 4, n, 5))
        lam = 0.25
        stack = diffuse(Tensor(h0), Tensor(w), g, steps=3, restart=lam)
        for b in range(2):
            dense = dense_matrix(g, w[b])
            ref = h0[b]
            for l in range(1, 4):
                ref = np.einsum("ij,tjd->tid", dense, ref) + lam * h0[b]
                np.testing.assert_allclose(stack[l].data[b], ref, atol=1e-12)

    def test_invalid_restart(self):
        g = make_graph([[1], [0]])
        with pytest.raises(ValueError):
            diffuse(Tensor(np.zeros((1, 1, 2, 1))), Tensor(np.ones((1, 2, 1))), g, 1, 1.0)

    def test_zero_steps_only_h0(self):
        g = make_graph([[1], [0]])
        h0 = Tensor(np.ones((1, 1, 2, 3)))
        stack = diffuse(h0, Tensor(np.ones((1, 2, 1))), g, steps=0, restart=0.2)
        assert len(stack) == 1 and stack[0] is h0

    def test_stack_equals_per_step_loop(self):
        # restart * h0 is formed once; every state keeps the bits of a loop
        # that multiplies it again at each step
        rng = np.random.default_rng(11)
        n, per = 7, 3
        nbr = (np.arange(n)[:, None] + rng.integers(1, n, size=(n, per))) % n
        g = make_graph(nbr)
        w = rng.normal(size=(2, n, per))
        h0 = rng.normal(size=(2, 3, n, 4))
        stack = diffuse(Tensor(h0), Tensor(w), g, steps=3, restart=0.3)
        ref = [h0]
        for _ in range(3):
            msgs = np.einsum("btnkd,bnk->btnd", np.take(ref[-1], nbr, axis=2), w)
            ref.append(msgs + 0.3 * h0)
        assert len(stack) == len(ref)
        for got, want in zip(stack, ref):
            assert np.array_equal(got.data, want)


def per_head_aggregate(states, wq, wk, bias, mode):
    """Numpy reference: every head and every state handled on its own."""
    heads, dh = wq.shape[0], wq.shape[1]
    out = np.zeros_like(states[0])
    for g in range(heads):
        cols = slice(g * dh, (g + 1) * dh)
        part = [h[..., cols] for h in states]
        query = sum(h @ wq[g] for h in part) / len(part)
        scores = np.stack([(query * (h @ wk[g])).sum(axis=-1) / math.sqrt(dh) for h in part])
        if mode == "signed":
            coeffs = np.tanh(scores) * np.asarray(bias).reshape(-1, *[1] * (scores.ndim - 1))
        else:
            ex = np.exp(scores - scores.max(axis=0))
            coeffs = ex / ex.sum(axis=0)
        for l, h in enumerate(part):
            out[..., cols] += coeffs[l][..., None] * h
    return out


class TestSignedAggregate:
    @settings(max_examples=60, deadline=None)
    @given(
        mode=st.sampled_from(["signed", "positive"]),
        heads=st.sampled_from([1, 2, 4]),
        n_states=st.integers(1, 3),
        dh=st.integers(1, 3),
        b=st.integers(1, 2),
        t=st.integers(1, 3),
        n=st.integers(1, 5),
        seed=st.integers(0, 2**16),
    )
    def test_matches_per_head_loop(self, mode, heads, n_states, dh, b, t, n, seed):
        rng = np.random.default_rng(seed)
        d = heads * dh
        states = [rng.normal(size=(b, t, n, d)) for _ in range(n_states)]
        params = agg_params(d, heads, n_states, rng=rng, bias=rng.normal(size=n_states))
        z = signed_aggregate([Tensor(h) for h in states], params, heads=heads, mode=mode)
        want = per_head_aggregate(states, params["agg.wq"].data, params["agg.wk"].data,
                                  params["agg.step_bias"].data, mode)
        np.testing.assert_allclose(z.data, want, rtol=0, atol=1e-12)

    def test_zero_bias_zero_output(self):
        rng = np.random.default_rng(1)
        stack = [Tensor(rng.normal(size=(1, 2, 3, 4))) for _ in range(3)]
        params = agg_params(4, 2, 3, bias=[0.0, 0.0, 0.0])
        z = signed_aggregate(stack, params, heads=2)
        np.testing.assert_array_equal(z.data, 0.0)

    def test_forced_laplacian_response(self):
        # c = (1, -1) with restart 0: bitwise equal to h0 minus the engine's
        # own neighbor sum, and within 1e-12 of a dense-matrix oracle
        rng = np.random.default_rng(3)
        n, per = 5, 2
        nbr = np.stack([rng.choice([j for j in range(n) if j != i], per, replace=False)
                        for i in range(n)])
        g = make_graph(nbr)
        w = rng.normal(size=(1, n, per))
        h0 = rng.normal(size=(1, 3, n, 4))
        stack = diffuse(Tensor(h0), Tensor(w), g, steps=1, restart=0.0)
        z = signed_aggregate(stack, agg_params(4, 2, 2), heads=2,
                             forced_coeffs=np.array([1.0, -1.0]))
        assert np.array_equal(z.data, stack[0].data - stack[1].data)
        dense = dense_matrix(g, w[0])
        oracle = h0 - np.einsum("ij,btjd->btid", dense, h0)
        np.testing.assert_allclose(z.data, oracle, atol=1e-12)

    def test_positive_mode_stays_in_hull(self):
        rng = np.random.default_rng(4)
        stack = [Tensor(rng.normal(size=(2, 3, 6, 8))) for _ in range(3)]
        params = agg_params(8, 4, 3, rng=rng)
        z = signed_aggregate(stack, params, heads=4, mode="positive").data
        states = np.stack([h.data for h in stack])
        lo, hi = states.min(axis=0), states.max(axis=0)
        assert np.all(z >= lo - 1e-12) and np.all(z <= hi + 1e-12)

    def test_signed_mode_can_leave_hull(self):
        # the forced difference response exits the hull on non-constant input
        rng = np.random.default_rng(5)
        g = make_graph([[1], [0]])
        h0 = rng.normal(size=(1, 1, 2, 4))
        stack = diffuse(Tensor(h0), Tensor(np.ones((1, 2, 1))), g, 1, 0.0)
        z = signed_aggregate(stack, agg_params(4, 2, 2), heads=2,
                             forced_coeffs=np.array([1.0, -1.0])).data
        states = np.stack([h.data for h in stack])
        lo, hi = states.min(axis=0), states.max(axis=0)
        assert np.any(z < lo - 1e-9) or np.any(z > hi + 1e-9)

    def test_coefficient_bounded_by_bias(self):
        rng = np.random.default_rng(6)
        stack = [Tensor(rng.normal(size=(1, 2, 4, 4)) * 3) for _ in range(2)]
        bias = [0.7, 0.3]
        params = agg_params(4, 2, 2, rng=rng, bias=bias)
        z_full = signed_aggregate(stack, params, heads=2)
        # |c_l| <= |b_l| because tanh is bounded by 1: check via the extreme
        # reconstruction |z| <= sum_l |b_l| max|h_l|
        bound = sum(abs(b) * np.abs(h.data).max() for b, h in zip(bias, stack))
        assert np.abs(z_full.data).max() <= bound + 1e-12

    def test_head_count_must_divide(self):
        stack = [Tensor(np.zeros((1, 1, 2, 6)))]
        with pytest.raises(ValueError):
            signed_aggregate(stack, agg_params(6, 2, 1), heads=4)

    def test_gradcheck(self):
        rng = np.random.default_rng(7)
        h = rng.normal(size=(1, 2, 3, 4))
        params = agg_params(4, 2, 2, rng=rng)

        def f():
            stack = [Tensor(h), Tensor(h * 0.5 + 0.1)]
            return signed_aggregate(stack, params, heads=2).sum()

        assert grad_check(f, params, samples_per_param=None) < 1e-6

    def test_gradcheck_positive_mode(self):
        rng = np.random.default_rng(12)
        h = rng.normal(size=(1, 2, 3, 4))
        params = agg_params(4, 2, 3, rng=rng)
        params["h"] = Tensor(h, requires_grad=True)

        def f():
            hh = params["h"]
            stack = [hh, hh * 0.5 + 0.1, hh * hh]
            out = signed_aggregate(stack, params, heads=2, mode="positive")
            return (out * Tensor(np.linspace(-1.0, 1.0, 4))).sum()

        assert grad_check(f, params, samples_per_param=None) < 1e-6

    def test_weight_shape_must_match_heads(self):
        stack = [Tensor(np.zeros((1, 1, 2, 4)))]
        with pytest.raises(ValueError):
            signed_aggregate(stack, agg_params(4, 2, 1), heads=1)


class TestFusionAndGate:
    def test_gate_limits(self):
        rng = np.random.default_rng(9)
        z = Tensor(rng.normal(size=(2, 3, 4, 6)))
        e = Tensor(rng.normal(size=(4, 6)))
        params = {
            "out_gate.w": Tensor(np.zeros((12, 6)), requires_grad=True),
            "out_gate.b": Tensor(np.full(6, 80.0), requires_grad=True),
        }
        _, fused = fuse_and_gate(z, e, params)
        np.testing.assert_allclose(fused.data, z.data, atol=1e-12)
        params["out_gate.b"] = Tensor(np.full(6, -80.0), requires_grad=True)
        _, fused = fuse_and_gate(z, e, params)
        np.testing.assert_allclose(fused.data, np.broadcast_to(e.data, z.shape), atol=1e-12)

    def test_identity_fixed_point(self):
        rng = np.random.default_rng(10)
        e = rng.normal(size=(4, 6))
        z = Tensor(np.broadcast_to(e, (2, 3, 4, 6)).copy())
        params = {
            "out_gate.w": Tensor(rng.normal(size=(12, 6)), requires_grad=True),
            "out_gate.b": Tensor(rng.normal(size=6), requires_grad=True),
        }
        _, fused = fuse_and_gate(z, Tensor(e), params)
        np.testing.assert_allclose(fused.data, z.data, atol=1e-12)

    def test_matches_concatenated_gate(self):
        rng = np.random.default_rng(13)
        z, e = rng.normal(size=(2, 3, 4, 6)), rng.normal(size=(4, 6))
        w, bias = rng.normal(size=(12, 6)), rng.normal(size=6)
        params = {"out_gate.w": Tensor(w), "out_gate.b": Tensor(bias)}
        gate, fused = fuse_and_gate(Tensor(z), Tensor(e), params)
        e_b = np.broadcast_to(e, z.shape)
        want = 1.0 / (1.0 + np.exp(-(np.concatenate([z, e_b], axis=-1) @ w + bias)))
        np.testing.assert_allclose(gate.data, want, rtol=0, atol=1e-12)
        np.testing.assert_allclose(fused.data, want * z + (1.0 - want) * e_b, rtol=0, atol=1e-12)

    def test_gradcheck(self):
        rng = np.random.default_rng(14)
        params = {
            "out_gate.w": Tensor(rng.normal(size=(8, 4)), requires_grad=True),
            "out_gate.b": Tensor(rng.normal(size=4), requires_grad=True),
            "z": Tensor(rng.normal(size=(2, 2, 3, 4)), requires_grad=True),
            "e_id": Tensor(rng.normal(size=(3, 4)), requires_grad=True),
        }
        cot = Tensor(rng.normal(size=(2, 2, 3, 4)))

        def f():
            gate, fused = fuse_and_gate(params["z"], params["e_id"], params)
            return (fused * cot).sum() + gate.sum()

        assert grad_check(f, params, samples_per_param=None) < 1e-6

    def test_dimension_mismatch(self):
        params = {
            "out_gate.w": Tensor(np.zeros((12, 6))),
            "out_gate.b": Tensor(np.zeros(6)),
        }
        with pytest.raises(ValueError):
            fuse_and_gate(Tensor(np.zeros((1, 1, 4, 6))), Tensor(np.zeros((4, 5))), params)


class TestForecastHead:
    def _params(self, t, d, tau, c, hidden=16, rng=None, zero=False):
        rng = rng or np.random.default_rng(0)

        def make(shape):
            return Tensor(np.zeros(shape) if zero else rng.normal(size=shape) * 0.3,
                          requires_grad=True)

        return {
            "head.w1": make((t * d, hidden)),
            "head.b1": make((hidden,)),
            "head.w2": make((hidden, tau * c)),
            "head.b2": make((tau * c,)),
        }

    def test_zero_params_zero_forecast(self):
        params = self._params(3, 4, 2, 6, zero=True)
        out = forecast_head(Tensor(np.random.default_rng(1).normal(size=(2, 3, 5, 4))),
                            params, tau=2, n_channels=6)
        np.testing.assert_array_equal(out.data, 0.0)

    def test_constant_reproduction_identity_like(self):
        # tau=1, C=1: a hand-built head that averages the flattened input
        # reproduces a constant input exactly
        t, d = 2, 2
        params = {
            "head.w1": Tensor(np.ones((t * d, 1))),
            "head.b1": Tensor(np.zeros(1)),
            "head.w2": Tensor(np.full((1, 1), 1.0 / (t * d))),
            "head.b2": Tensor(np.zeros(1)),
        }
        z = Tensor(np.full((1, t, 3, d), 5.0))
        out = forecast_head(z, params, tau=1, n_channels=1)
        np.testing.assert_allclose(out.data, 5.0, rtol=1e-12)

    def test_output_shape_contract(self):
        b, t, n, d, tau, c = 2, 30, 5, 64, 14, 6
        params = self._params(t, d, tau, c)
        out = forecast_head(Tensor(np.zeros((b, t, n, d))), params, tau=tau, n_channels=c)
        assert out.shape == (b, tau, n, c)

    def test_dimension_mismatch(self):
        params = self._params(3, 4, 2, 6)
        with pytest.raises(ValueError):
            forecast_head(Tensor(np.zeros((1, 4, 5, 4))), params, tau=2, n_channels=6)
