import tracemalloc

import numpy as np
import pytest

from omniair import autodiff as ad
from omniair import optim
from omniair.autodiff import Tensor, grad_check, no_grad
from omniair.optim import Adam

from conftest import REGIMES, diffusion_regime


def check_op(build, shapes, seed=0, tol=1e-6):
    """grad_check an op in isolation on random small tensors."""
    rng = np.random.default_rng(seed)
    params = {
        f"x{i}": Tensor(rng.normal(size=s) + 0.05, requires_grad=True)
        for i, s in enumerate(shapes)
    }

    def f():
        return build(*params.values()).sum()

    err = grad_check(f, params, samples_per_param=None)
    assert err < tol, f"gradient error {err}"


class TestOpGradients:
    def test_add_broadcast(self):
        check_op(lambda a, b: a + b, [(3, 4), (4,)])

    def test_sub_broadcast(self):
        check_op(lambda a, b: a - b, [(2, 3, 4), (3, 1)])

    def test_mul_broadcast(self):
        check_op(lambda a, b: a * b, [(2, 4), (2, 1)])

    def test_div(self):
        check_op(lambda a, b: a / (b * b + 1.0), [(3, 3), (3,)])

    def test_matmul_2d(self):
        check_op(lambda a, b: ad.matmul(a, b), [(3, 4), (4, 2)])

    def test_matmul_batched(self):
        check_op(lambda a, b: ad.matmul(a, b), [(2, 3, 4), (4, 5)])

    def test_reshape_transpose(self):
        check_op(lambda a: a.transpose((1, 0, 2)).reshape((4, 6)), [(2, 2, 6)])

    def test_sum_axes(self):
        check_op(lambda a: a.sum(axis=1).sum(), [(3, 4, 2)])
        check_op(lambda a: a.sum(axis=(0, 2), keepdims=True), [(3, 4, 2)])

    def test_sigmoid_tanh(self):
        check_op(lambda a: ad.sigmoid(a) * ad.tanh(a), [(4, 4)])

    def test_relu_leaky(self):
        check_op(lambda a: ad.relu(a) + ad.leaky_relu(a), [(5, 5)], seed=3)

    def test_abs(self):
        check_op(lambda a: ad.abs_(a), [(4, 4)], seed=5)

    def test_gather(self):
        idx = np.array([0, 2, 2, 1])
        check_op(lambda a: ad.gather(a, idx, axis=1), [(2, 3, 2)])

    def test_gather_table_index(self):
        idx = np.array([[0, 2], [2, 2], [1, 0]])
        cot = Tensor(np.random.default_rng(1).normal(size=(2, 3, 2, 2)))
        check_op(lambda a: ad.gather(a, idx, axis=1) * cot, [(2, 3, 2)])

    def test_diffuse_repeated_targets(self):
        # square table whose rows repeat targets; both x and w are checked
        nbr = np.array([[1, 1, 2], [0, 3, 3], [2, 2, 2], [0, 1, 3]])
        cot = Tensor(np.random.default_rng(2).normal(size=(2, 2, 3, 4, 2)))
        for regime in REGIMES:
            with diffusion_regime(regime):
                check_op(lambda x, w: ad.diffuse(x, w, nbr, 1, 0.0) * cot,
                         [(2, 3, 4, 2), (2, 4, 3)])

    def test_diffuse_cross_table(self):
        # 3 receiving nodes drawing from 5 source rows (N_src != N)
        nbr = np.array([[4, 4], [0, 2], [2, 4]])
        cot = Tensor(np.random.default_rng(3).normal(size=(2, 2, 2, 3, 3)))
        for regime in REGIMES:
            with diffusion_regime(regime):
                check_op(lambda h, w, x: ad.diffuse(h, w, nbr, 1, 0.0, sources=x) * cot,
                         [(2, 2, 3, 3), (2, 3, 2), (1, 2, 2, 5, 3)])


class TestDiffuseGradients:
    @pytest.mark.parametrize("regime", REGIMES)
    @pytest.mark.parametrize("steps", [0, 1, 3])
    @pytest.mark.parametrize("cross", [False, True], ids=["own", "cross"])
    def test_grad_check(self, regime, steps, cross):
        # rows repeat targets; with sources, 4 nodes draw from 6 source rows
        nbr = np.array([[1, 1, 3], [0, 2, 2], [3, 3, 3], [0, 1, 5 if cross else 2]])
        rng = np.random.default_rng(steps)
        params = {
            "h0": Tensor(rng.normal(size=(2, 3, 4, 2)), requires_grad=True),
            "w": Tensor(rng.normal(size=(2, 4, 3)), requires_grad=True),
        }
        if cross:
            params["src"] = Tensor(rng.normal(size=(max(steps, 1), 2, 3, 6, 2)),
                                   requires_grad=True)
        cot = Tensor(rng.normal(size=(steps + 1, 2, 3, 4, 2)))

        def f():
            out = ad.diffuse(params["h0"], params["w"], nbr, steps, 0.3, params.get("src"))
            return (out * cot).sum()

        with diffusion_regime(regime):
            assert grad_check(f, params, samples_per_param=None) < 1e-6


class TestDiffuseMemory:
    # (B, T, N, K, D) = (1, 4, 512, 16, 32): one gathered message array is 8.4 MB,
    # while a state is 0.5 MB and the 2-step output 1.6 MB
    SHAPE = (1, 4, 512, 16, 32)

    def inputs(self):
        b, t, n, k, d = self.SHAPE
        rng = np.random.default_rng(0)
        h0 = Tensor(rng.normal(size=(b, t, n, d)), requires_grad=True)
        w = Tensor(rng.normal(size=(b, n, k)), requires_grad=True)
        nbr = rng.integers(0, n, size=(n, k)).astype(np.intp)
        return h0, w, nbr, 8 * np.prod(self.SHAPE)

    def test_taped_table_forward_forms_and_keeps_no_messages(self):
        h0, w, nbr, msgs_bytes = self.inputs()
        with diffusion_regime("table"):
            tracemalloc.start()
            try:
                start = tracemalloc.get_traced_memory()[0]
                out = ad.diffuse(h0, w, nbr, 2, 0.3)
                held, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
        assert out.requires_grad
        assert peak - start < msgs_bytes
        assert held - start - out.data.nbytes < msgs_bytes

    def test_table_weight_gradient_forms_no_messages(self):
        # fixed sources: the backward runs the weight gradient and no adjoint scatter
        h0, w, nbr, msgs_bytes = self.inputs()
        src = Tensor(np.random.default_rng(1).normal(size=(2,) + h0.shape))
        with diffusion_regime("table"):
            loss = ad.diffuse(h0, w, nbr, 2, 0.3, sources=src).sum()
            tracemalloc.start()
            try:
                start = tracemalloc.get_traced_memory()[0]
                loss.backward()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert w.grad.shape == w.shape
        assert peak - start < msgs_bytes


class TestTableAdjoint:
    """``_TableOperator.apply_t`` scatters one (b, t) slice at a time and adds
    each target's (i, k, d) contributions in the order of one bincount over
    the batch-spanning index of all the weighted messages."""

    @staticmethod
    def batch_spanning(g, w, nbr, n_src):
        b, t, _, d = g.shape
        weighted = g[:, :, :, None, :] * w[:, None, :, :, None]
        bins = (np.arange(b * t)[:, None, None] * n_src + nbr.reshape(1, -1, 1)) * d
        bins = (bins + np.arange(d)).reshape(-1)
        out = np.bincount(bins, weights=weighted.reshape(-1), minlength=b * t * n_src * d)
        return out.reshape(b, t, n_src, d)

    @pytest.mark.parametrize("n_src", [9, 5, 14], ids=["self", "fewer-sources", "more-sources"])
    def test_bytes_equal_one_batch_spanning_bincount(self, n_src):
        rng = np.random.default_rng(n_src)
        b, t, n, k, d = 2, 3, 9, 5, 4
        nbr = rng.integers(0, n_src, size=(n, k)).astype(np.intp)
        nbr[:, 1] = nbr[:, 0]  # every row repeats a target
        nbr[2] = nbr[0]  # and two rows share theirs
        g = rng.normal(size=(b, t, n, d))
        w = rng.normal(size=(b, n, k))
        got = ad._TableOperator(w, nbr, n_src).apply_t(g)
        assert got.tobytes() == self.batch_spanning(g, w, nbr, n_src).tobytes()

    def test_forms_no_messages(self):
        # (B, T, N, K, D) = (2, 4, 512, 8, 16): the messages are 4.2 MB, the
        # output an eighth of that and one (b, t) slice of edges a quarter
        b, t, n, k, d = 2, 4, 512, 8, 16
        rng = np.random.default_rng(0)
        nbr = rng.integers(0, n, size=(n, k)).astype(np.intp)
        g = rng.normal(size=(b, t, n, d))
        op = ad._TableOperator(rng.normal(size=(b, n, k)), nbr, n)
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            out = op.apply_t(g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert out.shape == g.shape
        assert peak - start < 8 * b * t * n * k * d


class TestOpSemantics:
    def test_product_rule_example(self):
        x = Tensor([2.0], requires_grad=True)
        y = Tensor([3.0], requires_grad=True)
        (x * y).sum().backward()
        assert x.grad[0] == 3.0 and y.grad[0] == 2.0

    def test_diffuse_matches_dense_onehot(self):
        # one step from a source stack equals the dense matmul with the
        # one-hot expanded table; backward is its transpose (x) and the
        # per-edge inner product (w)
        rng = np.random.default_rng(0)
        nbr = np.array([[0, 3], [3, 3], [1, 2]])
        onehot = np.zeros((3, 2, 4))
        onehot[np.arange(3)[:, None], np.arange(2), nbr] = 1.0
        h0 = Tensor(np.zeros((2, 2, 3, 3)))
        x_data, w_data = rng.normal(size=(1, 2, 2, 4, 3)), rng.normal(size=(2, 3, 2))
        adj = np.einsum("bik,iks->bis", w_data, onehot)
        cot = rng.normal(size=(2, 2, 2, 3, 3))
        for regime in REGIMES:
            x, w = Tensor(x_data, requires_grad=True), Tensor(w_data, requires_grad=True)
            with diffusion_regime(regime):
                out = ad.diffuse(h0, w, nbr, 1, 0.0, sources=x)
            np.testing.assert_allclose(out.data[1], np.einsum("bis,btsd->btid", adj, x_data[0]),
                                       atol=1e-14)
            (out * Tensor(cot)).sum().backward()
            np.testing.assert_allclose(x.grad[0], np.einsum("bis,btid->btsd", adj, cot[1]),
                                       atol=1e-14)
            dw = np.einsum("btid,iks,btsd->bik", cot[1], onehot, x_data[0])
            np.testing.assert_allclose(w.grad, dw, atol=1e-14)

    def test_shared_first_gradient_does_not_leak(self):
        # add hands one cotangent to both operands; a later contribution to
        # x must not leak into y's gradient
        x = Tensor(np.ones(3), requires_grad=True)
        y = Tensor(np.ones(3), requires_grad=True)
        ((x + y).sum() + (x * 3.0).sum()).backward()
        np.testing.assert_array_equal(x.grad, 4.0)
        np.testing.assert_array_equal(y.grad, 1.0)

    @pytest.mark.parametrize("view_first", [True, False])
    def test_broadcast_view_gradient_with_second_contribution(self, view_first):
        # sum's backward hands x a read-only broadcast view; x * x adds two
        # more contributions, before or after the view depending on the order
        x = Tensor(np.arange(3.0), requires_grad=True)
        s, m = x.sum(), (x * x).sum()
        (s + m if view_first else m + s).backward()
        np.testing.assert_array_equal(x.grad, 1.0 + 2.0 * np.arange(3.0))

    def test_sigmoid_bits_match_two_branch_formula(self):
        x = np.concatenate([
            [0.0, -0.0, 800.0, -800.0, np.inf, -np.inf, 744.5, -744.5, 5e-324, -5e-324],
            np.random.default_rng(4).normal(scale=40.0, size=200),
        ])
        # exp underflows to 0 beyond |x| ~ 745 in both forms; that is exact
        with np.errstate(all="raise", under="ignore"):
            got = ad.sigmoid(Tensor(x)).data
            pos = x >= 0
            want = np.empty_like(x)
            want[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
            want[~pos] = np.exp(x[~pos]) / (1.0 + np.exp(x[~pos]))
        assert got.tobytes() == want.tobytes()

    def test_gather_repeats_accumulate(self):
        x = Tensor(np.ones((3, 2)), requires_grad=True)
        out = ad.gather(x, np.array([1, 1, 1]), axis=0)
        out.sum().backward()
        np.testing.assert_array_equal(x.grad[:, 0], [0.0, 3.0, 0.0])

    def test_backward_runs_once_per_graph(self):
        w = Tensor(np.array([[0.5, -1.0], [2.0, 0.25]]), requires_grad=True)
        out = ad.tanh(ad.matmul(Tensor(np.ones((3, 2))), w))
        loss = out.sum()
        loss.backward()
        first = w.grad.copy()
        for again in (loss, out.sum()):
            with pytest.raises(RuntimeError, match="backward\\(\\) already ran through this "
                                                   "graph; build it again"):
                again.backward()
        np.testing.assert_array_equal(w.grad, first)

    def test_swept_graph_raises_before_any_gradient(self):
        x = Tensor([1.5], requires_grad=True)
        y = Tensor([2.0], requires_grad=True)
        kept = x * 3.0
        kept.sum().backward()
        with pytest.raises(RuntimeError, match="already ran"):
            ((y * y).sum() + kept.sum()).backward()
        assert x.grad[0] == 3.0 and y.grad is None

    def test_sweep_frees_every_interior_node(self):
        x = Tensor([1.0, -2.0], requires_grad=True)
        y = x * 2.0
        # an op whose backward sends nothing on, so no gradient reaches y
        z = ad._node(y.data.copy(), (y,), lambda g: None)
        h = ad.tanh(x) + z
        loss = h.sum()
        loss.backward()
        np.testing.assert_array_equal(x.grad, 1.0 - np.tanh(x.data) ** 2)
        for node in (y, z, h, loss):
            assert node._parents == () and node.grad is None
            with pytest.raises(RuntimeError, match="already ran"):
                node._backward(np.ones(node.shape))

    def test_backward_requires_scalar(self):
        x = Tensor(np.ones(3), requires_grad=True)
        with pytest.raises(ValueError):
            (x * 2.0).backward()

    def test_matmul_shape_mismatch(self):
        with pytest.raises(ValueError):
            ad.matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((4, 2))))

    @pytest.mark.parametrize("shape", [(3,), (2, 3, 2)], ids=["1-d", "3-d"])
    def test_matmul_right_operand_must_be_2d(self, shape):
        with pytest.raises(ValueError, match="2-d right operand"):
            ad.matmul(Tensor(np.ones((2, 3))), Tensor(np.ones(shape)))

    def test_no_grad_skips_graph(self):
        x = Tensor([1.0], requires_grad=True)
        with no_grad():
            y = x * 3.0
        assert not y.requires_grad and y._backward is None

    def test_replay_bit_identical(self):
        rng = np.random.default_rng(7)
        w = rng.normal(size=(6, 6))
        xs = rng.normal(size=(4, 6))

        def run():
            p = Tensor(w.copy(), requires_grad=True)
            loss = ad.tanh(ad.matmul(Tensor(xs), p)).sum()
            loss.backward()
            return p.grad.copy()

        g1, g2 = run(), run()
        assert np.array_equal(g1, g2)


class TestGradCheckHarness:
    def test_quadratic(self):
        p = {"x": Tensor([3.0], requires_grad=True)}
        err = grad_check(lambda: (p["x"] * p["x"]).sum(), p, samples_per_param=None)
        assert err < 1e-8

    def test_nonfinite_loss_raises(self):
        p = {"x": Tensor([0.0], requires_grad=True)}

        def f():
            with np.errstate(invalid="ignore"):
                return p["x"] / p["x"]

        with pytest.raises(RuntimeError):
            grad_check(f, p)


class TestAdam:
    def test_stock_moment_constants(self):
        opt = Adam({"w": Tensor(np.zeros(1), requires_grad=True)})
        assert (optim.BETA1, optim.BETA2, optim.EPS) == (0.9, 0.999, 1e-8)
        assert opt.weight_decay == 0.0 and opt.step_count == 0

    def test_first_step_is_signed_lr(self):
        p = {"w": Tensor(np.array([1.0, -2.0]), requires_grad=True)}
        p["w"].grad = np.array([0.5, -0.5])
        before = p["w"].data.copy()
        Adam(p, lr=1e-3).step()
        delta = p["w"].data - before
        np.testing.assert_allclose(delta, [-1e-3, 1e-3], atol=1e-6)

    def test_zero_grad_only_weight_decay(self):
        p = {"w": Tensor(np.array([2.0]), requires_grad=True)}
        p["w"].grad = np.zeros(1)
        opt = Adam(p, lr=0.1, weight_decay=0.01)
        opt.step()
        assert p["w"].data[0] == pytest.approx(2.0 * (1 - 0.1 * 0.01))

    def test_two_steps_match_hand_recursion(self):
        # scripted Adam recursion with constant gradient
        g = np.array([0.3, -1.2])
        lr, b1, b2, eps = 1e-2, 0.9, 0.999, 1e-8
        theta = np.array([0.5, 0.5])
        m = np.zeros(2)
        v = np.zeros(2)
        expected = theta.copy()
        for t in (1, 2):
            m = b1 * m + (1 - b1) * g
            v = b2 * v + (1 - b2) * g * g
            expected -= lr * (m / (1 - b1**t)) / (np.sqrt(v / (1 - b2**t)) + eps)

        p = {"w": Tensor(np.array([0.5, 0.5]), requires_grad=True)}
        opt = Adam(p, lr=lr)
        for _ in range(2):
            p["w"].grad = g.copy()
            opt.step()
        np.testing.assert_allclose(p["w"].data, expected, atol=1e-12)

    def test_nonfinite_gradient_skips(self):
        p = {"w": Tensor(np.array([1.0]), requires_grad=True)}
        p["w"].grad = np.array([np.nan])
        opt = Adam(p, lr=0.1)
        assert opt.step() is False
        assert opt.step_count == 0
        assert p["w"].data[0] == 1.0
