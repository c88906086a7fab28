import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from omniair import autodiff as ad
from omniair.config import RunConfig
from omniair.data import chrono_split, make_windows
from omniair.autodiff import no_grad
from omniair.model import (
    ModelState,
    build_state,
    forward,
    identity_input_dim,
    init_params,
)
from omniair.oracle import (
    SIM_KAPPA_KM,
    RDScenario,
    SourceSpec,
    build_sim_laplacian,
    check_kernel,
    dense_forward,
    random_fourier_features,
    simulate_rd,
    stability_bound,
    toy_grad_check,
)

from omniair.topology import HybridGraph

from conftest import REGIMES, diffusion_regime, small_config


class TestSimulator:
    def test_mass_conservation(self):
        # S = 0, decay = 0: 1^T L = 0 keeps total mass constant per step
        scn = RDScenario(n=15, steps=200, seed=1, decay=0.0, noise_std=0.0)
        _, frame = simulate_rd(scn)
        totals = frame.values[:, :, 0].sum(axis=1)
        assert np.abs(np.diff(totals)).max() < 1e-9

    def test_pure_decay(self):
        # diffusion off: C_{t+1} = (1 - decay dt) C_t exactly
        scn = RDScenario(n=8, steps=50, seed=2, diffusion=0.0, decay=0.3, dt=0.1)
        _, frame = simulate_rd(scn)
        c = frame.values[:, :, 0]
        ratio = c[1:] / c[:-1]
        np.testing.assert_allclose(ratio, 1.0 - 0.3 * 0.1, rtol=1e-12)

    def test_uniform_field_is_fixed_point(self):
        scn = RDScenario(n=10, steps=30, seed=3, decay=0.0, noise_std=0.0)
        stations, frame = simulate_rd(scn)
        # rebuild with a uniform start by exploiting linearity: replay manually
        points = np.stack([s.point for s in stations])
        lap = build_sim_laplacian(points, scn.k_neighbors, SIM_KAPPA_KM)
        c = np.full(scn.n, 4.2)
        for _ in range(100):
            c_next = c + scn.dt * (-scn.diffusion * (lap @ c))
            np.testing.assert_allclose(c_next, c, atol=1e-12)
            c = c_next

    def test_steady_state_under_constant_source(self):
        # diffusion off isolates each node: C -> S / decay
        scn = RDScenario(
            n=6, steps=2000, seed=4, diffusion=0.0, decay=0.2, dt=0.2,
            sources=(SourceSpec(node=2, amplitude=3.0),),
        )
        _, frame = simulate_rd(scn)
        assert frame.values[-1, 2, 0] == pytest.approx(3.0 / 0.2, abs=1e-6)

    def test_stability_guard(self):
        scn = RDScenario(n=10, steps=10, seed=5, diffusion=50.0, dt=1.0)
        with pytest.raises(ValueError, match="unstable"):
            simulate_rd(scn)

    @pytest.mark.parametrize("fields, named", [
        (dict(n=4), "n=4"),
        (dict(steps=0), "steps=0"),
        (dict(dt=0.0), "dt=0.0"),
        (dict(dt=float("nan")), "dt=nan"),
        (dict(diffusion=-0.1), "diffusion=-0.1"),
        (dict(decay=-0.1), "decay=-0.1"),
        (dict(noise_std=-1.0), "noise_std=-1.0"),
        (dict(missing_rate=1.0), "missing_rate=1.0"),
        (dict(missing_rate=-0.1), "missing_rate=-0.1"),
        (dict(decay=float("nan")), "decay=nan"),
        (dict(sources=(SourceSpec(-1, 8.0),)), "sources[0].node=-1"),
        (dict(sources=(SourceSpec(0, 1.0), SourceSpec(6, 8.0))), "sources[1].node=6"),
        (dict(sources=(SourceSpec(0, float("inf")),)), "sources[0].amplitude=inf"),
        (dict(sources=(SourceSpec(0, 1.0, period=-2),)), "sources[0].period=-2"),
        (dict(sources=(SourceSpec(0, 1.0, period=4, on_steps=5),)), "sources[0].on_steps=5"),
        (dict(sources=(SourceSpec(0, 1.0, period=4, on_steps=-1),)), "sources[0].on_steps=-1"),
        (dict(sources=(SourceSpec(0, 1.0, on_steps=1),)), "sources[0].on_steps=1"),
    ], ids=lambda v: v if isinstance(v, str) else None)
    def test_bad_scenario_is_refused_by_name(self, fields, named):
        # a negative node would wrap to the last station, zero steps would
        # give an empty dataset and the rest describe no physical scenario
        with pytest.raises(ValueError, match=re.escape(named)):
            simulate_rd(RDScenario(**{"n": 6, "steps": 20, **fields}))

    def test_boundary_scenario_is_accepted(self):
        src = (SourceSpec(5, 2.0), SourceSpec(0, -1.0, period=3, on_steps=3))
        _, frame = simulate_rd(RDScenario(n=6, steps=1, diffusion=0.0, decay=0.0,
                                          noise_std=0.0, missing_rate=0.0, sources=src))
        assert frame.values.shape == (1, 6, 6)

    def test_determinism(self):
        a_st, a_fr = simulate_rd(RDScenario(n=7, steps=40, seed=9, noise_std=0.5, missing_rate=0.1))
        b_st, b_fr = simulate_rd(RDScenario(n=7, steps=40, seed=9, noise_std=0.5, missing_rate=0.1))
        assert np.array_equal(a_fr.values, b_fr.values)
        assert np.array_equal(a_fr.valid, b_fr.valid)
        assert all(x.id == y.id and x.lat == y.lat for x, y in zip(a_st, b_st))

    def test_square_wave_source(self):
        src = SourceSpec(node=0, amplitude=1.0, period=10, on_steps=4)
        active = [src.active(t) for t in range(12)]
        assert active == [True] * 4 + [False] * 6 + [True] * 2

    def test_laplacian_row_sums_zero(self):
        rng = np.random.default_rng(6)
        points = np.stack([rng.uniform(0, 10, 12), rng.uniform(0, 10, 12)], axis=1)
        lap = build_sim_laplacian(points, 3, 100.0)
        np.testing.assert_allclose(lap.sum(axis=1), 0.0, atol=1e-12)
        np.testing.assert_allclose(lap, lap.T, atol=0)
        assert stability_bound(lap, 1.0, 0.0) == pytest.approx(2 * lap.diagonal().max())

    def test_grades_cover_range(self):
        stations, _ = simulate_rd(RDScenario(n=40, steps=50, seed=7))
        grades = {s.grade for s in stations}
        assert grades <= set(range(6)) and len(grades) >= 4


class TestKernelChecker:
    def test_deviation_decreases_and_small_at_4096(self):
        table = dict(check_kernel(bandwidth=1.0, m_list=(64, 4096), n_pairs=100, seed=0))
        assert table[4096] < 0.05
        assert table[4096] < table[64]

    def test_zero_offset_kernel_is_one(self):
        f = random_fourier_features((12.0, 34.0), 256, 1.0, 3)
        assert float(f @ f) == pytest.approx(1.0, abs=1e-9)

    def test_closed_form_target_value(self):
        # ||dx|| = 0.2 at unit bandwidth
        assert np.exp(-2 * np.pi**2 * 0.04) == pytest.approx(0.4540, abs=5e-5)


class TestDenseEquivalence:
    def test_matches_sparse_across_seeds(self):
        # 25 seeds x N in {4, 8, 16}
        for n in (4, 8, 16):
            cfg = small_config(
                d_model=16, t_in=6, tau=2, batch=2,
                k_geo=min(3, n - 2), k_sem=1,
            )
            for seed in range(25):
                scn = RDScenario(n=n, steps=40, seed=seed, noise_std=0.2,
                                 k_neighbors=min(3, n - 1))
                stations, frame = simulate_rd(scn)
                train, _, _ = chrono_split(frame)
                state = build_state(cfg, stations, train)
                params = init_params(cfg, np.random.default_rng(seed + 100))
                batch = next(make_windows(train, cfg.t_in, cfg.tau, state.stats, 2))
                sparse = forward(params, state, batch.inputs).data
                dense = dense_forward({k: t.data for k, t in params.items()}, state, batch.inputs)
                assert np.abs(sparse - dense).max() < 1e-10, (n, seed)

    def test_refuses_large_n(self, tiny_state, tiny_params):
        big = RunConfig(d_model=16)
        state = tiny_state
        fake = np.zeros((1, state.cfg.t_in, 100, 6))
        state_big = state
        with pytest.raises(ValueError):
            # patch a large station count through the dense guard
            import omniair.oracle as om

            class FakeState:
                cfg = state.cfg
                n_stations = 100

            om.dense_forward({}, FakeState(), fake)

    def test_single_station_no_edges(self):
        # N=1: both paths reduce to the per-station pipeline
        cfg = small_config(d_model=8, heads=2, t_in=4, tau=2, batch=1,
                           k_geo=1, k_sem=0)
        scn = RDScenario(n=5, steps=30, seed=11)
        stations, frame = simulate_rd(scn)
        train, _, _ = chrono_split(frame)
        state = build_state(cfg, stations, train)
        params = init_params(cfg, np.random.default_rng(0))
        batch = next(make_windows(train, cfg.t_in, cfg.tau, state.stats, 1))
        sparse = forward(params, state, batch.inputs).data
        dense = dense_forward({k: t.data for k, t in params.items()}, state, batch.inputs)
        np.testing.assert_allclose(sparse, dense, atol=1e-12)


def random_table(rng, n, k):
    """(n, k) table of distinct non-self targets."""
    return np.stack([(i + 1 + rng.permutation(n - 1)[:k]) % n for i in range(n)])


def table_state(cfg, rng, nbr, cross=False):
    km = rng.uniform(1.0, 300.0, size=nbr.shape)
    graph = HybridGraph(nbr, np.exp(-km / 100.0), cross=cross)
    n = len(nbr)
    id_dim = identity_input_dim(cfg) - cfg.grade_embed
    return ModelState(cfg, [], None, [], graph, rng.normal(size=(n, id_dim)),
                      rng.integers(0, 6, n), np.empty((n, 0)))


def masked_inputs(rng, shape, missing):
    """Normalized inputs, zero-imputed where a random validity mask is off
    (as ``make_windows`` feeds the model)."""
    return np.where(rng.random(shape) < missing, 0.0, rng.normal(size=shape))


def nonzero_input_bias(params, rng):
    """``params`` with a random b_in, the last row of ``input_proj.w``:
    ``init_params`` zeroes it, and diffusion carries it as a ones channel
    whose diffused values (A 1, not 1 under signed weights) only a nonzero
    bias exposes."""
    bias = params["input_proj.w"].data[-1]
    bias[:] = rng.normal(size=bias.shape)
    return params


def extension_vs_dense(cfg, rng, n, m, k, missing):
    """Max deviation of the base and extension forecasts from the rows of the
    dense reference on the union graph (base rows plus attachment rows)."""
    base = table_state(cfg, rng, random_table(rng, n, k))
    new = table_state(cfg, rng, np.stack([rng.permutation(n)[:k] for _ in range(m)]),
                      cross=True)
    params = nonzero_input_bias(init_params(cfg, rng), rng)
    b, t_in = cfg.batch, cfg.t_in
    x = masked_inputs(rng, (b, t_in, n, 6), missing)
    x_new = masked_inputs(rng, (b, t_in, m, 6), missing)
    with no_grad():
        base_out, extras = forward(params, base, x, collect=True)
        new_out = forward(params, new, x_new, base=extras)

    g, a = base.graph, new.graph
    union = ModelState(
        cfg, [], None, [],
        HybridGraph(np.concatenate([g.nbr, a.nbr]), np.concatenate([g.w_static, a.w_static])),
        np.concatenate([base.id_features, new.id_features]),
        np.concatenate([base.grades, new.grades]), np.empty((n + m, 0)),
    )
    dense = dense_forward({name: p.data for name, p in params.items()}, union,
                          np.concatenate([x, x_new], axis=2))
    return max(np.abs(base_out.data - dense[:, :, :n]).max(),
               np.abs(new_out.data - dense[:, :, n:]).max())


class TestTableLayoutProperty:
    @settings(max_examples=30, deadline=None)
    @given(
        n=st.integers(2, 64),
        k=st.integers(1, 8),
        b=st.integers(1, 3),
        t_in=st.integers(1, 5),
        coeff_mode=st.sampled_from(["signed", "positive"]),
        regime=st.sampled_from(REGIMES),
        missing=st.sampled_from([0.0, 0.5, 1.0]),
        seed=st.integers(0, 2**31 - 1),
    )
    def test_forward_matches_dense(self, n, k, b, t_in, coeff_mode, regime, missing, seed):
        # random (N, K) tables of distinct non-self targets, random inputs
        # with a random share of them missing
        k = min(k, n - 1)
        rng = np.random.default_rng(seed)
        cfg = small_config(d_model=8, heads=2, t_in=t_in, tau=2, batch=b,
                           k_geo=k, k_sem=0, coeff_mode=coeff_mode)
        state = table_state(cfg, rng, random_table(rng, n, k))
        params = nonzero_input_bias(init_params(cfg, rng), rng)
        x = masked_inputs(rng, (b, t_in, n, 6), missing)
        with diffusion_regime(regime):
            sparse = forward(params, state, x).data
        dense = dense_forward({name: p.data for name, p in params.items()}, state, x)
        assert np.abs(sparse - dense).max() < 1e-10

    @settings(max_examples=25, deadline=None)
    @given(
        n=st.integers(2, 40),
        m=st.integers(1, 12),
        k=st.integers(1, 6),
        b=st.integers(1, 2),
        t_in=st.integers(1, 4),
        coeff_mode=st.sampled_from(["signed", "positive"]),
        regime=st.sampled_from(REGIMES),
        missing=st.sampled_from([0.0, 0.5, 1.0]),
        seed=st.integers(0, 2**31 - 1),
    )
    def test_extension_matches_dense_union(self, n, m, k, b, t_in, coeff_mode, regime,
                                           missing, seed):
        # new stations attached to a base graph forecast exactly as their rows
        # of the union graph in the dense reference: base rows never gather
        # from new nodes
        k = min(k, n - 1)
        cfg = small_config(d_model=8, heads=2, t_in=t_in, tau=2, batch=b,
                           k_geo=k, k_sem=0, coeff_mode=coeff_mode)
        with diffusion_regime(regime):
            dev = extension_vs_dense(cfg, np.random.default_rng(seed), n, m, k, missing)
        assert dev < 1e-10

    @pytest.mark.parametrize("extra", [0, 1], ids=["at_ratio", "above_ratio"])
    def test_regime_boundary_matches_dense(self, extra, monkeypatch):
        # N_src at the cap still runs on the dense operator, one source row
        # more on the table; both match the reference (the cap, lowered to
        # 24, keeps the union graph within the reference's 64 stations)
        monkeypatch.setattr(ad, "_DENSE_ROWS", 24)
        k = 1
        n = ad._DENSE_ROWS + extra
        dense_ops = []
        real = ad._DenseOperator
        monkeypatch.setattr(ad, "_DenseOperator", lambda *a: dense_ops.append(a) or real(*a))
        cfg = small_config(d_model=8, heads=2, t_in=2, tau=2, batch=1,
                           k_geo=k, k_sem=0)
        assert extension_vs_dense(cfg, np.random.default_rng(n), n, 3, k, 0.5) < 1e-10
        assert len(dense_ops) == (2 if extra == 0 else 0)  # base pass and extension

    def test_extension_rejects_wrong_input_shape(self):
        rng = np.random.default_rng(0)
        cfg = small_config(d_model=8, heads=2, t_in=3, tau=2, batch=1,
                           k_geo=2, k_sem=0)
        base = table_state(cfg, rng, random_table(rng, 5, 2))
        new = table_state(cfg, rng, np.array([[0, 1], [2, 3]]), cross=True)
        params = init_params(cfg, rng)
        with no_grad():
            _, extras = forward(params, base, rng.normal(size=(1, 3, 5, 6)), collect=True)
            with pytest.raises(ValueError, match="bad input shape"):
                forward(params, new, np.zeros((1, 3, 3, 6)), base=extras)


class TestToyGradCheck:
    def test_full_model_with_pruning(self):
        assert toy_grad_check(seed=0) < 1e-4
