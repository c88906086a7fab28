import numpy as np
import pytest

from omniair.autodiff import Tensor
from omniair.data import CHANNELS, NormStats, chrono_split, make_windows
from omniair.encoder import Contexts
from omniair.model import (
    ModelState,
    build_extension,
    build_state,
    forward,
    init_params,
    masked_mae_loss,
)
from omniair.oracle import RDScenario, dense_forward, simulate_rd
from omniair.topology import HybridGraph

from conftest import small_config


class TestForwardBasics:
    def test_shapes_and_finiteness(self, tiny_cfg, tiny_state, tiny_params, tiny_batch):
        out = forward(tiny_params, tiny_state, tiny_batch.inputs)
        b = tiny_batch.inputs.shape[0]
        assert out.shape == (b, tiny_cfg.tau, tiny_state.n_stations, len(CHANNELS))
        assert np.isfinite(out.data).all()

    def test_bad_input_shape(self, tiny_state, tiny_params):
        with pytest.raises(ValueError):
            forward(tiny_params, tiny_state, np.zeros((1, 8, 99, 6)))

    def test_masked_loss_ignores_invalid(self):
        pred = Tensor(np.ones((1, 2, 2, 6)))
        target = np.zeros((1, 2, 2, 6))
        mask = np.zeros((1, 2, 2, 6), dtype=bool)
        mask[0, 0, 0, 0] = True
        loss = masked_mae_loss(pred, target, mask)
        assert loss.item() == pytest.approx(1.0)

    def test_masked_loss_empty_mask(self):
        pred = Tensor(np.ones((1, 1, 1, 6)))
        loss = masked_mae_loss(pred, np.zeros((1, 1, 1, 6)), np.zeros((1, 1, 1, 6), bool))
        assert loss.item() == 0.0


class TestParameterInventory:
    def test_every_learnable_symbol_present_once(self, tiny_cfg, tiny_params):
        expected = {
            "input_proj.w", "input_proj.b",
            "grade_embed.table",
            "id_mlp.w1", "id_mlp.b1", "id_mlp.w2", "id_mlp.b2",
            "attn.we", "attn.a",
            "edge_gate.w", "edge_gate.b",
            "beta_mlp.w1", "beta_mlp.b1", "beta_mlp.w2", "beta_mlp.b2",
            "agg.wq", "agg.wk", "agg.step_bias",
            "out_gate.w", "out_gate.b",
            "head.w1", "head.b1", "head.w2", "head.b2",
        }
        assert set(tiny_params) == expected
        l1 = tiny_cfg.diffusion_steps + 1
        assert tiny_params["agg.step_bias"].shape == (l1,)
        np.testing.assert_array_equal(tiny_params["agg.step_bias"].data, 1.0)

    def test_every_parameter_receives_gradient(self, tiny_state, tiny_params, tiny_batch):
        from omniair.model import masked_mae_loss

        target_norm = tiny_state.stats.normalize(tiny_batch.targets)
        pred = forward(tiny_params, tiny_state, tiny_batch.inputs)
        masked_mae_loss(pred, target_norm, tiny_batch.target_valid).backward()
        for name, p in tiny_params.items():
            assert p.grad is not None and np.any(p.grad != 0), name


class TestPermutationEquivariance:
    def test_forecast_permutes_with_stations(self):
        cfg = small_config(d_model=16, id_dim=16, t_in=6, tau=2, batch=2, k_geo=3, k_sem=2)
        scn = RDScenario(n=10, steps=50, seed=21, noise_std=0.1)
        stations, frame = simulate_rd(scn)
        train, _, _ = chrono_split(frame)
        params = init_params(cfg, np.random.default_rng(5))

        state = build_state(cfg, stations, train)
        batch = next(make_windows(train, cfg.t_in, cfg.tau, state.stats, 2))
        out = forward(params, state, batch.inputs).data

        perm = np.random.default_rng(6).permutation(10)
        stations_p = [stations[j] for j in perm]
        frame_p = type(frame)(
            frame.timestamps,
            frame.values[:, perm].copy(),
            frame.valid[:, perm].copy(),
            tuple(s.id for s in stations_p),
        )
        train_p, _, _ = chrono_split(frame_p)
        state_p = build_state(cfg, stations_p, train_p)
        batch_p = next(make_windows(train_p, cfg.t_in, cfg.tau, state_p.stats, 2))
        out_p = forward(params, state_p, batch_p.inputs).data

        np.testing.assert_allclose(out_p, out[:, :, perm, :], atol=1e-10)

        # the dense reference permutes identically as well
        raw = {k: t.data for k, t in params.items()}
        dense = dense_forward(raw, state, batch.inputs)
        dense_p = dense_forward(raw, state_p, batch_p.inputs)
        np.testing.assert_allclose(dense_p, dense[:, :, perm, :], atol=1e-10)


class TestSingleStation:
    def test_no_edges_matches_dense(self):
        # one station, empty candidate list: both paths collapse to the
        # per-station pipeline
        cfg = small_config(d_model=8, id_dim=8, heads=2, t_in=4, tau=2, batch=1,
                           k_geo=1, k_sem=0, k_max=1.0)
        rng = np.random.default_rng(0)
        graph = HybridGraph(
            np.empty((1, 0), dtype=np.intp),
            np.empty((1, 0), dtype=np.int8),
            np.empty((1, 0)),
            np.empty((1, 0)),
        )
        ctx = Contexts(np.array([[1.0, 0.5, 2.0, 0.1] + [1 / 6] * 6]), np.zeros((1, 2)),
                       np.array([False]))
        feat_dim = cfg.fourier_dim + 10 + 6
        stats = NormStats(np.zeros(6), np.ones(6), np.zeros(6), np.ones(6))
        state = ModelState(
            cfg=cfg,
            stations=[],
            stats=stats,
            contexts=ctx,
            graph=graph,
            id_features=rng.normal(size=(1, feat_dim)),
            grades=np.array([2]),
            sem_vectors=np.empty((1, 0)),
        )
        params = init_params(cfg, rng)
        x = rng.normal(size=(1, cfg.t_in, 1, 6))
        sparse = forward(params, state, x).data
        dense = dense_forward({k: t.data for k, t in params.items()}, state, x)
        np.testing.assert_allclose(sparse, dense, atol=1e-12)
        assert np.isfinite(sparse).all()


class TestExtension:
    def _setup(self):
        cfg = small_config(d_model=16, id_dim=16, t_in=6, tau=2, batch=1, k_geo=3, k_sem=2)
        scn = RDScenario(n=16, steps=60, seed=31, noise_std=0.1)
        stations, frame = simulate_rd(scn)
        base, held = stations[:12], stations[12:]
        base_frame = type(frame)(
            frame.timestamps, frame.values[:, :12].copy(), frame.valid[:, :12].copy(),
            tuple(s.id for s in base),
        )
        train, _, _ = chrono_split(base_frame)
        state = build_state(cfg, base, train)
        params = init_params(cfg, np.random.default_rng(7))
        batch = next(make_windows(train, cfg.t_in, cfg.tau, state.stats, 1))
        return cfg, state, params, batch, held

    def test_directed_attachment_reuses_base_states(self):
        cfg, state, params, batch, held = self._setup()
        out1, extras = forward(params, state, batch.inputs, collect=True)
        ext = build_extension(state, held)
        x_new = np.zeros((1, cfg.t_in, len(held), 6))
        out_new = forward(params, ext, x_new, base=extras)
        assert out_new.shape == (1, cfg.tau, len(held), 6)
        assert np.isfinite(out_new.data).all()
        # base forward untouched by the extension computation
        out2 = forward(params, state, batch.inputs)
        assert np.array_equal(out1.data, out2.data)

    def test_forward_takes_base_exactly_for_cross_graph(self):
        # unseen stations are a model state whose cross graph gathers from a
        # base run: without that run its indices would read its own rows
        cfg, state, params, batch, held = self._setup()
        ext = build_extension(state, held)
        assert ext.graph.cross and ext.stations == held and ext.stats is state.stats
        _, extras = forward(params, state, batch.inputs, collect=True)
        with pytest.raises(ValueError, match=r"need the base run \(base=\)"):
            forward(params, ext, np.zeros((1, cfg.t_in, len(held), 6)))
        with pytest.raises(ValueError, match="base= is only for the stations of a cross graph"):
            forward(params, state, batch.inputs, base=extras)

    def test_id_collision_rejected(self):
        cfg, state, params, batch, held = self._setup()
        clash = [state.stations[0]]
        with pytest.raises(ValueError, match="collides"):
            build_extension(state, clash)

    def test_attachment_edges_point_into_base(self):
        cfg, state, params, batch, held = self._setup()
        ext = build_extension(state, held)
        assert ext.graph.n_nodes == len(held)
        assert ext.graph.nbr.max() < state.n_stations
        assert ext.graph.nbr.shape == (len(held), cfg.k_geo + cfg.k_sem)

    def test_coincident_new_station_same_embedding_inputs(self):
        # a new station carrying identical observable inputs encodes to the
        # identical embedding (pure function of its inputs)
        from omniair.encoder import encode_identity

        cfg, state, params, batch, held = self._setup()
        i = 3
        feats = state.id_features[i : i + 1]
        grade = state.grades[i : i + 1]
        a = encode_identity(feats, grade, params).data
        b = encode_identity(feats.copy(), grade.copy(), params).data
        assert np.array_equal(a, b)
