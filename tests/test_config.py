import json

import pytest

from omniair.config import RunConfig


class TestRunConfig:
    def test_defaults_match_stock_settings(self):
        cfg = RunConfig()
        assert cfg.fourier_dim == 32 and cfg.id_dim == 64 and cfg.grade_embed == 16
        assert cfg.d_model == 64 and cfg.heads == 4 and cfg.diffusion_steps == 2
        assert cfg.k_geo == 10 and cfg.k_sem == 5 and cfg.k_max == 15.0
        assert cfg.eta == 10.0 and cfg.kappa_km == 100.0 and cfg.restart == 0.2
        assert cfg.t_in == 30 and cfg.tau == 14 and cfg.batch == 32
        assert cfg.lr == 1e-3 and cfg.weight_decay == 1e-5
        assert cfg.max_epochs == 300 and cfg.patience == 20 and cfg.seed == 42
        assert cfg.head_hidden == 128

    def test_heads_must_divide(self):
        with pytest.raises(ValueError):
            RunConfig(d_model=30, id_dim=30, heads=4)

    def test_id_dim_must_equal_d_model(self):
        with pytest.raises(ValueError):
            RunConfig(d_model=64, id_dim=32)

    def test_unknown_field_rejected(self):
        with pytest.raises(ValueError, match="unknown config fields"):
            RunConfig.from_dict({"bogus": 1})

    def test_bad_modes(self):
        with pytest.raises(ValueError):
            RunConfig(coeff_mode="x")

    def test_json_roundtrip_and_hash(self, tmp_path):
        cfg = RunConfig(d_model=32, id_dim=32, seed=7)
        p = tmp_path / "cfg.json"
        cfg.save(p)
        loaded = RunConfig.load(p)
        assert loaded.to_dict() == cfg.to_dict()
        assert loaded.config_hash() == cfg.config_hash()
        other = RunConfig.load(p, overrides={"seed": 8})
        assert other.seed == 8
        assert other.config_hash() != cfg.config_hash()

    def test_from_dict_drops_stored_workers(self):
        # configs and checkpoints of earlier versions carry ``workers``
        cfg = RunConfig.from_dict({"t_in": 12, "workers": 3})
        assert cfg.t_in == 12 and "workers" not in cfg.to_dict()

    def test_removed_fields_load_at_their_kept_value(self):
        # configs and checkpoints of earlier versions store these switches
        legacy = {"fusion_mode": "signed", "rank_mode": "abs", "norm_mode": "abs",
                  "edge_source": "last", "eps_norm": 1e-8}
        cfg = RunConfig.from_dict({"t_in": 12, **legacy})
        assert cfg.to_dict() == RunConfig(t_in=12).to_dict()
        assert len(cfg.to_dict()) == 26

    @pytest.mark.parametrize("name, value", [
        ("fusion_mode", "softmax"), ("fusion_mode", "sum"), ("rank_mode", "signed"),
        ("norm_mode", "plain"), ("edge_source", "mean"), ("eps_norm", 1e-6),
    ])
    def test_removed_field_at_other_value_rejected(self, name, value):
        with pytest.raises(ValueError, match=f"{name}={value!r} is no longer supported"):
            RunConfig.from_dict({name: value})

    def test_partial_json(self, tmp_path):
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps({"t_in": 12, "tau": 5}))
        cfg = RunConfig.load(p)
        assert cfg.t_in == 12 and cfg.tau == 5 and cfg.d_model == 64
