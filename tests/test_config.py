import dataclasses
import json
import re

import pytest

from omniair.config import RunConfig


class TestRunConfig:
    def test_defaults_match_stock_settings(self):
        cfg = RunConfig()
        assert cfg.fourier_dim == 32 and cfg.grade_embed == 16
        assert cfg.d_model == 64 and cfg.heads == 4 and cfg.diffusion_steps == 2
        assert cfg.k_geo == 10 and cfg.k_sem == 5
        assert cfg.eta == 10.0 and cfg.kappa_km == 100.0 and cfg.restart == 0.2
        assert cfg.t_in == 30 and cfg.tau == 14 and cfg.batch == 32
        assert cfg.lr == 1e-3 and cfg.weight_decay == 1e-5
        assert cfg.max_epochs == 300 and cfg.patience == 20 and cfg.seed == 42
        assert cfg.head_hidden == 128
        # the derived widths: 64-d identities, beta bounded by K = 15
        assert RunConfig(id_dim=64, k_max=15.0).to_dict() == cfg.to_dict()

    def test_heads_must_divide(self):
        with pytest.raises(ValueError):
            RunConfig(d_model=30, heads=4)

    def test_id_dim_must_equal_d_model(self):
        with pytest.raises(ValueError, match="id_dim=32 is no longer supported: it is d_model = 64"):
            RunConfig(d_model=64, id_dim=32)

    def test_k_max_must_equal_table_width(self):
        with pytest.raises(ValueError, match="k_max=4.0 is no longer supported: it is k_geo"):
            RunConfig(k_geo=2, k_sem=1, k_max=4.0)
        with pytest.raises(ValueError, match="k_max=9.0 is no longer supported"):
            RunConfig.from_dict({"k_geo": 6, "k_sem": 2, "k_max": 9.0})

    def test_derived_widths_are_not_fields(self):
        # the benchmark's workloads pass them, at the derived value
        cfg = RunConfig(d_model=32, id_dim=32, k_geo=6, k_sem=3, k_max=9.0)
        assert len(dataclasses.fields(RunConfig)) == 22
        assert len(cfg.to_dict()) == 22
        assert "id_dim" not in cfg.to_dict() and "k_max" not in cfg.to_dict()
        assert cfg.config_hash() == RunConfig(d_model=32, k_geo=6, k_sem=3).config_hash()
        for name in ("id_dim", "k_max"):
            with pytest.raises(AttributeError):
                getattr(cfg, name)

    def test_unknown_field_rejected(self):
        with pytest.raises(ValueError, match="unknown config fields"):
            RunConfig.from_dict({"bogus": 1})

    def test_bad_modes(self):
        with pytest.raises(ValueError):
            RunConfig(coeff_mode="x")

    def test_json_roundtrip_and_hash(self, tmp_path):
        cfg = RunConfig(d_model=32, seed=7)
        p = tmp_path / "cfg.json"
        cfg.save(p)
        loaded = RunConfig.load(p)
        assert loaded.to_dict() == cfg.to_dict()
        assert loaded.config_hash() == cfg.config_hash()
        other = RunConfig.load(p, overrides={"seed": 8})
        assert other.seed == 8
        assert other.config_hash() != cfg.config_hash()

    @pytest.mark.parametrize("name, value", [
        ("fusion_mode", "softmax"), ("fusion_mode", "sum"), ("rank_mode", "signed"),
        ("norm_mode", "plain"), ("edge_source", "mean"), ("eps_norm", 1e-6),
        ("refresh_semantic_every", 1), ("per_station_norm", True),
        ("id_dim", 32), ("k_max", 14.0),
    ])
    def test_removed_field_at_other_value_rejected(self, name, value):
        # removed switches are unknown fields; the two derived widths are refused by value
        if name in ("id_dim", "k_max"):
            message = f"{name}={value!r} is no longer supported"
        else:
            message = re.escape(f"unknown config fields: [{name!r}]")
        with pytest.raises(ValueError, match=message):
            RunConfig.from_dict({name: value})

    def test_partial_json(self, tmp_path):
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps({"t_in": 12, "tau": 5}))
        cfg = RunConfig.load(p)
        assert cfg.t_in == 12 and cfg.tau == 5 and cfg.d_model == 64

    @pytest.mark.parametrize("fields, message", [
        ({"k_geo": "3"}, "k_geo='3' must be an integer"),
        ({"k_geo": 3.5}, "k_geo=3.5 must be an integer"),
        ({"k_geo": True}, "k_geo=True must be an integer"),
        ({"heads": 2.0}, "heads=2.0 must be an integer"),
        ({"max_epochs": 1.5}, "max_epochs=1.5 must be an integer"),
        ({"lr": "0.1"}, "lr='0.1' must be a finite number"),
        ({"restart": None}, "restart=None must be a finite number"),
        ({"eta": float("nan")}, "eta=nan must be a finite number"),
        ({"weight_decay": float("inf")}, "weight_decay=inf must be a finite number"),
        ({"kappa_km": False}, "kappa_km=False must be a finite number"),
        ({"coeff_mode": 1}, "coeff_mode=1 must be a string"),
    ])
    def test_field_of_wrong_type_rejected_by_name(self, fields, message):
        # JSON gives each of these as readily as the number the field means
        with pytest.raises(ValueError, match=re.escape(f"config field {message}")):
            RunConfig.from_dict(fields)

    @pytest.mark.parametrize("fields, message", [
        ({"fourier_dim": 30}, "fourier_dim must be a multiple of 4"),
        ({"k_sem": -1}, "k_sem and diffusion_steps must be non-negative"),
        ({"diffusion_steps": -1}, "k_sem and diffusion_steps must be non-negative"),
        ({"restart": 1.0}, "restart must be in [0, 1)"),
        ({"restart": -0.1}, "restart must be in [0, 1)"),
    ])
    def test_value_out_of_range_rejected(self, fields, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            RunConfig.from_dict(fields)

    def test_negative_seed_rejected_by_name(self):
        # numpy's own refusal, "expected non-negative integer", names no field
        with pytest.raises(ValueError, match="config field seed=-1 must be non-negative"):
            RunConfig.from_dict({"seed": -1})

    def test_integer_for_float_field_accepted(self):
        assert RunConfig.from_dict({"lr": 1, "restart": 0}).to_dict() == RunConfig(
            lr=1.0, restart=0.0).to_dict()

    @pytest.mark.parametrize("overrides", [None, {"seed": 3}])
    def test_config_file_must_hold_an_object(self, tmp_path, overrides):
        p = tmp_path / "cfg.json"
        p.write_text("[1, 2]")
        with pytest.raises(ValueError, match="a config must be a JSON object, not list"):
            RunConfig.load(p, overrides)
