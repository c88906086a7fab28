import json
import shutil

import numpy as np
import pytest

from omniair import cli
from omniair.cli import main
from omniair.config import dict_hash
from omniair.data import CHANNELS
from omniair.inference import Forecast, predict_unseen, write_forecast_csv


def run(argv):
    return main([str(a) for a in argv])


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    ws = tmp_path_factory.mktemp("cli")
    cfg = {
        "d_model": 16, "id_dim": 16, "heads": 4, "t_in": 8, "tau": 3,
        "k_geo": 3, "k_sem": 2, "k_max": 5.0, "batch": 8, "max_epochs": 2,
        "patience": 20, "seed": 42, "attn_dim": 8, "head_hidden": 32,
    }
    cfg_path = ws / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    assert run(["synth", "--n", 15, "--steps", 120, "--seed", 5,
                "--noise-std", "0.2", "--out", ws / "data"]) == 0
    assert run(["train", "--config", cfg_path,
                "--stations", ws / "data" / "stations.csv",
                "--series", ws / "data" / "series.csv",
                "--out", ws / "run"]) == 0
    return ws, cfg_path


class TestSynth:
    def test_byte_identical_reruns(self, tmp_path):
        for d in ("a", "b"):
            assert run(["synth", "--n", 10, "--steps", 50, "--seed", 7,
                        "--out", tmp_path / d]) == 0
        for name in ("stations.csv", "series.csv"):
            a = (tmp_path / "a" / name).read_bytes()
            b = (tmp_path / "b" / name).read_bytes()
            assert a == b

    def test_source_flag(self, tmp_path):
        assert run(["synth", "--n", 10, "--steps", 50, "--seed", 1,
                    "--source", "2:5.0:20:10", "--out", tmp_path / "s"]) == 0


class TestPipeline:
    def test_predict_and_evaluate(self, workspace, tmp_path):
        ws, cfg_path = workspace
        ck = ws / "run" / "checkpoint"
        assert run(["predict", "--checkpoint", ck,
                    "--stations", ws / "data" / "stations.csv",
                    "--series", ws / "data" / "series.csv",
                    "--out", tmp_path / "fc.csv"]) == 0
        rows = (tmp_path / "fc.csv").read_text().strip().splitlines()
        assert rows[0] == "timestamp,station_id,channel,value"
        assert len(rows) - 1 == 3 * 15 * 6  # tau * N * C
        assert run(["evaluate", "--checkpoint", ck,
                    "--stations", ws / "data" / "stations.csv",
                    "--series", ws / "data" / "series.csv",
                    "--split", "test", "--out", tmp_path / "m.csv"]) == 0
        header = (tmp_path / "m.csv").read_text().splitlines()[0]
        assert header == "channel,mae,rmse,mape_pct,count,mape_count"

    def test_predict_unseen(self, workspace, tmp_path):
        ws, cfg_path = workspace
        new = tmp_path / "new.csv"
        new.write_text(
            "station_id,lat,lon,elevation,climate_avg_wind,climate_avg_wind_dir,"
            "terrain_tpi,terrain_roughness,distance_to_coast_km,grade\n"
            "zz1,35.5,105.5,400,8,90,0,5,100,\n"
        )
        assert run(["predict-unseen", "--checkpoint", ws / "run" / "checkpoint",
                    "--stations", ws / "data" / "stations.csv",
                    "--series", ws / "data" / "series.csv",
                    "--new-stations", new,
                    "--out", tmp_path / "zfc.csv",
                    "--base-out", tmp_path / "bfc.csv"]) == 0
        rows = (tmp_path / "zfc.csv").read_text().strip().splitlines()
        assert len(rows) - 1 == 3 * 1 * 6

    def test_base_forecast_unchanged_by_new_nodes(self, workspace, tmp_path):
        ws, cfg_path = workspace
        ck = ws / "run" / "checkpoint"
        assert run(["predict", "--checkpoint", ck,
                    "--stations", ws / "data" / "stations.csv",
                    "--series", ws / "data" / "series.csv",
                    "--out", tmp_path / "plain.csv"]) == 0
        new = tmp_path / "new.csv"
        new.write_text(
            "station_id,lat,lon,elevation,climate_avg_wind,climate_avg_wind_dir,"
            "terrain_tpi,terrain_roughness,distance_to_coast_km,grade\n"
            "zz2,34.0,102.0,100,2,10,0,1,50,3\n"
        )
        assert run(["predict-unseen", "--checkpoint", ck,
                    "--stations", ws / "data" / "stations.csv",
                    "--series", ws / "data" / "series.csv",
                    "--new-stations", new,
                    "--out", tmp_path / "z.csv",
                    "--base-out", tmp_path / "base.csv"]) == 0
        assert (tmp_path / "plain.csv").read_bytes() == (tmp_path / "base.csv").read_bytes()

    def test_features_and_graph(self, workspace, tmp_path):
        ws, cfg_path = workspace
        assert run(["features", "--config", cfg_path,
                    "--stations", ws / "data" / "stations.csv",
                    "--series", ws / "data" / "series.csv",
                    "--out", tmp_path / "feat.csv"]) == 0
        rows = (tmp_path / "feat.csv").read_text().strip().splitlines()
        assert len(rows) == 16
        assert rows[0].startswith("station_id,mu_nbr,sigma_nbr")
        assert run(["build-graph", "--config", cfg_path,
                    "--stations", ws / "data" / "stations.csv",
                    "--series", ws / "data" / "series.csv",
                    "--out", tmp_path / "graph.csv"]) == 0
        rows = (tmp_path / "graph.csv").read_text().strip().splitlines()
        assert rows[0] == "src,dst,kind,km,w_static"
        assert len(rows) - 1 == 15 * 5  # N * (k_geo + k_sem)

    def test_export_embeddings(self, workspace, tmp_path):
        ws, cfg_path = workspace
        assert run(["export-embeddings", "--checkpoint", ws / "run" / "checkpoint",
                    "--stations", ws / "data" / "stations.csv",
                    "--out", tmp_path / "emb.csv"]) == 0
        rows = (tmp_path / "emb.csv").read_text().strip().splitlines()
        assert rows[0] == "station_id," + ",".join(f"e_{i}" for i in range(16))
        assert len(rows) == 16


class TestErrors:
    def test_reordered_station_file_rejected(self, workspace, tmp_path):
        ws, cfg_path = workspace
        lines = (ws / "data" / "stations.csv").read_text().splitlines()
        shuffled = [lines[0]] + lines[2:] + [lines[1]]
        bad = tmp_path / "shuffled.csv"
        bad.write_text("\n".join(shuffled) + "\n")
        code = run(["predict", "--checkpoint", ws / "run" / "checkpoint",
                    "--stations", bad,
                    "--series", ws / "data" / "series.csv",
                    "--out", tmp_path / "x.csv"])
        assert code == 2

    def test_truncated_checkpoint_exits_2(self, workspace, tmp_path, capsys):
        ws, _ = workspace
        ck = tmp_path / "checkpoint"
        shutil.copytree(ws / "run" / "checkpoint", ck)
        size = (ck / "params.bin").stat().st_size
        with open(ck / "params.bin", "r+b") as fh:
            fh.truncate(size - 8)
        code = run(["predict", "--checkpoint", ck,
                    "--stations", ws / "data" / "stations.csv",
                    "--series", ws / "data" / "series.csv",
                    "--out", tmp_path / "fc.csv"])
        assert code == 2
        err = capsys.readouterr().err
        assert "params.bin" in err and f"needs {size} bytes" in err
        assert f"has {size - 8}" in err

    def test_nan_parameter_exits_2(self, workspace, tmp_path, capsys):
        ws, _ = workspace
        ck = tmp_path / "checkpoint"
        shutil.copytree(ws / "run" / "checkpoint", ck)
        manifest = json.loads((ck / "manifest.json").read_text())
        entry = next(e for e in manifest["params"] if e["name"] == "attn.we")
        with open(ck / "params.bin", "r+b") as fh:
            fh.seek(entry["offset"] + 8 * 3)
            fh.write(np.array([np.nan], dtype="<f8").tobytes())
        code = run(["predict", "--checkpoint", ck,
                    "--stations", ws / "data" / "stations.csv",
                    "--series", ws / "data" / "series.csv",
                    "--out", tmp_path / "fc.csv"])
        assert code == 2
        assert "'attn.we'" in capsys.readouterr().err
        assert not (tmp_path / "fc.csv").exists()

    def test_nan_buffer_exits_2(self, workspace, tmp_path, capsys):
        ws, _ = workspace
        ck = tmp_path / "checkpoint"
        shutil.copytree(ws / "run" / "checkpoint", ck)
        manifest = json.loads((ck / "manifest.json").read_text())
        entry = next(e for e in manifest["buffers"] if e["name"] == "geo_std")
        with open(ck / "params.bin", "r+b") as fh:
            fh.seek(entry["offset"] + 8 * 2)
            fh.write(np.array([np.inf], dtype="<f8").tobytes())
        code = run(["predict", "--checkpoint", ck,
                    "--stations", ws / "data" / "stations.csv",
                    "--series", ws / "data" / "series.csv",
                    "--out", tmp_path / "fc.csv"])
        assert code == 2
        assert "buffer 'geo_std'" in capsys.readouterr().err
        assert not (tmp_path / "fc.csv").exists()

    def _edited_checkpoint(self, ws, tmp_path, edit, rehash=True):
        ck = tmp_path / "checkpoint"
        shutil.copytree(ws / "run" / "checkpoint", ck)
        manifest = json.loads((ck / "manifest.json").read_text())
        edit(manifest, ck)
        if rehash:
            manifest["config_hash"] = dict_hash(manifest["config"])
        (ck / "manifest.json").write_text(json.dumps(manifest))
        return ck

    def _predict(self, ws, ck, out):
        return run(["predict", "--checkpoint", ck,
                    "--stations", ws / "data" / "stations.csv",
                    "--series", ws / "data" / "series.csv", "--out", out])

    @pytest.mark.parametrize("argv", [
        ["predict", "--series", "x.csv"],
        ["predict-unseen", "--series", "x.csv", "--new-stations", "n.csv"],
        ["evaluate", "--series", "x.csv"],
        ["export-embeddings"],
    ], ids=lambda argv: argv[0])
    @pytest.mark.parametrize("flag, value", [("--config", "x.json"), ("--seed", "3")])
    def test_checkpoint_commands_reject_config_flags(self, argv, flag, value, capsys):
        # the config comes from the checkpoint; a given one would be ignored
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--checkpoint", "ck", "--stations", "s.csv", "--out", "o.csv",
                         flag, value])
        assert exc.value.code == 2
        assert flag in capsys.readouterr().err

    def test_config_hash_mismatch_exits_2(self, workspace, tmp_path, capsys):
        ws, _ = workspace

        def edit(manifest, ck):
            manifest["config"]["restart"] = 0.3

        ck = self._edited_checkpoint(ws, tmp_path, edit, rehash=False)
        assert self._predict(ws, ck, tmp_path / "fc.csv") == 2
        assert "manifest.json" in capsys.readouterr().err
        assert not (tmp_path / "fc.csv").exists()

    def test_legacy_checkpoint_predicts_same_bytes(self, workspace, tmp_path):
        # earlier versions stored five more config fields at their kept
        # values and a never-read fusion.w tensor
        ws, _ = workspace

        def edit(manifest, ck):
            manifest["config"].update(fusion_mode="signed", rank_mode="abs", norm_mode="abs",
                                      edge_source="last", eps_norm=1e-8)
            l1 = manifest["config"]["diffusion_steps"] + 1
            blob = ck / "params.bin"
            manifest["params"].append({"name": "fusion.w", "shape": [l1], "dtype": "f64",
                                       "offset": blob.stat().st_size})
            with open(blob, "ab") as fh:
                fh.write(np.zeros(l1, dtype="<f8").tobytes())

        ck = self._edited_checkpoint(ws, tmp_path, edit)
        assert self._predict(ws, ck, tmp_path / "legacy.csv") == 0
        assert self._predict(ws, ws / "run" / "checkpoint", tmp_path / "fc.csv") == 0
        assert (tmp_path / "legacy.csv").read_bytes() == (tmp_path / "fc.csv").read_bytes()

    def test_missing_parameter_exits_2(self, workspace, tmp_path, capsys):
        ws, _ = workspace

        def edit(manifest, ck):
            manifest["params"] = [e for e in manifest["params"] if e["name"] != "head.b2"]

        ck = self._edited_checkpoint(ws, tmp_path, edit)
        assert self._predict(ws, ck, tmp_path / "fc.csv") == 2
        assert "parameter 'head.b2' is missing" in capsys.readouterr().err

    def test_misshaped_parameter_exits_2(self, workspace, tmp_path, capsys):
        ws, _ = workspace

        def edit(manifest, ck):
            entry = next(e for e in manifest["params"] if e["name"] == "out_gate.b")
            entry["shape"] = [2, entry["shape"][0] // 2]

        ck = self._edited_checkpoint(ws, tmp_path, edit)
        assert self._predict(ws, ck, tmp_path / "fc.csv") == 2
        assert "parameter 'out_gate.b' has shape" in capsys.readouterr().err

    def test_removed_config_value_exits_2(self, workspace, tmp_path, capsys):
        ws, _ = workspace
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"fusion_mode": "sum"}))
        code = run(["train", "--config", cfg,
                    "--stations", ws / "data" / "stations.csv",
                    "--series", ws / "data" / "series.csv", "--out", tmp_path / "run"])
        assert code == 2
        assert "fusion_mode='sum' is no longer supported" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    def test_nonfinite_base_forecast_writes_no_csv(self, workspace, tmp_path, monkeypatch):
        # only the base forecast is broken; the new-station CSV must not appear
        ws, _ = workspace

        def broken_base(*args, **kwargs):
            base, new = predict_unseen(*args, **kwargs)
            values = base.values.copy()
            values[0, 0, 0] = np.nan
            return Forecast(base.timestamps, base.station_ids, values), new

        monkeypatch.setattr(cli, "predict_unseen", broken_base)
        new = tmp_path / "new.csv"
        new.write_text(
            "station_id,lat,lon,elevation,climate_avg_wind,climate_avg_wind_dir,"
            "terrain_tpi,terrain_roughness,distance_to_coast_km,grade\n"
            "zz3,35.0,104.0,300,4,45,0,2,80,\n"
        )
        code = run(["predict-unseen", "--checkpoint", ws / "run" / "checkpoint",
                    "--stations", ws / "data" / "stations.csv",
                    "--series", ws / "data" / "series.csv",
                    "--new-stations", new,
                    "--out", tmp_path / "zfc.csv",
                    "--base-out", tmp_path / "bfc.csv"])
        assert code == 2
        assert not (tmp_path / "zfc.csv").exists()
        assert not (tmp_path / "bfc.csv").exists()

    def test_nonfinite_forecast_not_written(self, tmp_path):
        values = np.ones((2, 3, len(CHANNELS)))
        values[1, 2, 0] = np.nan
        forecast = Forecast(np.arange(2), ("a", "b", "c"), values)
        with pytest.raises(ValueError, match="non-finite"):
            write_forecast_csv(forecast, tmp_path / "fc.csv")
        assert not (tmp_path / "fc.csv").exists()

    def test_unknown_flag_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["synth", "--bogus", "1"])
        assert exc.value.code == 2

    def test_validation_error_exits_2(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("station_id,lat\n")
        code = run(["features", "--stations", bad, "--series", bad, "--out", tmp_path / "o"])
        assert code == 2

    def test_grad_check_command(self, capsys):
        assert run(["grad-check", "--seed", 0]) == 0
        out = capsys.readouterr().out
        assert "max relative gradient error" in out
