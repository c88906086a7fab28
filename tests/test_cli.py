import csv
import json
import shutil

import numpy as np
import pytest

from omniair import cli, training
from omniair.cli import main
from omniair.config import dict_hash
from omniair.data import CHANNELS, load_series, load_stations
from omniair.inference import Forecast, predict_unseen, predict_window, write_forecast_csv
from omniair.training import train_model

from conftest import small_config


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


class TestReloadRoundTrip:
    @pytest.mark.parametrize("coeff_mode", ["signed", "positive"])
    def test_cli_forecasts_equal_trained_model(self, tmp_path, coeff_mode):
        # every remaining switch: the saved model is the trained model
        assert run(["synth", "--n", 12, "--steps", 100, "--seed", 3,
                    "--noise-std", "0.2", "--out", tmp_path / "data"]) == 0
        stations = load_stations(tmp_path / "data" / "stations.csv")
        frame = load_series(tmp_path / "data" / "series.csv", stations)
        cfg = small_config(max_epochs=2, coeff_mode=coeff_mode)
        result = train_model(cfg, stations, frame, out_dir=tmp_path / "run")
        new = tmp_path / "new.csv"
        new.write_text(
            "station_id,lat,lon,elevation,climate_avg_wind,climate_avg_wind_dir,"
            "terrain_tpi,terrain_roughness,distance_to_coast_km,grade\n"
            "zz1,35.5,105.5,400,8,90,0,5,100,\n"
            "zz2,34.0,102.0,100,2,10,0,1,50,3\n"
        )
        ref_base, ref_new = predict_unseen(result.params, result.state, frame, load_stations(new))
        write_forecast_csv(predict_window(result.params, result.state, frame), tmp_path / "ref.csv")
        write_forecast_csv(ref_base, tmp_path / "ref_base.csv")
        write_forecast_csv(ref_new, tmp_path / "ref_new.csv")
        common = ["--checkpoint", tmp_path / "run" / "checkpoint",
                  "--stations", tmp_path / "data" / "stations.csv",
                  "--series", tmp_path / "data" / "series.csv"]
        assert run(["predict", *common, "--out", tmp_path / "fc.csv"]) == 0
        assert run(["predict-unseen", *common, "--new-stations", new,
                    "--out", tmp_path / "new_fc.csv", "--base-out", tmp_path / "base_fc.csv"]) == 0
        for got, want in (("fc", "ref"), ("base_fc", "ref_base"), ("new_fc", "ref_new")):
            assert (tmp_path / f"{got}.csv").read_bytes() == (tmp_path / f"{want}.csv").read_bytes()


def reference_forecast_csv(forecast, path):
    """The csv.writer version of ``write_forecast_csv``: one row per cell."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["timestamp", "station_id", "channel", "value"])
        tau, n, c = forecast.values.shape
        for t in range(tau):
            for j in range(n):
                for k in range(c):
                    writer.writerow([str(forecast.timestamps[t]), forecast.station_ids[j],
                                     CHANNELS[k], repr(float(forecast.values[t, j, k]))])


class TestForecastCsv:
    @pytest.mark.parametrize("ids", [
        ("a", "b", "c"),
        ('comma,id', 'quote"id', " spaced id "),
        ("line\nbreak", "cr\rid", '"'),
    ])
    def test_same_bytes_as_csv_writer(self, tmp_path, ids):
        rng = np.random.default_rng(len(ids[0]))
        values = rng.normal(0.0, 1e3, (4, 3, len(CHANNELS)))
        values[0, 0, :3] = [-0.0, 5e-324, 1.7976931348623157e308]
        forecast = Forecast(np.datetime64("2021-12-30") + np.arange(4), ids, values)
        write_forecast_csv(forecast, tmp_path / "fc.csv")
        reference_forecast_csv(forecast, tmp_path / "ref.csv")
        assert (tmp_path / "fc.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()

    def test_empty_forecast_is_header_only(self, tmp_path):
        forecast = Forecast(np.arange(0).astype("datetime64[D]"), ("a",),
                            np.ones((0, 1, len(CHANNELS))))
        write_forecast_csv(forecast, tmp_path / "fc.csv")
        reference_forecast_csv(forecast, tmp_path / "ref.csv")
        assert (tmp_path / "fc.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


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
        # earlier versions stored nine more config fields at their kept or
        # derived values, a never-read fusion.w tensor and a per_station_norm buffer
        ws, _ = workspace

        def edit(manifest, ck):
            manifest["config"].update(fusion_mode="signed", rank_mode="abs", norm_mode="abs",
                                      edge_source="last", eps_norm=1e-8,
                                      refresh_semantic_every=0, per_station_norm=False,
                                      id_dim=16, k_max=5.0)
            l1 = manifest["config"]["diffusion_steps"] + 1
            blob = ck / "params.bin"
            offset = blob.stat().st_size
            manifest["params"].append({"name": "fusion.w", "shape": [l1], "dtype": "f64",
                                       "offset": offset})
            manifest["buffers"].append({"name": "per_station_norm", "shape": [1], "dtype": "f64",
                                        "offset": offset + 8 * l1})
            with open(blob, "ab") as fh:
                fh.write(np.zeros(l1 + 1, dtype="<f8").tobytes())

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

    @pytest.mark.parametrize("key", ["params", "buffers", "config"])
    def test_manifest_without_section_exits_2(self, workspace, tmp_path, capsys, key):
        ws, _ = workspace

        def edit(manifest, ck):
            del manifest[key]

        ck = self._edited_checkpoint(ws, tmp_path, edit, rehash=False)
        assert self._predict(ws, ck, tmp_path / "fc.csv") == 2
        err = capsys.readouterr().err
        assert "manifest.json" in err and f"no {key!r} entry" in err
        assert not (tmp_path / "fc.csv").exists()

    def test_misshaped_buffer_exits_2(self, workspace, tmp_path, capsys):
        # same byte count, so only the shape check can catch it
        ws, _ = workspace

        def edit(manifest, ck):
            entry = next(e for e in manifest["buffers"] if e["name"] == "channel_mean")
            entry["shape"] = [2, entry["shape"][0] // 2]

        ck = self._edited_checkpoint(ws, tmp_path, edit)
        assert self._predict(ws, ck, tmp_path / "fc.csv") == 2
        err = capsys.readouterr().err
        assert "buffer 'channel_mean' has shape (2, 3)" in err and "15 stations" in err
        assert not (tmp_path / "fc.csv").exists()

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

    def test_nonzero_refresh_config_exits_2(self, workspace, tmp_path, capsys):
        # the graph is fixed; a run that asked for rebuilt edges is refused
        ws, _ = workspace
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"refresh_semantic_every": 1}))
        code = run(["train", "--config", cfg,
                    "--stations", ws / "data" / "stations.csv",
                    "--series", ws / "data" / "series.csv", "--out", tmp_path / "run"])
        assert code == 2
        assert "refresh_semantic_every=1 is no longer supported" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    def test_stored_per_station_norm_exits_2(self, workspace, tmp_path, capsys):
        # a model trained with per-station statistics cannot be rebuilt
        ws, _ = workspace

        def edit(manifest, ck):
            manifest["config"]["per_station_norm"] = True

        ck = self._edited_checkpoint(ws, tmp_path, edit)
        assert self._predict(ws, ck, tmp_path / "fc.csv") == 2
        assert "per_station_norm=True is no longer supported" in capsys.readouterr().err
        assert not (tmp_path / "fc.csv").exists()

    def test_empty_new_stations_exits_2(self, workspace, tmp_path, capsys):
        ws, _ = workspace
        new = tmp_path / "new.csv"
        new.write_text(
            "station_id,lat,lon,elevation,climate_avg_wind,climate_avg_wind_dir,"
            "terrain_tpi,terrain_roughness,distance_to_coast_km,grade\n"
        )
        code = run(["predict-unseen", "--checkpoint", ws / "run" / "checkpoint",
                    "--stations", ws / "data" / "stations.csv",
                    "--series", ws / "data" / "series.csv",
                    "--new-stations", new, "--out", tmp_path / "z.csv"])
        assert code == 2
        assert f"{new}: the file has no stations" in capsys.readouterr().err
        assert not (tmp_path / "z.csv").exists()

    def test_edited_grade_exits_2(self, workspace, tmp_path, capsys):
        # the identity and the semantic edges would see different grades
        ws, _ = workspace
        header, first, *rest = (ws / "data" / "stations.csv").read_text().splitlines()
        cells = first.split(",")
        cells[-1] = str((int(cells[-1]) + 1) % 6)
        edited = tmp_path / "stations.csv"
        edited.write_text("\n".join([header, ",".join(cells), *rest]) + "\n")
        code = run(["predict", "--checkpoint", ws / "run" / "checkpoint", "--stations", edited,
                    "--series", ws / "data" / "series.csv", "--out", tmp_path / "fc.csv"])
        assert code == 2
        err = capsys.readouterr().err
        assert f"station {cells[0]!r}" in err and f"grade {cells[-1]}" in err
        assert not (tmp_path / "fc.csv").exists()

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

    def test_forecast_shape_mismatch_refused(self, tmp_path):
        forecast = Forecast(np.arange(2), ("a", "b"), np.ones((2, 3, len(CHANNELS))))
        with pytest.raises(ValueError, match="2 station ids"):
            write_forecast_csv(forecast, tmp_path / "fc.csv")
        assert not (tmp_path / "fc.csv").exists()

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

    def test_short_series_row_exits_2(self, workspace, tmp_path, capsys):
        ws, _ = workspace
        series = tmp_path / "series.csv"
        lines = (ws / "data" / "series.csv").read_text().splitlines()
        lines[5] = ",".join(lines[5].split(",")[:3])
        series.write_text("\n".join(lines) + "\n")
        code = run(["predict", "--checkpoint", ws / "run" / "checkpoint",
                    "--stations", ws / "data" / "stations.csv", "--series", series,
                    "--out", tmp_path / "fc.csv"])
        assert code == 2
        assert "row 6: 3 fields, the header has 8" in capsys.readouterr().err

    def test_short_station_row_exits_2(self, workspace, tmp_path, capsys):
        ws, _ = workspace
        new = tmp_path / "new.csv"
        header = (ws / "data" / "stations.csv").read_text().splitlines()[0]
        new.write_text(header + "\nzz1,34.0,102.0,100\n")
        code = run(["predict-unseen", "--checkpoint", ws / "run" / "checkpoint",
                    "--stations", ws / "data" / "stations.csv",
                    "--series", ws / "data" / "series.csv",
                    "--new-stations", new, "--out", tmp_path / "z.csv"])
        assert code == 2
        assert "row 2: 4 fields, the header has 10" in capsys.readouterr().err

    @staticmethod
    def _blanked_series(ws, path, blank):
        """The workspace series with ``blank(day, channel)`` cells emptied."""
        header, *lines = (ws / "data" / "series.csv").read_text().splitlines()
        days = sorted({line.split(",")[0] for line in lines})
        for k, line in enumerate(lines):
            cells = line.split(",")
            day = days.index(cells[0])
            cells[2:] = ["" if blank(day, c) else v for c, v in zip(CHANNELS, cells[2:])]
            lines[k] = ",".join(cells)
        path.write_text("\n".join([header, *lines]) + "\n")
        return days

    def test_channel_without_training_observation_exits_2(self, workspace, tmp_path, capsys):
        # so2 blank over the first 80 of 120 days: the 72-day training split
        # has no so2 value to take a scale from
        ws, cfg_path = workspace
        series = tmp_path / "series.csv"
        self._blanked_series(ws, series, lambda day, channel: channel == "so2" and day < 80)
        code = run(["train", "--config", cfg_path, "--stations", ws / "data" / "stations.csv",
                    "--series", series, "--out", tmp_path / "run"])
        assert code == 2
        err = capsys.readouterr().err
        assert "no so2 observation in the training split" in err
        assert "72 steps from 2020-01-01 to 2020-03-12" in err
        assert not (tmp_path / "run" / "checkpoint").exists()

    def test_validation_split_without_target_exits_2(self, workspace, tmp_path, capsys,
                                                     monkeypatch):
        # days 72-95, the whole validation split, blank: early stopping has
        # nothing to compare, so training must not start
        ws, cfg_path = workspace
        series = tmp_path / "series.csv"
        days = self._blanked_series(ws, series, lambda day, channel: 72 <= day <= 95)
        monkeypatch.setattr(training, "build_state", None)
        code = run(["train", "--config", cfg_path, "--stations", ws / "data" / "stations.csv",
                    "--series", series, "--out", tmp_path / "run"])
        assert code == 2
        assert (f"the validation split (24 steps from {days[72]} to {days[95]}) holds no "
                "observed forecast target") in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    def test_max_epochs_flag_is_a_config_override(self, workspace, tmp_path, capsys):
        ws, cfg_path = workspace
        argv = ["train", "--config", cfg_path, "--stations", ws / "data" / "stations.csv",
                "--series", ws / "data" / "series.csv", "--out", tmp_path / "run"]
        assert run(argv + ["--max-epochs", 0]) == 2
        assert "max_epochs must be positive" in capsys.readouterr().err
        assert run(argv + ["--max-epochs", 1]) == 0
        assert json.loads((tmp_path / "run" / "config.json").read_text())["max_epochs"] == 1
        assert len(json.loads((tmp_path / "run" / "train_log.json").read_text())["epochs"]) == 1

    def test_station_without_history_is_logged(self, workspace, tmp_path, caplog):
        # s003 has no observation at all: it trains on the global mean, and says so
        ws, cfg_path = workspace
        series = tmp_path / "series.csv"
        text = (ws / "data" / "series.csv").read_text().splitlines()
        series.write_text("\n".join(
            line if ",s003," not in line else ",".join(line.split(",")[:2] + [""] * 6)
            for line in text) + "\n")
        with caplog.at_level("WARNING", logger="omniair"):
            assert run(["features", "--config", cfg_path,
                        "--stations", ws / "data" / "stations.csv", "--series", series,
                        "--out", tmp_path / "f.csv"]) == 0
        assert [r.getMessage() for r in caplog.records if r.levelname == "WARNING"] == [
            "station s003: no pm25 observation in the training split, "
            "its own mean is the global mean"
        ]

    @pytest.mark.parametrize("command", ["predict", "predict-unseen"])
    def test_blank_input_window_exits_2(self, workspace, tmp_path, capsys, command):
        # every input of the last t_in = 8 days is blank
        ws, _ = workspace
        series = tmp_path / "series.csv"
        days = self._blanked_series(ws, series, lambda day, channel: day >= 112)
        argv = [command, "--checkpoint", ws / "run" / "checkpoint",
                "--stations", ws / "data" / "stations.csv", "--series", series,
                "--out", tmp_path / "fc.csv"]
        if command == "predict-unseen":
            new = tmp_path / "new.csv"
            header = (ws / "data" / "stations.csv").read_text().splitlines()[0]
            new.write_text(header + "\nzz1,35.5,105.5,400,8,90,0,5,100,\n")
            argv += ["--new-stations", new]
        assert run(argv) == 2
        err = capsys.readouterr().err
        assert f"the input window from {days[112]} to {days[119]} holds no observation" in err
        assert not (tmp_path / "fc.csv").exists()

    def test_evaluate_drops_blank_input_windows(self, workspace, tmp_path, caplog):
        # the test split is days 96-119 (14 windows of t_in = 8, tau = 3);
        # with days 100-108 blank the windows starting on days 100 and 101
        # have no observed input and are not scored
        ws, _ = workspace
        series = tmp_path / "series.csv"
        self._blanked_series(ws, series, lambda day, channel: 100 <= day <= 108)
        with caplog.at_level("WARNING", logger="omniair"):
            assert run(["evaluate", "--checkpoint", ws / "run" / "checkpoint",
                        "--stations", ws / "data" / "stations.csv", "--series", series,
                        "--split", "test", "--out", tmp_path / "m.csv"]) == 0
        assert [r.getMessage() for r in caplog.records if r.levelname == "WARNING"] == [
            "evaluate: dropped 2 of 14 windows whose 8 input days hold no observation"
        ]
        valid = load_series(series, load_stations(ws / "data" / "stations.csv")).valid[96:]
        expected = sum(int(valid[s + 8 : s + 11].sum()) for s in range(14) if s not in (4, 5))
        rows = list(csv.reader((tmp_path / "m.csv").open()))
        assert rows[-1][0] == "all" and int(rows[-1][4]) == expected

    def test_evaluate_without_observed_input_exits_2(self, workspace, tmp_path, capsys):
        # days 96-116 blank: every test window's inputs, but not every target
        ws, _ = workspace
        series = tmp_path / "series.csv"
        days = self._blanked_series(ws, series, lambda day, channel: 96 <= day <= 116)
        assert run(["evaluate", "--checkpoint", ws / "run" / "checkpoint",
                    "--stations", ws / "data" / "stations.csv", "--series", series,
                    "--split", "test", "--out", tmp_path / "m.csv"]) == 2
        err = capsys.readouterr().err
        assert (f"no input window of the 24 steps from {days[96]} to {days[119]} "
                "holds an observation") in err
        assert not (tmp_path / "m.csv").exists()

    @pytest.mark.parametrize("field, value", [("id_dim", 32), ("k_max", 15.0)])
    def test_derived_width_at_other_value_exits_2(self, workspace, tmp_path, capsys,
                                                  field, value):
        # the workspace config has d_model = 16 and k_geo + k_sem = 5
        ws, cfg_path = workspace
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({**json.loads(cfg_path.read_text()), field: value}))
        code = run(["train", "--config", cfg,
                    "--stations", ws / "data" / "stations.csv",
                    "--series", ws / "data" / "series.csv", "--out", tmp_path / "run"])
        assert code == 2
        assert f"config field {field}={value!r} is no longer supported" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    def test_grad_check_command(self, capsys):
        assert run(["grad-check", "--seed", 0]) == 0
        out = capsys.readouterr().out
        assert "max relative gradient error" in out
