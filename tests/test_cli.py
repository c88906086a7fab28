import csv
import io
import json
import shutil

import numpy as np
import pytest

from omniair import bench, cli, training
from omniair.cli import main
from omniair.checkpoint import load_checkpoint
from omniair.config import dict_hash
from omniair.data import CHANNELS, MIN_STD, load_series, load_stations
from omniair.inference import (
    Forecast,
    predict_unseen,
    predict_window,
    rebuild_state,
    write_forecast_csv,
)
from omniair.oracle import dense_forward
from omniair.topology import build_hybrid_graph
from omniair.training import train_model

from conftest import small_config

# config fields of earlier versions, each at the one value that those versions
# implemented and loaded; today every one is an unknown field
REMOVED_FIELDS = (
    ("workers", 3),
    ("fusion_mode", "signed"),
    ("rank_mode", "abs"),
    ("norm_mode", "abs"),
    ("edge_source", "last"),
    ("eps_norm", 1e-8),
    ("refresh_semantic_every", 0),
    ("per_station_norm", False),
)


def run(argv):
    return main([str(a) for a in argv])


def npy(arr) -> bytes:
    """``arr`` as one ``.npy`` record."""
    buf = io.BytesIO()
    np.lib.format.write_array(buf, np.asarray(arr), allow_pickle=True)
    return buf.getvalue()


def poisoned_checkpoint(ws, tmp_path, edit):
    """A copy of the trained checkpoint after ``edit`` changed its records:
    ``edit`` gets the tensors by name in record order and may put another
    array, or the raw bytes of a record, in place of any of them."""
    ck = tmp_path / "checkpoint"
    shutil.copytree(ws / "run" / "checkpoint", ck)
    manifest = json.loads((ck / "manifest.json").read_text())
    with open(ck / "params.bin", "rb") as fh:
        records = {name: np.lib.format.read_array(fh)
                   for name in manifest["params"] + manifest["buffers"]}
    edit(records)
    (ck / "params.bin").write_bytes(b"".join(
        r if isinstance(r, bytes) else npy(r) for r in records.values()))
    return ck


def cut_in_header(records):
    """Records edit: the file ends 20 bytes into the header of buffer
    'channel_mean'."""
    names = list(records)
    records["channel_mean"] = npy(records["channel_mean"])[:20]
    for name in names[names.index("channel_mean") + 1:]:
        del records[name]


def forged_header(name, shape):
    """Records edit: the record ``name`` keeps its data behind a header that
    claims ``shape``."""
    def edit(records):
        head = io.BytesIO()
        np.lib.format.write_array_header_1_0(
            head, {"descr": "<f8", "fortran_order": False, "shape": shape})
        records[name] = head.getvalue() + records[name].tobytes()
    return edit


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    ws = tmp_path_factory.mktemp("cli")
    cfg = {
        "d_model": 16, "heads": 4, "t_in": 8, "tau": 3,
        "k_geo": 3, "k_sem": 2, "batch": 8, "max_epochs": 2,
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

    @pytest.mark.parametrize("flags, named", [
        (["--source=-1:8:0:0"], "sources[0].node=-1"),
        (["--source", "99:8:0:0"], "sources[0].node=99"),
        (["--source", "3:8.0:40"], "--source '3:8.0:40'"),
        (["--source", "3:x:0:0"], "--source '3:x:0:0'"),
        (["--source", "3:8:4:5"], "sources[0].on_steps=5"),
        (["--steps", "0"], "steps=0"),
        (["--missing-rate", "1.5"], "missing_rate=1.5"),
        (["--noise-std", "-1"], "noise_std=-1.0"),
        (["--diffusion", "-0.1"], "diffusion=-0.1"),
    ], ids=lambda v: v if isinstance(v, str) else None)
    def test_bad_scenario_exits_2(self, tmp_path, capsys, flags, named):
        # a negative source index would wrap to the last station and zero
        # steps would write an empty dataset: each is refused, by name
        assert run(["synth", "--n", 5, "--steps", 20, *flags, "--out", tmp_path / "s"]) == 2
        assert named in capsys.readouterr().err
        assert not (tmp_path / "s").exists()


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

    def test_window_end_minus_one_is_the_last_step(self, workspace, tmp_path):
        ws, _ = workspace
        args = ["predict", "--checkpoint", ws / "run" / "checkpoint",
                "--stations", ws / "data" / "stations.csv",
                "--series", ws / "data" / "series.csv"]
        assert run(args + ["--out", tmp_path / "last.csv"]) == 0
        assert run(args + ["--window-end", "-1", "--out", tmp_path / "minus1.csv"]) == 0
        assert (tmp_path / "minus1.csv").read_bytes() == (tmp_path / "last.csv").read_bytes()

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

    @pytest.mark.parametrize("coeff_mode", ["signed", "positive"])
    def test_checkpoint_forecast_matches_dense_reference(self, tmp_path, coeff_mode):
        # what `predict` writes from a saved model is the dense O(N^2)
        # reference forward of the saved parameters to rtol 1e-12: the
        # engine's summation order may change between versions, so a
        # checkpoint of an earlier version is held to this, not to its bytes
        assert run(["synth", "--n", 10, "--steps", 60, "--seed", 8,
                    "--noise-std", "0.2", "--out", tmp_path / "data"]) == 0
        stations = load_stations(tmp_path / "data" / "stations.csv")
        frame = load_series(tmp_path / "data" / "series.csv", stations)
        cfg = small_config(max_epochs=1, t_in=6, tau=2, coeff_mode=coeff_mode)
        train_model(cfg, stations, frame, out_dir=tmp_path / "run")
        ck = tmp_path / "run" / "checkpoint"
        assert run(["predict", "--checkpoint", ck,
                    "--stations", tmp_path / "data" / "stations.csv",
                    "--series", tmp_path / "data" / "series.csv",
                    "--out", tmp_path / "fc.csv"]) == 0
        with open(tmp_path / "fc.csv", newline="") as fh:
            got = np.array([float(row["value"]) for row in csv.DictReader(fh)])

        params, buffers, saved_cfg, _ = load_checkpoint(ck)
        state = rebuild_state(saved_cfg, stations, buffers)
        end = frame.n_steps - 1
        window = slice(end - cfg.t_in + 1, end + 1)
        x = np.where(frame.valid[window], state.stats.normalize(frame.values[window]), 0.0)
        dense = dense_forward({k: p.data for k, p in params.items()}, state, x[None])
        want = state.stats.denormalize(dense)[0]
        np.testing.assert_allclose(got, want.reshape(-1), rtol=1e-12, atol=0)


class TestStoredNeighbors:
    """The checkpoint stores the graph's neighbour table, so a reload runs
    no neighbour search."""

    NEW_STATIONS = (
        "station_id,lat,lon,elevation,climate_avg_wind,climate_avg_wind_dir,"
        "terrain_tpi,terrain_roughness,distance_to_coast_km,grade\n"
        "zz1,35.5,105.5,400,8,90,0,5,100,\n"
        "zz2,34.0,102.0,100,2,10,0,1,50,3\n"
    )

    @staticmethod
    def _count_searches(monkeypatch):
        from omniair import model, topology

        calls = {"knn_geo": 0, "semantic_knn": 0}
        for module, name in ((model, "knn_geo"), (topology, "knn_geo"),
                             (topology, "semantic_knn")):
            real = getattr(module, name)

            def counted(*args, _name=name, _real=real, **kwargs):
                calls[_name] += 1
                return _real(*args, **kwargs)

            monkeypatch.setattr(module, name, counted)
        return calls

    def test_table_is_the_trained_graph(self, workspace):
        ws, _ = workspace
        stations = load_stations(ws / "data" / "stations.csv")
        _, buffers, cfg, _ = load_checkpoint(ws / "run" / "checkpoint")
        stored = rebuild_state(cfg, stations, buffers)
        searched = build_hybrid_graph(np.stack([s.point for s in stations]), stored.sem_vectors,
                                      cfg.k_geo, cfg.k_sem, cfg.kappa_km)
        np.testing.assert_array_equal(stored.graph.nbr, searched.nbr)
        assert stored.graph.w_static.tobytes() == searched.w_static.tobytes()

    @pytest.mark.parametrize("command", ["predict", "evaluate", "export-embeddings"])
    def test_reload_runs_no_search(self, workspace, tmp_path, monkeypatch, command):
        ws, _ = workspace
        calls = self._count_searches(monkeypatch)
        argv = [command, "--checkpoint", ws / "run" / "checkpoint",
                "--stations", ws / "data" / "stations.csv", "--out", tmp_path / "out.csv"]
        if command != "export-embeddings":
            argv += ["--series", ws / "data" / "series.csv"]
        assert run(argv) == 0
        assert calls == {"knn_geo": 0, "semantic_knn": 0}

    def test_predict_unseen_searches_only_for_new_stations(self, workspace, tmp_path,
                                                           monkeypatch):
        ws, _ = workspace
        new = tmp_path / "new.csv"
        new.write_text(self.NEW_STATIONS)
        calls = self._count_searches(monkeypatch)
        assert run(["predict-unseen", "--checkpoint", ws / "run" / "checkpoint",
                    "--stations", ws / "data" / "stations.csv",
                    "--series", ws / "data" / "series.csv",
                    "--new-stations", new, "--out", tmp_path / "z.csv"]) == 0
        assert calls == {"knn_geo": 1, "semantic_knn": 1}

    @pytest.mark.parametrize("value", [2.5, -1, 15, "own", "twice"],
                             ids=["non-integer", "negative", "n", "self-edge", "twice"])
    def test_bad_table_exits_2(self, workspace, tmp_path, capsys, value):
        # row 3 of the 15-station table, column 1; "twice" repeats column 0;
        # a non-integer cell needs a float table, whose dtype is refused
        ws, _ = workspace
        first = load_checkpoint(ws / "run" / "checkpoint")[1]["neighbors"][3, 0]
        cell = {"own": 3, "twice": first}.get(value, value)

        def edit(records):
            records["neighbors"] = records["neighbors"].astype(np.asarray(cell).dtype)
            records["neighbors"][3, 1] = cell

        ck = poisoned_checkpoint(ws, tmp_path, edit)
        assert run(["predict", "--checkpoint", ck,
                    "--stations", ws / "data" / "stations.csv",
                    "--series", ws / "data" / "series.csv", "--out", tmp_path / "fc.csv"]) == 2
        err = capsys.readouterr().err
        if value == "twice":
            assert f"params.bin: buffer 'neighbors' row 3 lists station {first} twice" in err
        elif value == 2.5:
            assert "params.bin: buffer 'neighbors' has dtype float64, not int64" in err
        else:
            assert (f"params.bin: buffer 'neighbors' row 3 lists {cell} in column 1, "
                    "not the index of another of the 15 stations") in err
        assert not (tmp_path / "fc.csv").exists()

    def test_misshaped_table_exits_2(self, workspace, tmp_path, capsys):
        # the transposed shape holds the same values
        ws, _ = workspace
        ck = poisoned_checkpoint(
            ws, tmp_path, lambda r: r.update(neighbors=np.ascontiguousarray(r["neighbors"].T)))
        assert run(["predict", "--checkpoint", ck,
                    "--stations", ws / "data" / "stations.csv",
                    "--series", ws / "data" / "series.csv", "--out", tmp_path / "fc.csv"]) == 2
        assert ("buffer 'neighbors' has shape (5, 15), 15 stations and the config need (15, 5)"
                in capsys.readouterr().err)
        assert not (tmp_path / "fc.csv").exists()


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
        # the last record loses its last value
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
        assert "params.bin: buffer 'neighbors': Failed to read all data" in err
        assert not (tmp_path / "fc.csv").exists()

    @pytest.mark.parametrize("edit, named", [
        (cut_in_header, "buffer 'channel_mean' is not a .npy record: EOF"),
        (lambda r: r.update({"geo_mean": b"geo_mean" + r["geo_mean"].tobytes()}),
         "buffer 'geo_mean' is not a .npy record: the magic string is not correct"),
        (lambda r: r.update({"head.b2": np.array([None] * len(r["head.b2"]), dtype=object)}),
         "parameter 'head.b2' has dtype object, not float64"),
        (lambda r: r.update({"attn.a": r["attn.a"].astype(np.float32)}),
         "parameter 'attn.a' has dtype float32, not float64"),
        (forged_header("attn.we_src", (2**20, 2**20)),
         "parameter 'attn.we_src' has shape (1048576, 1048576), the config needs"),
        (lambda r: r.update({"neighbors": npy(r["neighbors"]) + bytes(8)}),
         "bytes follow the last record, buffer 'neighbors'"),
    ], ids=["cut-in-header", "not-npy", "object", "f4-parameter", "8-tib-header",
            "trailing-bytes"])
    def test_bad_record_exits_2(self, workspace, tmp_path, capsys, edit, named):
        # numpy raises ValueError or EOFError, which alone name no tensor; a
        # header asking for 8 TiB raises MemoryError, exit 1, unless its shape
        # is refused before the data is read
        ws, _ = workspace
        ck = poisoned_checkpoint(ws, tmp_path, edit)
        assert self._predict(ws, ck, tmp_path / "fc.csv") == 2
        assert f"params.bin: {named}" in capsys.readouterr().err
        assert not (tmp_path / "fc.csv").exists()

    def test_nan_parameter_exits_2(self, workspace, tmp_path, capsys):
        ws, _ = workspace

        def edit(records):
            records["attn.we_own"].flat[3] = np.nan

        ck = poisoned_checkpoint(ws, tmp_path, edit)
        code = run(["predict", "--checkpoint", ck,
                    "--stations", ws / "data" / "stations.csv",
                    "--series", ws / "data" / "series.csv",
                    "--out", tmp_path / "fc.csv"])
        assert code == 2
        assert "'attn.we_own'" in capsys.readouterr().err
        assert not (tmp_path / "fc.csv").exists()

    def test_nan_buffer_exits_2(self, workspace, tmp_path, capsys):
        ws, _ = workspace

        def edit(records):
            records["geo_std"][2] = np.inf

        ck = poisoned_checkpoint(ws, tmp_path, edit)
        code = run(["predict", "--checkpoint", ck,
                    "--stations", ws / "data" / "stations.csv",
                    "--series", ws / "data" / "series.csv",
                    "--out", tmp_path / "fc.csv"])
        assert code == 2
        assert "buffer 'geo_std'" in capsys.readouterr().err
        assert not (tmp_path / "fc.csv").exists()

    @pytest.mark.parametrize("name", ["channel_std", "geo_std"])
    def test_scale_below_floor_exits_2(self, workspace, tmp_path, capsys, name):
        # training floors every scale at MIN_STD; a negated one still loaded
        # and flipped the sign of what it scales
        ws, _ = workspace
        scale = -load_checkpoint(ws / "run" / "checkpoint")[1][name][0]

        def edit(records):
            records[name][0] = scale

        ck = poisoned_checkpoint(ws, tmp_path, edit)
        assert self._predict(ws, ck, tmp_path / "fc.csv") == 2
        assert (f"params.bin: buffer {name!r} holds {float(scale)!r} at index 0, "
                f"below the floor {MIN_STD}") in capsys.readouterr().err
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

    @pytest.mark.parametrize("argv", [
        ["train", "--stations", "s.csv", "--series", "x.csv", "--out", "o"],
        ["synth", "--out", "o"],
        ["bench", "--out", "o"],
        ["grad-check"],
    ], ids=lambda argv: argv[0])
    def test_negative_seed_flag_exits_2(self, argv, capsys):
        # numpy's own refusal, "expected non-negative integer", names no flag
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--seed", "-3"])
        assert exc.value.code == 2
        assert "argument --seed: '-3' is not a non-negative integer" in capsys.readouterr().err

    def test_negative_config_seed_exits_2(self, workspace, tmp_path, capsys):
        ws, cfg_path = workspace
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({**json.loads(cfg_path.read_text()), "seed": -1}))
        assert run(["train", "--config", cfg, "--stations", ws / "data" / "stations.csv",
                    "--series", ws / "data" / "series.csv", "--out", tmp_path / "run"]) == 2
        assert "config field seed=-1 must be non-negative" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("value", ["--5", "1e3", "2020-03", "2020-03-01T12", "+60",
                                       "2020-W10-1"])
    def test_malformed_window_end_exits_2(self, workspace, tmp_path, capsys, value):
        # int() and numpy's date parser named neither the flag nor the forms,
        # and numpy read a month, a date-time or "+60" (the year 60) as a day
        ws, _ = workspace
        assert run(["predict", "--checkpoint", ws / "run" / "checkpoint",
                    "--stations", ws / "data" / "stations.csv",
                    "--series", ws / "data" / "series.csv",
                    f"--window-end={value}", "--out", tmp_path / "fc.csv"]) == 2
        assert (f"--window-end {value!r}: expected an ISO date (YYYY-MM-DD) or a step index "
                "(negative counts back from the last step)") in capsys.readouterr().err
        assert not (tmp_path / "fc.csv").exists()

    def test_config_hash_mismatch_exits_2(self, workspace, tmp_path, capsys):
        ws, _ = workspace

        def edit(manifest, ck):
            manifest["config"]["restart"] = 0.3

        ck = self._edited_checkpoint(ws, tmp_path, edit, rehash=False)
        assert self._predict(ws, ck, tmp_path / "fc.csv") == 2
        assert "manifest.json" in capsys.readouterr().err
        assert not (tmp_path / "fc.csv").exists()

    def test_new_checkpoint_holds_eight_buffers(self, workspace):
        # no context_fallback: a flag that no forward or output reads; the
        # graph's neighbour table, so that a reload runs no search
        ws, _ = workspace
        manifest = json.loads((ws / "run" / "checkpoint" / "manifest.json").read_text())
        assert manifest["buffers"] == [
            "channel_mean", "channel_std", "geo_mean", "geo_std",
            "context_vectors", "context_centroids", "grades", "neighbors",
        ]

    def test_earlier_format_exits_2(self, workspace, tmp_path, capsys):
        ws, _ = workspace

        def edit(manifest, ck):
            manifest["format"] = "omniair-checkpoint-v4"

        ck = self._edited_checkpoint(ws, tmp_path, edit, rehash=False)
        assert self._predict(ws, ck, tmp_path / "fc.csv") == 2
        assert ("manifest.json: format 'omniair-checkpoint-v4' is not 'omniair-checkpoint-v5'; "
                "checkpoints of earlier versions no longer load: train the model again"
                ) in capsys.readouterr().err
        assert not (tmp_path / "fc.csv").exists()

    def test_missing_parameter_exits_2(self, workspace, tmp_path, capsys):
        ws, _ = workspace

        def edit(manifest, ck):
            manifest["params"] = [n for n in manifest["params"] if n != "head.b2"]

        ck = self._edited_checkpoint(ws, tmp_path, edit)
        assert self._predict(ws, ck, tmp_path / "fc.csv") == 2
        assert "parameter 'head.b2' is missing" in capsys.readouterr().err

    def test_misshaped_parameter_exits_2(self, workspace, tmp_path, capsys):
        ws, _ = workspace
        ck = poisoned_checkpoint(
            ws, tmp_path, lambda r: r.update({"out_gate.b": r["out_gate.b"].reshape(2, -1)}))
        assert self._predict(ws, ck, tmp_path / "fc.csv") == 2
        assert "params.bin: parameter 'out_gate.b' has shape (2, 8)" in capsys.readouterr().err

    @pytest.mark.parametrize("key", ["params", "buffers", "config", "station_ids"])
    def test_manifest_without_section_exits_2(self, workspace, tmp_path, capsys, key):
        ws, _ = workspace

        def edit(manifest, ck):
            del manifest[key]

        ck = self._edited_checkpoint(ws, tmp_path, edit, rehash=False)
        assert self._predict(ws, ck, tmp_path / "fc.csv") == 2
        err = capsys.readouterr().err
        assert "manifest.json" in err and f"no {key!r} entry" in err
        assert not (tmp_path / "fc.csv").exists()

    @pytest.mark.parametrize("edit, named", [
        (lambda m: m["params"].__setitem__(1, None), "params[1]=None is not a string"),
        (lambda m: m["buffers"].__setitem__(0, 7), "buffers[0]=7 is not a string"),
        (lambda m: m.update(params={}), "'params' must be a list"),
        (lambda m: m["buffers"].append(m["params"][0]), "'input_proj.w' is listed twice"),
        (lambda m: m.update(station_ids=None), "'station_ids' must be a list"),
        (lambda m: m["station_ids"].__setitem__(1, 4), "station_ids[1]=4 is not a string"),
        (lambda m: m["station_ids"].__setitem__(2, m["station_ids"][0]), "station_ids[2] 's000' "
                                                                         "is listed twice"),
    ], ids=["no-name", "not-an-object", "params-object", "twice", "null-ids", "int-id",
            "repeated-id"])
    def test_malformed_manifest_exits_2(self, workspace, tmp_path, capsys, edit, named):
        # unchecked, each fails inside the reader or loads the wrong tensor:
        # a repeated name's last record wins
        ws, _ = workspace
        ck = self._edited_checkpoint(ws, tmp_path, lambda manifest, _: edit(manifest))
        assert self._predict(ws, ck, tmp_path / "fc.csv") == 2
        err = capsys.readouterr().err
        assert "manifest.json" in err and named in err
        assert not (tmp_path / "fc.csv").exists()

    @pytest.mark.parametrize("key, named", [
        ("params", "parameter 'grade_embed.table'"), ("buffers", "buffer 'channel_std'"),
    ], ids=["parameter", "buffer"])
    def test_shape_too_large_for_int64_exits_2(self, workspace, tmp_path, capsys, key, named):
        # 2**64 elements: numpy's int64 count wraps to 0, which read 0 values
        # and failed in its reshape, naming neither the file nor the tensor
        ws, _ = workspace
        name = json.loads((ws / "run" / "checkpoint" / "manifest.json").read_text())[key][1]
        ck = poisoned_checkpoint(ws, tmp_path, forged_header(name, (2**32, 2**32)))
        assert self._predict(ws, ck, tmp_path / "fc.csv") == 2
        assert (f"params.bin: {named} has shape (4294967296, 4294967296)"
                in capsys.readouterr().err)
        assert not (tmp_path / "fc.csv").exists()

    def test_entries_out_of_byte_order_exit_2(self, workspace, tmp_path, capsys):
        # each record keeps its bytes, but the listing no longer follows the
        # records in the order save_checkpoint writes them
        ws, _ = workspace

        def edit(manifest, ck):
            manifest["params"][:2] = manifest["params"][1::-1]

        ck = self._edited_checkpoint(ws, tmp_path, edit)
        shape = load_checkpoint(ws / "run" / "checkpoint")[0]["input_proj.w"].shape
        assert self._predict(ws, ck, tmp_path / "fc.csv") == 2
        assert (f"params.bin: parameter 'grade_embed.table' has shape {shape}, the config needs"
                in capsys.readouterr().err)
        assert not (tmp_path / "fc.csv").exists()

    def test_misshaped_buffer_exits_2(self, workspace, tmp_path, capsys):
        # same values, so only the shape check can catch it
        ws, _ = workspace
        ck = poisoned_checkpoint(
            ws, tmp_path, lambda r: r.update(channel_mean=r["channel_mean"].reshape(2, 3)))
        assert self._predict(ws, ck, tmp_path / "fc.csv") == 2
        err = capsys.readouterr().err
        assert "params.bin: buffer 'channel_mean' has shape (2, 3)" in err and "15 stations" in err
        assert not (tmp_path / "fc.csv").exists()

    @pytest.mark.parametrize("name, value", REMOVED_FIELDS, ids=[n for n, _ in REMOVED_FIELDS])
    @pytest.mark.parametrize("stored", [False, True], ids=["config-file", "checkpoint"])
    def test_removed_config_field_exits_2(self, workspace, tmp_path, capsys, name, value,
                                          stored):
        # each at the one value that earlier versions implemented and loaded
        ws, cfg_path = workspace
        if stored:
            ck = self._edited_checkpoint(ws, tmp_path,
                                         lambda m, _: m["config"].update({name: value}))
            code, out = self._predict(ws, ck, tmp_path / "fc.csv"), tmp_path / "fc.csv"
        else:
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps({**json.loads(cfg_path.read_text()), name: value}))
            code, out = run(["train", "--config", cfg,
                             "--stations", ws / "data" / "stations.csv",
                             "--series", ws / "data" / "series.csv",
                             "--out", tmp_path / "run"]), tmp_path / "run"
        assert code == 2
        assert f"unknown config fields: [{name!r}]" in capsys.readouterr().err
        assert not out.exists()

    def test_config_field_of_wrong_type_exits_2(self, workspace, tmp_path, capsys):
        # a string where a count belongs would fail deep in the graph build
        ws, _ = workspace
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"k_geo": "3"}))
        code = run(["build-graph", "--config", cfg,
                    "--stations", ws / "data" / "stations.csv",
                    "--series", ws / "data" / "series.csv", "--out", tmp_path / "g.csv"])
        assert code == 2
        assert "config field k_geo='3' must be an integer" in capsys.readouterr().err
        assert not (tmp_path / "g.csv").exists()

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

    def test_same_out_and_base_out_exits_2(self, workspace, tmp_path, capsys, monkeypatch):
        # the base forecast overwrote the zero-shot one, and the run exited 0
        ws, _ = workspace
        loads = []
        monkeypatch.setattr(cli, "load_checkpoint", lambda *a: loads.append(a))
        (tmp_path / "sub").mkdir()
        out, base = tmp_path / "fc.csv", tmp_path / "sub" / ".." / "fc.csv"
        code = run(["predict-unseen", "--checkpoint", ws / "run" / "checkpoint",
                    "--stations", ws / "data" / "stations.csv",
                    "--series", ws / "data" / "series.csv",
                    "--new-stations", ws / "data" / "stations.csv",
                    "--out", out, "--base-out", base])
        assert code == 2
        assert f"--out {out} and --base-out {base} name the same file" in capsys.readouterr().err
        assert loads == [] and not out.exists()

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

    @pytest.mark.parametrize("case", ["train-out-file", "predict-out-dir", "predict-stations-dir",
                                      "bench-out-file"])
    def test_unusable_path_exits_2(self, workspace, tmp_path, capsys, monkeypatch, case):
        # each exited 1 with a traceback; train did so only after training
        # to the end, and bench exited 2 only after its whole sweep
        ws, cfg_path = workspace
        stations, series = ws / "data" / "stations.csv", ws / "data" / "series.csv"
        taken = tmp_path / "taken"
        taken.write_text("")
        windows, sweeps = [], []
        monkeypatch.setattr(training, "make_windows", lambda *a, **k: windows.append(a) or [])
        monkeypatch.setattr(bench, "run_scaling", lambda *a, **k: sweeps.append(a))
        argv = {
            "train-out-file": ["train", "--config", cfg_path, "--stations", stations,
                               "--series", series, "--out", taken],
            "predict-out-dir": ["predict", "--checkpoint", ws / "run" / "checkpoint",
                                "--stations", stations, "--series", series, "--out", tmp_path],
            "predict-stations-dir": ["predict", "--checkpoint", ws / "run" / "checkpoint",
                                     "--stations", tmp_path, "--series", series,
                                     "--out", tmp_path / "fc.csv"],
            "bench-out-file": ["bench", "--n", 64, "--out", taken],
        }[case]
        assert run(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: [Errno ") and "Traceback" not in err
        assert windows == [] and sweeps == []
        assert taken.read_text() == "" and not (tmp_path / "fc.csv").exists()

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

    @pytest.mark.parametrize("stamp", ["20200105", "2020-W10-1"])
    def test_date_not_in_yyyy_mm_dd_exits_2(self, workspace, tmp_path, capsys, stamp):
        # date.fromisoformat reads both from Python 3.11 on, not on 3.10
        ws, _ = workspace
        series = tmp_path / "series.csv"
        lines = (ws / "data" / "series.csv").read_text().splitlines()
        lines[5] = ",".join([stamp] + lines[5].split(",")[1:])
        series.write_text("\n".join(lines) + "\n")
        code = run(["predict", "--checkpoint", ws / "run" / "checkpoint",
                    "--stations", ws / "data" / "stations.csv", "--series", series,
                    "--out", tmp_path / "fc.csv"])
        assert code == 2
        assert f"row 6: bad ISO date {stamp!r}" in capsys.readouterr().err

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

    @pytest.mark.parametrize("flag", ["--stations", "--series"])
    def test_field_over_csv_limit_exits_2(self, workspace, tmp_path, capsys, flag):
        # a 200 000-character quoted id on line 4 passes csv's 131 072-character
        # field limit: csv.Error, which exited 1 with a traceback
        ws, _ = workspace
        paths = {"--stations": ws / "data" / "stations.csv", "--series": ws / "data" / "series.csv"}
        lines = paths[flag].read_text().splitlines()
        lines[3] = '"' + "x" * 200_000 + '"' + lines[3][lines[3].index(","):]
        paths[flag] = tmp_path / "edited.csv"
        paths[flag].write_text("\n".join(lines) + "\n")
        code = run(["predict", "--checkpoint", ws / "run" / "checkpoint",
                    "--stations", paths["--stations"], "--series", paths["--series"],
                    "--out", tmp_path / "fc.csv"])
        assert code == 2
        assert (f"error: {paths[flag]}: line 4: field larger than field limit (131072)"
                in capsys.readouterr().err)
        assert not (tmp_path / "fc.csv").exists()

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

    def test_run_of_skipped_adam_steps_stops_train(self, workspace, tmp_path, capsys,
                                                    monkeypatch):
        # the run of skips ends before the first validation: there is no
        # trained checkpoint to write
        from omniair.optim import Adam

        monkeypatch.setattr(Adam, "step", lambda self: False)
        ws, cfg_path = workspace
        assert run(["train", "--config", cfg_path, "--stations", ws / "data" / "stations.csv",
                    "--series", ws / "data" / "series.csv", "--out", tmp_path / "run"]) == 2
        assert capsys.readouterr().err == (
            "error: training diverged at epoch 0, before any validated epoch: "
            f"{training._MAX_SKIPPED_IN_A_ROW} Adam steps in a row skipped on non-finite "
            "gradients\n")
        assert not (tmp_path / "run").exists()

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

    def test_grad_check_failure_exits_1(self, monkeypatch, capsys):
        monkeypatch.setattr(cli, "toy_grad_check", lambda seed: 2e-4)
        assert run(["grad-check"]) == 1
        out = capsys.readouterr().out
        assert "max relative gradient error: 2.000e-04" in out
        assert "gradient check FAILED (threshold 1e-4)" in out
