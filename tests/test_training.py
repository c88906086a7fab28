import errno
import json
from pathlib import Path

import numpy as np
import pytest

from omniair import checkpoint, training
from omniair.checkpoint import load_checkpoint, save_checkpoint
from omniair.config import RunConfig
from omniair.data import chrono_split
from omniair.inference import (
    evaluate_split,
    params_digest,
    predict_unseen,
    predict_window,
    rebuild_state,
    window_end_index,
)
from omniair.model import build_state, init_params
from omniair.oracle import RDScenario, simulate_rd
from omniair.training import model_buffers, train_model

from conftest import small_config


def quick_dataset(n=12, steps=100, seed=3):
    return simulate_rd(RDScenario(n=n, steps=steps, seed=seed, noise_std=0.2))


def ids(state):
    return tuple(s.id for s in state.stations)


class TestEarlyStopping:
    def test_scripted_validation_sequence(self, monkeypatch):
        # each epoch's validation MAE is scripted; the parameters it was
        # handed are kept so the restored ones can be checked against them
        script = iter([3.0, 2.0, 2.0, 1.0, 1.5, 1.0, 0.5, 0.5])
        seen = []

        def scripted_mae(params, state, frame):
            seen.append({k: p.data.copy() for k, p in params.items()})
            return next(script)

        monkeypatch.setattr(training, "validation_mae", scripted_mae)
        stations, frame = quick_dataset(seed=29)
        result = train_model(small_config(max_epochs=10, patience=2), stations, frame)
        log = result.log
        # the ties at epochs 2 and 5 count as stale: the tie at 5 is the
        # second stale epoch after the best, so training stops there
        assert [e["val_mae"] for e in log.epochs] == [3.0, 2.0, 2.0, 1.0, 1.5, 1.0]
        assert (log.stop_reason, log.best_epoch, log.best_val_mae) == ("patience", 3, 1.0)
        assert len(seen) == 6
        for k, p in result.params.items():
            assert np.array_equal(p.data, seen[3][k])
        assert any(not np.array_equal(seen[3][k], seen[5][k]) for k in seen[3])  # it trained on


def scripted_log(monkeypatch, maes, **overrides):
    """Train with each epoch's validation MAE taken from `maes` in turn."""
    script = iter(maes)
    monkeypatch.setattr(training, "validation_mae", lambda params, state, frame: next(script))
    stations, frame = quick_dataset(seed=29)
    return train_model(small_config(**overrides), stations, frame).log


class TestEarlyStopper:
    def test_stops_after_exactly_patience_stale_epochs(self, monkeypatch):
        log = scripted_log(monkeypatch, [1.0] + [2.0] * 39, max_epochs=40, patience=20)
        assert log.stop_reason == "patience"
        assert log.epochs[-1]["epoch"] == 20  # the 20th non-improving epoch
        assert (log.best_epoch, log.best_val_mae) == (0, 1.0)

    def test_improvement_resets(self, monkeypatch):
        log = scripted_log(monkeypatch, [5.0, 6.0, 4.0, 6.0, 6.0, 6.0], max_epochs=6,
                           patience=2)
        # without the reset at epoch 2, epochs 1 and 3 would already stop it at 3
        assert log.stop_reason == "patience"
        assert log.epochs[-1]["epoch"] == 4
        assert (log.best_epoch, log.best_val_mae) == (2, 4.0)

    def test_best_non_increasing(self, monkeypatch):
        maes = [float(v) for v in np.random.default_rng(0).uniform(0, 10, 12)]
        log = scripted_log(monkeypatch, maes, max_epochs=12, patience=50)
        assert log.stop_reason == "max_epochs"
        assert [e["val_mae"] for e in log.epochs] == maes
        assert log.best_val_mae == min(maes)
        assert log.best_epoch == maes.index(min(maes))


class TestTrainLoop:
    def test_loss_decreases_on_smooth_data(self):
        stations, frame = quick_dataset(n=12, steps=120, seed=13)
        cfg = small_config(max_epochs=6, patience=20, batch=16)
        result = train_model(cfg, stations, frame)
        losses = [e["train_loss"] for e in result.log.epochs]
        assert losses[5] < losses[0]
        assert result.log.stop_reason == "max_epochs"
        assert result.log.best_epoch >= 0

    def test_deterministic_two_runs(self, tmp_path):
        stations, frame = quick_dataset(seed=17)
        cfg = small_config(max_epochs=3)
        a = train_model(cfg, stations, frame, out_dir=tmp_path / "a")
        b = train_model(cfg, stations, frame, out_dir=tmp_path / "b")
        assert a.log == b.log
        bytes_a = (tmp_path / "a" / "checkpoint" / "params.bin").read_bytes()
        bytes_b = (tmp_path / "b" / "checkpoint" / "params.bin").read_bytes()
        assert bytes_a == bytes_b
        man_a = (tmp_path / "a" / "checkpoint" / "manifest.json").read_bytes()
        man_b = (tmp_path / "b" / "checkpoint" / "manifest.json").read_bytes()
        assert man_a == man_b

    def test_best_checkpoint_restored(self, tmp_path):
        stations, frame = quick_dataset(seed=19)
        cfg = small_config(max_epochs=5)
        result = train_model(cfg, stations, frame, out_dir=tmp_path)
        _, val, _ = result.splits
        from omniair.training import validation_mae

        restored = validation_mae(result.params, result.state, val)
        assert restored == pytest.approx(result.log.best_val_mae, abs=1e-12)

    def test_patience_stop_restores_best_epoch(self):
        stations, frame = quick_dataset(seed=19)
        cfg = small_config(max_epochs=12, patience=2, lr=3e-2)
        result = train_model(cfg, stations, frame)
        log = result.log
        assert log.stop_reason == "patience" and log.best_epoch > 0
        assert len(log.epochs) == log.best_epoch + cfg.patience + 1 < cfg.max_epochs
        from omniair.training import validation_mae

        _, val, _ = result.splits
        assert validation_mae(result.params, result.state, val) == log.best_val_mae

    def test_train_log_written(self, tmp_path):
        stations, frame = quick_dataset(seed=23)
        cfg = small_config(max_epochs=2)
        train_model(cfg, stations, frame, out_dir=tmp_path)
        log = json.loads((tmp_path / "train_log.json").read_text())
        assert len(log["epochs"]) == 2
        assert (tmp_path / "config.json").exists()


class TestCheckpointRoundtrip:
    def test_roundtrip(self, tmp_path, tiny_cfg, tiny_state, tiny_params):
        buffers = model_buffers(tiny_state)
        save_checkpoint(tmp_path / "ck", tiny_params, buffers, tiny_cfg, 42, ids(tiny_state))
        params, bufs, cfg, manifest = load_checkpoint(tmp_path / "ck")
        assert manifest["rng_seed"] == 42
        assert manifest["config_hash"] == tiny_cfg.config_hash()
        assert cfg.to_dict() == tiny_cfg.to_dict()
        for name, t in tiny_params.items():
            assert np.array_equal(params[name].data, t.data)
        for name, arr in buffers.items():
            assert np.array_equal(bufs[name], arr)

    @pytest.mark.parametrize("overrides", [
        {}, {"diffusion_steps": 0}, {"k_sem": 0}, {"coeff_mode": "positive"},
    ], ids=["default", "no-diffusion", "no-semantic", "positive"])
    def test_every_tensor_reloads_bit_for_bit(self, tmp_path, tiny_dataset, overrides):
        stations, frame = tiny_dataset
        cfg = small_config(**overrides)
        state = build_state(cfg, stations, chrono_split(frame)[0])
        params = init_params(cfg, np.random.default_rng(5))
        buffers = model_buffers(state)
        save_checkpoint(tmp_path / "ck", params, buffers, cfg, 5, ids(state))
        got_params, got_buffers, _, _ = load_checkpoint(tmp_path / "ck")
        saved = {**{k: p.data for k, p in params.items()}, **buffers}
        got = {**{k: p.data for k, p in got_params.items()}, **got_buffers}
        assert list(got) == list(saved)
        for name, arr in saved.items():
            dtype = np.int64 if name in ("grades", "neighbors") else np.float64
            assert got[name].dtype == arr.dtype == dtype, name
            assert got[name].shape == arr.shape and got[name].tobytes() == arr.tobytes(), name

    def test_manifest_entries_complete(self, tmp_path, tiny_cfg, tiny_state, tiny_params):
        # each listing is the tensor names in record order; each record
        # carries its own shape and dtype
        buffers = model_buffers(tiny_state)
        save_checkpoint(tmp_path / "ck", tiny_params, buffers, tiny_cfg, 1, ids(tiny_state))
        manifest = json.loads((tmp_path / "ck" / "manifest.json").read_text())
        assert manifest["station_ids"] == list(ids(tiny_state))
        assert manifest["params"] == list(tiny_params)
        assert manifest["buffers"] == list(buffers)
        with open(tmp_path / "ck" / "params.bin", "rb") as fh:
            for name in manifest["params"] + manifest["buffers"]:
                record = np.lib.format.read_array(fh, allow_pickle=False)
                want = tiny_params[name].data if name in tiny_params else buffers[name]
                assert record.dtype == want.dtype and record.shape == want.shape
            assert fh.read() == b""

    def test_readme_names_the_current_format(self):
        # every deletion in the loader bumps FORMAT; the README must follow
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        assert f"`{checkpoint.FORMAT}`" in readme

    def test_failed_overwrite_keeps_earlier_checkpoint(
        self, tmp_path, monkeypatch, tiny_cfg, tiny_state, tiny_params
    ):
        # a save whose tensor write fails must not leave its manifest beside
        # the tensors of the earlier save
        buffers = model_buffers(tiny_state)
        ck = tmp_path / "ck"
        save_checkpoint(ck, tiny_params, buffers, tiny_cfg, 42, ids(tiny_state))
        before = {f.name: f.read_bytes() for f in ck.iterdir()}
        other = RunConfig.from_dict({**tiny_cfg.to_dict(), "seed": 7})
        other_params = init_params(other, np.random.default_rng(7))

        def failing_open(file, mode="r", *args, **kwargs):
            if Path(file).name == "params.bin" and "w" in mode:
                raise OSError(errno.ENOSPC, "No space left on device")
            return open(file, mode, *args, **kwargs)

        with monkeypatch.context() as patch:
            patch.setattr(checkpoint, "open", failing_open, raising=False)
            with pytest.raises(OSError):
                save_checkpoint(ck, other_params, buffers, other, 7, ids(tiny_state))
        assert {f.name: f.read_bytes() for f in ck.iterdir()} == before
        params, _, cfg, manifest = load_checkpoint(ck)
        assert manifest["rng_seed"] == 42 and cfg.to_dict() == tiny_cfg.to_dict()
        for name, t in tiny_params.items():
            assert np.array_equal(params[name].data, t.data)
        assert [p.name for p in tmp_path.iterdir()] == ["ck"]
        # a save that completes replaces the whole directory
        save_checkpoint(ck, other_params, buffers, other, 7, ids(tiny_state))
        params, _, cfg, manifest = load_checkpoint(ck)
        assert manifest["rng_seed"] == 7 and cfg.seed == 7
        for name, t in other_params.items():
            assert np.array_equal(params[name].data, t.data)
        assert [p.name for p in tmp_path.iterdir()] == ["ck"]

    def test_failed_final_rename_keeps_earlier_checkpoint(
        self, tmp_path, monkeypatch, tiny_cfg, tiny_state, tiny_params
    ):
        # the earlier checkpoint is already moved aside when the new one is
        # renamed into place; a failure there must move it back
        buffers = model_buffers(tiny_state)
        ck = tmp_path / "ck"
        save_checkpoint(ck, tiny_params, buffers, tiny_cfg, 42, ids(tiny_state))
        before = {f.name: f.read_bytes() for f in ck.iterdir()}
        other = RunConfig.from_dict({**tiny_cfg.to_dict(), "seed": 7})
        real_rename = Path.rename

        def failing_rename(self, target):
            if self.name == "new" and Path(target) == ck:
                raise OSError(errno.EXDEV, "Invalid cross-device link")
            return real_rename(self, target)

        with monkeypatch.context() as patch:
            patch.setattr(Path, "rename", failing_rename)
            with pytest.raises(OSError):
                save_checkpoint(ck, init_params(other, np.random.default_rng(7)), buffers,
                                other, 7, ids(tiny_state))
        assert {f.name: f.read_bytes() for f in ck.iterdir()} == before
        assert [p.name for p in tmp_path.iterdir()] == ["ck"]

    def test_unknown_parameter_refused(self, tmp_path, tiny_cfg, tiny_state, tiny_params):
        params = {**tiny_params, "extra.w": tiny_params["out_gate.b"]}
        save_checkpoint(tmp_path / "ck", params, model_buffers(tiny_state), tiny_cfg, 42,
                        ids(tiny_state))
        with pytest.raises(ValueError, match="unknown parameter 'extra.w'"):
            load_checkpoint(tmp_path / "ck")

    def test_rejects_foreign_directory(self, tmp_path):
        (tmp_path / "manifest.json").write_text('{"format": "other"}')
        (tmp_path / "params.bin").write_bytes(b"")
        with pytest.raises(ValueError):
            load_checkpoint(tmp_path)

    def test_manifest_must_be_an_object(self, tmp_path):
        (tmp_path / "manifest.json").write_text("[1, 2]")
        with pytest.raises(ValueError, match="manifest.json: not a JSON object but list"):
            load_checkpoint(tmp_path)


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    stations, frame = quick_dataset(seed=29)
    cfg = small_config(max_epochs=2)
    out = tmp_path_factory.mktemp("run")
    result = train_model(cfg, stations, frame, out_dir=out)
    return stations, frame, result, out


class TestPrediction:
    def test_state_rebuild_matches_training_state(self, trained):
        stations, frame, result, out = trained
        params, buffers, cfg, _ = load_checkpoint(out / "checkpoint")
        state = rebuild_state(cfg, stations, buffers)
        assert np.array_equal(state.graph.nbr, result.state.graph.nbr)
        np.testing.assert_array_equal(state.id_features, result.state.id_features)
        pred_a = predict_window(result.params, result.state, frame)
        pred_b = predict_window(params, state, frame)
        assert np.array_equal(pred_a.values, pred_b.values)

    def test_rebuild_refuses_other_station_count(self, trained):
        stations, _, _, out = trained
        _, buffers, cfg, _ = load_checkpoint(out / "checkpoint")
        with pytest.raises(ValueError, match=f"trained on {len(stations)} stations, got "
                                             f"{len(stations) - 1}"):
            rebuild_state(cfg, stations[:-1], buffers)

    def test_window_end_resolution(self, trained):
        stations, frame, result, out = trained
        idx = window_end_index(frame, None, 8)
        assert idx == frame.n_steps - 1
        assert window_end_index(frame, 20, 8) == 20
        date = str(frame.timestamps[30])
        assert window_end_index(frame, date, 8) == 30
        assert str(frame.timestamps[60]) == "2020-03-01"
        assert window_end_index(frame, "2020-03-01", 8) == 60
        assert window_end_index(frame, "59", 8) == 59
        assert window_end_index(frame, "-1", 8) == frame.n_steps - 1
        with pytest.raises(ValueError):
            window_end_index(frame, 3, 8)  # not enough history
        with pytest.raises(ValueError):
            window_end_index(frame, "1999-01-01", 8)
        # a month, a date-time and a signed number are not dates of the series file
        for text in ("2020-03", "2020-03-01T12", "+60", "2020-W10-1"):
            with pytest.raises(ValueError, match="expected an ISO date"):
                window_end_index(frame, text, 8)

    def test_forecast_shape_and_rows(self, trained):
        stations, frame, result, out = trained
        fc = predict_window(result.params, result.state, frame)
        assert fc.values.shape == (result.state.cfg.tau, len(stations), 6)
        assert np.isfinite(fc.values).all()

    def test_missing_station_still_forecast(self, trained):
        stations, frame, result, out = trained
        broken = type(frame)(
            frame.timestamps, frame.values.copy(), frame.valid.copy(), frame.station_ids
        )
        broken.valid[:, 0, :] = False
        broken.values[:, 0, :] = 0.0
        fc = predict_window(result.params, result.state, broken)
        assert np.isfinite(fc.values[:, 0, :]).all()

    def test_zero_shot_purity_and_identity(self, trained):
        stations, frame, result, out = trained
        new = [
            type(stations[0])("new1", 35.2, 104.1, np.arange(6, dtype=float), -1),
            type(stations[0])("new2", 36.8, 107.4, np.zeros(6), 2),
        ]
        digest_before = params_digest(result.params)
        plain = predict_window(result.params, result.state, frame)
        base, newfc = predict_unseen(result.params, result.state, frame, new)
        assert params_digest(result.params) == digest_before
        assert np.array_equal(base.values, plain.values)
        assert newfc.values.shape == (result.state.cfg.tau, 2, 6)
        assert np.isfinite(newfc.values).all()

    def test_frame_must_list_state_stations_in_order(self, trained):
        # column i is read as the station at graph position i
        stations, frame, result, out = trained
        params, state = result.params, result.state
        new = [type(stations[0])("new1", 35.2, 104.1, np.arange(6, dtype=float), -1)]
        reverse = type(frame)(frame.timestamps, frame.values[:, ::-1], frame.valid[:, ::-1],
                              frame.station_ids[::-1])
        msg = (f"the series lists {stations[-1].id!r} in column 0, "
               f"where station {stations[0].id!r} belongs")
        for call in (lambda: predict_window(params, state, reverse),
                     lambda: predict_unseen(params, state, reverse, new),
                     lambda: evaluate_split(params, state, reverse)):
            with pytest.raises(ValueError, match=msg):
                call()
        fewer = type(frame)(frame.timestamps, frame.values[:, :-1], frame.valid[:, :-1],
                            frame.station_ids[:-1])
        with pytest.raises(ValueError, match=f"the series lists {len(stations) - 1} stations, "
                                             f"not {len(stations)}"):
            predict_window(params, state, fewer)

    def test_evaluate_split_report(self, trained):
        stations, frame, result, out = trained
        _, _, test = result.splits
        report = evaluate_split(result.params, result.state, test)
        assert report.aggregate.mae is not None and report.aggregate.mae >= 0
        assert report.aggregate.count > 0


class TestSemanticRefresh:
    def test_default_keeps_initial_edges(self, tmp_path):
        # the graph is built once from the training split, and the saved
        # model reloads onto exactly that graph and forecast
        stations, frame = quick_dataset(seed=37)
        cfg = small_config(max_epochs=3)
        result = train_model(cfg, stations, frame, out_dir=tmp_path)
        from omniair.model import build_state

        train, _, _ = chrono_split(frame)
        fresh = build_state(cfg, stations, train)
        assert np.array_equal(result.state.graph.nbr, fresh.graph.nbr)
        params, buffers, cfg, _ = load_checkpoint(tmp_path / "checkpoint")
        state = rebuild_state(cfg, stations, buffers)
        for name in ("nbr", "w_static"):
            assert np.array_equal(getattr(state.graph, name), getattr(result.state.graph, name))
        for name in ("id_features", "grades", "sem_vectors"):
            assert np.array_equal(getattr(state, name), getattr(result.state, name))
        trained = predict_window(result.params, result.state, frame)
        assert predict_window(params, state, frame).values.tobytes() == trained.values.tobytes()


class TestDivergenceHandling:
    def test_nonfinite_loss_before_first_validation_raises(self, tmp_path):
        # no epoch was validated, so there is no checkpoint worth writing
        stations, frame = quick_dataset(seed=31)
        cfg = small_config(max_epochs=5, lr=1e30)  # first step overflows
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(
            ValueError, match="^training diverged at epoch 0, before any validated epoch: "
                              "a non-finite loss$"):
            train_model(cfg, stations, frame, out_dir=tmp_path / "run")
        assert not (tmp_path / "run").exists()

    def test_skipped_adam_steps_are_counted(self, monkeypatch):
        # the first update sees a non-finite gradient, so Adam skips it
        import omniair.training as training
        from omniair.optim import Adam

        class PoisonFirstStep(Adam):
            calls = 0

            def step(self):
                PoisonFirstStep.calls += 1
                if PoisonFirstStep.calls == 1:
                    p = next(iter(self.params.values()))
                    p.grad = np.full_like(p.data, np.nan)
                return super().step()

        monkeypatch.setattr(training, "Adam", PoisonFirstStep)
        stations, frame = quick_dataset(seed=31)
        result = train_model(small_config(max_epochs=2), stations, frame)
        assert [e["skipped_steps"] for e in result.log.epochs] == [1, 0]
        assert result.log.stop_reason == "max_epochs"

    def test_run_of_skipped_adam_steps_stops_training(self, monkeypatch, tmp_path):
        # every update is skipped: training stops after the limit, counted
        # across epochs, on the initial parameters
        import omniair.training as training
        from omniair.optim import Adam

        calls = []
        monkeypatch.setattr(Adam, "step", lambda self: calls.append(1) and False)
        stations, frame = quick_dataset(seed=31)
        cfg = small_config(max_epochs=5)
        result = train_model(cfg, stations, frame, out_dir=tmp_path)
        assert result.log.stop_reason == "divergence"
        # strict JSON: no Infinity or NaN
        log = json.loads((tmp_path / "train_log.json").read_text(),
                         parse_constant=lambda c: pytest.fail(f"non-JSON constant {c}"))
        assert log["stop_reason"] == "divergence" and log["best_epoch"] == 0
        assert len(calls) == training._MAX_SKIPPED_IN_A_ROW
        assert sum(e["skipped_steps"] for e in result.log.epochs) < len(calls)
        initial = init_params(cfg, np.random.default_rng(cfg.seed))
        for name, p in result.params.items():
            assert np.array_equal(p.data, initial[name].data), name

    def test_skips_short_of_the_limit_do_not_stop(self, monkeypatch):
        import omniair.training as training
        from omniair.optim import Adam

        limit = training._MAX_SKIPPED_IN_A_ROW
        real_step, calls = Adam.step, []

        def step(self):
            calls.append(1)
            return len(calls) >= limit and real_step(self)

        monkeypatch.setattr(Adam, "step", step)
        stations, frame = quick_dataset(seed=31)
        result = train_model(small_config(max_epochs=2), stations, frame)
        assert result.log.stop_reason == "max_epochs"
        assert sum(e["skipped_steps"] for e in result.log.epochs) == limit - 1
