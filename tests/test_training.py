import errno
import json
from pathlib import Path

import numpy as np
import pytest

from omniair import checkpoint
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
from omniair.model import init_params
from omniair.oracle import RDScenario, simulate_rd
from omniair.training import EarlyStopper, model_buffers, train_model

from conftest import small_config


def quick_dataset(n=12, steps=100, seed=3):
    return simulate_rd(RDScenario(n=n, steps=steps, seed=seed, noise_std=0.2))


class TestEarlyStopper:
    def test_stops_after_exactly_patience_stale_epochs(self):
        stopper = EarlyStopper(patience=20)
        assert not stopper.update(0, 1.0)
        stopped_at = None
        for epoch in range(1, 40):
            if stopper.update(epoch, 2.0):  # injected non-improving stream
                stopped_at = epoch
                break
        assert stopped_at == 20
        assert stopper.best_epoch == 0

    def test_improvement_resets(self):
        stopper = EarlyStopper(patience=2)
        assert not stopper.update(0, 5.0)
        assert not stopper.update(1, 6.0)
        assert not stopper.update(2, 4.0)  # improvement
        assert not stopper.update(3, 6.0)
        assert stopper.update(4, 6.0)
        assert stopper.best_epoch == 2

    def test_best_non_increasing(self):
        stopper = EarlyStopper(patience=50)
        rng = np.random.default_rng(0)
        best_seen = np.inf
        for epoch, v in enumerate(rng.uniform(0, 10, 30)):
            stopper.update(epoch, float(v))
            best_seen = min(best_seen, v)
            assert stopper.best == best_seen


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
        assert a.log.to_dict() == b.log.to_dict()
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
        save_checkpoint(tmp_path / "ck", tiny_params, buffers, tiny_cfg, 42)
        params, bufs, cfg, manifest = load_checkpoint(tmp_path / "ck")
        assert manifest["rng_seed"] == 42
        assert manifest["config_hash"] == tiny_cfg.config_hash()
        assert cfg.to_dict() == tiny_cfg.to_dict()
        for name, t in tiny_params.items():
            assert np.array_equal(params[name].data, t.data)
        for name, arr in buffers.items():
            assert np.array_equal(bufs[name], arr)

    def test_manifest_entries_complete(self, tmp_path, tiny_cfg, tiny_state, tiny_params):
        save_checkpoint(tmp_path / "ck", tiny_params, model_buffers(tiny_state), tiny_cfg, 1)
        manifest = json.loads((tmp_path / "ck" / "manifest.json").read_text())
        for entry in manifest["params"] + manifest["buffers"]:
            assert set(entry) == {"name", "shape", "dtype", "offset"}
            assert entry["dtype"] == "f64"

    def test_failed_overwrite_keeps_earlier_checkpoint(
        self, tmp_path, monkeypatch, tiny_cfg, tiny_state, tiny_params
    ):
        # a save whose tensor write fails must not leave its manifest beside
        # the tensors of the earlier save
        buffers = model_buffers(tiny_state)
        ck = tmp_path / "ck"
        save_checkpoint(ck, tiny_params, buffers, tiny_cfg, 42)
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
                save_checkpoint(ck, other_params, buffers, other, 7)
        assert {f.name: f.read_bytes() for f in ck.iterdir()} == before
        params, _, cfg, manifest = load_checkpoint(ck)
        assert manifest["rng_seed"] == 42 and cfg.to_dict() == tiny_cfg.to_dict()
        for name, t in tiny_params.items():
            assert np.array_equal(params[name].data, t.data)
        assert [p.name for p in tmp_path.iterdir()] == ["ck"]
        # a save that completes replaces the whole directory
        save_checkpoint(ck, other_params, buffers, other, 7)
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
        save_checkpoint(ck, tiny_params, buffers, tiny_cfg, 42)
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
                                other, 7)
        assert {f.name: f.read_bytes() for f in ck.iterdir()} == before
        assert [p.name for p in tmp_path.iterdir()] == ["ck"]

    def test_rejects_foreign_directory(self, tmp_path):
        (tmp_path / "manifest.json").write_text('{"format": "other"}')
        (tmp_path / "params.bin").write_bytes(b"")
        with pytest.raises(ValueError):
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

    def test_window_end_resolution(self, trained):
        stations, frame, result, out = trained
        idx = window_end_index(frame, None, 8)
        assert idx == frame.n_steps - 1
        assert window_end_index(frame, 20, 8) == 20
        date = str(frame.timestamps[30])
        assert window_end_index(frame, date, 8) == 30
        with pytest.raises(ValueError):
            window_end_index(frame, 3, 8)  # not enough history
        with pytest.raises(ValueError):
            window_end_index(frame, "1999-01-01", 8)

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

    def test_zero_shot_new_frame_on_other_dates_refused(self, trained):
        stations, frame, result, out = trained
        new = [type(stations[0])("new1", 35.2, 104.1, np.arange(6, dtype=float), -1)]
        shape = (frame.n_steps, 1, 6)
        same = type(frame)(frame.timestamps, np.ones(shape), np.ones(shape, dtype=bool), ("new1",))
        base, newfc = predict_unseen(result.params, result.state, frame, new, new_frame=same)
        assert np.isfinite(newfc.values).all()
        shifted = type(frame)(frame.timestamps + np.timedelta64(365, "D"), same.values,
                              same.valid, ("new1",))
        with pytest.raises(ValueError, match="same dates"):
            predict_unseen(result.params, result.state, frame, new, new_frame=shifted)

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

    def test_new_frame_must_list_new_stations_in_order(self, trained):
        stations, frame, result, out = trained
        new = [
            type(stations[0])("new1", 35.2, 104.1, np.arange(6, dtype=float), -1),
            type(stations[0])("new2", 36.8, 107.4, np.zeros(6), 2),
        ]
        shape = (frame.n_steps, 2, 6)
        swapped = type(frame)(frame.timestamps, np.ones(shape), np.ones(shape, dtype=bool),
                              ("new2", "new1"))
        with pytest.raises(ValueError, match="the new stations' series lists 'new2' in "
                                             "column 0, where station 'new1' belongs"):
            predict_unseen(result.params, result.state, frame, new, new_frame=swapped)

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
        for name in ("nbr", "kind", "km", "w_static"):
            assert np.array_equal(getattr(state.graph, name), getattr(result.state.graph, name))
        for name in ("id_features", "grades", "sem_vectors"):
            assert np.array_equal(getattr(state, name), getattr(result.state, name))
        trained = predict_window(result.params, result.state, frame)
        assert predict_window(params, state, frame).values.tobytes() == trained.values.tobytes()


class TestDivergenceHandling:
    def test_nonfinite_loss_aborts_with_checkpoint(self):
        stations, frame = quick_dataset(seed=31)
        cfg = small_config(max_epochs=5, lr=1e30)  # first step overflows
        with np.errstate(over="ignore", invalid="ignore"):
            result = train_model(cfg, stations, frame)
        assert result.log.stop_reason == "divergence"
        # restored parameters are the last good (initial) snapshot
        assert np.isfinite(
            np.concatenate([p.data.ravel() for p in result.params.values()])
        ).all()

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
