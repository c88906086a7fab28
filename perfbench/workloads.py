"""The benchmark workloads: inputs from a seed, set-up, the measured closed
loop, and the output checks of every measured operation.

Each workload times three operations and reports one quality number:

========  ================================  ==========================  =============================
metric    train-c9 (N=40, B=16, t_in 16)    large-n                     meaning
========  ================================  ==========================  =============================
step      forward, loss, backward, Adam     forward, loss, backward at  one pass through the tape
                                            N=4096, B=1, t_in 4
fwd       no-grad forward of a batch        no-grad forward at N=4096   inference forward
job       one epoch of ``train_model``,     one ``omniair               the user-facing job
          validation included               predict-unseen`` call,
                                            N=2048, 64 new stations
quality   best validation MAE after the     MAE of the base forecast
          fixed epochs                      against the next 7 days
========  ================================  ==========================  =============================

The seed drives the generated inputs only. Model parameters always start
from the same fixed seed, so one seed's quality number is the same on every
run and the spread across seeds is the spread of the data.
"""

from __future__ import annotations

import contextlib
import csv
import io
import shutil
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from omniair import (
    autodiff, checkpoint, cli, data, inference, model, oracle, topology, training,
)
from omniair.config import RunConfig
from omniair.evaluation import masked_metrics
from omniair.optim import Adam

PARAM_SEED = 42
FORECAST_RTOL = 1e-9  # forecasts vs. the in-process reference
VAL_MAE_RTOL = 1e-9  # train_model's validation MAE vs. the dense recomputation
LOSS_RTOL = 1e-12  # tape loss vs. a plain numpy masked MAE
MIN_STEPS = 5  # training steps timed even when train_model used up the time


class Run:
    """Samples, attempt and failure counts of one measurement."""

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.samples: dict[str, list[float]] = {}
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.quality: float | None = None

    def op(self, metric: str, fn, per: int = 1):
        """Time ``fn()`` as one attempt; the sample is seconds / ``per``."""
        self.attempted += 1
        ctx = self.tracer.request(metric) if self.tracer is not None else contextlib.nullcontext()
        with ctx:
            t0 = time.perf_counter()
            out = fn()
            dt = time.perf_counter() - t0
        self.samples.setdefault(metric, []).append(dt / per)
        return out

    def fail(self, what: str) -> None:
        self.failed += 1
        if len(self.problems) < 20:
            self.problems.append(what)


# -- generated inputs ------------------------------------------------------------

def synth_network(n: int, steps: int, rng: np.random.Generator, prefix: str = "s"):
    """Stations in a 10 x 10 degree box with daily six-channel series.

    Levels follow a smooth spatial field plus a per-station offset, with a
    weekly cycle and observation noise; every value is observed.
    """
    lat = rng.uniform(30.0, 40.0, n)
    lon = rng.uniform(100.0, 110.0, n)
    feats = np.stack([
        rng.normal(500.0, 200.0, n), np.abs(rng.normal(10.0, 3.0, n)),
        rng.uniform(0.0, 360.0, n), rng.normal(0.0, 30.0, n),
        np.abs(rng.normal(0.0, 20.0, n)), rng.uniform(0.0, 500.0, n),
    ], axis=1)
    grades = rng.integers(0, data.N_GRADES, n)
    stations = [
        data.StationMeta(f"{prefix}{i:05d}", float(lat[i]), float(lon[i]), feats[i], int(grades[i]))
        for i in range(n)
    ]
    level = 5.0 + 2.0 * np.sin(0.6 * lat) * np.cos(0.4 * lon) + np.abs(rng.normal(0.0, 1.0, n))
    phase = rng.uniform(0.0, 2.0 * np.pi, n)
    t = np.arange(steps)[:, None]
    base = level * (1.0 + 0.3 * np.sin(2.0 * np.pi * t / 7.0 + phase))
    scales = np.array([1.0, 0.85, 0.7, 0.55, 0.4, 0.25])
    values = base[:, :, None] * scales + rng.normal(0.0, 0.2, (steps, n, len(scales)))
    timestamps = np.datetime64("2020-01-01") + np.arange(steps).astype("timedelta64[D]")
    frame = data.SeriesFrame(
        timestamps, values, np.ones(values.shape, dtype=bool), tuple(s.id for s in stations)
    )
    return stations, frame


@dataclass(frozen=True)
class C9Size:
    n: int
    held: int
    steps: int
    epochs: int
    sources: tuple[int, ...]
    cfg: RunConfig


C9_FULL = C9Size(n=50, held=10, steps=400, epochs=5, sources=(3, 29, 41), cfg=RunConfig(
    d_model=32, id_dim=32, heads=4, fourier_dim=32, t_in=16, tau=7, k_geo=6, k_sem=3, k_max=9.0,
    batch=16, max_epochs=5, patience=6, seed=PARAM_SEED, attn_dim=16, head_hidden=64,
))
C9_TINY = C9Size(n=14, held=2, steps=80, epochs=1, sources=(1, 7, 12), cfg=RunConfig(
    d_model=8, id_dim=8, heads=4, fourier_dim=32, t_in=6, tau=2, k_geo=3, k_sem=1, k_max=4.0,
    batch=4, max_epochs=1, patience=2, seed=PARAM_SEED, attn_dim=8, head_hidden=16,
))


def c9_inputs(seed: int, size: C9Size = C9_FULL):
    """The zero-shot scenario of acceptance criterion 9 (its seed 0), with the
    observation noise drawn from ``seed``: the base stations and their frame."""
    amplitudes = (8.0, 5.0, 3.0)
    scn = oracle.RDScenario(
        n=size.n, steps=size.steps, seed=0, diffusion=0.3, decay=0.05, dt=0.3, base_level=5.0,
        sources=tuple(oracle.SourceSpec(node=i, amplitude=a)
                      for i, a in zip(size.sources, amplitudes)),
    )
    stations, frame = oracle.simulate_rd(scn)
    held = np.sort(np.random.default_rng(1000).choice(size.n, size=size.held, replace=False))
    base = np.setdiff1d(np.arange(size.n), held)
    noisy = frame.values + np.random.default_rng(seed).normal(0.0, 0.1, frame.values.shape)
    base_stations = [stations[i] for i in base]
    return base_stations, data.SeriesFrame(
        frame.timestamps, noisy[:, base], frame.valid[:, base], tuple(s.id for s in base_stations)
    )


def _finite(x) -> bool:
    return bool(np.isfinite(x).all())


# -- workloads ---------------------------------------------------------------------

class Workload:
    """One workload: ``setup`` builds its inputs, ``iteration`` runs one cycle
    of the closed loop (one client, the next call after the previous returns)."""

    name = ""
    setup_repeats = 3
    traced_iterations = 1

    def __init__(self, seed: int, workdir: Path, tiny: bool = False):
        self.seed = seed
        self.workdir = workdir
        self.tiny = tiny

    def setup(self) -> None:
        raise NotImplementedError

    def prepare(self) -> None:
        """Untimed work after set-up: references and warm-up."""

    def iteration(self, run: Run) -> None:
        raise NotImplementedError

    def measure(self, run: Run, seconds: float) -> None:
        deadline = time.perf_counter() + seconds
        self.iteration(run)
        while time.perf_counter() < deadline:
            self.iteration(run)


class TrainC9(Workload):
    """``train_model`` at criterion-9 scale, then training steps and no-grad
    forwards on the same windows until the time is up."""

    name = "train-c9"
    setup_repeats = 11  # one set-up takes about 20 ms

    def setup(self) -> None:
        self.size = C9_TINY if self.tiny else C9_FULL
        self.cfg = self.size.cfg
        self.stations, self.frame = c9_inputs(self.seed, self.size)

    def iteration(self, run: Run) -> None:
        epochs = self.size.epochs
        result = run.op("job", lambda: training.train_model(self.cfg, self.stations, self.frame),
                        per=epochs)
        log = result.log
        maes = [e["val_mae"] for e in log.epochs]
        losses = [e["train_loss"] for e in log.epochs]
        if log.stop_reason != "max_epochs" or len(maes) != epochs:
            run.fail(f"train_model stopped early: {log.stop_reason} after {len(maes)} epochs")
            return
        if not (_finite(maes) and _finite(losses)):
            run.fail("non-finite training loss or validation MAE")
            return
        ref = dense_validation_mae(result.params, result.state, result.splits[1])
        if not np.isclose(log.best_val_mae, ref, rtol=VAL_MAE_RTOL, atol=0.0):
            run.fail(f"validation MAE {log.best_val_mae!r} != dense reference {ref!r}")
            return
        run.quality = log.best_val_mae

    def measure(self, run: Run, seconds: float) -> None:
        deadline = time.perf_counter() + seconds
        self.iteration(run)
        cfg = self.cfg
        train, _, _ = data.chrono_split(self.frame, min_len=cfg.t_in + cfg.tau)
        state = model.build_state(cfg, self.stations, train)
        params = model.init_params(cfg, np.random.default_rng(cfg.seed))
        opt = Adam(params, lr=cfg.lr, weight_decay=cfg.weight_decay)
        epoch = 0
        while True:
            rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, epoch]))
            for batch in data.make_windows(train, cfg.t_in, cfg.tau, state.stats, cfg.batch,
                                           shuffle=True, rng=rng):
                if len(batch.starts) < cfg.batch:  # time full batches only
                    continue
                target = state.stats.normalize(batch.targets)

                def step():
                    opt.zero_grad()
                    loss = model.masked_mae_loss(
                        model.forward(params, state, batch.inputs), target, batch.target_valid)
                    loss.backward()
                    return loss.item(), opt.step()

                def fwd():
                    with autodiff.no_grad():
                        return model.forward(params, state, batch.inputs)

                loss, stepped = run.op("step", step)
                out = run.op("fwd", fwd)
                if not (np.isfinite(loss) and stepped and _finite(out.data)):
                    run.fail(f"training step: loss {loss!r}, Adam step taken: {stepped}, "
                             f"finite forward: {_finite(out.data)}")
                if time.perf_counter() >= deadline and len(run.samples["step"]) >= MIN_STEPS:
                    return
            epoch += 1


def dense_validation_mae(params, state, frame) -> float:
    """Validation MAE recomputed with the dense O(N^2) reference forward."""
    arrays = {k: p.data for k, p in params.items()}
    cfg = state.cfg
    preds, targets, masks = [], [], []
    # one window per call: the dense pass holds (B, N, N, 2D) arrays
    for batch in data.make_windows(frame, cfg.t_in, cfg.tau, state.stats, 1):
        preds.append(state.stats.denormalize(oracle.dense_forward(arrays, state, batch.inputs)))
        targets.append(batch.targets)
        masks.append(batch.target_valid)
    report = masked_metrics(np.concatenate(targets), np.concatenate(preds), np.concatenate(masks))
    return report.aggregate.mae


def read_forecast(path, tau: int, n: int) -> np.ndarray:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    values = np.array([float(r[3]) for r in rows])
    return values.reshape(tau, n, len(data.CHANNELS))


class LargeN(Workload):
    """Two large-N paths in one closed loop: a no-grad forward and a
    forward+loss+backward step at N=4096 (K=15, B=1, t_in 4), and an
    ``omniair predict-unseen`` call (64 new stations, in-process) from a
    checkpoint of N=2048 stations (K=15, t_in 16)."""

    name = "large-n"
    traced_iterations = 2

    def setup(self) -> None:
        rng = np.random.default_rng(self.seed)
        self.setup_step(rng)
        self.setup_predict(rng)

    def setup_step(self, rng: np.random.Generator) -> None:
        """Generated stations and the real ``build_hybrid_graph`` graph; identity
        features, inputs and targets are random normal, as in ``omniair.bench``."""
        n, k_geo, k_sem = (64, 3, 1) if self.tiny else (4096, 10, 5)
        cfg = RunConfig(d_model=32, id_dim=32, heads=4, fourier_dim=32, t_in=4, tau=2,
                        k_geo=k_geo, k_sem=k_sem, k_max=float(k_geo + k_sem), batch=1,
                        attn_dim=16, head_hidden=64, seed=PARAM_SEED)
        points = np.stack([rng.uniform(30.0, 40.0, n), rng.uniform(100.0, 110.0, n)], axis=1)
        grades = rng.integers(0, data.N_GRADES, n)
        id_features = rng.normal(size=(n, model.identity_input_dim(cfg) - cfg.grade_embed))
        sem_vectors = np.concatenate([id_features, np.eye(data.N_GRADES)[grades]], axis=1)
        graph = topology.build_hybrid_graph(points, sem_vectors, k_geo, k_sem, cfg.kappa_km)
        self.state = model.ModelState(cfg, [], None, [], graph, id_features, grades, sem_vectors)
        self.params = model.init_params(cfg, np.random.default_rng(PARAM_SEED))
        self.x = rng.normal(size=(1, cfg.t_in, n, len(data.CHANNELS)))
        self.target = rng.normal(size=(1, cfg.tau, n, len(data.CHANNELS)))
        self.mask = np.ones(self.target.shape, dtype=bool)

    def setup_predict(self, rng: np.random.Generator) -> None:
        """A checkpoint of ``init_params`` and ``model_buffers(build_state(...))``,
        the station files, and a series file holding only the last t_in days."""
        n, n_new, k_geo, k_sem = (40, 4, 3, 1) if self.tiny else (2048, 64, 10, 5)
        cfg = RunConfig(d_model=32, id_dim=32, heads=4, fourier_dim=32, t_in=16, tau=7,
                        k_geo=k_geo, k_sem=k_sem, k_max=float(k_geo + k_sem), batch=16,
                        attn_dim=16, head_hidden=64, seed=PARAM_SEED)
        history = 120
        stations, frame = synth_network(n, history + cfg.tau, rng)
        new_stations, _ = synth_network(n_new, 1, rng, prefix="new")
        past = frame.slice_time(0, history)
        train, _, _ = data.chrono_split(past, min_len=cfg.t_in + cfg.tau)
        state = model.build_state(cfg, stations, train)
        params = model.init_params(cfg, np.random.default_rng(PARAM_SEED))
        d = self.workdir / "predict"
        if d.exists():
            shutil.rmtree(d)
        d.mkdir(parents=True)
        checkpoint.save_checkpoint(d / "checkpoint", params, training.model_buffers(state), cfg,
                                   cfg.seed, station_ids=tuple(s.id for s in stations))
        data.write_stations(stations, d / "stations.csv")
        data.write_stations(new_stations, d / "new.csv")
        data.write_series(frame.slice_time(history - cfg.t_in, history), d / "series.csv")
        self.dir, self.predict_cfg, self.n_new = d, cfg, n_new
        self.truth = frame.values[history:]
        self.unseen_args = [
            "predict-unseen", "--checkpoint", str(d / "checkpoint"),
            "--stations", str(d / "stations.csv"), "--series", str(d / "series.csv"),
            "--new-stations", str(d / "new.csv"), "--out", str(d / "unseen.csv"),
            "--base-out", str(d / "base.csv"),
        ]

    def prepare(self) -> None:
        """Reference forecasts through the library API: ``predict_window``
        written as ``omniair predict`` writes it, and ``predict_unseen``."""
        d = self.dir
        params, buffers, cfg, _ = checkpoint.load_checkpoint(d / "checkpoint")
        stations = data.load_stations(d / "stations.csv")
        state = inference.rebuild_state(cfg, stations, buffers)
        frame = data.load_series(d / "series.csv", stations)
        base = inference.predict_window(params, state, frame)
        inference.write_forecast_csv(base, d / "reference.csv")
        self.ref_csv = (d / "reference.csv").read_bytes()
        _, new = inference.predict_unseen(params, state, frame, data.load_stations(d / "new.csv"))
        self.ref_new = new.values
        self.forecast_mae = float(np.abs(base.values - self.truth).mean())

    def fwd(self):
        with autodiff.no_grad():
            return model.forward(self.params, self.state, self.x)

    def step(self):
        for p in self.params.values():
            p.zero_grad()
        out = model.forward(self.params, self.state, self.x)
        loss = model.masked_mae_loss(out, self.target, self.mask)
        loss.backward()
        return out, loss

    def unseen(self) -> int:
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.main(self.unseen_args)

    def iteration(self, run: Run) -> None:
        plain = run.op("fwd", self.fwd)
        out, loss = run.op("step", self.step)
        ref = np.abs(out.data - self.target)[self.mask].mean()
        grads_ok = all(p.grad is None or _finite(p.grad) for p in self.params.values())
        if not (_finite(plain.data) and np.isfinite(loss.item()) and grads_ok):
            run.fail("non-finite forward output, loss or gradient")
        elif not np.array_equal(plain.data, out.data):
            run.fail("no-grad forward differs from the taped forward")
        elif not np.isclose(loss.item(), ref, rtol=LOSS_RTOL, atol=0.0):
            run.fail(f"loss {loss.item()!r} != numpy masked MAE {ref!r}")

        rc = run.op("job", self.unseen)
        if rc != 0:
            run.fail(f"predict-unseen exited with {rc}")
            return
        new = read_forecast(self.dir / "unseen.csv", self.predict_cfg.tau, self.n_new)
        if not _finite(new):
            run.fail("non-finite zero-shot forecast")
        elif not np.allclose(new, self.ref_new, rtol=FORECAST_RTOL, atol=0.0):
            run.fail("zero-shot forecast differs from the reference")
        elif (self.dir / "base.csv").read_bytes() != self.ref_csv:
            run.fail("predict-unseen base forecast is not bit-identical to predict")
        else:
            run.quality = self.forecast_mae


WORKLOADS = {w.name: w for w in (TrainC9, LargeN)}
