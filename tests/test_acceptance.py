"""Acceptance suite: one test per release criterion, each printing a
``[criterion N] PASS/FAIL`` line (run with ``pytest -s`` to see them live).

Every expected value is either analytic or produced by an independent
reference path (finite differences, dense matrices, closed-form kernels,
hand-rolled accumulation loops, the last-value baseline).
"""

import time

import numpy as np
import pytest

from omniair.autodiff import Tensor, no_grad
from omniair.bench import run_scaling
from omniair.data import SeriesFrame, chrono_split, make_windows
from omniair.evaluation import lv_baseline, masked_metrics
from omniair.inference import params_digest
from omniair.model import (
    build_extension,
    build_state,
    forward,
    init_params,
)
from omniair.oracle import (
    RDScenario,
    SourceSpec,
    check_kernel,
    check_lipschitz,
    dense_forward,
    simulate_rd,
    toy_grad_check,
)
from omniair.propagation import diffuse, signed_aggregate
from omniair.topology import HybridGraph, compute_ranks, prune_mask
from omniair.training import predict_batches, train_model

from conftest import small_config


def report(num: int, desc: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"\n[criterion {num:2d}] {status} - {desc}{suffix}")
    assert ok, f"criterion {num}: {desc}{suffix}"


def test_criterion_01_gradient_correctness():
    t0 = time.perf_counter()
    err = toy_grad_check(seed=0, samples_per_param=6)
    elapsed = time.perf_counter() - t0
    report(
        1,
        "full-model finite-difference gradient check",
        err < 1e-4 and elapsed < 60.0,
        f"max rel err {err:.2e}, {elapsed:.1f}s",
    )


def test_criterion_02_sparse_dense_equivalence():
    t0 = time.perf_counter()
    worst = 0.0
    for n in (4, 8, 16):
        cfg = small_config(
            d_model=16, id_dim=16, t_in=6, tau=2, batch=2,
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
            worst = max(worst, float(np.abs(sparse - dense).max()))
    elapsed = time.perf_counter() - t0
    report(
        2,
        "sparse forward equals dense N^2 reference over 25 seeds x N in {4,8,16}",
        worst < 1e-10 and elapsed < 30.0,
        f"max abs dev {worst:.2e}, {elapsed:.1f}s",
    )


def test_criterion_03_fourier_kernel_theorem():
    t0 = time.perf_counter()
    table = dict(check_kernel(bandwidth=1.0, m_list=(64, 4096), n_pairs=100, seed=0))
    elapsed = time.perf_counter() - t0
    report(
        3,
        "gaussian feature kernel matches its closed-form limit",
        table[4096] < 0.05 and table[4096] < table[64] and elapsed < 30.0,
        f"dev(64)={table[64]:.4f}, dev(4096)={table[4096]:.4f}, {elapsed:.1f}s",
    )


def test_criterion_04_lipschitz_bound():
    t0 = time.perf_counter()
    violations = 0
    for seed in range(4):
        rng = np.random.default_rng(seed)
        params = {
            "id_mlp.w1": rng.normal(size=(64, 64)) * rng.uniform(0.1, 1.0),
            "id_mlp.b1": rng.normal(size=64),
            "id_mlp.w2": rng.normal(size=(64, 32)) * rng.uniform(0.1, 1.0),
            "id_mlp.b2": rng.normal(size=32),
        }
        ratio, bound = check_lipschitz(params, n_pairs=1000, seed=seed)
        if ratio > bound * (1.0 + 1e-6):
            violations += 1
    elapsed = time.perf_counter() - t0
    report(
        4,
        "embedding distances bounded by the spectral-norm product (1000 pairs)",
        violations == 0 and elapsed < 10.0,
        f"{violations} violations, {elapsed:.1f}s",
    )


def _random_sparse_setup(rng, n=6, per=3, d=8, t=2):
    nbr = np.stack(
        [rng.choice([j for j in range(n) if j != i], per, replace=False) for i in range(n)]
    )
    graph = HybridGraph(nbr, np.zeros(nbr.shape, np.int8), np.ones(nbr.shape),
                        np.ones(nbr.shape))
    w = rng.normal(size=(1, n, per))
    h0 = rng.normal(size=(1, t, n, d))
    return graph, w, h0


def test_criterion_05_signed_aggregation_necessity():
    # (a) smoothing-only control stays inside the per-node convex hull
    rng = np.random.default_rng(0)
    hull_ok = True
    for _ in range(100):
        d, heads, steps = 8, 4, 3
        stack = Tensor(rng.normal(size=(steps, 1, 2, 5, d)))
        dh = d // heads
        params = {
            "agg.wq": Tensor(rng.normal(size=(heads, dh, dh))),
            "agg.wk": Tensor(rng.normal(size=(heads, dh, dh))),
            "agg.step_bias": Tensor(np.ones(steps)),
        }
        z = signed_aggregate(stack, params, heads=heads, mode="positive").data
        states = stack.data
        if not (np.all(z >= states.min(axis=0) - 1e-12)
                and np.all(z <= states.max(axis=0) + 1e-12)):
            hull_ok = False
            break
    report(5, "(a) positive-only aggregation stays in the diffusion-state hull", hull_ok)

    # (b) forced coefficients (1, -1) reproduce the graph-difference response:
    # bitwise against the engine's own one-step neighbor sum (structural
    # identity), and to 1e-12 against an independent dense-matrix oracle
    graph, w, h0 = _random_sparse_setup(np.random.default_rng(1))
    stack = diffuse(Tensor(h0), Tensor(w), graph, steps=1, restart=0.0)
    params = {
        "agg.wq": Tensor(np.zeros((2, 4, 4))),
        "agg.wk": Tensor(np.zeros((2, 4, 4))),
        "agg.step_bias": Tensor(np.ones(2)),
    }
    z = signed_aggregate(stack, params, heads=2, forced_coeffs=np.array([1.0, -1.0]))
    structural = np.array_equal(z.data, stack.data[0] - stack.data[1])
    dense = np.zeros((graph.n_nodes, graph.n_nodes))
    dense[np.arange(graph.n_nodes)[:, None], graph.nbr] = w[0]
    oracle = h0 - np.einsum("ij,btjd->btid", dense, h0)
    report(5, "(b) coefficients (1,-1) recover the Laplacian response exactly",
           structural and np.abs(z.data - oracle).max() < 1e-12)

    # (c) trained comparison at emission sources: signed beats positive-only
    t0 = time.perf_counter()

    def run_mode(seed: int, coeff_mode: str) -> float:
        scn = RDScenario(
            n=20, steps=240, seed=seed, noise_std=0.1,
            diffusion=0.25, decay=0.02, dt=0.3,
            sources=(SourceSpec(node=seed % 20, amplitude=6.0, period=24, on_steps=12),),
        )
        stations, frame = simulate_rd(scn)
        cfg = small_config(
            t_in=12, tau=4, k_geo=4, k_sem=2, k_max=6.0, batch=16,
            max_epochs=8, patience=50, coeff_mode=coeff_mode,
        )
        result = train_model(cfg, stations, frame)
        _, _, test = result.splits
        preds, targets, masks = predict_batches(result.params, result.state, test)
        source_only = masks.copy()
        keep = np.zeros(masks.shape[2], dtype=bool)
        keep[seed % 20] = True
        source_only[:, :, ~keep, :] = False
        return masked_metrics(targets, preds, source_only).aggregate.mae

    signed_maes, positive_maes = [], []
    for seed in range(5):
        signed_maes.append(run_mode(seed, "signed"))
        positive_maes.append(run_mode(seed, "positive"))
    med_signed = float(np.median(signed_maes))
    med_positive = float(np.median(positive_maes))
    elapsed = time.perf_counter() - t0
    report(
        5,
        "(c) signed aggregation beats the smoothing-only control at source nodes",
        med_signed < med_positive and elapsed < 600.0,
        f"median MAE signed={med_signed:.3f} vs positive={med_positive:.3f}, {elapsed:.0f}s",
    )


def test_criterion_06_mass_conservation():
    t0 = time.perf_counter()
    scn = RDScenario(n=20, steps=500, seed=1, decay=0.0, noise_std=0.0)
    _, frame = simulate_rd(scn)
    totals = frame.values[:, :, 0].sum(axis=1)
    worst = float(np.abs(np.diff(totals)).max())
    elapsed = time.perf_counter() - t0
    report(
        6,
        "source-free, decay-free simulation conserves total mass over 500 steps",
        worst < 1e-9 and elapsed < 5.0,
        f"max per-step drift {worst:.2e}, {elapsed:.1f}s",
    )


def test_criterion_07_linear_scaling():
    t0 = time.perf_counter()
    rep = run_scaling((1024, 2048, 4096, 8192), k=15, t_in=4, repeats=5, seed=0, workers=1)
    elapsed = time.perf_counter() - t0
    report(
        7,
        "forward wall time scales linearly in station count (K=15, 1 worker)",
        0.8 <= rep.slope <= 1.3 and elapsed < 300.0,
        f"log-log slope {rep.slope:.3f}, {elapsed:.0f}s",
    )


def test_criterion_08_hard_topk_limit():
    t0 = time.perf_counter()
    rng = np.random.default_rng(8)
    n, per, k = 6, 8, 3
    graph = HybridGraph(np.tile(np.arange(per) + 10, (n, 1)), np.zeros((n, per), np.int8),
                        np.ones((n, per)), np.ones((n, per)), cross=True)
    w = rng.normal(size=(1, n, per))
    ranks = compute_ranks(w, graph)
    mask = prune_mask(ranks, Tensor(np.full((1, n), k + 0.5)), eta=50.0).data[0]
    saturated = bool(np.all((mask < 1e-4) | (mask > 1 - 1e-4)))
    exact = True
    for i in range(n):
        top = set(np.argsort(-np.abs(w[0, i]))[:k])
        kept = set(np.flatnonzero(mask[i] > 0.5))
        exact = exact and top == kept
    elapsed = time.perf_counter() - t0
    report(
        8,
        "steep mask at beta = k + 0.5 reproduces exact hard top-k retention",
        saturated and exact and elapsed < 5.0,
        f"{elapsed:.1f}s",
    )


def test_criterion_09_zero_shot_inductive():
    t0 = time.perf_counter()

    def run_seed(seed: int):
        scn = RDScenario(
            n=50, steps=400, seed=seed, noise_std=0.1,
            diffusion=0.3, decay=0.05, dt=0.3, base_level=5.0,
            sources=(SourceSpec(node=3, amplitude=8.0),
                     SourceSpec(node=29, amplitude=5.0),
                     SourceSpec(node=41, amplitude=3.0)),
        )
        stations, frame = simulate_rd(scn)
        rng = np.random.default_rng(seed + 1000)
        held_idx = np.sort(rng.choice(50, size=10, replace=False))
        base_idx = np.setdiff1d(np.arange(50), held_idx)
        base_stations = [stations[i] for i in base_idx]
        held_stations = [stations[i] for i in held_idx]
        base_frame = SeriesFrame(
            frame.timestamps,
            frame.values[:, base_idx].copy(),
            frame.valid[:, base_idx].copy(),
            tuple(s.id for s in base_stations),
        )
        cfg = small_config(
            d_model=32, id_dim=32, t_in=16, tau=7, k_geo=6, k_sem=3, k_max=9.0,
            batch=16, max_epochs=10, patience=50, attn_dim=16, head_hidden=64,
        )
        result = train_model(cfg, base_stations, base_frame)
        state = result.state
        _, _, test_base = result.splits
        ext = build_extension(state, held_stations)
        digest_before = params_digest(result.params)
        offset = frame.n_steps - test_base.n_steps
        n_held = len(held_idx)
        preds, targets, masks = [], [], []
        identical = True
        for batch in make_windows(test_base, cfg.t_in, cfg.tau, state.stats, cfg.batch):
            with no_grad():
                out, extras = forward(result.params, state, batch.inputs, collect=True)
                x_new = np.zeros((batch.inputs.shape[0], cfg.t_in, n_held, 6))
                out_new = forward(result.params, ext, x_new, base=extras)
                out_plain = forward(result.params, state, batch.inputs)
            identical = identical and np.array_equal(out.data, out_plain.data)
            preds.append(state.stats.denormalize(out_new.data))
            for s in batch.starts:
                lo = offset + s + cfg.t_in
                targets.append(frame.values[None, lo : lo + cfg.tau][:, :, held_idx])
                masks.append(frame.valid[None, lo : lo + cfg.tau][:, :, held_idx])
        pure = params_digest(result.params) == digest_before
        preds = np.concatenate(preds)
        targets = np.concatenate(targets)
        masks = np.concatenate(masks)
        model_mae = masked_metrics(targets, preds, masks).aggregate.mae
        lv_inputs = np.zeros((targets.shape[0], cfg.t_in, n_held, 6))
        lv = lv_baseline(
            lv_inputs,
            np.zeros_like(lv_inputs, dtype=bool),
            cfg.tau,
            np.broadcast_to(state.stats.channel_mean, (n_held, 6)),
        )
        lv_mae = masked_metrics(targets, lv, masks).aggregate.mae
        return model_mae, lv_mae, identical, pure

    model_maes, lv_maes = [], []
    all_identical = all_pure = True
    for seed in range(5):
        m, l, ident, pure = run_seed(seed)
        model_maes.append(m)
        lv_maes.append(l)
        all_identical = all_identical and ident
        all_pure = all_pure and pure
    med_model = float(np.median(model_maes))
    med_lv = float(np.median(lv_maes))
    elapsed = time.perf_counter() - t0
    report(9, "(a) base-station forecasts bit-identical with new nodes attached",
           all_identical)
    report(9, "(b) zero-shot prediction mutates no parameters", all_pure)
    report(
        9,
        "(c) held-out zero-shot MAE beats the last-value baseline (median of 5 seeds)",
        med_model < med_lv and elapsed < 900.0,
        f"model={med_model:.3f} vs LV={med_lv:.3f}, {elapsed:.0f}s",
    )


def test_criterion_10_pipeline_determinism(tmp_path):
    from omniair.cli import main

    t0 = time.perf_counter()
    cfg = {
        "d_model": 16, "id_dim": 16, "heads": 4, "t_in": 8, "tau": 3,
        "k_geo": 3, "k_sem": 2, "k_max": 5.0, "batch": 8, "max_epochs": 5,
        "patience": 20, "seed": 42, "attn_dim": 8, "head_hidden": 32,
    }
    import json

    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    outputs = []
    for run_dir in ("one", "two"):
        d = tmp_path / run_dir
        args = ["synth", "--n", "15", "--steps", "120", "--seed", "42",
                "--noise-std", "0.2", "--out", str(d / "data")]
        assert main(args) == 0
        assert main(["train", "--config", str(cfg_path),
                     "--stations", str(d / "data" / "stations.csv"),
                     "--series", str(d / "data" / "series.csv"),
                     "--out", str(d / "run")]) == 0
        assert main(["predict", "--checkpoint", str(d / "run" / "checkpoint"),
                     "--stations", str(d / "data" / "stations.csv"),
                     "--series", str(d / "data" / "series.csv"),
                     "--out", str(d / "forecast.csv")]) == 0
        assert main(["evaluate", "--checkpoint", str(d / "run" / "checkpoint"),
                     "--stations", str(d / "data" / "stations.csv"),
                     "--series", str(d / "data" / "series.csv"),
                     "--split", "test", "--out", str(d / "metrics.csv")]) == 0
        outputs.append(
            (
                (d / "forecast.csv").read_bytes(),
                (d / "metrics.csv").read_bytes(),
                (d / "run" / "checkpoint" / "params.bin").read_bytes(),
            )
        )
    elapsed = time.perf_counter() - t0
    report(
        10,
        "synth -> train(5 epochs) -> predict -> evaluate is byte-identical across runs",
        outputs[0] == outputs[1] and elapsed < 300.0,
        f"{elapsed:.0f}s",
    )


def test_criterion_11_masked_metric_conformance():
    t0 = time.perf_counter()
    # near-zero magnitude exclusion
    y = np.array([[10.0], [1e-6]])
    yhat = np.array([[9.0], [5.0]])
    valid = np.ones_like(y, dtype=bool)
    r = masked_metrics(y, yhat, valid, channel_names=("c",))
    threshold_ok = (
        r.aggregate.mape_pct == pytest.approx(10.0)
        and r.aggregate.mape_count == 1
        and r.aggregate.count == 2
    )
    # fully masked degenerate case: undefined, never NaN
    r2 = masked_metrics(y, yhat, np.zeros_like(valid), channel_names=("c",))
    degenerate_ok = (
        r2.aggregate.mae is None
        and r2.aggregate.rmse is None
        and r2.aggregate.mape_pct is None
        and r2.aggregate.count == 0
    )
    elapsed = time.perf_counter() - t0
    report(
        11,
        "masked metrics honor the magnitude floor and the empty-mask case",
        threshold_ok and degenerate_ok and elapsed < 1.0,
        f"{elapsed:.2f}s",
    )
