"""Command-line entry points.

Exit codes: 0 success, 2 invalid arguments or data validation failure,
1 unexpected runtime failure.
"""

from __future__ import annotations

import argparse
import csv
import logging
import sys
from pathlib import Path

import numpy as np

from . import bench
from .checkpoint import load_checkpoint
from .config import RunConfig
from .data import N_GRADES, chrono_split, load_series, load_stations, write_series, write_stations
from .evaluation import format_report, write_report_csv
from .geo import haversine
from .inference import (
    evaluate_split,
    export_embeddings,
    predict_unseen,
    predict_window,
    rebuild_state,
    require_finite,
    write_forecast_csv,
)
from .model import build_state
from .oracle import RDScenario, SourceSpec, simulate_rd, toy_grad_check
from .training import train_model

log = logging.getLogger("omniair")


def _load_config(args) -> RunConfig:
    overrides = {}
    for name in ("seed", "max_epochs"):
        if getattr(args, name, None) is not None:
            overrides[name] = getattr(args, name)
    if args.config:
        return RunConfig.load(args.config, overrides)
    return RunConfig(**overrides)


def _seed(text: str) -> int:
    """argparse type of every ``--seed``: a non-negative integer."""
    try:
        value = int(text)
        if value >= 0:
            return value
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"{text!r} is not a non-negative integer")


def _source_spec(text: str) -> SourceSpec:
    try:
        node, amp, period, on = text.split(":")
        return SourceSpec(int(node), float(amp), int(period), int(on))
    except ValueError:
        raise ValueError(f"--source {text!r}: expected NODE:AMP:PERIOD:ON, four numbers") from None


def cmd_synth(args) -> int:
    sources = tuple(_source_spec(text) for text in args.source)
    scn = RDScenario(
        n=args.n,
        steps=args.steps,
        seed=args.seed,
        noise_std=args.noise_std,
        missing_rate=args.missing_rate,
        sources=sources,
        diffusion=args.diffusion,
        decay=args.decay,
    )
    stations, frame = simulate_rd(scn)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    write_stations(stations, out / "stations.csv")
    write_series(frame, out / "series.csv")
    print(f"wrote {len(stations)} stations x {frame.n_steps} steps to {out}")
    return 0


def _state_from_checkpoint(args):
    params, buffers, cfg, manifest = load_checkpoint(args.checkpoint)
    stations = load_stations(args.stations)
    if [s.id for s in stations] != manifest["station_ids"]:
        raise ValueError(
            "station file does not match the checkpoint's training stations "
            "(same ids in the same order required)"
        )
    state = rebuild_state(cfg, stations, buffers)
    return params, state, cfg


def _state_from_data(args):
    """The model state training would build from ``--stations`` and
    ``--series``: statistics and graph from the chronological train split."""
    cfg = _load_config(args)
    stations = load_stations(args.stations)
    frame = load_series(args.series, stations)
    train, _, _ = chrono_split(frame, min_len=cfg.t_in + cfg.tau)
    return build_state(cfg, stations, train)


def cmd_features(args) -> int:
    state = _state_from_data(args)
    with open(args.out, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["station_id", "mu_nbr", "sigma_nbr", "delta_c_km", "delta_self"]
            + [f"level_{i}" for i in range(N_GRADES)]
        )
        for s, row in zip(state.stations, state.contexts.vectors):
            writer.writerow([s.id] + [repr(float(v)) for v in row])
    print(f"wrote neighborhood features for {state.n_stations} stations to {args.out}")
    return 0


def cmd_build_graph(args) -> int:
    state = _state_from_data(args)
    cfg, stations, g = state.cfg, state.stations, state.graph
    points = np.stack([s.point for s in stations])
    km = haversine(points[:, None], points[g.nbr])
    with open(args.out, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["src", "dst", "kind", "km", "w_static"])
        for (i, k), j in np.ndenumerate(g.nbr):
            writer.writerow(
                [
                    stations[i].id,
                    stations[j].id,
                    "geo" if k < cfg.k_geo else "sem",
                    repr(float(km[i, k])),
                    repr(float(g.w_static[i, k])),
                ]
            )
    print(f"wrote {g.n_edges} edges to {args.out}")
    return 0


def cmd_train(args) -> int:
    cfg = _load_config(args)
    stations = load_stations(args.stations)
    frame = load_series(args.series, stations)
    result = train_model(cfg, stations, frame, out_dir=args.out)
    print(
        f"stopped: {result.log.stop_reason}; best epoch {result.log.best_epoch} "
        f"val MAE {result.log.best_val_mae:.6f}"
    )
    return 0


def cmd_predict(args) -> int:
    params, state, _ = _state_from_checkpoint(args)
    frame = load_series(args.series, state.stations)
    forecast = predict_window(params, state, frame, args.window_end)
    write_forecast_csv(forecast, args.out)
    print(f"wrote forecast {forecast.values.shape} to {args.out}")
    return 0


def cmd_predict_unseen(args) -> int:
    if args.base_out and Path(args.out).resolve() == Path(args.base_out).resolve():
        raise ValueError(f"--out {args.out} and --base-out {args.base_out} name the same file")
    params, state, _ = _state_from_checkpoint(args)
    frame = load_series(args.series, state.stations)
    new_stations = load_stations(args.new_stations)
    if not new_stations:
        raise ValueError(f"{args.new_stations}: the file has no stations")
    base, new = predict_unseen(params, state, frame, new_stations, window_end=args.window_end)
    outputs = [(new, args.out)] + ([(base, args.base_out)] if args.base_out else [])
    for forecast, path in outputs:
        require_finite(forecast, path)
    for forecast, path in outputs:
        write_forecast_csv(forecast, path)
    print(f"wrote zero-shot forecast for {len(new_stations)} stations to {args.out}")
    return 0


def cmd_evaluate(args) -> int:
    params, state, cfg = _state_from_checkpoint(args)
    frame = load_series(args.series, state.stations)
    splits = dict(zip(("train", "val", "test"), chrono_split(frame, min_len=cfg.t_in + cfg.tau)))
    report = evaluate_split(params, state, splits[args.split])
    write_report_csv(report, args.out)
    print(format_report(report))
    return 0


def cmd_export_embeddings(args) -> int:
    params, state, _ = _state_from_checkpoint(args)
    export_embeddings(params, state, args.out)
    print(f"wrote embeddings for {state.n_stations} stations to {args.out}")
    return 0


def cmd_bench(args) -> int:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)  # an unusable path fails now, not after the sweep
    report = bench.run_scaling(
        tuple(args.n),
        k=args.k,
        t_in=args.t_in,
        repeats=args.repeats,
        seed=args.seed,
    )
    bench.write_bench_csv(report, out / "bench.csv")
    bench.write_loglog(report, out / "loglog.txt")
    for r in report.rows:
        print(f"N={r.n:6d} edges={r.edges:8d} build={r.build_ms:9.2f}ms "
              f"forward={r.forward_ms:9.2f}ms step={r.step_ms:9.2f}ms "
              f"traced peak={r.traced_peak_b:6.1f}B/(row*D)")
    print(f"log-log slope: {report.slope:.4f}")
    return 0


def cmd_grad_check(args) -> int:
    err = toy_grad_check(seed=args.seed)
    print(f"max relative gradient error: {err:.3e}")
    if err >= 1e-4:
        print("gradient check FAILED (threshold 1e-4)")
        return 1
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="omniair",
        description="Inductive sparse-graph forecasting engine for station-level air quality",
    )
    parser.add_argument("--verbose", action="store_true", help="debug logging")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="JSON config file")
        p.add_argument("--seed", type=_seed, help="override config seed")

    p = sub.add_parser("synth", help="generate a synthetic reaction-diffusion dataset")
    p.add_argument("--n", type=int, default=20)
    p.add_argument("--steps", type=int, default=400)
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--noise-std", type=float, default=0.0)
    p.add_argument("--missing-rate", type=float, default=0.0)
    p.add_argument("--diffusion", type=float, default=0.15)
    p.add_argument("--decay", type=float, default=0.05)
    p.add_argument("--source", action="append", default=[], metavar="NODE:AMP:PERIOD:ON",
                   help="emission source, e.g. 3:8.0:40:20 (repeatable)")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("features", help="export neighborhood context features")
    common(p)
    p.add_argument("--stations", required=True)
    p.add_argument("--series", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_features)

    p = sub.add_parser("build-graph", help="build and dump the hybrid graph")
    common(p)
    p.add_argument("--stations", required=True)
    p.add_argument("--series", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_build_graph)

    p = sub.add_parser("train", help="train a model")
    common(p)
    p.add_argument("--stations", required=True)
    p.add_argument("--series", required=True)
    p.add_argument("--max-epochs", type=int, help="override config max_epochs")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("predict", help="forecast from a checkpoint")
    p.add_argument("--checkpoint", required=True, help="checkpoint directory (holds the config)")
    p.add_argument("--stations", required=True)
    p.add_argument("--series", required=True)
    p.add_argument("--window-end", help="ISO date or step index (default: last)")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("predict-unseen", help="zero-shot forecast for new stations")
    p.add_argument("--checkpoint", required=True, help="checkpoint directory (holds the config)")
    p.add_argument("--stations", required=True, help="stations the model was trained on")
    p.add_argument("--series", required=True)
    p.add_argument("--new-stations", required=True)
    p.add_argument("--window-end", help="ISO date or step index (default: last)")
    p.add_argument("--out", required=True)
    p.add_argument("--base-out", help="also dump the base-station forecast")
    p.set_defaults(func=cmd_predict_unseen)

    p = sub.add_parser("evaluate", help="masked metrics on a chronological split")
    p.add_argument("--checkpoint", required=True, help="checkpoint directory (holds the config)")
    p.add_argument("--stations", required=True)
    p.add_argument("--series", required=True)
    p.add_argument("--split", choices=("train", "val", "test"), default="test")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("export-embeddings", help="dump identity embeddings as CSV")
    p.add_argument("--checkpoint", required=True, help="checkpoint directory (holds the config)")
    p.add_argument("--stations", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_export_embeddings)

    p = sub.add_parser("bench", help="graph build, forward and forward+backward scaling benchmark")
    p.add_argument("--n", type=int, nargs="+", default=[1024, 2048, 4096, 8192])
    p.add_argument("--k", type=int, default=15)
    p.add_argument("--t-in", type=int, default=4)
    p.add_argument("--repeats", type=int, default=5)
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("grad-check", help="finite-difference check of the full model")
    p.add_argument("--seed", type=_seed, default=0)
    p.set_defaults(func=cmd_grad_check)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    logging.basicConfig(level=logging.DEBUG if args.verbose else logging.INFO,
                        format="%(levelname)s %(name)s: %(message)s")
    try:
        return args.func(args)
    except (ValueError, FileNotFoundError, FileExistsError, IsADirectoryError,
            NotADirectoryError, PermissionError) as exc:  # a bad JSON file is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # pragma: no cover - defensive
        log.exception("unexpected failure")
        print(f"internal error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
