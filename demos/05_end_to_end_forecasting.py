#!/usr/bin/env python3
"""End-to-end run: simulate a station network, train, forecast, evaluate,
then forecast two stations the model has never seen.

Equivalent CLI session:

    omniair synth --n 20 --steps 240 --seed 7 --noise-std 0.15 --out data/
    omniair train --config cfg.json --stations data/stations.csv \
        --series data/series.csv --out run/
    omniair predict --checkpoint run/checkpoint --stations data/stations.csv \
        --series data/series.csv --out forecast.csv
    omniair evaluate --checkpoint run/checkpoint --stations data/stations.csv \
        --series data/series.csv --split test --out metrics.csv
"""

import numpy as np

from omniair import RDScenario, RunConfig, SourceSpec, StationMeta, simulate_rd
from omniair.evaluation import format_report
from omniair.inference import evaluate_split, predict_unseen, predict_window
from omniair.training import train_model

scenario = RDScenario(
    n=20, steps=240, seed=7, noise_std=0.15,
    diffusion=0.25, decay=0.03, dt=0.3,
    sources=(SourceSpec(node=4, amplitude=6.0),),
)
stations, frame = simulate_rd(scenario)
print(f"simulated {len(stations)} stations x {frame.n_steps} daily steps")

cfg = RunConfig(
    d_model=16, heads=4, t_in=12, tau=4, k_geo=4, k_sem=2,
    batch=16, max_epochs=8, patience=50, seed=42,
    attn_dim=8, head_hidden=32,
)
result = train_model(cfg, stations, frame)
print(f"training stopped: {result.log.stop_reason}, "
      f"best epoch {result.log.best_epoch}, val MAE {result.log.best_val_mae:.4f}")

forecast = predict_window(result.params, result.state, frame)
print(f"\nforecast for the last window: shape {forecast.values.shape}")
print(f"first horizon step, station {stations[0].id}: "
      f"{np.round(forecast.values[0, 0], 2)}")

_, _, test = result.splits
print("\ntest-split metrics:")
print(format_report(evaluate_split(result.params, result.state, test)))

new_stations = [
    StationMeta("fresh-a", 34.8, 104.2, np.array([600.0, 9.0, 120.0, 5.0, 12.0, 300.0]), -1),
    StationMeta("fresh-b", 37.1, 108.9, np.array([200.0, 6.0, 40.0, -3.0, 4.0, 150.0]), 2),
]
base, fresh = predict_unseen(result.params, result.state, frame, new_stations)
print("\nzero-shot forecasts for unseen stations (no history, no retraining):")
for j, s in enumerate(new_stations):
    print(f"  {s.id}: first-step prediction {np.round(fresh.values[0, j], 2)}")
print(f"base forecasts unchanged by attachment: "
      f"{np.array_equal(base.values, forecast.values)}")
