"""Prediction paths: standard forecasting from a checkpoint, zero-shot
forecasting for stations unseen at training time, and split evaluation."""

from __future__ import annotations

import csv
import hashlib
import logging
import re
from dataclasses import dataclass
from operator import add

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .autodiff import Tensor, no_grad
from .config import RunConfig
from .data import (
    CHANNELS,
    NormStats,
    SeriesFrame,
    StationMeta,
    _date_of,
    csv_fields,
    date_range,
    float_reprs,
    write_dated_csv,
)
from .encoder import Contexts, encode_identity
from .evaluation import MetricReport, masked_metrics
from .model import ModelState, _derive_state, build_extension, forward
from .training import predict_batches

log = logging.getLogger("omniair")


def rebuild_state(
    cfg: RunConfig,
    stations: list[StationMeta],
    buffers: dict[str, np.ndarray],
) -> ModelState:
    """Reconstruct the frozen model state from checkpoint buffers.

    Contexts, normalization and the graph's neighbour table come from the
    buffers (training-time values), so no neighbour search runs and the
    model runs on exactly the graph it was trained on. A station whose grade
    resolves differently from the one it was trained with is refused, since
    its identity and its semantic edges would disagree.
    """
    n = len(stations)
    if buffers["context_vectors"].shape[0] != n:
        raise ValueError(
            f"checkpoint was trained on {buffers['context_vectors'].shape[0]} stations, "
            f"got {n}"
        )
    stats = NormStats(
        buffers["channel_mean"], buffers["channel_std"], buffers["geo_mean"], buffers["geo_std"]
    )
    contexts = Contexts(buffers["context_vectors"], buffers["context_centroids"])
    state = _derive_state(cfg, stations, np.stack([s.point for s in stations]), stats, contexts,
                          nbr=buffers["neighbors"])
    changed = np.flatnonzero(state.grades != buffers["grades"])
    if changed.size:
        i = changed[0]
        raise ValueError(
            f"station {stations[i].id!r}: the station file gives grade {state.grades[i]}, "
            f"the checkpoint was trained with grade {buffers['grades'][i]}"
        )
    return state


def window_end_index(frame: SeriesFrame, window_end: str | int | None, t_in: int) -> int:
    """Resolve a window end (ISO date, index, or None for the last step)."""
    if window_end is None:
        idx = frame.n_steps - 1
    elif isinstance(window_end, int) or re.fullmatch(r"-?[0-9]+", str(window_end)):
        idx = int(window_end)
        if idx < 0:
            idx += frame.n_steps
    else:
        day = _date_of(str(window_end))  # the series file's own rule for a date
        if day is None:
            raise ValueError(
                f"--window-end {window_end!r}: expected an ISO date (YYYY-MM-DD) or a step "
                "index (negative counts back from the last step)"
            )
        hits = np.flatnonzero(frame.timestamps == np.datetime64(day, "D"))
        if len(hits) == 0:
            raise ValueError(f"window end {window_end!r} not in frame range")
        idx = int(hits[0])
    if idx < t_in - 1 or idx >= frame.n_steps:
        raise ValueError(
            f"window ending at step {idx} needs {t_in} steps of history "
            f"within the {frame.n_steps}-step frame"
        )
    return idx


def _require_stations(frame: SeriesFrame, stations: list[StationMeta], what: str) -> None:
    """Refuse a frame whose columns are not ``stations`` in their order: the
    model reads column i as the station at graph position i."""
    for i, (got, station) in enumerate(zip(frame.station_ids, stations)):
        if got != station.id:
            raise ValueError(
                f"{what} lists {got!r} in column {i}, where station {station.id!r} belongs"
            )
    if len(frame.station_ids) != len(stations):
        raise ValueError(f"{what} lists {len(frame.station_ids)} stations, not {len(stations)}")


def _base_window(state: ModelState, frame: SeriesFrame, window_end) -> tuple[int, np.ndarray]:
    """End index and normalized (1, t_in, N, C) inputs of the base stations'
    window ending at ``window_end``, missing values zero; a frame that does
    not list the state's stations in order is refused, and so is a window
    without any observation, since its forecast would rest on no data."""
    _require_stations(frame, state.stations, "the series")
    end_idx = window_end_index(frame, window_end, state.cfg.t_in)
    lo = end_idx - state.cfg.t_in + 1
    valid = frame.valid[lo : end_idx + 1]
    if not valid.any():
        raise ValueError(
            f"the input window from {frame.timestamps[lo]} to {frame.timestamps[end_idx]} "
            "holds no observation"
        )
    values = state.stats.normalize(frame.values[lo : end_idx + 1])
    return end_idx, np.where(valid, values, 0.0)[None]


def _future_timestamps(frame: SeriesFrame, end_idx: int, tau: int) -> np.ndarray:
    """The ``tau`` timestamps after ``end_idx``, at the frame's step (one day
    for a single-step frame)."""
    step = (frame.timestamps[1] - frame.timestamps[0] if frame.n_steps > 1
            else np.timedelta64(1, "D"))
    return frame.timestamps[end_idx] + step * np.arange(1, tau + 1)


@dataclass
class Forecast:
    timestamps: np.ndarray  # (tau,) datetime64[D]
    station_ids: tuple[str, ...]
    values: np.ndarray  # (tau, N, C) raw units


def predict_window(
    params: dict[str, Tensor],
    state: ModelState,
    frame: SeriesFrame,
    window_end: str | int | None = None,
) -> Forecast:
    """Raw-unit forecast for the window ending at ``window_end``."""
    end_idx, x = _base_window(state, frame, window_end)
    with no_grad():
        out = forward(params, state, x)
    values = state.stats.denormalize(out.data)[0]
    return Forecast(_future_timestamps(frame, end_idx, state.cfg.tau), frame.station_ids, values)


def params_digest(params: dict[str, Tensor]) -> str:
    h = hashlib.sha256()
    for name in sorted(params):
        h.update(name.encode())
        h.update(np.ascontiguousarray(params[name].data).tobytes())
    return h.hexdigest()


def predict_unseen(
    params: dict[str, Tensor],
    state: ModelState,
    frame: SeriesFrame,
    new_stations: list[StationMeta],
    window_end: str | int | None = None,
) -> tuple[Forecast, Forecast]:
    """Zero-shot forecasts for stations absent from training.

    New stations attach through directed edges and consume the base run's
    states, so the returned base forecast is the same object the plain
    predictor computes, byte for byte, and no parameter is ever written.
    The new stations' own inputs are blank: they are forecast from their
    identity and their neighbourhood alone.
    """
    before = params_digest(params)
    cfg = state.cfg
    end_idx, x = _base_window(state, frame, window_end)
    ext = build_extension(state, new_stations)
    x_new = np.zeros((1, cfg.t_in, len(new_stations), len(CHANNELS)))
    with no_grad():
        base_out, extras = forward(params, state, x, collect=True)
        new_out = forward(params, ext, x_new, base=extras)
    if params_digest(params) != before:
        raise RuntimeError("zero-shot prediction mutated model parameters")
    future = _future_timestamps(frame, end_idx, cfg.tau)
    base = Forecast(future, frame.station_ids, state.stats.denormalize(base_out.data)[0])
    new_ids = tuple(s.id for s in new_stations)
    new = Forecast(future, new_ids, state.stats.denormalize(new_out.data)[0])
    return base, new


def evaluate_split(
    params: dict[str, Tensor], state: ModelState, frame: SeriesFrame
) -> MetricReport:
    """Masked metrics over the forecast windows of a frame whose input days
    hold an observation; a window with blank inputs forecasts from no data,
    so it is dropped, and the drop is logged."""
    _require_stations(frame, state.stations, "the series")
    preds, targets, masks = predict_batches(params, state, frame)
    t_in = state.cfg.t_in
    observed = frame.valid.any(axis=(1, 2))
    scored = sliding_window_view(observed, t_in)[: len(preds)].any(axis=1)
    if not scored.any():
        raise ValueError(f"no input window of the {date_range(frame)} holds an observation")
    if not scored.all():
        log.warning("evaluate: dropped %d of %d windows whose %d input days hold no observation",
                    len(preds) - scored.sum(), len(preds), t_in)
    return masked_metrics(targets[scored], preds[scored], masks[scored])


def require_finite(forecast: Forecast, path) -> None:
    """Raise a ``ValueError`` naming ``path`` if the forecast holds NaN or inf."""
    if not np.isfinite(forecast.values).all():
        raise ValueError(f"{path}: refusing to write a forecast with non-finite values")


def write_forecast_csv(forecast: Forecast, path) -> None:
    """One row per (timestamp, station, channel); a forecast holding NaN or
    inf is refused before the file is opened."""
    require_finite(forecast, path)
    labels = (len(forecast.timestamps), len(forecast.station_ids), len(CHANNELS))
    if forecast.values.shape != labels:
        raise ValueError(
            f"{path}: forecast of shape {forecast.values.shape} has {labels[0]} timestamps, "
            f"{labels[1]} station ids and {labels[2]} channels"
        )
    ids = csv_fields(forecast.station_ids)
    channels = csv_fields(CHANNELS)
    prefixes = [f"{sid},{channel}," for sid in ids for channel in channels]
    write_dated_csv(
        path,
        ("timestamp", "station_id", "channel", "value"),
        forecast.timestamps,
        (list(map(add, prefixes, float_reprs(step))) for step in forecast.values),
    )


def export_embeddings(params: dict[str, Tensor], state: ModelState, path) -> None:
    """CSV of identity embeddings, one row per station."""
    with no_grad():
        e_id = encode_identity(state.id_features, state.grades, params).data
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["station_id"] + [f"e_{i}" for i in range(e_id.shape[1])])
        for station, row in zip(state.stations, e_id):
            writer.writerow([station.id] + [repr(float(v)) for v in row])
