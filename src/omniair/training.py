"""Training loop: masked-MAE objective, early stopping on validation MAE,
best-checkpoint restoration, and deterministic behavior under a fixed seed."""

from __future__ import annotations

import json
import logging
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from .autodiff import Tensor, no_grad
from .checkpoint import save_checkpoint
from .config import RunConfig
from .data import SeriesFrame, StationMeta, chrono_split, date_range, make_windows
from .evaluation import masked_metrics
from .model import ModelState, build_state, forward, init_params, masked_mae_loss
from .optim import Adam

log = logging.getLogger("omniair")

# A skipped Adam step leaves the parameters as they were, so a run of skips
# means batch after batch gives a non-finite gradient at the same
# parameters: later batches will not repair them. Stop as on a non-finite
# loss, and keep the best snapshot; with no validated epoch yet there is no
# snapshot to keep, and training fails.
_MAX_SKIPPED_IN_A_ROW = 8


@dataclass
class TrainLog:
    """The one record of a run: each validated epoch, the best one (whose
    parameters the run keeps) and why training stopped."""

    epochs: list[dict] = field(default_factory=list)
    best_epoch: int = -1
    best_val_mae: float = float("inf")
    stop_reason: str = ""


def predict_batches(params: dict[str, Tensor], state: ModelState, frame: SeriesFrame):
    """Denormalized forecasts for every window of a frame (inference mode)."""
    cfg = state.cfg
    preds, targets, masks = [], [], []
    with no_grad():
        for batch in make_windows(frame, cfg.t_in, cfg.tau, state.stats, cfg.batch):
            out = forward(params, state, batch.inputs)
            preds.append(state.stats.denormalize(out.data))
            targets.append(batch.targets)
            masks.append(batch.target_valid)
    return np.concatenate(preds), np.concatenate(targets), np.concatenate(masks)


def validation_mae(params: dict[str, Tensor], state: ModelState, frame: SeriesFrame) -> float:
    preds, targets, masks = predict_batches(params, state, frame)
    report = masked_metrics(targets, preds, masks)
    if report.aggregate.mae is None:
        raise RuntimeError("validation split has no valid targets")
    return report.aggregate.mae


@dataclass
class TrainResult:
    params: dict[str, Tensor]
    state: ModelState
    log: TrainLog
    splits: tuple[SeriesFrame, SeriesFrame, SeriesFrame]


def train_model(
    cfg: RunConfig,
    stations: list[StationMeta],
    frame: SeriesFrame,
    out_dir=None,
) -> TrainResult:
    """Train on the chronological train split, early-stop on validation MAE,
    restore the best parameters, and optionally write checkpoint + logs.

    The graph is built once from the training split and never changes, so
    restoring the best parameters restores the whole best-epoch model."""
    train, val, test = chrono_split(frame, min_len=cfg.t_in + cfg.tau)
    if not val.valid[cfg.t_in:].any():
        # early stopping would have no validation MAE to compare
        raise ValueError(f"the validation split ({date_range(val)}) holds no observed "
                         "forecast target")
    out = None if out_dir is None else Path(out_dir)
    if out is not None:
        made = not out.exists()
        out.mkdir(parents=True, exist_ok=True)  # an unusable path fails now, not after training
        if made:
            out.rmdir()  # and a failed run leaves no directory behind
    state = build_state(cfg, stations, train)
    rng = np.random.default_rng(cfg.seed)
    params = init_params(cfg, rng)
    opt = Adam(params, lr=cfg.lr, weight_decay=cfg.weight_decay)
    tlog = TrainLog()
    best_snapshot = {k: p.data.copy() for k, p in params.items()}
    diverged = ""
    skipped_in_a_row = 0
    stale = 0  # validated epochs in a row that did not improve on the best

    for epoch in range(cfg.max_epochs):
        epoch_rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, epoch]))
        losses, skipped = [], 0
        for batch in make_windows(
            train, cfg.t_in, cfg.tau, state.stats, cfg.batch, shuffle=True, rng=epoch_rng
        ):
            opt.zero_grad()
            pred = forward(params, state, batch.inputs)
            target_norm = state.stats.normalize(batch.targets)
            loss = masked_mae_loss(pred, target_norm, batch.target_valid)
            if not np.isfinite(loss.data):
                diverged = "a non-finite loss"
                break
            loss.backward()
            stepped = opt.step()
            skipped += not stepped
            skipped_in_a_row = 0 if stepped else skipped_in_a_row + 1
            if skipped_in_a_row >= _MAX_SKIPPED_IN_A_ROW:
                diverged = (f"{skipped_in_a_row} Adam steps in a row skipped on non-finite "
                            "gradients")
                break
            losses.append(loss.item())
        if diverged:
            if tlog.best_epoch < 0:
                raise ValueError(f"training diverged at epoch {epoch}, before any validated "
                                 f"epoch: {diverged}")
            log.error("training diverged at epoch %d: %s; keeping best checkpoint", epoch,
                      diverged)
            tlog.stop_reason = "divergence"
            break
        val_mae = validation_mae(params, state, val)
        tlog.epochs.append(
            {"epoch": epoch, "train_loss": float(np.mean(losses)), "val_mae": val_mae,
             "skipped_steps": skipped}
        )
        if val_mae < tlog.best_val_mae:
            tlog.best_epoch, tlog.best_val_mae, stale = epoch, val_mae, 0
            best_snapshot = {k: p.data.copy() for k, p in params.items()}
        else:
            stale += 1
            if stale >= cfg.patience:
                tlog.stop_reason = "patience"
                break
    else:
        tlog.stop_reason = "max_epochs"

    for k, p in params.items():
        p.data = best_snapshot[k].copy()

    if out is not None:
        out.mkdir(parents=True, exist_ok=True)
        save_checkpoint(
            out / "checkpoint", params, model_buffers(state), cfg, cfg.seed,
            station_ids=tuple(s.id for s in stations),
        )
        cfg.save(out / "config.json")
        with open(out / "train_log.json", "w") as fh:
            json.dump(asdict(tlog), fh, indent=2, sort_keys=True)
            fh.write("\n")
    return TrainResult(params, state, tlog, (train, val, test))


def model_buffers(state: ModelState) -> dict[str, np.ndarray]:
    """Training-time statistics and the graph's neighbour table, everything
    needed to rebuild the state at predict time."""
    return {
        "channel_mean": np.asarray(state.stats.channel_mean, dtype=np.float64),
        "channel_std": np.asarray(state.stats.channel_std, dtype=np.float64),
        "geo_mean": state.stats.geo_mean,
        "geo_std": state.stats.geo_std,
        "context_vectors": state.contexts.vectors,
        "context_centroids": state.contexts.centroids,
        "grades": state.grades.astype(np.int64),
        "neighbors": state.graph.nbr.astype(np.int64),
    }
