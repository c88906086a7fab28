"""Checkpoint directory format: ``manifest.json`` + ``params.bin``.

The manifest lists every tensor (name, shape, dtype, byte offset into the
bin), the rng seed, the config and its hash. Model buffers (normalization
stats, neighborhood contexts) ride along in a second section of the same
bin so prediction never has to re-derive training-time statistics.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .autodiff import Tensor
from .config import RunConfig, dict_hash
from .data import CHANNELS
from .encoder import CONTEXT_DIM
from .model import N_GEO_FEATURES, init_params

FORMAT = "omniair-checkpoint-v1"
# stored by earlier versions, never read: ``fusion.w`` fed a removed fusion mode
LEGACY_PARAMS = ("fusion.w",)


def _entries(arrays: dict[str, np.ndarray], offset: int) -> tuple[list[dict], bytes, int]:
    listing = []
    blobs = []
    for name, arr in arrays.items():
        raw = np.ascontiguousarray(arr, dtype="<f8").tobytes()
        listing.append(
            {"name": name, "shape": list(arr.shape), "dtype": "f64", "offset": offset}
        )
        blobs.append(raw)
        offset += len(raw)
    return listing, b"".join(blobs), offset


def save_checkpoint(
    out_dir,
    params: dict[str, Tensor],
    buffers: dict[str, np.ndarray],
    config: RunConfig,
    rng_seed: int,
    station_ids: tuple[str, ...] | None = None,
) -> None:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    param_list, blob_p, offset = _entries({k: v.data for k, v in params.items()}, 0)
    buffer_list, blob_b, _ = _entries(buffers, offset)
    manifest = {
        "format": FORMAT,
        "rng_seed": rng_seed,
        "config_hash": config.config_hash(),
        "config": config.to_dict(),
        "params": param_list,
        "buffers": buffer_list,
    }
    if station_ids is not None:
        manifest["station_ids"] = list(station_ids)
    with open(out / "manifest.json", "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    with open(out / "params.bin", "wb") as fh:
        fh.write(blob_p)
        fh.write(blob_b)


def _count(entry: dict) -> int:
    return int(np.prod(entry["shape"]))


def _read(listing: list[dict], blob: bytes) -> dict[str, np.ndarray]:
    out = {}
    for entry in listing:
        arr = np.frombuffer(
            blob, dtype="<f8", count=_count(entry), offset=entry["offset"]
        ).reshape(entry["shape"])
        out[entry["name"]] = arr.astype(np.float64)
    return out


def _check_inventory(params: dict[str, np.ndarray], config: RunConfig, where) -> None:
    """Every parameter ``init_params`` builds for ``config``, at its shape,
    and nothing else."""
    expected = {k: v.shape for k, v in init_params(config, np.random.default_rng(0)).items()}
    for name in sorted(set(expected) | set(params)):
        if name not in params:
            raise ValueError(f"{where}: parameter {name!r} is missing")
        if name not in expected:
            raise ValueError(f"{where}: unknown parameter {name!r}")
        if params[name].shape != expected[name]:
            raise ValueError(
                f"{where}: parameter {name!r} has shape {params[name].shape}, "
                f"the config needs {expected[name]}"
            )


def _buffer_shapes(n: int, per_station: bool) -> dict[str, tuple[int, ...]]:
    """Shape of each ``training.model_buffers`` entry for ``n`` stations."""
    channels = (n, len(CHANNELS)) if per_station else (len(CHANNELS),)
    return {
        "per_station_norm": (1,),
        "channel_mean": channels,
        "channel_std": channels,
        "geo_mean": (N_GEO_FEATURES,),
        "geo_std": (N_GEO_FEATURES,),
        "context_vectors": (n, CONTEXT_DIM),
        "context_centroids": (n, 2),
        "context_fallback": (n,),
        "grades": (n,),
    }


def _check_buffers(buffers: dict[str, np.ndarray], manifest: dict, where) -> None:
    """Every model buffer, at the shape its station count and normalization
    mode need, and nothing else."""
    names = set(_buffer_shapes(0, False))
    for name in sorted(names | set(buffers)):
        if name not in buffers:
            raise ValueError(f"{where}: buffer {name!r} is missing")
        if name not in names:
            raise ValueError(f"{where}: unknown buffer {name!r}")
    flag = buffers["per_station_norm"]
    per_station = flag.shape == (1,) and bool(flag[0])
    n = len(manifest.get("station_ids", buffers["context_vectors"]))
    for name, shape in _buffer_shapes(n, per_station).items():
        if buffers[name].shape != shape:
            raise ValueError(
                f"{where}: buffer {name!r} has shape {buffers[name].shape}, {n} stations "
                f"with per_station_norm={per_station} need {shape}"
            )


def load_checkpoint(ckpt_dir) -> tuple[dict[str, Tensor], dict[str, np.ndarray], RunConfig, dict]:
    ckpt = Path(ckpt_dir)
    with open(ckpt / "manifest.json") as fh:
        manifest = json.load(fh)
    if manifest.get("format") != FORMAT:
        raise ValueError(f"{ckpt_dir}: not a recognized checkpoint")
    for key in ("config", "params", "buffers"):
        if key not in manifest:
            raise ValueError(f"{ckpt / 'manifest.json'}: the manifest has no {key!r} entry")
    # hash the stored dict: loading drops the fields of earlier versions
    if dict_hash(manifest["config"]) != manifest.get("config_hash"):
        raise ValueError(f"{ckpt / 'manifest.json'}: config does not match its config_hash")
    config = RunConfig.from_dict(manifest["config"])
    blob = (ckpt / "params.bin").read_bytes()
    listing = manifest["params"] + manifest["buffers"]
    expected = max((e["offset"] + 8 * _count(e) for e in listing), default=0)
    if len(blob) != expected:
        raise ValueError(
            f"{ckpt / 'params.bin'}: the manifest needs {expected} bytes, "
            f"the file has {len(blob)}"
        )
    params, buffers = _read(manifest["params"], blob), _read(manifest["buffers"], blob)
    for name in LEGACY_PARAMS:
        params.pop(name, None)
    _check_inventory(params, config, ckpt / "manifest.json")
    _check_buffers(buffers, manifest, ckpt / "manifest.json")
    for kind, arrays in (("parameter", params), ("buffer", buffers)):
        for name, arr in arrays.items():
            if not np.isfinite(arr).all():
                raise ValueError(f"{ckpt / 'params.bin'}: {kind} {name!r} holds NaN or inf")
    params = {name: Tensor(arr, requires_grad=True) for name, arr in params.items()}
    return params, buffers, config, manifest
