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
from .config import RunConfig

FORMAT = "omniair-checkpoint-v1"


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


def load_checkpoint(ckpt_dir) -> tuple[dict[str, Tensor], dict[str, np.ndarray], RunConfig, dict]:
    ckpt = Path(ckpt_dir)
    with open(ckpt / "manifest.json") as fh:
        manifest = json.load(fh)
    if manifest.get("format") != FORMAT:
        raise ValueError(f"{ckpt_dir}: not a recognized checkpoint")
    blob = (ckpt / "params.bin").read_bytes()
    listing = manifest["params"] + manifest["buffers"]
    expected = max((e["offset"] + 8 * _count(e) for e in listing), default=0)
    if len(blob) != expected:
        raise ValueError(
            f"{ckpt / 'params.bin'}: the manifest needs {expected} bytes, "
            f"the file has {len(blob)}"
        )
    params, buffers = _read(manifest["params"], blob), _read(manifest["buffers"], blob)
    for kind, arrays in (("parameter", params), ("buffer", buffers)):
        for name, arr in arrays.items():
            if not np.isfinite(arr).all():
                raise ValueError(f"{ckpt / 'params.bin'}: {kind} {name!r} holds NaN or inf")
    params = {name: Tensor(arr, requires_grad=True) for name, arr in params.items()}
    config = RunConfig.from_dict(manifest["config"])
    return params, buffers, config, manifest
