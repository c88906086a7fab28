"""Checkpoint directory format: ``manifest.json`` + ``params.bin``.

The manifest lists every tensor (name, shape, dtype, byte offset into the
bin), the rng seed, the config and its hash. Model buffers (normalization
stats, neighborhood contexts) ride along in a second section of the same
bin so prediction never has to re-derive training-time statistics.
"""

from __future__ import annotations

import json
import tempfile
from pathlib import Path

import numpy as np

from .autodiff import Tensor
from .config import RunConfig, dict_hash
from .data import CHANNELS
from .encoder import CONTEXT_DIM
from .model import N_GEO_FEATURES, init_params

FORMAT = "omniair-checkpoint-v1"
# stored by earlier versions, never read
LEGACY_PARAMS = ("fusion.w",)  # fed a removed fusion mode
LEGACY_BUFFERS = ("per_station_norm",)  # flagged a removed normalization mode


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
    """Write the checkpoint directory ``out_dir``, replacing any earlier one.

    Both files are written into a fresh directory that is then renamed into
    place, so a failed save never leaves one save's manifest beside another
    save's tensors."""
    out = Path(out_dir)
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
    out.parent.mkdir(parents=True, exist_ok=True)
    # the scratch directory takes the failed save or the replaced checkpoint
    # with it; a failed final rename moves the replaced one back first
    with tempfile.TemporaryDirectory(prefix=f".{out.name}.", dir=out.parent) as scratch:
        staged = Path(scratch) / "new"
        staged.mkdir()
        with open(staged / "manifest.json", "w") as fh:
            json.dump(manifest, fh, indent=2, sort_keys=True)
            fh.write("\n")
        with open(staged / "params.bin", "wb") as fh:
            fh.write(blob_p)
            fh.write(blob_b)
        old = Path(scratch) / "old"
        if out.exists():
            out.rename(old)
        try:
            staged.rename(out)
        except BaseException:
            if old.exists():
                old.rename(out)
            raise


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


def _check_inventory(
    kind: str, arrays: dict[str, np.ndarray], expected: dict[str, tuple], need: str, where
) -> None:
    """Every tensor of ``expected``, at its shape, and nothing else; ``need``
    says what sets the shape."""
    for name in sorted(set(expected) | set(arrays)):
        if name not in arrays:
            raise ValueError(f"{where}: {kind} {name!r} is missing")
        if name not in expected:
            raise ValueError(f"{where}: unknown {kind} {name!r}")
        if arrays[name].shape != expected[name]:
            raise ValueError(
                f"{where}: {kind} {name!r} has shape {arrays[name].shape}, "
                f"{need} {expected[name]}"
            )


def _buffer_shapes(n: int) -> dict[str, tuple[int, ...]]:
    """Shape of each ``training.model_buffers`` entry for ``n`` stations."""
    return {
        "channel_mean": (len(CHANNELS),),
        "channel_std": (len(CHANNELS),),
        "geo_mean": (N_GEO_FEATURES,),
        "geo_std": (N_GEO_FEATURES,),
        "context_vectors": (n, CONTEXT_DIM),
        "context_centroids": (n, 2),
        "context_fallback": (n,),
        "grades": (n,),
    }


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
    for name in LEGACY_BUFFERS:
        buffers.pop(name, None)
    where = ckpt / "manifest.json"
    shapes = {k: v.shape for k, v in init_params(config, np.random.default_rng(0)).items()}
    _check_inventory("parameter", params, shapes, "the config needs", where)
    n = len(manifest.get("station_ids", buffers.get("context_vectors", ())))
    _check_inventory("buffer", buffers, _buffer_shapes(n), f"{n} stations need", where)
    for kind, arrays in (("parameter", params), ("buffer", buffers)):
        for name, arr in arrays.items():
            if not np.isfinite(arr).all():
                raise ValueError(f"{ckpt / 'params.bin'}: {kind} {name!r} holds NaN or inf")
    params = {name: Tensor(arr, requires_grad=True) for name, arr in params.items()}
    return params, buffers, config, manifest
