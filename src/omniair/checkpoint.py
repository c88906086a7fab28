"""Checkpoint directory format ``FORMAT``: ``manifest.json`` + ``params.bin``.

The manifest names its format, the only one that loads, and lists the
names of the tensors in the order of their records in the bin, the rng
seed, the config and its hash, and the ids of the stations the model was
trained on, in graph order. The bin is one numpy ``.npy`` record per listed
tensor, parameters first: each record carries its own shape and dtype.
Model buffers (normalization stats, neighborhood contexts, the graph's
neighbour table) ride along after the parameters so prediction never has to
re-derive training-time statistics or search for the training graph again.
"""

from __future__ import annotations

import json
import tempfile
from pathlib import Path

import numpy as np

from .autodiff import Tensor
from .config import RunConfig, dict_hash
from .data import CHANNELS, MIN_STD
from .encoder import CONTEXT_DIM
from .model import N_GEO_FEATURES, init_params

FORMAT = "omniair-checkpoint-v5"


def save_checkpoint(
    out_dir,
    params: dict[str, Tensor],
    buffers: dict[str, np.ndarray],
    config: RunConfig,
    rng_seed: int,
    station_ids: tuple[str, ...],
) -> None:
    """Write the checkpoint directory ``out_dir``, replacing any earlier one.

    Both files are written into a fresh directory that is then renamed into
    place, so a failed save never leaves one save's manifest beside another
    save's tensors."""
    out = Path(out_dir)
    manifest = {
        "format": FORMAT,
        "rng_seed": rng_seed,
        "config_hash": config.config_hash(),
        "config": config.to_dict(),
        "params": list(params),
        "buffers": list(buffers),
        "station_ids": list(station_ids),
    }
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
            for arr in [*(p.data for p in params.values()), *buffers.values()]:
                np.lib.format.write_array(fh, np.ascontiguousarray(arr), allow_pickle=False)
        old = Path(scratch) / "old"
        if out.exists():
            out.rename(old)
        try:
            staged.rename(out)
        except BaseException:
            if old.exists():
                old.rename(out)
            raise


def _check_strings(manifest: dict, keys: tuple[str, ...], where) -> None:
    """Each of ``keys`` lists strings, no string twice across all of them."""
    seen = set()
    for key in keys:
        if not isinstance(manifest[key], list):
            raise ValueError(f"{where}: {key!r} must be a list of strings")
        for i, item in enumerate(manifest[key]):
            if not isinstance(item, str):
                raise ValueError(f"{where}: {key}[{i}]={item!r} is not a string")
            if item in seen:
                raise ValueError(f"{where}: {key}[{i}] {item!r} is listed twice")
            seen.add(item)


def _check_names(kind: str, listed: list[str], expected: dict, where) -> None:
    """Every tensor of ``expected`` and nothing else."""
    odd = sorted(set(expected).symmetric_difference(listed))
    if odd:
        name = odd[0]
        if name in expected:
            raise ValueError(f"{where}: {kind} {name!r} is missing")
        raise ValueError(f"{where}: unknown {kind} {name!r}")


def _read_record(fh, label: str, shape: tuple[int, ...], dtype: np.dtype,
                 need: str) -> np.ndarray:
    """The next ``.npy`` record of ``fh``; ``label`` names the file and the
    tensor. The header's shape and dtype are checked before the data is read,
    so a forged header never sizes an allocation."""
    start = fh.tell()
    try:
        version = np.lib.format.read_magic(fh)
        header = (np.lib.format.read_array_header_1_0 if version == (1, 0)
                  else np.lib.format.read_array_header_2_0)(fh)
    except (ValueError, EOFError) as exc:
        raise ValueError(f"{label} is not a .npy record: {exc}") from None
    if header[0] != shape:
        raise ValueError(f"{label} has shape {header[0]}, {need} {shape}")
    if header[2] != dtype:
        raise ValueError(f"{label} has dtype {header[2]}, not {dtype}")
    fh.seek(start)
    try:
        return np.lib.format.read_array(fh, allow_pickle=False)
    except (ValueError, EOFError) as exc:
        raise ValueError(f"{label}: {exc}") from None


def _check_neighbors(nbr: np.ndarray, where) -> None:
    """Every row of the stored (N, K) neighbour table lists K distinct other
    stations of the N: indices in [0, N), none of them its own row."""
    n = len(nbr)
    bad = (nbr < 0) | (nbr >= n) | (nbr == np.arange(n)[:, None])
    if bad.any():
        i, k = np.argwhere(bad)[0]
        raise ValueError(
            f"{where}: buffer 'neighbors' row {i} lists {nbr[i, k]} in column {k}, "
            f"not the index of another of the {n} stations"
        )
    ranked = np.sort(nbr, axis=1)
    twice = ranked[:, 1:] == ranked[:, :-1]
    if twice.any():
        i, k = np.argwhere(twice)[0]
        raise ValueError(f"{where}: buffer 'neighbors' row {i} lists station {ranked[i, k]} twice")


def _buffer_shapes(n: int, k: int) -> dict[str, tuple[tuple[int, ...], np.dtype]]:
    """Shape and dtype of each ``training.model_buffers`` entry for ``n``
    stations and ``k`` neighbours per station."""
    f8, i8 = np.dtype(np.float64), np.dtype(np.int64)
    return {
        "channel_mean": ((len(CHANNELS),), f8),
        "channel_std": ((len(CHANNELS),), f8),
        "geo_mean": ((N_GEO_FEATURES,), f8),
        "geo_std": ((N_GEO_FEATURES,), f8),
        "context_vectors": ((n, CONTEXT_DIM), f8),
        "context_centroids": ((n, 2), f8),
        "grades": ((n,), i8),
        "neighbors": ((n, k), i8),
    }


def load_checkpoint(ckpt_dir) -> tuple[dict[str, Tensor], dict[str, np.ndarray], RunConfig, dict]:
    ckpt = Path(ckpt_dir)
    where = ckpt / "manifest.json"
    with open(where) as fh:
        manifest = json.load(fh)
    if not isinstance(manifest, dict):
        raise ValueError(f"{where}: not a JSON object but {type(manifest).__name__}")
    if manifest.get("format") != FORMAT:
        raise ValueError(
            f"{where}: format {manifest.get('format')!r} is not {FORMAT!r}; checkpoints of "
            "earlier versions no longer load: train the model again"
        )
    for key in ("config", "params", "buffers", "station_ids"):
        if key not in manifest:
            raise ValueError(f"{where}: the manifest has no {key!r} entry")
    if dict_hash(manifest["config"]) != manifest.get("config_hash"):
        raise ValueError(f"{where}: config does not match its config_hash")
    config = RunConfig.from_dict(manifest["config"])
    _check_strings(manifest, ("params", "buffers"), where)
    _check_strings(manifest, ("station_ids",), where)
    n = len(manifest["station_ids"])
    inventory = {
        "params": ("parameter", "the config needs", {
            name: (p.shape, np.dtype(np.float64))
            for name, p in init_params(config, np.random.default_rng(0)).items()}),
        "buffers": ("buffer", f"{n} stations and the config need",
                    _buffer_shapes(n, config.k_geo + config.k_sem)),
    }
    for key, (kind, _, expected) in inventory.items():
        _check_names(kind, manifest[key], expected, where)
    bin_path = ckpt / "params.bin"
    arrays = {}
    with open(bin_path, "rb") as fh:
        for key, (kind, need, expected) in inventory.items():
            arrays[key] = {name: _read_record(fh, f"{bin_path}: {kind} {name!r}",
                                              *expected[name], need)
                           for name in manifest[key]}
        if fh.read(1):
            raise ValueError(f"{bin_path}: bytes follow the last record, "
                             f"buffer {manifest['buffers'][-1]!r}")
    for key, (kind, _, _) in inventory.items():
        for name, arr in arrays[key].items():
            if not np.isfinite(arr).all():
                raise ValueError(f"{bin_path}: {kind} {name!r} holds NaN or inf")
    params, buffers = arrays["params"], arrays["buffers"]
    for name in ("channel_std", "geo_std"):
        low = np.flatnonzero(buffers[name] < MIN_STD)
        if low.size:
            raise ValueError(
                f"{bin_path}: buffer {name!r} holds {float(buffers[name][low[0]])!r} "
                f"at index {low[0]}, below the floor {MIN_STD} of every trained scale"
            )
    _check_neighbors(buffers["neighbors"], bin_path)
    params = {name: Tensor(arr, requires_grad=True) for name, arr in params.items()}
    return params, buffers, config, manifest
