"""Checkpoint directory format ``FORMAT``: ``manifest.json`` + ``params.bin``.

The manifest names its format, the only one that loads, and lists every
tensor (name, shape, dtype, byte offset into the bin), the rng seed, the
config and its hash, and the ids of the stations the model was trained on,
in graph order. Model buffers (normalization stats, neighborhood contexts,
the graph's neighbour table) ride along in a second section of the same bin
so prediction never has to re-derive training-time statistics or search for
the training graph again.
"""

from __future__ import annotations

import json
import math
import tempfile
from pathlib import Path

import numpy as np

from .autodiff import Tensor
from .config import RunConfig, dict_hash
from .data import CHANNELS, MIN_STD
from .encoder import CONTEXT_DIM
from .model import N_GEO_FEATURES, init_params

FORMAT = "omniair-checkpoint-v3"


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
    station_ids: tuple[str, ...],
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


def _is_count(value) -> bool:
    """A JSON integer (not a bool) that is at least 0."""
    return isinstance(value, int) and not isinstance(value, bool) and value >= 0


def _check_manifest(manifest: dict, where) -> None:
    """Refuse a malformed tensor listing or station list before any byte of
    the bin is read: each entry is an object with a name unique across both
    lists, a shape of non-negative integers, dtype ``f64`` and a non-negative
    integer offset; the station ids are distinct strings."""
    names = set()
    for key in ("params", "buffers"):
        if not isinstance(manifest[key], list):
            raise ValueError(f"{where}: {key!r} must be a list of tensor entries")
        for i, entry in enumerate(manifest[key]):
            if not isinstance(entry, dict) or not isinstance(entry.get("name"), str):
                raise ValueError(f"{where}: {key}[{i}] must be an object with a string 'name'")
            label = f"{key}[{i}] {entry['name']!r}"
            if entry["name"] in names:
                raise ValueError(f"{where}: {label} is listed twice")
            names.add(entry["name"])
            shape = entry.get("shape")
            if not isinstance(shape, list) or not all(map(_is_count, shape)):
                raise ValueError(
                    f"{where}: {label} has shape {shape!r}, not a list of non-negative integers"
                )
            if entry.get("dtype") != "f64":
                raise ValueError(f"{where}: {label} has dtype {entry.get('dtype')!r}, not 'f64'")
            if not _is_count(entry.get("offset")):
                raise ValueError(
                    f"{where}: {label} has offset {entry.get('offset')!r}, "
                    "not a non-negative integer"
                )
    if not isinstance(manifest["station_ids"], list):
        raise ValueError(f"{where}: 'station_ids' must be a list of station ids")
    seen = set()
    for i, sid in enumerate(manifest["station_ids"]):
        if not isinstance(sid, str):
            raise ValueError(f"{where}: station_ids[{i}]={sid!r} is not a string")
        if sid in seen:
            raise ValueError(f"{where}: station_ids[{i}] {sid!r} is listed twice")
        seen.add(sid)


def _check_inventory(
    kind: str, listing: list[dict], expected: dict[str, tuple], need: str, where
) -> None:
    """Every tensor of ``expected``, at its shape, and nothing else; ``need``
    says what sets the shape."""
    listed = {e["name"]: tuple(e["shape"]) for e in listing}
    for name in sorted(set(expected) | set(listed)):
        if name not in listed:
            raise ValueError(f"{where}: {kind} {name!r} is missing")
        if name not in expected:
            raise ValueError(f"{where}: unknown {kind} {name!r}")
        if listed[name] != expected[name]:
            raise ValueError(
                f"{where}: {kind} {name!r} has shape {listed[name]}, {need} {expected[name]}"
            )


def _check_layout(manifest: dict, where, bin_path: Path) -> None:
    """The entries tile the bin, as ``_entries`` writes them: taken in listed
    order, params first, the first starts at byte 0, each later one where the
    one before it ends, and the file ends where the last one ends. Sizes are
    Python ints, which do not wrap around."""
    listing = [(f"{key}[{i}] {e['name']!r}", e)
               for key in ("params", "buffers") for i, e in enumerate(manifest[key])]
    end, before = 0, "the bin starts"
    for label, entry in listing:
        if entry["offset"] != end:
            raise ValueError(
                f"{where}: {label} starts at byte {entry['offset']}, not at {end} where {before}"
            )
        end, before = end + 8 * math.prod(entry["shape"]), f"{label} ends"
    size = bin_path.stat().st_size
    if size != end:
        raise ValueError(
            f"{bin_path}: {where} needs {end} bytes, up to where {before}; the file has {size}"
        )


def _read(entry: dict, blob: bytes) -> np.ndarray:
    count = math.prod(entry["shape"])
    arr = np.frombuffer(blob, dtype="<f8", count=count, offset=entry["offset"])
    return arr.reshape(entry["shape"]).astype(np.float64)


def _check_neighbors(nbr: np.ndarray, where) -> None:
    """Every row of the stored (N, K) neighbour table lists K distinct other
    stations of the N: integers in [0, N), none of them its own row."""
    n = len(nbr)
    bad = (nbr != np.floor(nbr)) | (nbr < 0) | (nbr >= n) | (nbr == np.arange(n)[:, None])
    if bad.any():
        i, k = np.argwhere(bad)[0]
        raise ValueError(
            f"{where}: buffer 'neighbors' row {i} lists {float(nbr[i, k])!r} in column {k}, "
            f"not the index of another of the {n} stations"
        )
    ranked = np.sort(nbr, axis=1)
    twice = ranked[:, 1:] == ranked[:, :-1]
    if twice.any():
        i, k = np.argwhere(twice)[0]
        raise ValueError(
            f"{where}: buffer 'neighbors' row {i} lists station {int(ranked[i, k])} twice"
        )


def _buffer_shapes(n: int, k: int) -> dict[str, tuple[int, ...]]:
    """Shape of each ``training.model_buffers`` entry for ``n`` stations and
    ``k`` neighbours per station."""
    return {
        "channel_mean": (len(CHANNELS),),
        "channel_std": (len(CHANNELS),),
        "geo_mean": (N_GEO_FEATURES,),
        "geo_std": (N_GEO_FEATURES,),
        "context_vectors": (n, CONTEXT_DIM),
        "context_centroids": (n, 2),
        "grades": (n,),
        "neighbors": (n, k),
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
    _check_manifest(manifest, where)
    shapes = {k: v.shape for k, v in init_params(config, np.random.default_rng(0)).items()}
    _check_inventory("parameter", manifest["params"], shapes, "the config needs", where)
    n = len(manifest["station_ids"])
    _check_inventory("buffer", manifest["buffers"], _buffer_shapes(n, config.k_geo + config.k_sem),
                     f"{n} stations and the config need", where)
    _check_layout(manifest, where, ckpt / "params.bin")
    blob = (ckpt / "params.bin").read_bytes()
    params, buffers = ({e["name"]: _read(e, blob) for e in manifest[key]}
                       for key in ("params", "buffers"))
    for kind, arrays in (("parameter", params), ("buffer", buffers)):
        for name, arr in arrays.items():
            if not np.isfinite(arr).all():
                raise ValueError(f"{ckpt / 'params.bin'}: {kind} {name!r} holds NaN or inf")
    for name in ("channel_std", "geo_std"):
        low = np.flatnonzero(buffers[name] < MIN_STD)
        if low.size:
            raise ValueError(
                f"{ckpt / 'params.bin'}: buffer {name!r} holds {float(buffers[name][low[0]])!r} "
                f"at index {low[0]}, below the floor {MIN_STD} of every trained scale"
            )
    _check_neighbors(buffers["neighbors"], ckpt / "params.bin")
    params = {name: Tensor(arr, requires_grad=True) for name, arr in params.items()}
    return params, buffers, config, manifest
