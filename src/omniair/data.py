"""Dataset ingestion, validity masking, chronological splits, normalization,
and sliding-window batching.

Stations arrive as one CSV row per station; observations arrive as a long
CSV (one row per station-day) where a blank cell means "not observed".
The in-memory frame is dense over the full daily range with an explicit
validity mask, so downstream code never has to guess what a zero means.
"""

from __future__ import annotations

import csv
import io
import logging
import re
from dataclasses import dataclass
from datetime import date
from itertools import compress, islice
from operator import add, itemgetter

import numpy as np

log = logging.getLogger("omniair")

CHANNELS = ("pm25", "pm10", "o3", "no2", "so2", "co")
GEO_FEATURES = (
    "elevation",
    "climate_avg_wind",
    "climate_avg_wind_dir",
    "terrain_tpi",
    "terrain_roughness",
    "distance_to_coast_km",
)
STATION_COLUMNS = ("station_id", "lat", "lon") + GEO_FEATURES + ("grade",)
N_GRADES = 6
MIN_STD = 1e-6  # floor of every normalization scale: a constant column divides by it


@dataclass(frozen=True)
class StationMeta:
    """Immutable per-station record: location, static attributes, grade."""

    id: str
    lat: float
    lon: float
    geo_feats: np.ndarray  # (6,) in GEO_FEATURES order
    grade: int

    @property
    def point(self) -> np.ndarray:
        return np.array([self.lat, self.lon])


@dataclass
class SeriesFrame:
    """(time, station, channel) observations with a validity mask."""

    timestamps: np.ndarray  # (T,) datetime64[D], strictly increasing, even step
    values: np.ndarray  # (T, N, C) float64; finite wherever valid
    valid: np.ndarray  # (T, N, C) bool
    station_ids: tuple[str, ...]

    def __post_init__(self):
        if self.values.shape != self.valid.shape:
            raise ValueError("values and valid must have the same shape")
        if len(self.timestamps) != self.values.shape[0]:
            raise ValueError("timestamps length must match values")
        if len(self.timestamps) > 1:
            steps = np.diff(self.timestamps)
            if np.any(steps <= np.timedelta64(0, "D")) or len(set(steps.tolist())) > 1:
                raise ValueError("timestamps must be strictly increasing and evenly spaced")
        if not np.isfinite(self.values[self.valid]).all():
            raise ValueError("values must be finite wherever valid")

    @property
    def n_steps(self) -> int:
        return self.values.shape[0]

    @property
    def n_stations(self) -> int:
        return self.values.shape[1]

    def slice_time(self, start: int, stop: int) -> "SeriesFrame":
        return SeriesFrame(
            self.timestamps[start:stop],
            self.values[start:stop].copy(),
            self.valid[start:stop].copy(),
            self.station_ids,
        )


# data rows parsed at a time: bounds the reader's memory on long files
_BLOCK_ROWS = 4096


class _Faults:
    """The faults found in one block of rows. ``raise_first`` raises the one
    a row-by-row reader meets first: the lowest row and, within a row, the
    check that was flagged first."""

    def __init__(self, first_row: int):
        self.first_row = first_row  # index of the block's first data row
        self.found: list[tuple[int, str]] = []

    def flag(self, bad, message, rows=None) -> None:
        """Record ``message(i)`` for the first position ``i`` where ``bad``
        holds; ``rows`` maps positions to rows when they differ."""
        hits = np.flatnonzero(bad)
        if len(hits):
            i = int(hits[0])
            row = self.first_row + (i if rows is None else int(rows[i]))
            self.found.append((row, f"row {row + 2}: {message(i)}"))

    def raise_first(self) -> None:
        if self.found:
            raise ValueError(min(self.found, key=itemgetter(0))[1])


def _read_blocks(path, columns: tuple[str, ...], what: str):
    """Yield (faults, rows, positions) for blocks of up to ``_BLOCK_ROWS``
    data rows: the rows as field lists, and the header's column positions.

    Blank lines are skipped and rows count from 2 after the header, as
    ``csv.DictReader`` counts them. A row shorter than the header is a
    fault, and the block ends before it: a row-by-row reader stops there.
    """
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader, [])
            missing = [c for c in columns if c not in header]
            if missing:
                raise ValueError(f"{path}: missing {what} columns {missing}")
            pos = {name: i for i, name in enumerate(header)}  # a repeated name: the last one
            first_row = 0
            while block := list(islice(reader, _BLOCK_ROWS)):
                rows = [r for r in block if r]
                faults = _Faults(first_row)
                short = [len(r) < len(header) for r in rows]
                faults.flag(short,
                            lambda i: f"{len(rows[i])} fields, the header has {len(header)}")
                if faults.found:
                    rows = rows[: short.index(True)]
                yield faults, rows, pos
                first_row += len(rows)
        except csv.Error as exc:  # such as a field over csv's size limit
            raise ValueError(f"{path}: line {reader.line_num}: {exc}") from None


def _column(rows: list[list[str]], pos: dict[str, int], name: str) -> list[str]:
    return list(map(itemgetter(pos[name]), rows))


def _floats(texts: list[str], what: str, faults: _Faults, rows=None) -> np.ndarray:
    """Parse cells with ``float()``; flag the first unparsable and the first
    non-finite one. ``rows`` maps positions to rows when ``texts`` holds
    only some of them."""
    try:
        values = np.fromiter(map(float, texts), np.float64, len(texts))
    except ValueError:
        unparsable = [not _parses(t) for t in texts]
        faults.flag(unparsable, lambda i: f"cannot parse {what} from {texts[i]!r}", rows)
        bad = unparsable.index(True)  # only the cells before it are read
        values = np.fromiter(map(float, texts[:bad]), np.float64, bad)
    faults.flag(~np.isfinite(values), lambda i: f"{what} must be finite", rows)
    return values


def _parses(text: str) -> bool:
    try:
        float(text)
    except ValueError:
        return False
    return True


def _grade(text: str) -> int | None:
    """A stripped grade cell: -1 (unknown) when blank, None when not an integer."""
    if text in ("", "-1"):
        return -1
    try:
        return int(text)
    except ValueError:
        return None


def load_stations(path) -> list[StationMeta]:
    """Parse and validate the station CSV; duplicate ids and bad rows fail."""
    stations: list[StationMeta] = []
    first_of: dict[str, int] = {}  # row of each id's first appearance
    for faults, rows, pos in _read_blocks(path, STATION_COLUMNS, "station"):
        ids = list(map(str.strip, _column(rows, pos, "station_id")))
        faults.flag([not sid for sid in ids], lambda i: "empty station_id")
        at = range(faults.first_row, faults.first_row + len(ids))
        repeat = [first_of.setdefault(sid, row) != row for sid, row in zip(ids, at)]
        faults.flag(repeat, lambda i: f"duplicate station_id {ids[i]!r}")
        lat = _floats(_column(rows, pos, "lat"), "lat", faults)
        lon = _floats(_column(rows, pos, "lon"), "lon", faults)
        faults.flag(np.abs(lat) > 90, lambda i: f"lat {float(lat[i])} outside [-90, 90]")
        faults.flag(np.abs(lon) > 180, lambda i: f"lon {float(lon[i])} outside [-180, 180]")
        feats = [_floats(_column(rows, pos, c), c, faults) for c in GEO_FEATURES]
        texts = list(map(str.strip, _column(rows, pos, "grade")))
        grades = list(map(_grade, texts))
        faults.flag([g is None for g in grades], lambda i: f"cannot parse grade from {texts[i]!r}")
        faults.flag([g is not None and not -1 <= g < N_GRADES for g in grades],
                    lambda i: f"grade {grades[i]} outside [0, {N_GRADES - 1}]")
        faults.raise_first()
        stations += map(StationMeta, ids, lat.tolist(), lon.tolist(), np.stack(feats, 1), grades)
    return stations


def write_stations(stations: list[StationMeta], path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(STATION_COLUMNS)
        for s in stations:
            writer.writerow(
                [s.id, repr(float(s.lat)), repr(float(s.lon))]
                + [repr(float(v)) for v in s.geo_feats]
                + [s.grade]
            )


_ISO_DATE = re.compile(r"[0-9]{4}-[0-9]{2}-[0-9]{2}")


def _date_of(text: str) -> date | None:
    """The date of a ``YYYY-MM-DD`` timestamp cell, or None when it is not
    one. The form is checked before ``date.fromisoformat``, which from
    Python 3.11 also reads ``20200105`` and week dates such as
    ``2020-W10-1``."""
    text = text.strip()
    if not _ISO_DATE.fullmatch(text):
        return None
    try:
        return date.fromisoformat(text)
    except ValueError:
        return None


def load_series(path, stations: list[StationMeta]) -> SeriesFrame:
    """Read the long observation CSV into a dense frame over the full range."""
    id_to_col = {s.id: j for j, s in enumerate(stations)}
    col_of: dict[str, int] = {}  # each distinct id cell's station, -1 if unknown
    ordinal_of: dict[str, int] = {}  # each distinct timestamp cell's day, -1 if bad
    blocks = []
    for faults, rows, pos in _read_blocks(path, ("timestamp", "station_id") + CHANNELS, "series"):
        ids = _column(rows, pos, "station_id")
        for sid in set(ids).difference(col_of):
            col_of[sid] = id_to_col.get(sid.strip(), -1)
        cols = np.fromiter(map(col_of.__getitem__, ids), np.int64, len(rows))
        faults.flag(cols < 0, lambda i: f"unknown station_id {ids[i].strip()!r}")
        stamps = _column(rows, pos, "timestamp")
        for text in set(stamps).difference(ordinal_of):
            day = _date_of(text)
            ordinal_of[text] = -1 if day is None else day.toordinal()
        ordinals = np.fromiter(map(ordinal_of.__getitem__, stamps), np.int64, len(rows))
        faults.flag(ordinals < 0, lambda i: f"bad ISO date {stamps[i]!r}")
        cells = np.zeros((len(rows), len(CHANNELS)))
        observed = np.zeros((len(rows), len(CHANNELS)), dtype=bool)
        for k, c in enumerate(CHANNELS):
            texts = list(map(str.strip, _column(rows, pos, c)))
            present = list(map(bool, texts))  # a blank cell is a missing value
            observed[:, k] = present
            at = np.flatnonzero(observed[:, k])
            parsed = _floats(list(compress(texts, present)), c, faults, at)
            cells[at[: len(parsed)], k] = parsed
        faults.raise_first()
        blocks.append((cols, ordinals, cells, observed))
    if not sum(len(block[0]) for block in blocks):
        raise ValueError(f"{path}: no observation rows")
    cols, ordinals, cells, observed = map(np.concatenate, zip(*blocks))
    start = int(ordinals.min())
    n_steps = int(ordinals.max()) - start + 1
    n = len(stations)
    t_idx = ordinals - start
    _, first = np.unique(t_idx * n + cols, return_index=True)
    if len(first) < len(cols):
        repeat = np.ones(len(cols), dtype=bool)
        repeat[first] = False
        i = int(np.argmax(repeat))
        day = date.fromordinal(int(ordinals[i]))
        raise ValueError(f"duplicate observation for {stations[cols[i]].id!r} on {day}")
    values = np.zeros((n_steps, n, len(CHANNELS)))
    valid = np.zeros((n_steps, n, len(CHANNELS)), dtype=bool)
    values[t_idx, cols] = cells
    valid[t_idx, cols] = observed
    timestamps = np.datetime64(date.fromordinal(start), "D") + np.arange(n_steps)
    return SeriesFrame(timestamps, values, valid, tuple(s.id for s in stations))


def csv_fields(texts) -> list[str]:
    """Each text as ``csv.writer`` writes it as one field of a row
    (QUOTE_MINIMAL: quoted, with quotes doubled, when it holds a comma, a
    quote or a line break)."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    out = []
    for text in texts:
        writer.writerow((text, ""))  # a lone empty field would be written as ""
        out.append(buf.getvalue()[: -len(",\r\n")])
        buf.seek(0)
        buf.truncate()
    return out


def float_reprs(values: np.ndarray) -> list[str]:
    """``repr`` of every value in C order, from one repr of the list."""
    flat = values.ravel().tolist()
    return repr(flat)[1:-1].split(", ") if flat else []


def write_dated_csv(path, header, timestamps, lines_per_step) -> None:
    """Write a header row, then each time step's lines, each led by that
    step's timestamp field: ``csv.writer``'s bytes, one write per step."""
    with open(path, "w", newline="") as fh:
        fh.write(",".join(csv_fields(header)) + "\r\n")
        for ts, lines in zip(csv_fields(str(t) for t in timestamps), lines_per_step):
            if lines:
                fh.write(ts + "," + f"\r\n{ts},".join(lines) + "\r\n")


def write_series(frame: SeriesFrame, path) -> None:
    """Long CSV; rows with no valid channel are omitted, missing cells blank."""
    ids = [sid + "," for sid in csv_fields(frame.station_ids)]

    def lines(t: int) -> list[str]:
        stations = np.flatnonzero(frame.valid[t].any(axis=1))
        cells = float_reprs(frame.values[t, stations])
        for i in np.flatnonzero(~frame.valid[t, stations].ravel()).tolist():
            cells[i] = ""
        rows = map(",".join, zip(*[iter(cells)] * len(CHANNELS)))
        return list(map(add, [ids[j] for j in stations.tolist()], rows))

    write_dated_csv(path, ("timestamp", "station_id") + CHANNELS, frame.timestamps,
                    map(lines, range(frame.n_steps)))


def chrono_split(
    frame: SeriesFrame, min_len: int | None = None
) -> tuple[SeriesFrame, SeriesFrame, SeriesFrame]:
    """Contiguous train/val/test partitions: the first 60 % of the steps,
    the next 20 % (each rounded down) and the remainder; a partition shorter
    than ``min_len`` is refused."""
    total = frame.n_steps
    n_train = int(total * 0.6)
    n_val = int(total * 0.2)
    n_test = total - n_train - n_val
    if min_len is not None and min(n_train, n_val, n_test) < min_len:
        raise ValueError(
            f"split lengths ({n_train}, {n_val}, {n_test}) below minimum window {min_len}"
        )
    return (
        frame.slice_time(0, n_train),
        frame.slice_time(n_train, n_train + n_val),
        frame.slice_time(n_train + n_val, total),
    )


def date_range(frame: SeriesFrame) -> str:
    if frame.n_steps == 0:
        return "no dates"
    return f"{frame.n_steps} steps from {frame.timestamps[0]} to {frame.timestamps[-1]}"


@dataclass
class NormStats:
    """Normalization statistics computed from the training split only.

    Channel statistics are pooled over every time step and station of the
    split, so seen and unseen stations are normalized alike."""

    channel_mean: np.ndarray  # (C,)
    channel_std: np.ndarray
    geo_mean: np.ndarray  # (6,)
    geo_std: np.ndarray

    def normalize(self, values: np.ndarray) -> np.ndarray:
        return (values - self.channel_mean) / self.channel_std

    def denormalize(self, values: np.ndarray) -> np.ndarray:
        return values * self.channel_std + self.channel_mean

    def normalize_geo(self, feats: np.ndarray) -> np.ndarray:
        return (feats - self.geo_mean) / self.geo_std


def compute_norm_stats(train: SeriesFrame, stations: list[StationMeta]) -> NormStats:
    """Per-channel statistics of the training split; a channel without any
    observation in it is refused, since it has no scale to normalize by."""
    count = train.valid.sum(axis=(0, 1))
    if not count.all():
        empty = ", ".join(CHANNELS[c] for c in np.flatnonzero(count == 0))
        raise ValueError(f"no {empty} observation in the training split ({date_range(train)})")
    total = np.where(train.valid, train.values, 0.0).sum(axis=(0, 1))
    mean = total / count
    sq = np.where(train.valid, (train.values - mean) ** 2, 0.0).sum(axis=(0, 1))
    std = np.maximum(np.sqrt(sq / count), MIN_STD)
    feats = np.stack([s.geo_feats for s in stations])
    geo_mean = feats.mean(axis=0)
    geo_std = np.maximum(feats.std(axis=0), MIN_STD)
    return NormStats(mean, std, geo_mean, geo_std)


@dataclass
class WindowBatch:
    """One batch of sliding windows.

    Inputs are z-scored and zero-imputed at invalid entries; targets stay in
    raw units with their mask so losses and metrics decide what to count.
    """

    inputs: np.ndarray  # (B, T, N, C)
    input_valid: np.ndarray  # (B, T, N, C) bool
    targets: np.ndarray  # (B, tau, N, C) raw units
    target_valid: np.ndarray  # (B, tau, N, C) bool
    starts: np.ndarray  # (B,) window start indices into the frame


def window_count(n_steps: int, t_in: int, tau: int) -> int:
    return max(n_steps - t_in - tau + 1, 0)


def make_windows(
    frame: SeriesFrame,
    t_in: int,
    tau: int,
    stats: NormStats,
    batch_size: int,
    shuffle: bool = False,
    rng: np.random.Generator | None = None,
):
    """Yield WindowBatch objects covering every window of the frame."""
    n_windows = window_count(frame.n_steps, t_in, tau)
    if n_windows == 0:
        raise ValueError(f"frame too short for windows: {frame.n_steps} < {t_in + tau}")
    starts = np.arange(n_windows)
    if shuffle:
        if rng is None:
            raise ValueError("shuffle requires an rng")
        starts = rng.permutation(starts)
    normalized = stats.normalize(frame.values)
    normalized = np.where(frame.valid, normalized, 0.0)
    for lo in range(0, n_windows, batch_size):
        batch = starts[lo : lo + batch_size]
        inputs = np.stack([normalized[s : s + t_in] for s in batch])
        input_valid = np.stack([frame.valid[s : s + t_in] for s in batch])
        targets = np.stack([frame.values[s + t_in : s + t_in + tau] for s in batch])
        target_valid = np.stack([frame.valid[s + t_in : s + t_in + tau] for s in batch])
        yield WindowBatch(inputs, input_valid, targets, target_valid, batch)
