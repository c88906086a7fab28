import csv
import io
import re
from datetime import date, timedelta
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import omniair.data as data_mod
from omniair.data import (
    CHANNELS,
    GEO_FEATURES,
    SeriesFrame,
    StationMeta,
    chrono_split,
    compute_norm_stats,
    load_series,
    load_stations,
    make_windows,
    window_count,
    write_series,
    write_stations,
)

SERIES_HEADER = "timestamp,station_id,pm25,pm10,o3,no2,so2,co\n"
STATION_HEADER = (
    "station_id,lat,lon,elevation,climate_avg_wind,climate_avg_wind_dir,"
    "terrain_tpi,terrain_roughness,distance_to_coast_km,grade\n"
)


def write(path, text):
    path.write_text(text)
    return path


class TestLoadStations:
    def test_header_only(self, tmp_path):
        p = write(tmp_path / "s.csv", STATION_HEADER)
        assert load_stations(p) == []

    def test_one_valid_row(self, tmp_path):
        p = write(tmp_path / "s.csv", STATION_HEADER + "a1,10.5,-3.25,100,5,180,1,2,30,4\n")
        (s,) = load_stations(p)
        assert s.id == "a1" and s.lat == 10.5 and s.lon == -3.25
        np.testing.assert_array_equal(s.geo_feats, [100, 5, 180, 1, 2, 30])
        assert s.grade == 4

    def test_out_of_range_lat_names_row(self, tmp_path):
        p = write(tmp_path / "s.csv", STATION_HEADER + "a1,91,0,0,0,0,0,0,0,0\n")
        with pytest.raises(ValueError, match="row 2"):
            load_stations(p)

    def test_duplicate_id(self, tmp_path):
        rows = "a1,0,0,0,0,0,0,0,0,0\na1,1,1,0,0,0,0,0,0,0\n"
        p = write(tmp_path / "s.csv", STATION_HEADER + rows)
        with pytest.raises(ValueError, match="row 3.*duplicate"):
            load_stations(p)

    def test_missing_column(self, tmp_path):
        p = write(tmp_path / "s.csv", "station_id,lat,lon\n")
        with pytest.raises(ValueError, match="missing station columns"):
            load_stations(p)

    def test_short_row_names_row(self, tmp_path):
        rows = "a1,0,0,0,0,0,0,0,0,0\na2,1,1,0,0\n"
        p = write(tmp_path / "s.csv", STATION_HEADER + rows)
        with pytest.raises(ValueError, match="row 3: 5 fields, the header has 10"):
            load_stations(p)

    def test_unparsable_grade_names_row(self, tmp_path):
        p = write(tmp_path / "s.csv", STATION_HEADER + "a1,0,0,0,0,0,0,0,0,x\n")
        with pytest.raises(ValueError, match="row 2: cannot parse grade from 'x'"):
            load_stations(p)

    def test_first_defect_in_file_order(self, tmp_path):
        # row 2's lon fails after row 3's lat would; the reader reports row 2
        rows = "a1,0,999,0,0,0,0,0,0,0\na2,nan,0,0,0,0,0,0,0,0\n"
        p = write(tmp_path / "s.csv", STATION_HEADER + rows)
        with pytest.raises(ValueError, match=r"row 2: lon 999.0 outside"):
            load_stations(p)

    def test_unknown_grade_allowed(self, tmp_path):
        p = write(tmp_path / "s.csv", STATION_HEADER + "a1,0,0,0,0,0,0,0,0,-1\n")
        (s,) = load_stations(p)
        assert s.grade == -1

    def test_roundtrip(self, tmp_path):
        stations = [
            StationMeta("x", 1.25, -2.5, np.array([1.0, 2, 3, 4, 5, 6]), 3),
            StationMeta("y", -10.0, 170.0, np.linspace(0, 1, 6), 0),
        ]
        p = tmp_path / "s.csv"
        write_stations(stations, p)
        loaded = load_stations(p)
        for a, b in zip(stations, loaded):
            assert a.id == b.id and a.lat == b.lat and a.lon == b.lon
            np.testing.assert_array_equal(a.geo_feats, b.geo_feats)
            assert a.grade == b.grade


class TestLoadSeries:
    def _stations(self):
        return [StationMeta("a", 0, 0, np.zeros(6), 0), StationMeta("b", 1, 1, np.zeros(6), 1)]

    def test_single_station_single_channel(self, tmp_path):
        text = "timestamp,station_id,pm25,pm10,o3,no2,so2,co\n"
        for i, v in enumerate((1.0, 2.0, 3.0)):
            text += f"2020-01-0{i + 1},a,{v},,,,,\n"
        p = write(tmp_path / "x.csv", text)
        frame = load_series(p, self._stations()[:1])
        assert frame.values.shape == (3, 1, 6)
        assert frame.valid[:, 0, 0].all()
        assert not frame.valid[:, 0, 1:].any()
        np.testing.assert_array_equal(frame.values[:, 0, 0], [1, 2, 3])

    def test_missing_middle_day_fully_invalid(self, tmp_path):
        text = (
            "timestamp,station_id,pm25,pm10,o3,no2,so2,co\n"
            "2020-01-01,a,1,1,1,1,1,1\n"
            "2020-01-03,a,3,3,3,3,3,3\n"
        )
        frame = load_series(write(tmp_path / "x.csv", text), self._stations()[:1])
        assert frame.n_steps == 3
        assert not frame.valid[1].any()

    def test_unknown_station(self, tmp_path):
        text = "timestamp,station_id,pm25,pm10,o3,no2,so2,co\n2020-01-01,zz,1,,,,,\n"
        with pytest.raises(ValueError, match="unknown station"):
            load_series(write(tmp_path / "x.csv", text), self._stations())

    def test_duplicate_observation(self, tmp_path):
        text = (
            "timestamp,station_id,pm25,pm10,o3,no2,so2,co\n"
            "2020-01-01,a,1,,,,,\n2020-01-01,a,2,,,,,\n"
        )
        with pytest.raises(ValueError, match="duplicate"):
            load_series(write(tmp_path / "x.csv", text), self._stations())

    def test_roundtrip_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        t, n = 7, 2
        values = rng.normal(10.0, 3.0, size=(t, n, 6))
        valid = rng.random((t, n, 6)) > 0.4
        values = np.where(valid, values, 0.0)
        ts = (np.datetime64("2021-03-01") + np.arange(t)).astype("datetime64[D]")
        frame = SeriesFrame(ts, values, valid, ("a", "b"))
        p = tmp_path / "x.csv"
        write_series(frame, p)
        loaded = load_series(p, self._stations())
        assert np.array_equal(loaded.valid, frame.valid)
        assert np.array_equal(loaded.values, frame.values)
        assert np.array_equal(loaded.timestamps, frame.timestamps)


def reference_load_series(path, stations):
    """The row-by-row reader the columnar ``load_series`` replaced: one
    ``DictReader`` row at a time, every cell through ``float``."""

    def parse_float(text, what, row_no):
        try:
            v = float(text)
        except ValueError:
            raise ValueError(f"row {row_no}: cannot parse {what} from {text!r}") from None
        if not np.isfinite(v):
            raise ValueError(f"row {row_no}: {what} must be finite")
        return v

    def date_of(text, row_no):
        try:
            if not re.fullmatch(r"[0-9]{4}-[0-9]{2}-[0-9]{2}", text.strip()):
                raise ValueError
            return date.fromisoformat(text.strip())
        except ValueError:
            raise ValueError(f"row {row_no}: bad ISO date {text!r}") from None

    id_to_col = {s.id: j for j, s in enumerate(stations)}
    rows = []
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        header = tuple(reader.fieldnames or ())
        missing = [c for c in ("timestamp", "station_id") + CHANNELS if c not in header]
        if missing:
            raise ValueError(f"{path}: missing series columns {missing}")
        for row_no, row in enumerate(reader, start=2):
            sid = row["station_id"].strip()
            if sid not in id_to_col:
                raise ValueError(f"row {row_no}: unknown station_id {sid!r}")
            ts = date_of(row["timestamp"], row_no)
            vals = []
            for c in CHANNELS:
                cell = row[c].strip()
                vals.append(None if cell == "" else parse_float(cell, c, row_no))
            rows.append((ts, id_to_col[sid], vals))
    if not rows:
        raise ValueError(f"{path}: no observation rows")
    start = min(r[0] for r in rows)
    n_steps = (max(r[0] for r in rows) - start).days + 1
    values = np.full((n_steps, len(stations), len(CHANNELS)), np.nan)
    valid = np.zeros(values.shape, dtype=bool)
    filled = np.zeros(values.shape[:2], dtype=bool)
    for ts, col, vals in rows:
        t = (ts - start).days
        if filled[t, col]:
            raise ValueError(f"duplicate observation for {stations[col].id!r} on {ts}")
        filled[t, col] = True
        for k, v in enumerate(vals):
            if v is not None:
                values[t, col, k] = v
                valid[t, col, k] = True
    values[~valid] = 0.0
    timestamps = np.array(
        [np.datetime64(start + timedelta(days=i)) for i in range(n_steps)], dtype="datetime64[D]"
    )
    return SeriesFrame(timestamps, values, valid, tuple(s.id for s in stations))


def outcome(reader, path, stations):
    """The frame's arrays as bytes, or the error text."""
    try:
        frame = reader(path, stations)
    except ValueError as exc:
        return str(exc)
    return (frame.timestamps.tobytes(), frame.values.tobytes(), frame.valid.tobytes(),
            frame.station_ids)


TWO_STATIONS = [StationMeta("a", 0, 0, np.zeros(6), 0), StationMeta("b", 1, 1, np.zeros(6), 1)]
GOOD_ROWS = ["2020-01-01,a,1,2,3,4,5,6", "2020-01-01,b,1.5,,,,,", "2020-01-02,a,,,7,,,-0.0"]


class TestSeriesDefects:
    """The columnar reader gives the row-by-row reader's error text,
    row number included, for each single defect."""

    @pytest.mark.parametrize("text", [
        pytest.param(SERIES_HEADER + "\n".join(GOOD_ROWS + ["2020-01-03,zz,1,,,,,"]), id="unknown-id"),
        pytest.param(SERIES_HEADER + "\n".join(GOOD_ROWS + [" 2020-13-01 ,b,1,,,,,"]), id="bad-date"),
        # date.fromisoformat reads both from Python 3.11 on; README promises YYYY-MM-DD
        pytest.param(SERIES_HEADER + "\n".join(GOOD_ROWS + ["20200105,b,1,,,,,"]), id="basic-date"),
        pytest.param(SERIES_HEADER + "\n".join(GOOD_ROWS + ["2020-W10-1,b,1,,,,,"]), id="week-date"),
        pytest.param(SERIES_HEADER + "\n".join(GOOD_ROWS + ["2020-01-03,b,,1x,,,,"]), id="unparsable"),
        pytest.param(SERIES_HEADER + "\n".join(GOOD_ROWS + ["2020-01-03,b,,,, nan ,,"]), id="nan"),
        pytest.param(SERIES_HEADER + "\n".join(GOOD_ROWS + ["2020-01-03,b,,,,,,-inf"]), id="inf"),
        pytest.param(SERIES_HEADER + "\n".join(GOOD_ROWS + ["2020-01-01,a,9,,,,,"]), id="duplicate"),
        pytest.param("timestamp,station_id,pm25,pm10,o3,no2,so2\n2020-01-01,a,1,,,,\n", id="missing-column"),
        pytest.param("", id="empty-file"),
        pytest.param(SERIES_HEADER, id="header-only"),
        pytest.param(SERIES_HEADER + "\n".join(["2020-01-01,a,1,,,,,", "2020-01-02,b,1,,,inf,,",
                                                "2020-01-03,zz,1,,,,,"]), id="earliest-row-wins"),
        pytest.param(SERIES_HEADER + "\n".join(["2020-01-01,a,1,,,,,", "bad,zz,x,,,,,"]), id="id-before-date"),
        pytest.param(SERIES_HEADER + "\n".join(["2020-01-01,a,1,,,,,", "2020-01-02,a,1,x,inf,,,"]),
                     id="channel-order"),
        pytest.param(SERIES_HEADER + "\n" + "\n".join(GOOD_ROWS + ["", "2020-01-03,b,,x,,,,"]),
                     id="blank-lines-not-counted"),
    ])
    @pytest.mark.parametrize("block_rows", [1, 4096])
    def test_same_error_as_row_reader(self, tmp_path, text, block_rows):
        p = write(tmp_path / "x.csv", text)
        expected = outcome(reference_load_series, p, TWO_STATIONS)
        assert isinstance(expected, str)
        with mock.patch.object(data_mod, "_BLOCK_ROWS", block_rows):
            assert outcome(load_series, p, TWO_STATIONS) == expected

    def test_valid_file_same_frame(self, tmp_path):
        p = write(tmp_path / "x.csv", SERIES_HEADER + "\n".join(GOOD_ROWS) + "\n")
        expected = outcome(reference_load_series, p, TWO_STATIONS)
        assert not isinstance(expected, str)
        assert outcome(load_series, p, TWO_STATIONS) == expected

    def test_short_row_names_row(self, tmp_path):
        p = write(tmp_path / "x.csv", SERIES_HEADER + "\n".join(GOOD_ROWS + ["2020-01-03,b,1"]))
        with pytest.raises(ValueError, match="row 5: 3 fields, the header has 8"):
            load_series(p, TWO_STATIONS)

    @given(st.lists(st.tuples(
        st.integers(0, len(GOOD_ROWS) - 1),
        st.integers(0, 7),
        st.sampled_from(["", " ", "zz", "a", "b", "2020-01-09", "2020-02-30", "x", "nan",
                         "inf", "-0.0", "1e308", "1e999", "1_0", " 4 "]),
    ), max_size=4), st.sampled_from([1, 2, 4096]))
    @settings(max_examples=150, deadline=None)
    def test_random_edits_match_row_reader(self, tmp_path_factory, edits, block_rows):
        rows = [r.split(",") for r in GOOD_ROWS]
        for row, col, cell in edits:
            rows[row][col] = cell
        p = tmp_path_factory.mktemp("edit") / "x.csv"
        p.write_text(SERIES_HEADER + "\n".join(",".join(r) for r in rows) + "\n")
        with mock.patch.object(data_mod, "_BLOCK_ROWS", block_rows):
            got = outcome(load_series, p, TWO_STATIONS)
        assert got == outcome(reference_load_series, p, TWO_STATIONS)


def reference_load_stations(path):
    """The row-by-row station reader the columnar ``load_stations`` replaced
    (with the row number now named for an unparsable grade)."""

    def parse_float(text, what, row_no):
        try:
            v = float(text)
        except ValueError:
            raise ValueError(f"row {row_no}: cannot parse {what} from {text!r}") from None
        if not np.isfinite(v):
            raise ValueError(f"row {row_no}: {what} must be finite")
        return v

    stations, seen = [], set()
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        for row_no, row in enumerate(reader, start=2):
            sid = row["station_id"].strip()
            if not sid:
                raise ValueError(f"row {row_no}: empty station_id")
            if sid in seen:
                raise ValueError(f"row {row_no}: duplicate station_id {sid!r}")
            seen.add(sid)
            lat = parse_float(row["lat"], "lat", row_no)
            lon = parse_float(row["lon"], "lon", row_no)
            if abs(lat) > 90:
                raise ValueError(f"row {row_no}: lat {lat} outside [-90, 90]")
            if abs(lon) > 180:
                raise ValueError(f"row {row_no}: lon {lon} outside [-180, 180]")
            feats = np.array([parse_float(row[c], c, row_no) for c in GEO_FEATURES])
            text = row["grade"].strip()
            try:
                grade = -1 if text in ("", "-1") else int(text)
            except ValueError:
                raise ValueError(f"row {row_no}: cannot parse grade from {text!r}") from None
            if grade != -1 and not 0 <= grade < 6:
                raise ValueError(f"row {row_no}: grade {grade} outside [0, 5]")
            stations.append(StationMeta(sid, lat, lon, feats, grade))
    return stations


def station_outcome(reader, path):
    try:
        stations = reader(path)
    except ValueError as exc:
        return str(exc)
    return [(s.id, s.lat, s.lon, s.geo_feats.tobytes(), s.geo_feats.shape, s.grade,
             type(s.lat), type(s.grade)) for s in stations]


GOOD_STATIONS = ["a,10.5,-3.25,100,5,180,1,2,30,4", " b ,-89.5,179.75,0,0,0,0,0,-0.0,-1",
                 "c,0,0,1e3,2,3,4,5,6,"]


class TestStationEdits:
    @given(st.lists(st.tuples(
        st.integers(0, len(GOOD_STATIONS) - 1),
        st.integers(0, 9),
        st.sampled_from(["", " ", "a", "c", "x", "nan", "-inf", "91", "-180.5", "1_0", " 4 ",
                         "6", "-1", "+2", "1e999"]),
    ), max_size=4), st.sampled_from([1, 2, 4096]))
    @settings(max_examples=150, deadline=None)
    def test_random_edits_match_row_reader(self, tmp_path_factory, edits, block_rows):
        rows = [r.split(",") for r in GOOD_STATIONS]
        for row, col, cell in edits:
            rows[row][col] = cell
        p = tmp_path_factory.mktemp("edit") / "s.csv"
        p.write_text(STATION_HEADER + "\n".join(",".join(r) for r in rows) + "\n")
        with mock.patch.object(data_mod, "_BLOCK_ROWS", block_rows):
            got = station_outcome(load_stations, p)
        assert got == station_outcome(reference_load_stations, p)


ID_TEXT = st.text(alphabet='ab ,"', min_size=1, max_size=5).map(str.strip).filter(bool)


@st.composite
def series_files(draw):
    """A frame with blanks and awkward ids, written and then rearranged:
    shuffled data rows and a permutation of the columns."""
    ids = draw(st.lists(ID_TEXT, min_size=1, max_size=4, unique=True))
    n_steps = draw(st.integers(1, 5))
    shape = (n_steps, len(ids), len(CHANNELS))
    flat = draw(st.lists(st.floats(allow_nan=False, allow_infinity=False),
                         min_size=shape[0] * shape[1] * shape[2],
                         max_size=shape[0] * shape[1] * shape[2]))
    valid = np.array(draw(st.lists(st.booleans(), min_size=len(flat), max_size=len(flat))),
                     dtype=bool).reshape(shape)
    valid[0, 0, 0] = valid[-1, 0, 0] = True  # the first and last day are observed
    values = np.where(valid, np.array(flat).reshape(shape), 0.0)
    timestamps = np.datetime64("2019-12-30") + np.arange(n_steps)
    frame = SeriesFrame(timestamps, values, valid, tuple(ids))
    permutation = draw(st.permutations(range(2 + len(CHANNELS))))
    seed = draw(st.integers(0, 2**32 - 1))
    block_rows = draw(st.sampled_from([1, 3, 4096]))
    return frame, permutation, seed, block_rows


def reference_write_series(frame, path):
    """The csv.writer version of ``write_series``: one row per station-day."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(("timestamp", "station_id") + CHANNELS)
        for t in range(frame.n_steps):
            for j, sid in enumerate(frame.station_ids):
                if frame.valid[t, j].any():
                    writer.writerow([str(frame.timestamps[t]), sid] + [
                        repr(float(frame.values[t, j, k])) if frame.valid[t, j, k] else ""
                        for k in range(len(CHANNELS))
                    ])


class TestSeriesRoundTrip:
    @given(series_files())
    @settings(max_examples=60, deadline=None)
    def test_write_then_load_is_bit_identical(self, tmp_path_factory, case):
        frame, permutation, seed, block_rows = case
        stations = [StationMeta(sid, 0.0, 0.0, np.zeros(6), 0) for sid in frame.station_ids]
        d = tmp_path_factory.mktemp("rt")
        p = d / "x.csv"
        write_series(frame, p)
        reference_write_series(frame, d / "ref.csv")
        assert p.read_bytes() == (d / "ref.csv").read_bytes()
        with open(p, newline="") as fh:
            header, *rows = list(csv.reader(fh))
        order = np.random.default_rng(seed).permutation(len(rows))
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow([header[i] for i in permutation])
        writer.writerows([rows[r][i] for i in permutation] for r in order)
        p.write_text(buf.getvalue(), newline="")
        with mock.patch.object(data_mod, "_BLOCK_ROWS", block_rows):
            loaded = load_series(p, stations)
        assert loaded.timestamps.tobytes() == frame.timestamps.tobytes()
        assert loaded.values.tobytes() == frame.values.tobytes()
        assert np.array_equal(loaded.valid, frame.valid)
        assert loaded.station_ids == frame.station_ids


def toy_frame(t, n=2, base=7.0):
    values = np.full((t, n, 6), base)
    valid = np.ones_like(values, dtype=bool)
    ts = (np.datetime64("2020-01-01") + np.arange(t)).astype("datetime64[D]")
    return SeriesFrame(ts, values, valid, tuple(f"s{i}" for i in range(n)))


class TestFrameInvariants:
    def test_uneven_timestamps_rejected(self):
        ts = np.array(["2020-01-01", "2020-01-02", "2020-01-05"], dtype="datetime64[D]")
        with pytest.raises(ValueError, match="evenly spaced"):
            SeriesFrame(ts, np.zeros((3, 1, 6)), np.ones((3, 1, 6), bool), ("a",))

    def test_nonfinite_valid_value_rejected(self):
        frame_args = dict(
            timestamps=(np.datetime64("2020-01-01") + np.arange(2)).astype("datetime64[D]"),
            station_ids=("a",),
        )
        values = np.zeros((2, 1, 6))
        values[0, 0, 0] = np.inf
        valid = np.ones((2, 1, 6), dtype=bool)
        with pytest.raises(ValueError, match="finite"):
            SeriesFrame(values=values, valid=valid, **frame_args)
        # the same non-finite cell is fine when masked out
        valid[0, 0, 0] = False
        values2 = np.where(valid, values, 0.0)
        SeriesFrame(values=values2, valid=valid, **frame_args)


class TestChronoSplit:
    def test_exact_division(self):
        tr, va, te = chrono_split(toy_frame(100))
        assert (tr.n_steps, va.n_steps, te.n_steps) == (60, 20, 20)

    def test_remainder_to_test(self):
        tr, va, te = chrono_split(toy_frame(101))
        assert (tr.n_steps, va.n_steps, te.n_steps) == (60, 20, 21)

    def test_too_short(self):
        with pytest.raises(ValueError):
            chrono_split(toy_frame(10), min_len=44)

    def test_contiguous_partition(self):
        frame = toy_frame(50)
        frame.values[:, 0, 0] = np.arange(50)
        tr, va, te = chrono_split(frame)
        joined = np.concatenate([tr.values[:, 0, 0], va.values[:, 0, 0], te.values[:, 0, 0]])
        np.testing.assert_array_equal(joined, np.arange(50))


class TestWindows:
    def _stats(self, frame, stations=None):
        stations = stations or [StationMeta(f"s{i}", 0, i, np.zeros(6), 0) for i in range(frame.values.shape[1])]
        return compute_norm_stats(frame, stations)

    def test_window_count(self):
        assert window_count(60, 30, 14) == 17
        frame = toy_frame(60)
        stats = self._stats(frame)
        batches = list(make_windows(frame, 30, 14, stats, batch_size=5))
        assert sum(len(b.starts) for b in batches) == 17

    def test_constant_channel_normalizes_to_zero(self):
        frame = toy_frame(20, base=7.0)
        stats = self._stats(frame)
        batch = next(make_windows(frame, 5, 2, stats, batch_size=4))
        np.testing.assert_allclose(batch.inputs, 0.0, atol=1e-9)

    def test_fully_missing_station(self):
        frame = toy_frame(20)
        frame.valid[:, 1, :] = False
        frame.values[:, 1, :] = 0.0
        stats = self._stats(frame)
        batch = next(make_windows(frame, 5, 2, stats, batch_size=4))
        np.testing.assert_array_equal(batch.inputs[:, :, 1, :], 0.0)
        assert not batch.target_valid[:, :, 1, :].any()

    def test_imputation_keeps_masks(self):
        frame = toy_frame(15)
        frame.valid[3, 0, 2] = False
        stats = self._stats(frame)
        batch = next(make_windows(frame, 10, 2, stats, batch_size=1))
        assert batch.inputs[0, 3, 0, 2] == 0.0
        assert not batch.input_valid[0, 3, 0, 2]

    def test_targets_stay_raw(self):
        frame = toy_frame(20, base=42.0)
        stats = self._stats(frame)
        batch = next(make_windows(frame, 5, 3, stats, batch_size=2))
        np.testing.assert_array_equal(batch.targets, 42.0)

    def test_too_short(self):
        frame = toy_frame(10)
        stats = self._stats(frame)
        with pytest.raises(ValueError):
            next(make_windows(frame, 8, 4, stats, batch_size=1))

    def test_shuffle_is_permutation(self):
        frame = toy_frame(30)
        stats = self._stats(frame)
        rng = np.random.default_rng(0)
        batches = list(make_windows(frame, 5, 2, stats, 7, shuffle=True, rng=rng))
        starts = np.concatenate([b.starts for b in batches])
        assert sorted(starts) == list(range(window_count(30, 5, 2)))

    def test_shuffle_requires_rng(self):
        frame = toy_frame(30)
        with pytest.raises(ValueError, match="shuffle requires an rng"):
            next(make_windows(frame, 5, 2, self._stats(frame), 7, shuffle=True))


class TestNormStats:
    def test_train_only_canary(self):
        # poisoning the other splits must not move training statistics
        frame = toy_frame(100)
        rng = np.random.default_rng(1)
        frame.values[:] = rng.normal(20.0, 5.0, size=frame.values.shape)
        stations = [StationMeta(f"s{i}", 0, i, np.zeros(6), 0) for i in range(2)]
        train, val, test = chrono_split(frame)
        stats_before = compute_norm_stats(train, stations)
        val.values[:] = 1e9
        test.values[:] = -1e9
        stats_after = compute_norm_stats(train, stations)
        np.testing.assert_array_equal(stats_before.channel_mean, stats_after.channel_mean)
        np.testing.assert_array_equal(stats_before.channel_std, stats_after.channel_std)

    def test_std_clamped(self):
        frame = toy_frame(10, base=3.0)
        stations = [StationMeta(f"s{i}", 0, i, np.zeros(6), 0) for i in range(2)]
        stats = compute_norm_stats(frame, stations)
        assert np.all(stats.channel_std >= 1e-6)

    def test_global_shapes(self):
        # one mean and std per channel, pooled over steps and stations
        frame = toy_frame(10)
        stations = [StationMeta(f"s{i}", 0, i, np.zeros(6), 0) for i in range(2)]
        stats = compute_norm_stats(frame, stations)
        assert stats.channel_mean.shape == stats.channel_std.shape == (6,)
        roundtrip = stats.denormalize(stats.normalize(frame.values))
        np.testing.assert_allclose(roundtrip, frame.values, atol=1e-9)

    def test_window_targets_never_cross_split(self):
        frame = toy_frame(100)
        frame.values[:, :, 0] = np.arange(100)[:, None]
        stations = [StationMeta(f"s{i}", 0, i, np.zeros(6), 0) for i in range(2)]
        train, val, test = chrono_split(frame)
        stats = compute_norm_stats(train, stations)
        for batch in make_windows(train, 10, 5, stats, 8):
            assert batch.targets[:, :, 0, 0].max() <= 59
