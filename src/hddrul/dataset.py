"""Drive-day ingestion, RUL labeling, capping, and synthetic corpora.

Input is the Backblaze daily-snapshot layout: one CSV row per drive per day
with ``date``, ``serial_number``, ``model``, ``failure`` and any number of
``smart_<n>_raw`` / ``smart_<n>_normalized`` columns. Normalized columns are
dropped (we standardize ourselves); raw columns become a sparse attribute map.
Ingest reads each file once with :func:`scan_snapshot_file`, newest first: it
checks every row's identity cells, keeps the failure rows, and parses in full
only the rows of drives whose failure window is already known. A drive's own
failure-day file is read before its window is, so :func:`read_snapshot_csv`
re-reads such a file for just those drives. Both split a line only as far as
they need, parse each distinct (``date``, ``failure``) cell pair once per
file, and send a line holding a quote through ``csv.reader``. A drive that
fails on several days counts as failed on the earliest
(:func:`scan_failures`).

A failed drive's history is turned into a :class:`LabeledSeries`: the records
covering the lookback window before failure, each labeled with its remaining
useful life in days (0 on the failure day, 1 the day before, ...). Labels are
then capped so that "healthy" days collapse into one top class.

The numeric pipeline consumes :class:`DriveFrame` objects (one dense matrix
per drive); frames serialize to a long-format cohort CSV
``serial,date,rul,smart_<n>,...`` with one row per drive-day. The scoring
CSV has the same header and holds the uncapped train split that attribute
scoring reads, with an empty cell where a drive did not report a value.
"""
from __future__ import annotations

import csv
import itertools
import math
import warnings
from contextlib import contextmanager
from dataclasses import dataclass
from datetime import date as Date
from datetime import timedelta
from functools import lru_cache
from pathlib import Path
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .errors import DataError, InconsistentCorpusError, SnapshotParseError

SYNTHETIC_MODEL = "SYNTHETIC"
DEFAULT_CAP = 30

# Attribute ids used by the synthetic generator: the usual predictor set
# first, then other commonly populated SMART ids.
_SYNTH_ID_POOL = (7, 9, 240, 241, 242, 5, 187, 188, 193, 194, 197, 198)


@dataclass(frozen=True)
class DriveRecord:
    """One drive-day: identity, raw SMART attribute map, failure flag."""

    serial: str
    date: Date
    model: str
    smart: dict[int, float | None]
    failed: bool = False


@dataclass(frozen=True)
class FailureEvent:
    serial: str
    fail_date: Date


@dataclass
class LabeledSeries:
    """A drive's chronological pre-failure records with per-day RUL labels."""

    serial: str
    records: list[DriveRecord]
    rul: list[int]

    def __len__(self) -> int:
        return len(self.records)


@dataclass
class SynthConfig:
    """Settings for the seeded synthetic corpus generator."""

    n_drives: int
    lookback_days: int
    n_features: int = 5
    jump_day: int = 15
    noise_scale: float = 0.05
    seed: int = 0

    def validate(self) -> None:
        if self.n_drives < 1 or self.lookback_days < 1 or self.n_features < 1:
            raise ValueError("n_drives, lookback_days and n_features must be >= 1")
        if not 0 <= self.jump_day < self.lookback_days:
            raise ValueError("jump_day must satisfy 0 <= jump_day < lookback_days")
        if not self.noise_scale >= 0.0:
            raise ValueError("noise_scale must be >= 0")
        if self.n_features > len(_SYNTH_ID_POOL):
            raise ValueError(f"at most {len(_SYNTH_ID_POOL)} synthetic features supported")


@dataclass
class DriveFrame:
    """Dense per-drive matrix: one row per day, one column per attribute."""

    serial: str
    dates: list[Date]
    feature_ids: list[int]
    values: np.ndarray  # (n_days, n_features) float64
    rul: np.ndarray  # (n_days,) int64

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        self.rul = np.asarray(self.rul, dtype=np.int64)

    def select(self, feature_ids: Sequence[int]) -> "DriveFrame":
        """Frame restricted to the given attribute columns (in that order)."""
        cols = []
        for fid in feature_ids:
            if fid not in self.feature_ids:
                raise KeyError(f"attribute {fid} not present in frame {self.serial}")
            cols.append(self.feature_ids.index(fid))
        return DriveFrame(
            serial=self.serial,
            dates=list(self.dates),
            feature_ids=list(feature_ids),
            values=self.values[:, cols].copy(),
            rul=self.rul.copy(),
        )


# ---------------------------------------------------------------------------
# Snapshot parsing


class _Layout(NamedTuple):
    """Column positions of a snapshot header."""

    date: int
    serial: int
    model: int
    failure: int
    width: int  # a row needs at least this many cells to hold the four above
    smart: tuple[tuple[int, int], ...]  # (attribute id, column) of each smart_<n>_raw


@lru_cache(maxsize=16)
def _header_layout(header: tuple[str, ...]) -> _Layout:
    names = {name: i for i, name in enumerate(header)}
    for required in ("date", "serial_number", "model", "failure"):
        if required not in names:
            raise DataError(f"snapshot header missing required column '{required}'")
    smart_cols = []
    for i, name in enumerate(header):
        if name.startswith("smart_") and name.endswith("_raw"):
            mid = name[len("smart_"):-len("_raw")]
            if mid.isdigit():
                smart_cols.append((int(mid), i))
    smart_cols.sort()
    identity = (names["date"], names["serial_number"], names["model"], names["failure"])
    return _Layout(*identity, max(identity) + 1, tuple(smart_cols))


@contextmanager
def _text_file(path: str | Path):
    """``path`` opened for csv; a path that cannot be opened, bytes that are not
    UTF-8 or a record csv cannot read (a cell over ``csv.field_size_limit()``)
    raise DataError naming it."""
    try:
        with open(path, "r", newline="", encoding="utf-8") as fh:
            yield fh
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: not UTF-8 text ({exc})") from exc
    except OSError as exc:
        raise DataError(f"{path}: cannot read ({exc})") from exc
    except csv.Error as exc:
        raise DataError(f"{path}: {exc}") from exc


@contextmanager
def _csv_reader(path: str | Path):
    """A csv.reader over ``path``; errors are DataErrors naming it (see
    :func:`_text_file`), a csv error also with its line."""
    with _text_file(path) as fh:
        reader = csv.reader(fh)
        try:
            yield reader
        except csv.Error as exc:
            raise DataError(f"{path}:{reader.line_num}: {exc}") from exc


def _parse_float(cell: str) -> float | None:
    """A cell's value; empty, unparseable and non-finite (nan, inf) cells are missing."""
    cell = cell.strip()
    if not cell:
        return None
    try:
        value = float(cell)
    except ValueError:
        return None
    return value if math.isfinite(value) else None


def _row_identity(layout: _Layout, row: Sequence[str], row_index: int,
                  path: str | Path | None = None) -> tuple[Date, bool]:
    """The checks every snapshot row must pass; returns its (date, failure flag).

    A row too short to hold the identity cells, a malformed date or a
    non-numeric failure flag raises :class:`SnapshotParseError`. The snapshot
    reads call it once per distinct (date cell, failure cell) pair of a file
    and keep its result in a dict under that pair. They look a row too short
    for the pair up under None, which is never stored, so such a row always
    comes here and raises.
    """
    if len(row) < layout.width:
        raise SnapshotParseError(row_index, f"truncated row ({len(row)} fields)", path)
    try:
        day = Date.fromisoformat(row[layout.date].strip())
    except ValueError as exc:
        raise SnapshotParseError(row_index, f"malformed date {row[layout.date]!r}", path) from exc
    fail_cell = row[layout.failure].strip()
    try:
        failed = int(fail_cell) == 1
    except ValueError as exc:
        raise SnapshotParseError(row_index, f"non-numeric failure flag {fail_cell!r}", path) from exc
    return day, failed


def _snapshot_record(layout: _Layout, row: Sequence[str], day: Date, failed: bool) -> DriveRecord:
    """The record of a row whose identity cells passed :func:`_row_identity`."""
    n = len(row)
    smart = {}
    for attr_id, col in layout.smart:
        cell = row[col] if col < n else ""
        smart[attr_id] = _parse_float(cell) if cell else None
    return DriveRecord(
        serial=row[layout.serial].strip(),
        date=day,
        model=row[layout.model].strip(),
        smart=smart,
        failed=failed,
    )


def parse_snapshot_row(header: Sequence[str], row: Sequence[str], row_index: int = 0) -> DriveRecord:
    """Parse one snapshot CSV row into a :class:`DriveRecord`.

    ``smart_<n>_raw`` columns populate the attribute map (empty, unparseable
    or non-finite cells become missing); ``smart_<n>_normalized`` columns are
    ignored. A malformed date or failure flag raises
    :class:`SnapshotParseError` carrying ``row_index``.
    """
    layout = _header_layout(tuple(header))
    return _snapshot_record(layout, row, *_row_identity(layout, row, row_index))


def _snapshot_layout(path: str | Path, fh) -> _Layout | None:
    """Read the header record of an open snapshot file; its layout, or None for
    an empty file."""
    header = next(csv.reader(fh), None)
    if header is None:
        return None
    try:
        return _header_layout(tuple(header))
    except DataError as exc:
        raise DataError(f"{path}: {exc}") from None


def _snapshot_rows(path: str | Path, fh, maxsplit: int):
    """Yield ``(row index, cells, line)`` for each non-blank record left in ``fh``.

    Row indices count records as ``enumerate(csv.reader(fh), start=1)`` does,
    blank lines included. An unquoted line is split at its first ``maxsplit``
    commas only, so its last cell holds the rest of the line, and
    ``line.split(",")`` gives all its cells; unquoted cells have no size
    limit. A line holding a quote is parsed by csv, with any following lines
    a quoted cell spans, and comes back with all its cells and ``line`` None;
    a csv error there is a :class:`SnapshotParseError`.
    """
    for row_index, line in enumerate(fh, start=1):
        if '"' in line:
            try:
                row = next(csv.reader(itertools.chain([line], fh)))
            except csv.Error as exc:
                raise SnapshotParseError(row_index, str(exc), path) from exc
            yield row_index, row, None
            continue
        line = line.rstrip("\r\n")
        if line:
            yield row_index, line.split(",", maxsplit), line


class SnapshotScan(NamedTuple):
    """What one read of a snapshot file gives ingest (see :func:`scan_snapshot_file`)."""

    failures: list[DriveRecord]  # the failure rows, without attributes
    days: tuple[Date, Date] | None  # first and last day of its rows; None without rows
    kept: list[DriveRecord]  # the rows inside ``windows``, parsed in full


def scan_snapshot_file(path: str | Path, windows: dict[str, tuple[Date, Date]]) -> SnapshotScan:
    """Read one snapshot file: check every row, keep its failure rows and the rows in ``windows``.

    Each row's identity cells go through the same checks as in
    :func:`parse_snapshot_row`, and an error names the file and the row.
    The failure rows come back without attributes (an empty ``smart`` map).
    ``windows`` maps a serial to its first and last wanted day; a row of
    such a serial inside them is parsed as :func:`read_snapshot_csv` does,
    and every other row is split only up to its identity cells.
    """
    failures: list[DriveRecord] = []
    kept: list[DriveRecord] = []
    with _text_file(path) as fh:
        layout = _snapshot_layout(path, fh)
        if layout is None:
            return SnapshotScan(failures, None, kept)
        width, serial_col = layout.width, layout.serial
        seen: dict[tuple[str, str] | None, tuple[Date, bool]] = {}  # see _row_identity
        for row_index, row, line in _snapshot_rows(path, fh, width):
            key = (row[layout.date], row[layout.failure]) if len(row) >= width else None
            identity = seen.get(key)
            if identity is None:
                identity = seen[key] = _row_identity(layout, row, row_index, path)
            day, failed = identity
            if failed:
                failures.append(DriveRecord(
                    serial=row[serial_col].strip(),
                    date=day,
                    model=row[layout.model].strip(),
                    smart={},
                    failed=True,
                ))
            if windows:
                window = windows.get(row[serial_col].strip())
                if window is not None and window[0] <= day <= window[1]:
                    full = row if line is None else line.split(",")
                    kept.append(_snapshot_record(layout, full, day, failed))
    days = [day for day, _ in seen.values()]
    return SnapshotScan(failures, (min(days), max(days)) if days else None, kept)


def read_failure_rows(path: str | Path) -> list[DriveRecord]:
    """The failure rows of one snapshot file, every row checked (see :func:`scan_snapshot_file`)."""
    return scan_snapshot_file(path, {}).failures


def read_snapshot_csv(path: str | Path, windows: dict[str, tuple[Date, Date]]) -> list[DriveRecord]:
    """Parse the rows of one snapshot file that fall in ``windows``.

    ``windows`` maps a serial to its first and last wanted day. A row is
    split into cells only up to its serial and skipped when the serial is
    not in ``windows``, so memory scales with the wanted drives, not with
    the file; only the rows of those drives have their identity cells
    checked.
    """
    records = []
    with _text_file(path) as fh:
        layout = _snapshot_layout(path, fh)
        if layout is None:
            return records
        seen: dict[tuple[str, str] | None, tuple[Date, bool]] = {}  # see _row_identity
        for row_index, row, line in _snapshot_rows(path, fh, layout.serial + 1):
            window = windows.get(row[layout.serial].strip()) if len(row) > layout.serial else None
            if window is None:
                continue
            if line is not None:
                row = line.split(",")
            key = (row[layout.date], row[layout.failure]) if len(row) >= layout.width else None
            identity = seen.get(key)
            if identity is None:
                identity = seen[key] = _row_identity(layout, row, row_index, path)
            day, failed = identity
            if window[0] <= day <= window[1]:
                records.append(_snapshot_record(layout, row, day, failed))
    return records


# ---------------------------------------------------------------------------
# Failure scanning and labeling


def scan_failures(corpus: Iterable[DriveRecord], model_filter: str) -> list[FailureEvent]:
    """Failure events for the given drive model, sorted by (fail_date, serial).

    A drive has one event, on its earliest failure day: a drive that reports
    ``failure`` 1 again later counts as failed from the first time on.
    """
    first: dict[str, Date] = {}
    for rec in corpus:
        if rec.failed and rec.model == model_filter and rec.date < first.get(rec.serial, Date.max):
            first[rec.serial] = rec.date
    events = [FailureEvent(serial=serial, fail_date=day) for serial, day in first.items()]
    events.sort(key=lambda e: (e.fail_date, e.serial))
    return events


def build_labeled_series(
    corpus: Iterable[DriveRecord], event: FailureEvent, lookback_days: int
) -> LabeledSeries:
    """Gather up to ``lookback_days + 1`` records ending on the failure day.

    RUL is the calendar distance to the failure date (0 on the failure day).
    Days absent from the log simply shrink the series; nothing is
    interpolated.
    """
    if lookback_days < 1:
        raise ValueError("lookback_days must be >= 1")
    start = event.fail_date - timedelta(days=lookback_days)
    window = [
        rec
        for rec in corpus
        if rec.serial == event.serial and start <= rec.date <= event.fail_date
    ]
    window.sort(key=lambda r: r.date)
    for a, b in zip(window, window[1:]):
        if a.date == b.date:
            raise InconsistentCorpusError(
                f"drive {event.serial} has duplicate records on {a.date}"
            )
    if not window or window[-1].date != event.fail_date:
        raise InconsistentCorpusError(
            f"drive {event.serial} has no record on its failure day {event.fail_date}"
        )
    rul = [(event.fail_date - rec.date).days for rec in window]
    return LabeledSeries(serial=event.serial, records=window, rul=rul)


def cap_rul(series: LabeledSeries, cap: int = DEFAULT_CAP) -> LabeledSeries:
    """Clamp labels above ``cap`` down to ``cap``; records are untouched."""
    if cap < 1:
        raise ValueError("cap must be >= 1")
    return LabeledSeries(
        serial=series.serial,
        records=list(series.records),
        rul=[min(r, cap) for r in series.rul],
    )


# ---------------------------------------------------------------------------
# Synthetic corpora


def synthetic_attribute_ids(n_features: int) -> list[int]:
    return list(_SYNTH_ID_POOL[:n_features])


def jump_affected_ids(n_features: int) -> list[int]:
    """Attributes that receive the pre-failure step/ramp (every other one)."""
    return list(_SYNTH_ID_POOL[:n_features][0::2])


def generate_synthetic(config: SynthConfig, serial_prefix: str = "SYN") -> list[LabeledSeries]:
    """Seeded corpus of failed drives with plausible degradation shapes.

    Two kinds of attributes, mirroring their real-world counterparts:

    * Attributes in :func:`jump_affected_ids` behave like error rates: a
      slowly drifting per-drive baseline that explodes into a step-plus-ramp
      once the label drops to ``jump_day`` or below.
    * The remaining attributes behave like lifetime counters (power-on
      hours, cumulative LBAs): a clean linear climb whose level is dominated
      by the drive's age at failure, which varies a lot between drives. Raw
      counter values therefore say little about time-to-failure, while each
      drive's own trend is informative once standardized per device.

    All curves are smooth and monotone before noise; fixed seed =>
    bit-identical output.
    """
    config.validate()
    rng = np.random.default_rng(config.seed)
    ids = synthetic_attribute_ids(config.n_features)
    jumping = set(jump_affected_ids(config.n_features))
    magnitudes = [10.0 ** (3 + (j % 3)) for j in range(config.n_features)]
    base_date = Date(2020, 1, 1)
    n_days = config.lookback_days + 1

    out = []
    for d in range(config.n_drives):
        serial = f"{serial_prefix}{d:05d}"
        fail_date = base_date + timedelta(days=config.lookback_days + d)
        t = np.arange(n_days, dtype=np.float64)
        rul = config.lookback_days - t.astype(np.int64)
        columns = np.empty((n_days, config.n_features))
        for j, fid in enumerate(ids):
            mag = magnitudes[j]
            noise = rng.normal(0.0, config.noise_scale * mag, size=n_days)
            if fid in jumping:
                # error-rate shape: near-flat baseline (drift well below the
                # noise floor), then a step that ramps to twice its height
                intercept = mag * rng.uniform(0.9, 1.1)
                slope = mag * rng.uniform(0.0001, 0.0003)
                jump_amp = mag * rng.uniform(1.9, 2.1)
                vals = intercept - slope * rul + noise
                late = rul <= config.jump_day
                ramp = (config.jump_day - rul[late]) / max(config.jump_day, 1)
                vals[late] += jump_amp * (1.0 + ramp)
            else:
                # lifetime-counter shape: level set by age at failure, which
                # varies far more across drives than within any window
                intercept = mag * rng.uniform(15.0, 75.0)
                slope = mag * rng.uniform(0.008, 0.012)
                vals = intercept - slope * rul + noise
            columns[:, j] = np.maximum(vals, 0.0)
        records = []
        for k in range(n_days):
            day = fail_date - timedelta(days=int(rul[k]))
            smart = {fid: float(columns[k, j]) for j, fid in enumerate(ids)}
            records.append(
                DriveRecord(
                    serial=serial,
                    date=day,
                    model=SYNTHETIC_MODEL,
                    smart=smart,
                    failed=(k == n_days - 1),
                )
            )
        out.append(LabeledSeries(serial=serial, records=records, rul=[int(r) for r in rul]))
    return out


# ---------------------------------------------------------------------------
# Materialization (sparse records -> dense per-drive frames)


def _smart_matrix(records: Sequence[DriveRecord], feature_ids: Sequence[int]) -> np.ndarray:
    """(days, attributes) float64 values of ``records``, NaN where a value is unreported."""
    return np.array([[rec.smart.get(fid) for fid in feature_ids] for rec in records],
                    dtype=np.float64).reshape(len(records), len(feature_ids))


def materialize_series(series: LabeledSeries, feature_ids: Sequence[int]) -> DriveFrame | None:
    """Dense frame for one drive, or None when an attribute is never reported.

    Gaps inside an attribute's history are forward-filled from the previous
    day; a gap at the start takes the first observed value. A drive missing
    one of ``feature_ids`` on every day cannot be filled and is excluded
    (with a warning).
    """
    n = len(series.records)
    raw = _smart_matrix(series.records, feature_ids)
    reported = ~np.isnan(raw)
    missing = np.flatnonzero(~reported.any(axis=0))
    if missing.size:
        warnings.warn(f"drive {series.serial}: attribute {feature_ids[missing[0]]} "
                      "missing on every day; drive excluded")
        return None
    # each day takes the value of the last reported day up to it, and a day
    # before the first report the value of the next reported day
    days = np.arange(n)[:, None]
    last = np.maximum.accumulate(np.where(reported, days, -1), axis=0)
    following = np.minimum.accumulate(np.where(reported, days, n)[::-1], axis=0)[::-1]
    return DriveFrame(
        serial=series.serial,
        dates=[rec.date for rec in series.records],
        feature_ids=list(feature_ids),
        values=np.take_along_axis(raw, np.where(last < 0, following, last), axis=0),
        rul=np.asarray(series.rul, dtype=np.int64),
    )


def materialize_cohort(
    series_list: Sequence[LabeledSeries], feature_ids: Sequence[int]
) -> list[DriveFrame]:
    frames = []
    for series in series_list:
        frame = materialize_series(series, feature_ids)
        if frame is not None:
            frames.append(frame)
    return frames


def attributes_on_every_drive(series_list: Sequence[LabeledSeries]) -> list[int]:
    """Attribute ids reported at least once by every drive in the cohort."""
    common: set[int] | None = None
    for series in series_list:
        present = {
            fid
            for rec in series.records
            for fid, v in rec.smart.items()
            if v is not None
        }
        common = present if common is None else common & present
    return sorted(common or ())


# ---------------------------------------------------------------------------
# Cohort CSV (long format: one row per drive-day)


def write_cohort_csv(path: str | Path, frames: Sequence[DriveFrame]) -> None:
    """Write frames as ``serial,date,rul,smart_<n>,...`` with LF endings.

    Values are printed with ``repr`` so re-parsing reproduces the frames
    bit-for-bit. Drives are ordered by serial, days chronologically.
    """
    frames = sorted(frames, key=lambda f: f.serial)
    feature_ids = frames[0].feature_ids if frames else []
    for frame in frames:
        if frame.feature_ids != feature_ids:
            raise DataError("all frames in a cohort must share the same feature columns")
    with open(path, "w", newline="\n", encoding="utf-8") as fh:
        header = ["serial", "date", "rul"] + [f"smart_{fid}" for fid in feature_ids]
        fh.write(",".join(header) + "\n")
        for frame in frames:
            for day, rul, values in zip(frame.dates, frame.rul.tolist(), frame.values.tolist()):
                cells = [frame.serial, day.isoformat(), str(rul)]
                cells += map(repr, values)
                fh.write(",".join(cells) + "\n")


def _feature_columns(path, names: Sequence[str]) -> list[int]:
    feature_ids = []
    for name in names:
        if not name.startswith("smart_") or not name[len("smart_"):].isdigit():
            raise DataError(f"{path}: unexpected column {name!r}")
        feature_ids.append(int(name[len("smart_"):]))
    return feature_ids


def _data_rows(path, reader, width: int) -> list[list[str]]:
    """The non-blank rows left in ``reader``; one of another width is a DataError."""
    rows = []
    for row in reader:
        if not row:
            continue
        if len(row) != width:
            raise DataError(f"{path}:{reader.line_num}: {len(row)} fields, expected {width}")
        rows.append(row)
    return rows


def _frame_from_rows(path, rows, feature_ids: list[int], has_rul: bool) -> DriveFrame:
    """One drive's frame; a bad date, dates that do not strictly increase, a bad
    number or a non-finite value is a DataError naming the file and the drive."""
    first_feature = 3 if has_rul else 2
    try:
        frame = DriveFrame(
            serial=rows[0][0],
            dates=[Date.fromisoformat(r[1]) for r in rows],
            feature_ids=list(feature_ids),
            values=np.array([[float(c) for c in r[first_feature:]] for r in rows]),
            rul=np.array([int(r[2]) if has_rul else 0 for r in rows], dtype=np.int64),
        )
    except ValueError as exc:
        raise DataError(f"{path}: drive {rows[0][0]}: {exc}") from exc
    for before, day in zip(frame.dates, frame.dates[1:]):
        if day <= before:
            raise DataError(f"{path}: drive {frame.serial}: {day} follows {before}; "
                            "dates must strictly increase")
    finite = np.isfinite(frame.values)
    if not finite.all():
        day, col = np.argwhere(~finite)[0]
        raise DataError(
            f"{path}: drive {frame.serial}: smart_{feature_ids[col]} is "
            f"{float(frame.values[day, col])} on {frame.dates[day]}, not a finite number"
        )
    return frame


def read_history_csv(path: str | Path) -> DriveFrame:
    """Read one drive's history: ``serial,date[,rul],smart_<n>,...``.

    The ``rul`` column is optional (zeros when absent) so the reader accepts
    deployment-time histories of drives that have not failed.
    """
    with _csv_reader(path) as reader:
        try:
            header = next(reader)
        except StopIteration:
            raise DataError(f"{path}: empty history file")
        if header[:2] != ["serial", "date"]:
            raise DataError(f"{path}: history must start with serial,date columns")
        has_rul = len(header) > 2 and header[2] == "rul"
        feature_ids = _feature_columns(path, header[3 if has_rul else 2 :])
        rows = _data_rows(path, reader, len(header))
    if not rows:
        raise DataError(f"{path}: history has no rows")
    serials = {row[0] for row in rows}
    if len(serials) > 1:
        raise DataError(f"{path}: history mixes drives {sorted(serials)}")
    return _frame_from_rows(path, rows, feature_ids, has_rul)


def read_cohort_csv(path: str | Path) -> list[DriveFrame]:
    """Parse a cohort CSV back into per-drive frames (inverse of write).

    A row of the wrong width, a bad date or a bad number raises DataError
    naming the file.
    """
    with _csv_reader(path) as reader:
        try:
            header = next(reader)
        except StopIteration:
            return []
        if header[:3] != ["serial", "date", "rul"]:
            raise DataError(f"{path}: not a cohort CSV: unexpected header {header[:3]}")
        feature_ids = _feature_columns(path, header[3:])
        rows = _data_rows(path, reader, len(header))
    by_serial: dict[str, list] = {}
    for row in rows:
        by_serial.setdefault(row[0], []).append(row)
    return [_frame_from_rows(path, group, feature_ids, True) for group in by_serial.values()]


# ---------------------------------------------------------------------------
# Scoring CSV (the uncapped train split that attribute scoring reads)


def write_scoring_csv(path: str | Path, series_list: Sequence[LabeledSeries]) -> None:
    """Write labeled series as ``serial,date,rul,smart_<n>,...`` with LF endings.

    There is a column for every attribute some drive reports at least once,
    and an empty cell is a value the drive did not report. Drives keep their
    order, which fixes the bits of the scores computed over them.
    """
    feature_ids = sorted({fid for s in series_list for rec in s.records
                          for fid, v in rec.smart.items() if v is not None})
    with open(path, "w", newline="\n", encoding="utf-8") as fh:
        header = ["serial", "date", "rul"] + [f"smart_{fid}" for fid in feature_ids]
        fh.write(",".join(header) + "\n")
        for series in series_list:
            values = _smart_matrix(series.records, feature_ids).tolist()
            for rec, rul, row in zip(series.records, series.rul, values):
                cells = [series.serial, rec.date.isoformat(), str(rul)]
                cells += ["" if math.isnan(v) else repr(v) for v in row]
                fh.write(",".join(cells) + "\n")


def _series_from_rows(path, rows, feature_ids: list[int]) -> LabeledSeries:
    """One drive's series; a bad date, label or number, or a non-finite value,
    is a DataError naming the file and the drive."""
    serial = rows[0][0]
    records = []
    try:
        for row in rows:
            smart = {fid: float(c) if c else None for fid, c in zip(feature_ids, row[3:])}
            records.append(DriveRecord(serial, Date.fromisoformat(row[1]), "", smart))
        rul = [int(row[2]) for row in rows]
    except ValueError as exc:
        raise DataError(f"{path}: drive {serial}: {exc}") from exc
    for rec in records:
        for fid, v in rec.smart.items():
            if v is not None and not math.isfinite(v):
                raise DataError(f"{path}: drive {serial}: smart_{fid} is {v} on {rec.date}, "
                                "not a finite number")
    return LabeledSeries(serial=serial, records=records, rul=rul)


def read_scoring_csv(path: str | Path) -> tuple[list[int], list[LabeledSeries]]:
    """The attribute ids and the drives of a scoring CSV (inverse of write).

    An empty cell is an unreported value (``None``); records carry no drive
    model or failure flag. A file with fewer than two drive-days, a row of the
    wrong width, a bad date or number or a non-finite value raises DataError
    naming the file.
    """
    with _csv_reader(path) as reader:
        header = next(reader, [])
        if header[:3] != ["serial", "date", "rul"]:
            raise DataError(f"{path}: not a scoring CSV: unexpected header {header[:3]}")
        feature_ids = _feature_columns(path, header[3:])
        rows = _data_rows(path, reader, len(header))
    if len(rows) < 2:
        raise DataError(f"{path}: {len(rows)} drive-days; scoring needs at least two")
    by_serial: dict[str, list] = {}
    for row in rows:
        by_serial.setdefault(row[0], []).append(row)
    return feature_ids, [_series_from_rows(path, group, feature_ids) for group in by_serial.values()]
