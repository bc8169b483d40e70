"""Drive-day ingestion, RUL labeling, capping, and synthetic corpora.

Input is the Backblaze daily-snapshot layout: one CSV row per drive per day
with ``date``, ``serial_number``, ``model``, ``failure`` and any number of
``smart_<n>_raw`` / ``smart_<n>_normalized`` columns. Normalized columns are
dropped (we standardize ourselves); raw columns become a sparse attribute map.

A failed drive's history is turned into a :class:`LabeledSeries`: the records
covering the lookback window before failure, each labeled with its remaining
useful life in days (0 on the failure day, 1 the day before, ...). Labels are
then capped so that "healthy" days collapse into one top class.

The numeric pipeline consumes :class:`DriveFrame` objects (one dense matrix
per drive); frames serialize to a long-format cohort CSV
``serial,date,rul,smart_<n>,...`` with one row per drive-day.
"""
from __future__ import annotations

import csv
import warnings
from dataclasses import dataclass
from datetime import date as Date
from datetime import timedelta
from functools import lru_cache
from pathlib import Path
from typing import Iterable, Sequence

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


@lru_cache(maxsize=16)
def _header_layout(header: tuple[str, ...]):
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
    return names["date"], names["serial_number"], names["model"], names["failure"], tuple(smart_cols)


def _parse_float(cell: str) -> float | None:
    cell = cell.strip()
    if not cell:
        return None
    try:
        return float(cell)
    except ValueError:
        return None


def parse_snapshot_row(header: Sequence[str], row: Sequence[str], row_index: int = 0) -> DriveRecord:
    """Parse one snapshot CSV row into a :class:`DriveRecord`.

    ``smart_<n>_raw`` columns populate the attribute map (empty or
    unparseable cells become missing); ``smart_<n>_normalized`` columns are
    ignored. A malformed date or failure flag raises
    :class:`SnapshotParseError` carrying ``row_index``.
    """
    i_date, i_serial, i_model, i_fail, smart_cols = _header_layout(tuple(header))
    if len(row) <= max(i_date, i_serial, i_model, i_fail):
        raise SnapshotParseError(row_index, f"truncated row ({len(row)} fields)")
    try:
        day = Date.fromisoformat(row[i_date].strip())
    except ValueError as exc:
        raise SnapshotParseError(row_index, f"malformed date {row[i_date]!r}") from exc
    fail_cell = row[i_fail].strip()
    try:
        failed = int(fail_cell) == 1
    except ValueError as exc:
        raise SnapshotParseError(row_index, f"non-numeric failure flag {fail_cell!r}") from exc
    smart: dict[int, float | None] = {}
    for attr_id, col in smart_cols:
        smart[attr_id] = _parse_float(row[col]) if col < len(row) else None
    return DriveRecord(
        serial=row[i_serial].strip(),
        date=day,
        model=row[i_model].strip(),
        smart=smart,
        failed=failed,
    )


def read_snapshot_csv(path: str | Path) -> list[DriveRecord]:
    """Read one daily-snapshot CSV file into drive-day records."""
    records = []
    with open(path, "r", newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            return records
        for row_index, row in enumerate(reader, start=1):
            if not row:
                continue
            records.append(parse_snapshot_row(header, row, row_index))
    return records


# ---------------------------------------------------------------------------
# Failure scanning and labeling


def scan_failures(corpus: Iterable[DriveRecord], model_filter: str) -> list[FailureEvent]:
    """Failure events for the given drive model, sorted by (fail_date, serial)."""
    seen: set[tuple[str, Date]] = set()
    events = []
    for rec in corpus:
        if rec.failed and rec.model == model_filter:
            key = (rec.serial, rec.date)
            if key not in seen:
                seen.add(key)
                events.append(FailureEvent(serial=rec.serial, fail_date=rec.date))
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


def materialize_series(series: LabeledSeries, feature_ids: Sequence[int]) -> DriveFrame | None:
    """Dense frame for one drive, or None when an attribute is never reported.

    Gaps inside an attribute's history are forward-filled from the previous
    day; a gap at the start takes the first observed value. A drive missing
    one of ``feature_ids`` on every day cannot be filled and is excluded
    (with a warning).
    """
    n = len(series.records)
    values = np.empty((n, len(feature_ids)))
    for j, fid in enumerate(feature_ids):
        raw = [rec.smart.get(fid) for rec in series.records]
        if all(v is None for v in raw):
            warnings.warn(
                f"drive {series.serial}: attribute {fid} missing on every day; drive excluded"
            )
            return None
        first = next(v for v in raw if v is not None)
        prev = first
        for k, v in enumerate(raw):
            if v is None:
                values[k, j] = prev
            else:
                values[k, j] = v
                prev = v
    return DriveFrame(
        serial=series.serial,
        dates=[rec.date for rec in series.records],
        feature_ids=list(feature_ids),
        values=values,
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
            for k, day in enumerate(frame.dates):
                cells = [frame.serial, day.isoformat(), str(int(frame.rul[k]))]
                cells += [repr(float(v)) for v in frame.values[k]]
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
    """One drive's frame; a bad date or number is a DataError naming the file."""
    first_feature = 3 if has_rul else 2
    try:
        return DriveFrame(
            serial=rows[0][0],
            dates=[Date.fromisoformat(r[1]) for r in rows],
            feature_ids=list(feature_ids),
            values=np.array([[float(c) for c in r[first_feature:]] for r in rows]),
            rul=np.array([int(r[2]) if has_rul else 0 for r in rows], dtype=np.int64),
        )
    except ValueError as exc:
        raise DataError(f"{path}: drive {rows[0][0]}: {exc}") from exc


def read_history_csv(path: str | Path) -> DriveFrame:
    """Read one drive's history: ``serial,date[,rul],smart_<n>,...``.

    The ``rul`` column is optional (zeros when absent) so the reader accepts
    deployment-time histories of drives that have not failed.
    """
    with open(path, "r", newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
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
    with open(path, "r", newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
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
