"""Drive-day ingestion, RUL labeling, capping, and synthetic corpora.

Input is the Backblaze daily-snapshot layout: one CSV row per drive per day
with ``date``, ``serial_number``, ``model``, ``failure`` and any number of
``smart_<n>_raw`` / ``smart_<n>_normalized`` columns. Normalized columns are
dropped (we standardize ourselves). The raw columns of a kept row go straight
into its drive's storage (:class:`KeptRows`, then :class:`DriveRows`): a list
of days and a float64 matrix with one row per day and one column per
attribute, NaN where a cell is missing, empty, unparseable or not finite. No
dict is built per row.
:func:`read_failed_drives` holds ingest's read policy. Each snapshot read is
one :func:`read_snapshot_csv` call: it checks every row's identity cells,
keeps the failure rows, and adds the rows inside the windows it is given to
the run's one :class:`KeptRows`. Each file is read once, last path first
(newest first for daily files), with the windows of the failures known so far.
When a file ends, each failure of the model in it registers its drive's window
(the failure day and the lookback before it, from 0001-01-01 at the earliest),
and each file read so far whose days meet new windows gives their rows
(:meth:`SnapshotScan.add_rows`). On daily files that is just the failure-day
file, whose read serves them from the failure rows it kept in full when its
serial index (the stripped serial cell of each row) shows that a wanted drive
has no other row there. A file where one has (a same-day twin, another day's
row), a file with a quote, a CR or a blank line, and a file read before are
read again from disk. A later-found earlier failure of a drive replaces its
window and drops its rows kept so far, so memory scales with the failed
drives, not the corpus; a drive failing on several days failed on the earliest
(:func:`scan_failures`). A read takes 64K characters at a time, split at
``\\n``, and reads line by line from the first block with a quote or a CR. It
checks a block's rows together, column by column: it splits each line up to
its identity cells, parses each distinct (``date``, ``failure``) cell pair
once per file, and looks the stripped serials up in the windows. A block with
a blank or short line or a pair that does not parse, and every line from the
first quote or CR on, go through a line loop, which raises every row error and
sends a line holding a quote through ``csv.reader``. A whole block is decoded
before its rows are checked, so of a malformed row and bytes that are not
UTF-8 in one block, the UTF-8 error is reported.

A failed drive's history is turned into a :class:`LabeledSeries`: the rows
covering the lookback window before failure, each labeled with its remaining
useful life in days (0 on the failure day, 1 the day before, ...). Labels are
then capped so that "healthy" days collapse into one top class. Labeling,
capping, the forward fill and the scoring CSV all work on the per-drive
matrix; hand-built :class:`DriveRecord` lists are converted to it once, where
they enter (:meth:`DriveRows.from_records`).

The numeric pipeline consumes :class:`DriveFrame` objects (one dense matrix
per drive). Drives pass between stages in one drive CSV format,
``serial,date[,rul],smart_<n>,...`` with one row per drive-day: the cohort
files, ``scoring.csv`` (the uncapped train split that attribute scoring reads;
an empty cell is an unreported value) and the one-drive history ``predict``
reads. One writer and one reader, with one set of rules, serve all three.
"""
from __future__ import annotations

import csv
import io
import itertools
import math
from array import array
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
    """One drive-day: identity, raw SMART attribute map, failure flag.

    The failure rows of a scan and hand-built corpora use it; kept snapshot
    rows live in :class:`DriveRows`.
    """

    serial: str
    date: Date
    model: str
    smart: dict[int, float | None]
    failed: bool = False


@dataclass(frozen=True)
class FailureEvent:
    serial: str
    fail_date: Date


def _columns(values: np.ndarray, have: Sequence[int], want: Sequence[int]) -> np.ndarray:
    """The columns of ``values`` (one per attribute of ``have``) in the order of
    ``want``; an attribute without a column is NaN."""
    pos = {fid: j for j, fid in enumerate(have)}
    out = np.full((values.shape[0], len(want)), np.nan)
    found = [(k, pos[fid]) for k, fid in enumerate(want) if fid in pos]
    if found:
        dst, src = zip(*found)
        out[:, list(dst)] = values[:, list(src)]
    return out


@dataclass
class DriveRows:
    """One drive's rows in the order given: the days and a float64 matrix with
    one row per day and one column per attribute of ``feature_ids``, NaN where
    the drive reported no value."""

    serial: str
    model: str
    feature_ids: list[int]
    dates: list[Date]
    values: np.ndarray  # (len(dates), len(feature_ids)) float64

    @classmethod
    def from_records(cls, records: Sequence[DriveRecord]) -> "DriveRows":
        """The rows of one drive's records; a column per attribute any of them
        names, and NaN where a record names it as None or not at all."""
        ids = sorted({fid for rec in records for fid in rec.smart})
        serial, model = (records[0].serial, records[0].model) if records else ("", "")
        values = np.array([[rec.smart.get(fid) for fid in ids] for rec in records],
                          dtype=np.float64).reshape(len(records), len(ids))
        return cls(serial, model, ids, [rec.date for rec in records], values)

    def reported(self) -> list[int]:
        """The attributes with a value on at least one day."""
        seen = (~np.isnan(self.values)).any(axis=0).tolist()
        return [fid for fid, s in zip(self.feature_ids, seen) if s]

    def columns(self, feature_ids: Sequence[int]) -> np.ndarray:
        """(days, len(feature_ids)) values in that order; an attribute without a column is NaN."""
        return _columns(self.values, self.feature_ids, feature_ids)


@dataclass
class LabeledSeries:
    """A drive's chronological pre-failure rows with per-day RUL labels.

    ``rows`` may be given as a sequence of :class:`DriveRecord`; it is then
    converted once (:meth:`DriveRows.from_records`), and ``records`` converts
    back, NaN as None, with the day labeled 0 as the failure day.
    """

    serial: str
    rows: DriveRows
    rul: list[int]

    def __post_init__(self):
        if not isinstance(self.rows, DriveRows):
            self.rows = DriveRows.from_records(list(self.rows))

    @property
    def records(self) -> list[DriveRecord]:
        rows = self.rows
        return [DriveRecord(rows.serial, day, rows.model,
                            {fid: None if math.isnan(v) else v for fid, v in zip(rows.feature_ids, row)},
                            label == 0)
                for day, label, row in zip(rows.dates, self.rul, rows.values.tolist())]

    def __len__(self) -> int:
        return len(self.rows.dates)


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
        if not (math.isfinite(self.noise_scale) and self.noise_scale >= 0.0):
            raise ValueError("noise_scale must be a finite number >= 0")
        if self.n_features > len(_SYNTH_ID_POOL):
            raise ValueError(f"at most {len(_SYNTH_ID_POOL)} synthetic features supported")
        # the last drive fails lookback_days + n_drives - 1 days after generate_synthetic's first day
        if Date(2020, 1, 1).toordinal() + self.lookback_days + self.n_drives - 1 > Date.max.toordinal():
            raise ValueError("lookback_days and n_drives put the last failure day after 9999-12-31")


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
        # one copy, in C order: values[:, cols] is Fortran-ordered, which moves the models' bits
        return DriveFrame(
            serial=self.serial,
            dates=list(self.dates),
            feature_ids=list(feature_ids),
            values=self.values.take(cols, axis=1),
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
    feature_ids: tuple[int, ...]  # the ids of the smart_<n>_raw columns, ascending
    columns: tuple[int, ...]  # the column of each


@lru_cache(maxsize=16)
def _header_layout(header: tuple[str, ...]) -> _Layout:
    names = {name: i for i, name in enumerate(header)}
    for required in ("date", "serial_number", "model", "failure"):
        if required not in names:
            raise DataError(f"snapshot header missing required column '{required}'")
    smart = {}  # attribute id -> column; of two columns for one id, the last
    for i, name in enumerate(header):
        if name.startswith("smart_") and name.endswith("_raw"):
            mid = name[len("smart_"):-len("_raw")]
            if mid.isdecimal():
                smart[int(mid)] = i
    ids = tuple(sorted(smart))
    identity = (names["date"], names["serial_number"], names["model"], names["failure"])
    return _Layout(*identity, max(identity) + 1, ids, tuple(smart[fid] for fid in ids))


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


def _cell_value(row: Sequence[str], col: int) -> float:
    """The value of a row's cell; a missing, empty or unparseable cell is NaN."""
    try:
        return float(row[col])
    except (IndexError, ValueError):
        return math.nan


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


def _failure_record(layout: _Layout, row: Sequence[str], day: Date) -> DriveRecord:
    """A failure row of a snapshot read, without attributes."""
    return DriveRecord(row[layout.serial].strip(), day, row[layout.model].strip(), {}, True)


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


_BLOCK = 1 << 16  # characters a snapshot read takes from its file at once


def _snapshot_lines(fh):
    """The lines of an open snapshot file from where it stands, in groups to chain.

    While the file's blocks of ``_BLOCK`` characters, each completed to its
    last line end, hold no ``"`` and no ``\\r``, a group is a block's lines
    without their ``\\n``. From the first block that holds either on, the
    lines come as iterating the file gives them: with their ends, a line ending
    at ``\\n``, ``\\r`` or ``\\r\\n``, so csv.reader sees a quoted cell's line
    breaks.
    """
    while True:
        text = fh.read(_BLOCK)
        if not text.endswith("\n"):
            text += fh.readline()
        if '"' in text or "\r" in text:
            yield io.StringIO(text, newline="")
            yield fh
            return
        if not text:
            return
        lines = text.split("\n")
        if not lines[-1]:
            del lines[-1]  # after the block's last line end
        yield lines


class _Block(NamedTuple):
    """Rows of one drive read with the same attribute columns."""

    feature_ids: tuple[int, ...]
    dates: list[Date]
    cells: array  # float64, row after row


class KeptRows:
    """Snapshot rows of some drives, stored per drive as they are read.

    One store takes the rows of every read of a run (:func:`read_snapshot_csv`
    adds to the store it is given). A drive holds its model (that of its first
    row) and blocks of rows read with the same attribute columns: their days
    and their float64 cells, row after row, NaN for a missing, empty or
    unparseable cell. :meth:`drives` turns each drive into :class:`DriveRows`.
    """

    def __init__(self):
        self._drives: dict[str, tuple[str, list[_Block]]] = {}

    def add(self, layout: _Layout, row: Sequence[str], day: Date) -> None:
        """Keep a row whose identity cells passed :func:`_row_identity`."""
        _, blocks = self._drives.setdefault(row[layout.serial].strip(),
                                            (row[layout.model].strip(), []))
        if not blocks or blocks[-1].feature_ids != layout.feature_ids:
            blocks.append(_Block(layout.feature_ids, [], array("d")))
        block = blocks[-1]
        block.dates.append(day)
        nan = math.nan
        try:
            block.cells.fromlist([float(row[j]) if row[j] else nan for j in layout.columns])
        except (IndexError, ValueError):
            block.cells.fromlist([_cell_value(row, j) for j in layout.columns])

    def pop(self, serial: str) -> None:
        """Forget the rows of ``serial``."""
        self._drives.pop(serial, None)

    def drives(self) -> dict[str, DriveRows]:
        """Each drive's rows, with a column per attribute of any of its blocks;
        a non-finite cell (nan, inf) becomes NaN here."""
        out = {}
        for serial, (model, blocks) in self._drives.items():
            ids = sorted(set().union(*(b.feature_ids for b in blocks)))
            values = np.concatenate([
                _columns(np.frombuffer(b.cells).reshape(len(b.dates), len(b.feature_ids)),
                         b.feature_ids, ids)
                for b in blocks])
            values[~np.isfinite(values)] = np.nan
            out[serial] = DriveRows(serial, model, ids, [d for b in blocks for d in b.dates], values)
        return out


@dataclass
class SnapshotScan:
    """What one read of a snapshot file gives (see :func:`read_snapshot_csv`);
    ``len()`` counts the rows it added to the caller's :class:`KeptRows`.

    ``index`` holds the stripped serial cell of every row, one string per
    block, ``"\\n" + "\\n\\n".join(serials) + "\\n"``, so that :meth:`add_rows`
    can count a serial's rows without reading the file again. The delimiters
    are doubled so that adjacent rows of one serial both count. A read that
    sent any line through its line loop keeps no index. ``failure_rows``
    holds the cells of each failure row in full, for :meth:`add_rows` to
    serve; :func:`read_failed_drives` drops both once the file's windows are
    registered.
    """

    path: str | Path  # the file read
    failures: list[DriveRecord]  # the failure rows, without attributes
    failure_rows: list[list[str]] | None  # the cells of each failure row; None once dropped
    days: tuple[Date, Date] | None  # first and last day of its rows; None without rows
    n_kept: int  # the rows inside ``windows``
    layout: _Layout | None  # None for an empty file
    index: list[str] | None  # the serials of each block's rows; None without an index

    def __len__(self) -> int:
        return self.n_kept

    def add_rows(self, windows: dict[str, tuple[Date, Date]], kept: KeptRows) -> int:
        """Add the rows in ``windows`` to ``kept``, in file order, as a read of
        the file with ``windows`` would; the number added.

        The index never counts a serial fewer times than the file has rows of
        it, and counts one that is not empty and holds no line break exactly.
        So when it counts each wanted serial as many times as the file has
        failure rows of it, all their rows here are failure rows, and those
        inside the windows come from ``failure_rows``. Otherwise, or without
        an index, the file is read again (:func:`read_snapshot_csv`).
        """
        if self.index is None or any(
                sum(block.count(f"\n{serial}\n") for block in self.index)
                != sum(rec.serial == serial for rec in self.failures) for serial in windows):
            return len(read_snapshot_csv(self.path, windows, kept))
        n_added = 0
        for rec, row in zip(self.failures, self.failure_rows):
            window = windows.get(rec.serial)
            if window is not None and window[0] <= rec.date <= window[1]:
                kept.add(self.layout, row, rec.date)
                n_added += 1
        return n_added


def read_snapshot_csv(path: str | Path, windows: dict[str, tuple[Date, Date]],
                      kept: KeptRows) -> SnapshotScan:
    """Read one snapshot file: check every row, keep its failure rows, and add
    the rows in ``windows`` to ``kept``.

    A row too short to hold the identity cells, a malformed date or a
    non-numeric failure flag raises :class:`SnapshotParseError` naming the
    file and the row; row indices count records as
    ``enumerate(csv.reader(fh), start=1)`` does, blank lines included. The
    failure rows come back without attributes (an empty ``smart`` map).
    ``windows`` maps a serial to its first and last wanted day; a row of
    such a serial inside them is added to ``kept`` in full, after the rows
    already there (a read that raises may have added some). Every other
    unquoted line but a failure row is split only up to its identity cells,
    so unquoted cells have no size limit. A line holding a quote is parsed
    by csv, with any following lines a quoted cell spans; a csv error there
    is a :class:`SnapshotParseError`.

    The lines come a ``_BLOCK`` at a time (:func:`_snapshot_lines`), line by
    line from the first block that holds a quote or a CR on. A block's rows
    are checked together, column by column; a block with a blank or short
    line, or with a pair :func:`_row_identity` rejects, goes through the line
    loop, which alone raises row errors. A block is decoded whole before its
    rows are checked: bytes that are not UTF-8 are a DataError naming the
    file even after a malformed row of the same block.
    The scan keeps each failure row's cells in full and, while every block
    takes the block path, an index of the rows' serials; with them
    :meth:`SnapshotScan.add_rows` serves a window of a drive whose every row
    here is a failure row without reading the file again.
    """
    failures: list[DriveRecord] = []
    failure_rows: list[list[str]] = []
    index: list[str] | None = []
    n_kept = 0
    with _text_file(path) as fh:
        layout = _snapshot_layout(path, fh)
        if layout is None:
            return SnapshotScan(path, failures, failure_rows, None, 0, None, None)
        width, serial_col = layout.width, layout.serial
        date_col, failure_col = layout.date, layout.failure
        seen: dict[tuple[str, str] | None, tuple[Date, bool]] = {}  # see _row_identity
        groups = _snapshot_lines(fh)
        row_index = 0  # of the last row before the group
        for lines in groups:
            if isinstance(lines, list):  # a block: its rows are checked together
                rows = [line.split(",", width) for line in lines]  # a last cell holds the rest
                cells = list(zip(*rows))  # column by column, as far as every row reaches
                if len(cells) >= width:  # no blank or short line
                    dates, flags = cells[date_col], cells[failure_col]
                    date_set, flag_set = set(dates), set(flags)
                    pairs = set(itertools.product(date_set, flag_set)  # exact if either has one
                                if min(len(date_set), len(flag_set)) == 1 else zip(dates, flags))
                    probe = [""] * width  # a row of just a pair's cells
                    try:
                        for key in pairs.difference(seen):
                            probe[date_col], probe[failure_col] = key
                            seen[key] = _row_identity(layout, probe, row_index + 1, path)
                    except SnapshotParseError:
                        pass  # the loop below reaches the row and raises
                    else:
                        failed = {key for key in pairs if seen[key][1]}
                        if failed:
                            for line, row, key in zip(lines, rows, zip(dates, flags)):
                                if key in failed:
                                    failures.append(_failure_record(layout, row, seen[key][0]))
                                    failure_rows.append(line.split(","))
                        serials = list(map(str.strip, cells[serial_col]))
                        if index is not None:
                            index.append("\n" + "\n\n".join(serials) + "\n")
                        for k in [k for k, serial in enumerate(serials) if serial in windows]:
                            window = windows[serials[k]]
                            day = seen[dates[k], flags[k]][0]
                            if window[0] <= day <= window[1]:
                                kept.add(layout, lines[k].split(","), day)
                                n_kept += 1
                        row_index += len(rows)
                        continue
            else:  # a quote or a CR: line by line from here on
                lines = itertools.chain.from_iterable(itertools.chain([lines], groups))
            index = None  # the line loop keeps no index; add_rows reads the file again
            for row_index, line in enumerate(lines, start=row_index + 1):
                if '"' in line:
                    try:
                        row = next(csv.reader(itertools.chain([line], lines)))
                    except csv.Error as exc:
                        raise SnapshotParseError(row_index, str(exc), path) from exc
                    line = None
                else:
                    line = line.rstrip("\r\n")
                    if not line:
                        continue
                    row = line.split(",", width)
                key = (row[date_col], row[failure_col]) if len(row) >= width else None
                identity = seen.get(key)
                if identity is None:
                    identity = seen[key] = _row_identity(layout, row, row_index, path)
                day, failed = identity
                if failed:
                    failures.append(_failure_record(layout, row, day))
                    failure_rows.append(row if line is None else line.split(","))
                if windows:
                    window = windows.get(row[serial_col].strip())
                    if window is not None and window[0] <= day <= window[1]:
                        kept.add(layout, row if line is None else line.split(","), day)
                        n_kept += 1
    days = [day for day, _ in seen.values()]
    return SnapshotScan(path, failures, failure_rows, (min(days), max(days)) if days else None,
                        n_kept, layout, index)


def read_failed_drives(paths: Iterable[str | Path], model_filter: str, lookback: int
                       ) -> tuple[dict[str, DriveRows], list[FailureEvent]]:
    """Each ``model_filter`` drive that fails in the snapshot files ``paths``:
    its rows from ``lookback`` days before its failure to it, and its failure
    event (:func:`scan_failures`); the module docstring gives the read policy.
    A failure serial that is empty or holds a comma, a quote or a line break,
    which a drive CSV cannot hold, is a DataError naming its file."""
    windows: dict[str, tuple[Date, Date]] = {}  # serial -> first and last day it needs
    scans: list[SnapshotScan] = []  # the reads of the files with rows
    failures: list[DriveRecord] = []
    kept = KeptRows()
    for path in sorted(paths, reverse=True):
        scan = read_snapshot_csv(path, windows, kept)
        if scan.days is not None:
            scans.append(scan)
        failures += scan.failures
        new: dict[str, tuple[Date, Date]] = {}
        for rec in scan.failures:
            window = windows.get(rec.serial)
            if rec.model != model_filter or (window and window[1] <= rec.date):
                continue
            if not rec.serial:
                raise DataError(f"{path}: a failure row of a {rec.model!r} drive on {rec.date} "
                                "has an empty serial, which a drive CSV cannot hold")
            if any(c in rec.serial for c in ',"\r\n'):
                raise DataError(f"{path}: serial {rec.serial!r} holds a comma, a quote or a "
                                "line break, which a drive CSV cannot hold")
            kept.pop(rec.serial)
            windows[rec.serial] = new[rec.serial] = (_window_start(rec.date, lookback), rec.date)
        for old in scans if new else ():  # most files register no window
            first, last = old.days
            wanted = {serial: w for serial, w in new.items() if w[0] <= last and first <= w[1]}
            if wanted:
                old.add_rows(wanted, kept)
        scan.index = scan.failure_rows = None  # from the next read on, add_rows reads the file again
    return kept.drives(), scan_failures(failures, model_filter)


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


def _window_start(end: Date, lookback_days: int) -> Date:
    """The day ``lookback_days`` before ``end``, or 0001-01-01 when that is earlier."""
    return Date.fromordinal(max(1, end.toordinal() - lookback_days))


def build_labeled_series(
    corpus: DriveRows | Iterable[DriveRecord], event: FailureEvent, lookback_days: int
) -> LabeledSeries:
    """Gather up to ``lookback_days + 1`` rows of the drive ending on its failure day.

    ``corpus`` is the drive's :class:`DriveRows`, or records of any drives,
    of which those of ``event.serial`` are converted once. RUL is the
    calendar distance to the failure date (0 on the failure day). Days
    absent from the log simply shrink the series; nothing is interpolated.
    """
    if lookback_days < 1:
        raise ValueError("lookback_days must be >= 1")
    if not isinstance(corpus, DriveRows):
        corpus = DriveRows.from_records([rec for rec in corpus if rec.serial == event.serial])
    start, end = _window_start(event.fail_date, lookback_days), event.fail_date
    dates = corpus.dates
    keep = sorted((k for k, day in enumerate(dates) if start <= day <= end), key=dates.__getitem__)
    window = [dates[k] for k in keep]
    for a, b in zip(window, window[1:]):
        if a == b:
            raise InconsistentCorpusError(f"drive {event.serial} has duplicate records on {a}")
    if not window or window[-1] != end:
        raise InconsistentCorpusError(
            f"drive {event.serial} has no record on its failure day {event.fail_date}"
        )
    rows = DriveRows(corpus.serial, corpus.model, corpus.feature_ids, window,
                     corpus.values[np.asarray(keep, dtype=np.intp)])
    return LabeledSeries(event.serial, rows, [(end - day).days for day in window])


def cap_rul(series: LabeledSeries, cap: int = DEFAULT_CAP) -> LabeledSeries:
    """Clamp labels above ``cap`` down to ``cap``; the rows are shared, untouched."""
    if cap < 1:
        raise ValueError("cap must be >= 1")
    return LabeledSeries(series.serial, series.rows, [min(r, cap) for r in series.rul])


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
        rows = DriveRows(serial, SYNTHETIC_MODEL, list(ids),
                         [fail_date - timedelta(days=r) for r in rul.tolist()], columns)
        out.append(LabeledSeries(serial, rows, rul.tolist()))
    return out


# ---------------------------------------------------------------------------
# Materialization (per-drive rows with gaps -> dense per-drive frames)


def materialize_series(series: LabeledSeries, feature_ids: Sequence[int]) -> DriveFrame:
    """Dense frame for one drive.

    Gaps inside an attribute's history are forward-filled from the previous
    day; a gap at the start takes the first observed value. A drive missing
    one of ``feature_ids`` on every day cannot be filled and raises ValueError
    naming the drive and the attribute. Callers pass attributes every drive
    reports.
    """
    n = len(series)
    raw = series.rows.columns(feature_ids)
    reported = ~np.isnan(raw)
    missing = np.flatnonzero(~reported.any(axis=0))
    if missing.size:
        raise ValueError(f"drive {series.serial}: attribute {feature_ids[missing[0]]} "
                         "is missing on every day")
    # each day takes the value of the last reported day up to it, and a day
    # before the first report the value of the next reported day
    days = np.arange(n)[:, None]
    last = np.maximum.accumulate(np.where(reported, days, -1), axis=0)
    following = np.minimum.accumulate(np.where(reported, days, n)[::-1], axis=0)[::-1]
    return DriveFrame(
        serial=series.serial,
        dates=list(series.rows.dates),
        feature_ids=list(feature_ids),
        values=np.take_along_axis(raw, np.where(last < 0, following, last), axis=0),
        rul=np.asarray(series.rul, dtype=np.int64),
    )


def materialize_cohort(
    series_list: Sequence[LabeledSeries], feature_ids: Sequence[int]
) -> list[DriveFrame]:
    return [materialize_series(series, feature_ids) for series in series_list]


def attributes_on_every_drive(series_list: Sequence[LabeledSeries]) -> list[int]:
    """Attribute ids reported at least once by every drive in the cohort."""
    common: set[int] | None = None
    for series in series_list:
        present = set(series.rows.reported())
        common = present if common is None else common & present
    return sorted(common or ())


# ---------------------------------------------------------------------------
# Drive CSV: the cohort, scoring and history files

# repr prints a whole float below 1e16 as its digits and ".0"; below this
# limit every such value is an exact int64 with room to spare
_WHOLE_LIMIT = 1e15


def _write_drive_csv(path: str | Path, feature_ids: Sequence[int], drives: Iterable[tuple]) -> None:
    """Write ``(serial, dates, rul, values)`` drives as ``serial,date,rul,smart_<n>,...``
    with LF endings, in the order given, one row per day of ``values``.

    A value prints as ``repr`` prints it, so re-parsing reproduces it bit for
    bit, and NaN is an empty cell. Each drive is one ``%`` format of its row
    template repeated once per day. A column whose values are all whole
    numbers in [0, 1e15) prints with ``%d.0`` from int64 arguments, which is
    ``repr``'s text for them; any other column prints with ``%r``, and its
    NaN cells, printed ``nan``, are then emptied. A serial holds no comma,
    quote or line break (ingest rejects one that does), so ``,nan`` is always
    such a cell.
    """
    with open(path, "w", newline="\n", encoding="utf-8") as fh:
        header = ["serial", "date", "rul"] + [f"smart_{fid}" for fid in feature_ids]
        fh.write(",".join(header) + "\n")
        for serial, dates, rul, values in drives:
            whole = (~np.signbit(values) & (values < _WHOLE_LIMIT)
                     & (values == np.floor(values))).all(axis=0).tolist()
            columns = [(col.astype(np.int64) if w else col).tolist() for w, col in zip(whole, values.T)]
            row = serial.replace("%", "%%") + ",%s,%d" + "".join(
                ",%d.0" if w else ",%r" for w in whole) + "\n"
            # a date prints as its isoformat()
            text = (row * len(dates)) % tuple(itertools.chain.from_iterable(zip(dates, rul, *columns)))
            fh.write(text if all(whole) else text.replace(",nan", ","))


def _read_drive_csv(path: str | Path) -> tuple[list[int], bool, list[tuple]]:
    """The attribute ids of a drive CSV, whether it has a ``rul`` column, and its
    ``(serial, dates, rul, values)`` drives, ``values`` a float64 matrix.

    The header is ``serial,date[,rul],smart_<n>,...`` with no attribute named
    twice. Drives come in the order of their first row, each with its rows in
    file order; a drive without ``rul`` is labeled 0 on every day. An empty
    cell is NaN. A header of another form, a row of another width, a bad
    date, label or number, a written non-finite value or a drive whose dates
    do not strictly increase is a DataError naming the file (and the drive).
    """
    with _csv_reader(path) as reader:
        header = next(reader, [])
        has_rul = header[2:3] == ["rul"]
        if header[:2] != ["serial", "date"]:
            raise DataError(f"{path}: unexpected header {header[:3]}; "
                            "expected serial,date[,rul],smart_<n>,...")
        first = 3 if has_rul else 2
        feature_ids: list[int] = []
        for name in header[first:]:
            digits = name[len("smart_"):]
            if not (name.startswith("smart_") and digits.isdecimal()):
                raise DataError(f"{path}: unexpected column {name!r}")
            if int(digits) in feature_ids:
                raise DataError(f"{path}: attribute {int(digits)} named twice ({name!r})")
            feature_ids.append(int(digits))
        groups: dict[str, list[list[str]]] = {}
        for row in reader:
            if not row:
                continue
            if len(row) != len(header):
                raise DataError(f"{path}:{reader.line_num}: {len(row)} fields, expected {len(header)}")
            groups.setdefault(row[0], []).append(row)
    drives = []
    for serial, rows in groups.items():
        try:
            dates = [Date.fromisoformat(row[1]) for row in rows]
            rul = [int(row[2]) for row in rows] if has_rul else [0] * len(rows)
            values = np.array([[float(c) if c else math.nan for c in row[first:]] for row in rows])
        except ValueError as exc:
            raise DataError(f"{path}: drive {serial}: {exc}") from exc
        for k, j in np.argwhere(~np.isfinite(values)).tolist():
            if rows[k][first + j]:  # an empty cell is NaN, a written nan or inf is not
                raise DataError(f"{path}: drive {serial}: smart_{feature_ids[j]} is "
                                f"{float(values[k, j])} on {dates[k]}, not a finite number")
        for before, day in zip(dates, dates[1:]):
            if day <= before:
                raise DataError(f"{path}: drive {serial}: {day} follows {before}; "
                                "dates must strictly increase")
        drives.append((serial, dates, rul, values))
    return feature_ids, has_rul, drives


def _frame(path, feature_ids: list[int], serial, dates, rul, values) -> DriveFrame:
    """A drive of a cohort or history file; an empty cell is a DataError naming
    the file and the drive."""
    empty = np.argwhere(np.isnan(values))
    if empty.size:
        k, j = empty[0].tolist()
        raise DataError(f"{path}: drive {serial}: smart_{feature_ids[j]} is empty on {dates[k]}")
    return DriveFrame(serial, dates, list(feature_ids), values, rul)


def write_cohort_csv(path: str | Path, frames: Sequence[DriveFrame]) -> None:
    """Write frames as ``serial,date,rul,smart_<n>,...`` (see :func:`_write_drive_csv`).

    Drives are ordered by serial; all frames must share their columns.
    """
    frames = sorted(frames, key=lambda f: f.serial)
    feature_ids = frames[0].feature_ids if frames else []
    if any(frame.feature_ids != feature_ids for frame in frames):
        raise DataError("all frames in a cohort must share the same feature columns")
    _write_drive_csv(path, feature_ids,
                     ((f.serial, f.dates, f.rul.tolist(), f.values) for f in frames))


def read_cohort_csv(path: str | Path) -> list[DriveFrame]:
    """Parse a cohort CSV back into per-drive frames (inverse of write).

    Besides the rules of :func:`_read_drive_csv`, a file without a ``rul``
    column or with an empty cell raises DataError naming the file.
    """
    feature_ids, has_rul, drives = _read_drive_csv(path)
    if not has_rul:
        raise DataError(f"{path}: not a cohort CSV: no rul column")
    return [_frame(path, feature_ids, *drive) for drive in drives]


def read_history_csv(path: str | Path) -> DriveFrame:
    """Read one drive's history: ``serial,date[,rul],smart_<n>,...``.

    The ``rul`` column is optional (zeros when absent) so the reader accepts
    deployment-time histories of drives that have not failed. A file that
    does not hold exactly one drive, or has an empty cell, raises DataError
    naming the file.
    """
    feature_ids, _, drives = _read_drive_csv(path)
    if len(drives) != 1:
        raise DataError(f"{path}: a history holds one drive, not {len(drives)} "
                        f"{[drive[0] for drive in drives]}")
    return _frame(path, feature_ids, *drives[0])


def write_scoring_csv(path: str | Path, series_list: Sequence[LabeledSeries]) -> None:
    """Write labeled series as ``serial,date,rul,smart_<n>,...`` (see :func:`_write_drive_csv`).

    There is a column for every attribute some drive reports at least once,
    and an empty cell is a value the drive did not report. Drives keep their
    order, which fixes the bits of the scores computed over them.
    """
    feature_ids = sorted({fid for s in series_list for fid in s.rows.reported()})
    _write_drive_csv(path, feature_ids,
                     ((s.serial, s.rows.dates, s.rul, s.rows.columns(feature_ids))
                      for s in series_list))


def read_scoring_csv(path: str | Path) -> tuple[list[int], list[LabeledSeries]]:
    """The attribute ids and the drives of a scoring CSV (inverse of write).

    An empty cell is an unreported value (NaN); the rows carry no drive
    model. Besides the rules of :func:`_read_drive_csv`, a file without a
    ``rul`` column or with fewer than two drive-days raises DataError naming
    the file.
    """
    feature_ids, has_rul, drives = _read_drive_csv(path)
    if not has_rul:
        raise DataError(f"{path}: not a scoring CSV: no rul column")
    n_days = sum(len(dates) for _, dates, _, _ in drives)
    if n_days < 2:
        raise DataError(f"{path}: {n_days} drive-days; scoring needs at least two")
    return feature_ids, [LabeledSeries(serial, DriveRows(serial, "", feature_ids, dates, values), rul)
                         for serial, dates, rul, values in drives]
