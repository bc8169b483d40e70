"""Seeded Backblaze-width snapshot corpus for the ``ingest`` workload.

One CSV per calendar day with ``date, serial_number, model, capacity_bytes,
failure`` and a ``smart_<n>_normalized, smart_<n>_raw`` pair for each of 45
SMART ids, as in the public Backblaze drive-stats files. The corpus holds:

* healthy drives of the target model (``ST4000DM000``) and of a second model,
  some of them installed part-way through the period;
* failed target drives, which stop reporting after their failure day, and a
  few failed drives of the second model (which the model filter must ignore);
* empty cells, attributes a model never reports, per-drive missing days and
  whole days without a file;
* a few failed target drives with one day reported twice, which ingest must
  skip as inconsistent.

:func:`generate_corpus` writes the files and returns the :class:`GroundTruth`
that the ingest outputs are checked against.
"""
from __future__ import annotations

from dataclasses import dataclass
from datetime import date as Date
from datetime import timedelta
from pathlib import Path

import numpy as np

TARGET_MODEL = "ST4000DM000"
OTHER_MODEL = "HGST HMS5C4040BLE640"
CAPACITY_BYTES = 4000787030016

SMART_IDS = (
    1, 2, 3, 4, 5, 7, 8, 9, 10, 11, 12, 13, 15, 22, 177, 179, 181, 182, 183, 184,
    187, 188, 189, 190, 191, 192, 193, 194, 195, 196, 197, 198, 199, 200, 201,
    220, 222, 223, 224, 225, 226, 240, 241, 242, 250,
)
# attributes each model reports; every other column stays empty for it
REPORTED = {
    TARGET_MODEL: (1, 3, 4, 5, 7, 9, 10, 12, 183, 184, 187, 188, 189, 190, 191,
                   192, 193, 194, 197, 198, 199, 240, 241, 242),
    OTHER_MODEL: (1, 2, 3, 4, 5, 7, 8, 9, 10, 12, 22, 192, 193, 194, 196, 197, 198, 199),
}
# error counters that climb on a failing drive during its last weeks
DEGRADING = (5, 183, 184, 187, 197, 198)
# lifetime counters: (per-drive level scale, per-day increase)
COUNTERS = {4: (50, 0.05), 7: (1e8, 4e6), 9: (2e4, 24), 12: (40, 0.02),
            189: (5, 0.0), 191: (300, 0.5), 192: (200, 0.2), 193: (5e4, 120),
            240: (2e4, 20), 241: (4e10, 5e7), 242: (8e10, 1.2e8), 2: (100, 0.0),
            8: (30, 0.0), 22: (100, 0.0), 196: (3, 0.0), 199: (2, 0.0)}
BLANK = -1  # sentinel written as an empty cell
BLANK_RATE = 0.02  # share of reported cells left empty
GAP_RATE = 0.01  # share of drive-days a drive does not report
# cohort -> lookback in days; the benchmark writes these into the ingest config
LOOKBACKS = {"train": 60, "test60": 60, "test120": 120}

START = Date(2021, 1, 1)


@dataclass(frozen=True)
class CorpusSize:
    days: int = 150
    healthy_target: int = 520
    healthy_other: int = 140
    failed_target: int = 40
    failed_other: int = 5
    duplicated: int = 3
    missing_days: int = 2


@dataclass
class GroundTruth:
    """What a correct ingest of the corpus must produce."""

    failed: dict[str, Date]  # failed target drives -> failure day
    skipped: set[str]  # failed target drives with a duplicated day
    rows: dict[tuple[str, int], int]  # (serial, lookback) -> the drive's rows in a cohort
    columns: list[int]  # attributes every target drive reports
    rows_total: int  # rows in all files
    values: dict[tuple[str, Date], dict[int, float]]  # reported cells of failed target drives


def _drive_values(rng, n_days, reported, fail_day):
    """(n_days, len(SMART_IDS)) raw values for one drive; BLANK where unreported."""
    t = np.arange(n_days, dtype=np.float64)
    out = np.full((n_days, len(SMART_IDS)), BLANK, dtype=np.int64)
    for j, fid in enumerate(SMART_IDS):
        if fid not in reported:
            continue
        if fid in COUNTERS:
            level, step = COUNTERS[fid]
            vals = level * rng.uniform(0.5, 1.5) + step * rng.uniform(0.8, 1.2) * t
        elif fid in DEGRADING:
            vals = np.zeros(n_days)
            if fail_day is not None:
                onset = fail_day - int(rng.integers(5, 25))
                late = t >= onset
                vals[late] = rng.uniform(1, 40) * (t[late] - onset + 1) ** 1.5
        elif fid in (190, 194):
            vals = rng.uniform(22, 34) + rng.normal(0, 1.5, n_days)
        elif fid == 1:
            vals = rng.uniform(0, 2.4e8, n_days)
        else:
            vals = np.zeros(n_days)
        out[:, j] = np.maximum(np.rint(vals), 0)
    return out


def generate_corpus(directory: str | Path, seed: int, size: CorpusSize = CorpusSize()) -> GroundTruth:
    """Write the corpus under ``directory`` (replacing earlier files) and return its truth."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    for old in directory.glob("*.csv"):
        old.unlink()
    rng = np.random.default_rng(seed)
    n_days = size.days
    min_fail = LOOKBACKS["train"]  # every failed drive has a full train lookback

    drives = []  # (serial, model, first_day, fail_day or None)
    for i in range(size.healthy_target):
        first = int(rng.integers(1, n_days // 2)) if rng.random() < 0.1 else 0
        drives.append((f"Z30{i:05d}", TARGET_MODEL, first, None))
    for i in range(size.failed_target):
        drives.append((f"Z3F{i:05d}", TARGET_MODEL, 0, int(rng.integers(min_fail, n_days))))
    for i in range(size.healthy_other):
        drives.append((f"PL1331LAH{i:05d}", OTHER_MODEL, 0, None))
    for i in range(size.failed_other):
        drives.append((f"PL1331LAF{i:05d}", OTHER_MODEL, 0, int(rng.integers(min_fail, n_days))))

    fail_days = {fail for _, _, _, fail in drives if fail is not None}
    free_days = [d for d in range(1, n_days) if d not in fail_days]
    dropped_days = set(rng.choice(free_days, size=size.missing_days, replace=False).tolist())

    failed_targets = [d for d in drives if d[1] == TARGET_MODEL and d[3] is not None]
    dup_idx = rng.choice(len(failed_targets), size=size.duplicated, replace=False)
    duplicated = {}
    for k in dup_idx:
        serial, _, _, fail = failed_targets[k]
        day = fail - int(rng.integers(3, LOOKBACKS["train"]))
        while day in dropped_days:
            day += 1
        duplicated[serial] = day

    header = ["date", "serial_number", "model", "capacity_bytes", "failure"]
    for fid in SMART_IDS:
        header += [f"smart_{fid}_normalized", f"smart_{fid}_raw"]
    template = ",%d" * (2 * len(SMART_IDS))
    per_day: list[list[str]] = [[] for _ in range(n_days)]

    truth = GroundTruth(failed={}, skipped=set(duplicated), rows={},
                        columns=sorted(REPORTED[TARGET_MODEL]), rows_total=0, values={})
    for serial, model, first, fail in drives:
        raw = _drive_values(rng, n_days, REPORTED[model], fail)
        blanks = (rng.random(raw.shape) < BLANK_RATE) & (raw != BLANK)
        last = n_days - 1 if fail is None else fail
        present = [
            d for d in range(first, last + 1)
            if d not in dropped_days
            and (d == fail or d == duplicated.get(serial) or rng.random() >= GAP_RATE)
        ]
        if fail is not None:
            blanks[fail] = False  # the failure-day row is always complete
        raw[blanks] = BLANK
        cells = np.empty((n_days, 2 * len(SMART_IDS)), dtype=np.int64)
        cells[:, 0::2] = np.where(raw == BLANK, BLANK, 100)  # normalized: 100 where reported
        cells[:, 1::2] = raw
        for d, values in zip(present, cells[present].tolist()):
            line = (f"{(START + timedelta(days=d)).isoformat()},{serial},{model},"
                    f"{CAPACITY_BYTES},{int(d == fail)}" + template % tuple(values))
            per_day[d].append(line)
            if d == duplicated.get(serial):
                per_day[d].append(line)
        if model == TARGET_MODEL and fail is not None:
            fail_date = START + timedelta(days=fail)
            truth.failed[serial] = fail_date
            for lookback in set(LOOKBACKS.values()):
                truth.rows[(serial, lookback)] = sum(1 for d in present if d >= fail - lookback)
            for d in present:
                truth.values[(serial, START + timedelta(days=d))] = {
                    fid: float(raw[d, j]) for j, fid in enumerate(SMART_IDS) if raw[d, j] != BLANK
                }

    for d in range(n_days):
        if d in dropped_days:
            continue
        rows = per_day[d]
        lines = [rows[i] for i in rng.permutation(len(rows))]
        text = "\n".join([",".join(header)] + lines) + "\n"
        (directory / f"{(START + timedelta(days=d)).isoformat()}.csv").write_text(
            text.replace(f",{BLANK}", ","), encoding="utf-8", newline="\n"
        )
        truth.rows_total += len(rows)
    return truth
