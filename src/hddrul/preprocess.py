"""Standardization schemes and sliding-window dataset construction.

Two scalings: the per-device scheme z-scores each (drive, feature) with that
drive's own statistics, so no scaler is ever shared between drives (train or
test); the traditional global scheme pools the whole cohort into one reusable
scaler. Standard deviations are population (ddof=0) so the transformed
variance is exactly 1; a constant feature maps to all zeros.

Windowing turns standardized frames into a ``samples x timesteps x features``
block with one window per drive-day, newest day last. Days with too little
history are left-padded by replicating the earliest record, which keeps the
per-drive sample count equal to the series length and fabricates no trend.
"""
from __future__ import annotations

import csv
from dataclasses import dataclass
from datetime import date as Date
from pathlib import Path
from typing import Sequence
import warnings

import numpy as np

from .dataset import DriveFrame
from .errors import DataError


def _zscore_columns(values: np.ndarray) -> np.ndarray:
    mean = values.mean(axis=0)
    std = np.sqrt(((values - mean) ** 2).mean(axis=0))
    out = np.zeros_like(values)
    nz = std > 0.0
    out[:, nz] = (values[:, nz] - mean[nz]) / std[nz]
    return out


def standardize_per_device(
    frame: DriveFrame, feature_ids: Sequence[int] | None = None
) -> DriveFrame:
    """Z-score every feature with this drive's own mean and population std.

    Independent of any other drive by construction. Constant features become
    exactly zero everywhere.
    """
    if feature_ids is not None:
        frame = frame.select(feature_ids)
    if len(frame.dates) == 0:
        raise ValueError("cannot standardize an empty series")
    return DriveFrame(
        serial=frame.serial,
        dates=list(frame.dates),
        feature_ids=list(frame.feature_ids),
        values=_zscore_columns(frame.values),
        rul=frame.rul.copy(),
    )


@dataclass
class GlobalScaler:
    """Pooled per-feature mean/std, reusable on new data."""

    feature_ids: list[int]
    mean: np.ndarray
    std: np.ndarray

    def transform(self, frame: DriveFrame) -> DriveFrame:
        if frame.feature_ids != self.feature_ids:
            raise DataError("frame columns do not match the scaler's features")
        out = np.zeros_like(frame.values)
        nz = self.std > 0.0
        out[:, nz] = (frame.values[:, nz] - self.mean[nz]) / self.std[nz]
        return DriveFrame(
            serial=frame.serial,
            dates=list(frame.dates),
            feature_ids=list(frame.feature_ids),
            values=out,
            rul=frame.rul.copy(),
        )

    def save(self, path: str | Path) -> None:
        with open(path, "w", newline="\n", encoding="utf-8") as fh:
            fh.write("hddrul-scaler 1\n")
            fh.write("feature_ids " + " ".join(str(f) for f in self.feature_ids) + "\n")
            fh.write("mean " + " ".join("%.17g" % v for v in self.mean) + "\n")
            fh.write("std " + " ".join("%.17g" % v for v in self.std) + "\n")

    @classmethod
    def load(cls, path: str | Path) -> "GlobalScaler":
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.read().splitlines()
        if not lines or lines[0] != "hddrul-scaler 1":
            raise DataError(f"{path}: not a scaler file")
        fields = {}
        for line in lines[1:]:
            key, _, rest = line.partition(" ")
            fields[key] = rest
        return cls(
            feature_ids=[int(t) for t in fields["feature_ids"].split()],
            mean=np.array([float(t) for t in fields["mean"].split()]),
            std=np.array([float(t) for t in fields["std"].split()]),
        )


def standardize_global(
    cohort: Sequence[DriveFrame], feature_ids: Sequence[int] | None = None
) -> tuple[list[DriveFrame], GlobalScaler]:
    """One mean/std per feature over the pooled cohort; returns the scaler too."""
    if not cohort:
        raise ValueError("cannot standardize an empty cohort")
    if feature_ids is not None:
        cohort = [f.select(feature_ids) for f in cohort]
    pooled = np.concatenate([f.values for f in cohort], axis=0)
    mean = pooled.mean(axis=0)
    std = np.sqrt(((pooled - mean) ** 2).mean(axis=0))
    if np.any(std == 0.0):
        flat = [cohort[0].feature_ids[j] for j in np.flatnonzero(std == 0.0)]
        warnings.warn(f"constant pooled features {flat} standardize to zeros")
    scaler = GlobalScaler(feature_ids=list(cohort[0].feature_ids), mean=mean, std=std)
    return [scaler.transform(f) for f in cohort], scaler


@dataclass
class WindowedDataset:
    """samples x timesteps x features block with aligned targets and provenance."""

    windows: np.ndarray  # (n, timesteps, features) float64
    targets: np.ndarray  # (n,) float64
    provenance: list[tuple[str, Date]]  # (serial, date) of each window's last day
    feature_ids: list[int]

    @property
    def n_samples(self) -> int:
        return self.windows.shape[0]

    @property
    def timesteps(self) -> int:
        return self.windows.shape[1]

    @property
    def n_features(self) -> int:
        return self.windows.shape[2]


def window(cohort: Sequence[DriveFrame], timesteps: int) -> WindowedDataset:
    """One window per drive-day: that day plus the ``timesteps - 1`` before it.

    Windows never mix drives; missing history at the start of a series is
    filled by replicating the earliest record. The target is the day's RUL.
    """
    if timesteps < 1:
        raise ValueError("timesteps must be >= 1")
    frames = sorted(cohort, key=lambda f: f.serial)
    if not frames:
        return WindowedDataset(
            windows=np.zeros((0, timesteps, 0)),
            targets=np.zeros(0),
            provenance=[],
            feature_ids=[],
        )
    feature_ids = frames[0].feature_ids
    # row (d, k) of a drive's gather is the day at step k of day d's window
    offsets = np.arange(1 - timesteps, 1)
    blocks = []
    provenance = []
    for frame in frames:
        if frame.feature_ids != feature_ids:
            raise DataError("all frames must share the same feature columns")
        days = np.arange(len(frame.dates))[:, None]
        blocks.append(frame.values[np.maximum(days + offsets, 0)])
        provenance += [(frame.serial, day) for day in frame.dates]
    return WindowedDataset(
        windows=np.concatenate(blocks),
        targets=np.concatenate([frame.rul for frame in frames]).astype(np.float64),
        provenance=provenance,
        feature_ids=list(feature_ids),
    )


# ---------------------------------------------------------------------------
# Textual serialization (manifest line + one CSV row per sample)


def save_windows(dataset: WindowedDataset, path: str | Path) -> None:
    n, t, f = dataset.windows.shape
    with open(path, "w", newline="\n", encoding="utf-8") as fh:
        fh.write(f"hddrul-windows 1 {n} {t} {f}\n")
        fh.write("feature_ids " + " ".join(str(fid) for fid in dataset.feature_ids) + "\n")
        for i in range(n):
            serial, day = dataset.provenance[i]
            cells = [serial, day.isoformat(), "%.17g" % dataset.targets[i]]
            cells += ["%.17g" % v for v in dataset.windows[i].ravel()]
            fh.write(",".join(cells) + "\n")


def load_windows(path: str | Path) -> WindowedDataset:
    with open(path, "r", encoding="utf-8") as fh:
        head = fh.readline().split()
        if head[:2] != ["hddrul-windows", "1"]:
            raise DataError(f"{path}: not a windows file")
        n, t, f = int(head[2]), int(head[3]), int(head[4])
        id_line = fh.readline().split()
        feature_ids = [int(tok) for tok in id_line[1:]]
        windows = np.empty((n, t, f))
        targets = np.empty(n)
        provenance = []
        for i, row in enumerate(csv.reader(fh)):
            provenance.append((row[0], Date.fromisoformat(row[1])))
            targets[i] = float(row[2])
            windows[i] = np.array([float(c) for c in row[3:]]).reshape(t, f)
    return WindowedDataset(
        windows=windows, targets=targets, provenance=provenance, feature_ids=feature_ids
    )
