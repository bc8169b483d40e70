"""Per-device standardization and sliding-window dataset construction.

Each (drive, feature) is z-scored with that drive's own statistics, so no
scaler is ever shared between drives (train or test). Standard deviations are
population (ddof=0) so the transformed variance is exactly 1; a constant
feature maps to all zeros.

Windowing turns standardized frames into a ``samples x timesteps x features``
block with one window per drive-day, newest day last. Days with too little
history are left-padded by replicating the earliest record, which keeps the
per-drive sample count equal to the series length and fabricates no trend.
"""
from __future__ import annotations

from dataclasses import dataclass
from datetime import date as Date
from typing import Sequence

import numpy as np

from .dataset import DriveFrame
from .errors import DataError


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
    values = frame.values
    mean = values.mean(axis=0)
    std = np.sqrt(((values - mean) ** 2).mean(axis=0))
    out = np.zeros_like(values)
    nz = std > 0.0
    out[:, nz] = (values[:, nz] - mean[nz]) / std[nz]
    return DriveFrame(
        serial=frame.serial,
        dates=list(frame.dates),
        feature_ids=list(frame.feature_ids),
        values=out,
        rul=frame.rul.copy(),
    )


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
