"""Metrics, the prediction path of every model kind, reports, and the model matrix.

Three metrics per (model, cohort) pair: rounded accuracy (fraction of
predictions that land on the true day after half-away-from-zero rounding),
R-squared, and mean absolute error in days. Every report carries its full
(actual, predicted) dump sorted by actual RUL, so the header metrics can be
recomputed from the file and the dump can be plotted directly.
"""
from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from . import preprocess
from .dataset import DriveFrame
from .errors import ConfigError, DataError, UndefinedMetricError
from .forest import RandomForest
from .neural import BiLstmModel


def round_half_away_from_zero(x) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    return np.copysign(np.floor(np.abs(x) + 0.5), x)


def _check_lengths(predictions, actuals):
    predictions = np.asarray(predictions, dtype=np.float64)
    actuals = np.asarray(actuals, dtype=np.float64)
    if predictions.shape != actuals.shape or predictions.ndim != 1 or predictions.size == 0:
        raise ValueError("predictions and actuals must be equal-length non-empty vectors")
    return predictions, actuals


def accuracy_rounded(predictions, actuals) -> float:
    """Fraction of samples whose rounded prediction equals the actual day."""
    predictions, actuals = _check_lengths(predictions, actuals)
    return float(np.mean(round_half_away_from_zero(predictions) == actuals))


def mae(predictions, actuals) -> float:
    predictions, actuals = _check_lengths(predictions, actuals)
    return float(np.mean(np.abs(predictions - actuals)))


def r2(predictions, actuals) -> float:
    """1 - SS_res / SS_tot about the actuals' mean; undefined for constant actuals."""
    predictions, actuals = _check_lengths(predictions, actuals)
    if predictions.size < 2:
        raise ValueError("need at least two samples")
    ss_tot = float(np.sum((actuals - actuals.mean()) ** 2))
    if ss_tot == 0.0:
        raise UndefinedMetricError("constant actuals")
    ss_res = float(np.sum((actuals - predictions) ** 2))
    return 1.0 - ss_res / ss_tot


@dataclass
class EvalReport:
    model_id: str
    timesteps: int | None
    cohort_id: str
    accuracy: float
    r2: float
    mae: float
    pairs: np.ndarray  # (n, 2) of (actual, predicted), sorted by actual

    @property
    def n_samples(self) -> int:
        return self.pairs.shape[0]


def evaluate_pairs(
    actuals, predictions, *, model_id: str, cohort_id: str, timesteps: int | None = None
) -> EvalReport:
    predictions, actuals = _check_lengths(predictions, actuals)
    order = np.argsort(actuals, kind="stable")
    pairs = np.column_stack([actuals[order], predictions[order]])
    return EvalReport(
        model_id=model_id,
        timesteps=timesteps,
        cohort_id=cohort_id,
        accuracy=accuracy_rounded(predictions, actuals),
        r2=r2(predictions, actuals),
        mae=mae(predictions, actuals),
        pairs=pairs,
    )


# ---------------------------------------------------------------------------
# Model x cohort matrix


def _select(frames: Sequence[DriveFrame], feature_ids: Sequence[int]) -> list[DriveFrame]:
    """``frames`` restricted to ``feature_ids``; a frame that lacks one raises
    ConfigError naming it."""
    try:
        return [f.select(feature_ids) for f in frames]
    except KeyError as exc:
        raise ConfigError(exc.args[0]) from exc


def per_day_rows(
    frames: Sequence[DriveFrame], feature_ids: Sequence[int]
) -> tuple[np.ndarray, np.ndarray]:
    """Raw per-day rows of ``feature_ids`` and their targets: the one-day
    windows of :func:`~hddrul.preprocess.window`, so in its drive-day order. A
    frame that lacks one of ``feature_ids`` raises ConfigError."""
    dataset = preprocess.window(_select(frames, feature_ids), 1)
    return dataset.windows[:, 0], dataset.targets


def predict_frames(
    model: BiLstmModel | RandomForest,
    frames: Sequence[DriveFrame],
    clip: tuple[float, float] | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Targets and estimates for every drive-day of ``frames``, by serial then date.

    A sequence model reads each day's window of per-device standardized
    attributes; the forest reads each day's raw attribute row. ``clip=(lo, hi)``
    clamps the estimates. A frame that lacks one of the model's attributes
    raises ConfigError.
    """
    if isinstance(model, BiLstmModel):
        standardized = [preprocess.standardize_per_device(f)
                        for f in _select(frames, model.feature_ids)]
        dataset = preprocess.window(standardized, model.timesteps)
        targets, predictions = dataset.targets, model.predict(dataset.windows)
    else:
        X, targets = per_day_rows(frames, model.feature_ids)
        predictions = model.predict(X)
    if clip is not None:
        predictions = np.clip(predictions, clip[0], clip[1])
    return targets, predictions


def run_matrix(
    models: dict[str, BiLstmModel | RandomForest],
    cohorts: dict[str, Sequence[DriveFrame]],
    clip: tuple[float, float] | None = None,
) -> list[EvalReport]:
    """Evaluate every model (keyed by its report id) on every cohort."""
    return [
        evaluate_pairs(
            *predict_frames(model, frames, clip),
            model_id=model_id,
            cohort_id=cohort_id,
            timesteps=getattr(model, "timesteps", None),
        )
        for cohort_id, frames in cohorts.items()
        for model_id, model in models.items()
    ]


# ---------------------------------------------------------------------------
# Report files


def write_report_csv(report: EvalReport, path: str | Path) -> None:
    """Metrics header block (comment lines) followed by actual,predicted rows."""
    with open(path, "w", newline="\n", encoding="utf-8") as fh:
        fh.write(f"# model {report.model_id}\n")
        fh.write(f"# timesteps {report.timesteps if report.timesteps is not None else 'NA'}\n")
        fh.write(f"# cohort {report.cohort_id}\n")
        fh.write(f"# samples {report.n_samples}\n")
        fh.write("# accuracy %.17g\n" % report.accuracy)
        fh.write("# r2 %.17g\n" % report.r2)
        fh.write("# mae %.17g\n" % report.mae)
        fh.write("actual,predicted\n")
        fh.write(("%.17g,%.17g\n" * report.n_samples) % tuple(report.pairs.ravel().tolist()))


def read_report_csv(path: str | Path) -> EvalReport:
    """Inverse of write_report_csv; a malformed or truncated file, or a metric or
    pair cell that is not a finite number, raises DataError naming it."""
    meta: dict[str, str] = {}
    pairs = []
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for line in fh:
                line = line.rstrip("\n")
                if line.startswith("# "):
                    key, _, rest = line[2:].partition(" ")
                    meta[key] = rest
                elif line and line != "actual,predicted":
                    a, _, p = line.partition(",")
                    pairs.append((float(a), float(p)))
        if len(pairs) != int(meta["samples"]):
            raise ValueError(f"{len(pairs)} rows, but the header says {meta['samples']}")
        metrics = {name: float(meta[name]) for name in ("accuracy", "r2", "mae")}
        values = np.array(pairs).reshape(-1, 2)
        for name, value in [*metrics.items(), ("a pair cell", values)]:
            if not np.isfinite(value).all():
                raise ValueError(f"{name} is not a finite number")
        return EvalReport(
            model_id=meta["model"],
            timesteps=None if meta["timesteps"] == "NA" else int(meta["timesteps"]),
            cohort_id=meta["cohort"],
            pairs=values,
            **metrics,
        )
    except (OSError, KeyError, ValueError) as exc:
        raise DataError(f"{path}: cannot read the report file ({type(exc).__name__}: {exc})") from exc


_ARCH_RANK = {"lstm": 0, "bilstm": 1, "forest": 2}

_DISPLAY = {"lstm": "LSTM", "bilstm": "Bi-LSTM", "forest": "RF"}


def _summary_sort_key(report: EvalReport):
    arch = report.model_id.split("_")[0]
    return (
        _ARCH_RANK.get(arch, len(_ARCH_RANK)),
        report.timesteps if report.timesteps is not None else -1,
        report.model_id,
    )


def _summary_rows(reports: Sequence[EvalReport]) -> list[tuple]:
    """(model, timesteps, accuracy, r2, mae) of each report, in table order."""
    return [
        (
            _DISPLAY.get(r.model_id.split("_")[0], r.model_id),
            "NA" if r.timesteps is None else r.timesteps,
            r.accuracy,
            r.r2,
            r.mae,
        )
        for r in sorted(reports, key=_summary_sort_key)
    ]


def write_summary_csv(reports: Sequence[EvalReport], path: str | Path) -> None:
    """Comparison table: model, timesteps, accuracy, r2, mae."""
    with open(path, "w", newline="\n", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["model", "timesteps", "accuracy", "r2", "mae"])
        for model, timesteps, *metrics in _summary_rows(reports):
            writer.writerow([model, timesteps, *("%.3f" % m for m in metrics)])


def format_summary(reports: Sequence[EvalReport]) -> str:
    lines = ["%-10s %-9s %-9s %-9s %-9s" % ("model", "timesteps", "accuracy", "r2", "mae")]
    lines += ["%-10s %-9s %-9.3f %-9.3f %-9.3f" % row for row in _summary_rows(reports)]
    return "\n".join(lines)
