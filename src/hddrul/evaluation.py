"""Metrics, per-cohort evaluation reports, and the model-comparison matrix.

Three metrics per (model, cohort) pair: rounded accuracy (fraction of
predictions that land on the true day after half-away-from-zero rounding),
R-squared, and mean absolute error in days. Every report carries its full
(actual, predicted) dump sorted by actual RUL, so the header metrics can be
recomputed from the file and the dump can be plotted directly.
"""
from __future__ import annotations

import csv
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from . import preprocess
from .dataset import DriveFrame
from .errors import ConfigError, DataError, UndefinedMetricError
from .neural import BiLstmModel
from .preprocess import WindowedDataset


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


def evaluate(
    predictor: Callable[[np.ndarray], np.ndarray],
    dataset: WindowedDataset,
    *,
    model_id: str,
    cohort_id: str,
    timesteps: int | None = None,
) -> EvalReport:
    """Run a predictor over a windowed cohort and assemble its report."""
    predictions = np.asarray(predictor(dataset.windows), dtype=np.float64)
    if predictions.shape != dataset.targets.shape:
        raise ConfigError("predictor output does not align with the cohort")
    return evaluate_pairs(
        dataset.targets,
        predictions,
        model_id=model_id,
        cohort_id=cohort_id,
        timesteps=timesteps if timesteps is not None else dataset.timesteps,
    )


# ---------------------------------------------------------------------------
# Model x cohort matrix


def sequence_model_inputs(
    frames: Sequence[DriveFrame], model: BiLstmModel
) -> WindowedDataset:
    """Standardize per device and window a raw cohort for a sequence model."""
    selected = [f.select(model.feature_ids) for f in frames]
    standardized = [preprocess.standardize_per_device(f) for f in selected]
    return preprocess.window(standardized, model.timesteps)


def per_day_rows(
    frames: Sequence[DriveFrame], feature_ids: Sequence[int]
) -> tuple[np.ndarray, np.ndarray]:
    """Raw per-day feature rows and targets, ordered like window() provenance."""
    ordered = sorted(frames, key=lambda f: f.serial)
    selected = [f.select(feature_ids) for f in ordered]
    X = np.concatenate([f.values for f in selected], axis=0)
    y = np.concatenate([f.rul.astype(np.float64) for f in selected])
    return X, y


def run_matrix(
    models: dict,
    cohorts: dict[str, Sequence[DriveFrame]],
    clip: tuple[float, float] | None = None,
) -> list[EvalReport]:
    """Evaluate every available model on every cohort.

    ``models`` maps ``"lstm"`` / ``"bilstm"`` to ``{timesteps: BiLstmModel}``
    and ``"forest"`` to a fitted forest (or None). Sequence models consume
    per-device standardized windows; the forest consumes raw per-day rows.
    Missing models are skipped with a warning. ``clip`` optionally clamps
    every model's predictions to a range before scoring.
    """

    def clamp(preds: np.ndarray) -> np.ndarray:
        return np.clip(preds, clip[0], clip[1]) if clip is not None else preds

    reports = []
    for cohort_id, frames in cohorts.items():
        for arch in ("lstm", "bilstm"):
            for timesteps, model in sorted(models.get(arch, {}).items()):
                if model is None:
                    warnings.warn(f"{arch} model for {timesteps} timesteps missing; skipped")
                    continue
                dataset = sequence_model_inputs(frames, model)
                reports.append(
                    evaluate(
                        lambda w, m=model: clamp(m.predict(w)),
                        dataset,
                        model_id=f"{arch}_t{timesteps}",
                        cohort_id=cohort_id,
                        timesteps=timesteps,
                    )
                )
        rf = models.get("forest")
        if rf is None:
            warnings.warn("forest model missing; skipped")
        else:
            X, y = per_day_rows(frames, rf.feature_ids)
            report = evaluate_pairs(
                y, clamp(rf.predict(X)), model_id="forest", cohort_id=cohort_id, timesteps=None
            )
            reports.append(report)
    return reports


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
        for actual, predicted in report.pairs:
            fh.write("%.17g,%.17g\n" % (actual, predicted))


def read_report_csv(path: str | Path) -> EvalReport:
    """Inverse of write_report_csv; a malformed or truncated file raises DataError naming it."""
    meta: dict[str, str] = {}
    pairs = []
    with open(path, "r", encoding="utf-8") as fh:
        try:
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
            return EvalReport(
                model_id=meta["model"],
                timesteps=None if meta["timesteps"] == "NA" else int(meta["timesteps"]),
                cohort_id=meta["cohort"],
                accuracy=float(meta["accuracy"]),
                r2=float(meta["r2"]),
                mae=float(meta["mae"]),
                pairs=np.array(pairs).reshape(-1, 2),
            )
        except (KeyError, ValueError) as exc:
            raise DataError(f"{path}: malformed report file ({type(exc).__name__}: {exc})") from exc


_ARCH_RANK = {"lstm": 0, "bilstm": 1, "forest": 2}

_DISPLAY = {"lstm": "LSTM", "bilstm": "Bi-LSTM", "forest": "RF"}


def _summary_sort_key(report: EvalReport):
    arch = report.model_id.split("_")[0]
    return (
        _ARCH_RANK.get(arch, len(_ARCH_RANK)),
        report.timesteps if report.timesteps is not None else -1,
        report.model_id,
    )


def write_summary_csv(reports: Sequence[EvalReport], path: str | Path) -> None:
    """Comparison table: model, timesteps, accuracy, r2, mae."""
    rows = sorted(reports, key=_summary_sort_key)
    with open(path, "w", newline="\n", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["model", "timesteps", "accuracy", "r2", "mae"])
        for r in rows:
            arch = r.model_id.split("_")[0]
            writer.writerow(
                [
                    _DISPLAY.get(arch, r.model_id),
                    "NA" if r.timesteps is None else r.timesteps,
                    "%.3f" % r.accuracy,
                    "%.3f" % r.r2,
                    "%.3f" % r.mae,
                ]
            )


def format_summary(reports: Sequence[EvalReport]) -> str:
    rows = sorted(reports, key=_summary_sort_key)
    lines = ["%-10s %-9s %-9s %-9s %-9s" % ("model", "timesteps", "accuracy", "r2", "mae")]
    for r in rows:
        arch = r.model_id.split("_")[0]
        lines.append(
            "%-10s %-9s %-9.3f %-9.3f %-9.3f"
            % (
                _DISPLAY.get(arch, r.model_id),
                "NA" if r.timesteps is None else r.timesteps,
                r.accuracy,
                r.r2,
                r.mae,
            )
        )
    return "\n".join(lines)
