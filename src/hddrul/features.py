"""Attribute scoring and the default predictor set.

Two scores per SMART attribute: the absolute value of the per-drive Pearson
correlations with the RUL label averaged across drives (signed average first,
then absolute value), and the impurity-decrease importance from a single
regression tree fit on the pooled drive-days. The default predictor set is
attributes 7, 9, 240, 241 and 242 (seek errors, power-on hours, head flying
hours, LBAs written/read); a run's ``features`` key replaces it.
"""
from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np

from . import forest
from .dataset import LabeledSeries, materialize_cohort
from .errors import UndefinedCorrelationError

DEFAULT_FEATURES = [7, 9, 240, 241, 242]


def pearson(x: Sequence[float], y: Sequence[float]) -> float:
    """Product-moment correlation coefficient of two equal-length sequences.

    Raises :class:`UndefinedCorrelationError` when either input has zero
    variance.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.shape != y.shape or x.ndim != 1:
        raise ValueError("x and y must be 1-d sequences of equal length")
    if len(x) < 2:
        raise ValueError("need at least two points")
    dx = x - x.mean()
    dy = y - y.mean()
    sxx = float(np.dot(dx, dx))
    syy = float(np.dot(dy, dy))
    if sxx == 0.0 or syy == 0.0:
        raise UndefinedCorrelationError("zero variance input")
    return float(np.dot(dx, dy) / math.sqrt(sxx * syy))


def correlation_scores(
    cohort: Sequence[LabeledSeries], attributes: Sequence[int]
) -> dict[int, float]:
    """|mean over drives of per-drive pearson(attribute, rul)| per attribute.

    A drive contributes to an attribute only where the attribute has at least
    two reported values with the correlation defined; attributes undefined on
    every drive are absent from the result rather than zero-filled.
    """
    per_drive: dict[int, list[float]] = {attr: [] for attr in attributes}
    for series in cohort:
        rul = np.asarray(series.rul, dtype=np.float64)
        for attr, x in zip(per_drive, series.rows.columns(list(per_drive)).T):
            reported = ~np.isnan(x)
            if np.count_nonzero(reported) < 2:
                continue
            try:
                per_drive[attr].append(pearson(x[reported], rul[reported]))
            except UndefinedCorrelationError:
                continue
    return {attr: abs(float(np.mean(r))) for attr, r in per_drive.items() if r}


@dataclass
class TreeImportances:
    values: dict[int, float]


def tree_importances(
    X: np.ndarray, y: np.ndarray, attribute_ids: Sequence[int]
) -> TreeImportances:
    """Impurity-decrease importances of one regression tree, normalized to 1.

    A constant target grows no splits; the result is then all zeros.
    """
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    y = np.asarray(y, dtype=np.float64)
    if X.shape[0] < 2:
        raise ValueError("need at least two rows")
    if X.shape[1] != len(attribute_ids):
        raise ValueError("attribute_ids must match the columns of X")
    raw = forest.fit_tree(X, y).importance
    total = raw.sum()
    norm = raw / total if total > 0.0 else np.zeros_like(raw)
    return TreeImportances(dict(zip(attribute_ids, norm.tolist())))


@dataclass
class FeatureScoreTable:
    """Per-attribute correlation score and tree importance (either may be absent)."""

    correlation: dict[int, float] = field(default_factory=dict)
    importance: dict[int, float] = field(default_factory=dict)

    @property
    def attributes(self) -> list[int]:
        return sorted(set(self.correlation) | set(self.importance))

    def ranked(self) -> list[tuple[int, float | None, float | None]]:
        """Rows sorted by correlation score (descending, missing last)."""
        rows = [
            (fid, self.correlation.get(fid), self.importance.get(fid))
            for fid in self.attributes
        ]
        rows.sort(key=lambda r: (-(r[1] if r[1] is not None else -1.0), r[0]))
        return rows

    def to_csv(self, path: str | Path) -> None:
        with open(path, "w", newline="\n", encoding="utf-8") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["attribute", "correlation_score", "tree_importance"])
            for fid, corr, imp in self.ranked():
                writer.writerow(
                    [
                        fid,
                        "" if corr is None else repr(corr),
                        "" if imp is None else repr(imp),
                    ]
                )


def score_features(
    cohort: Sequence[LabeledSeries],
    attributes: Sequence[int],
    tree_attributes: Sequence[int] | None = None,
) -> FeatureScoreTable:
    """Build the score table for a cohort.

    ``attributes`` are scored by correlation; the tree is fit on
    ``tree_attributes`` (default: same list), which must be densely
    materializable (present on every drive).
    """
    corr = correlation_scores(cohort, attributes)
    tree_ids = list(tree_attributes if tree_attributes is not None else attributes)
    frames = materialize_cohort(cohort, tree_ids)
    X = np.concatenate([f.values for f in frames], axis=0)
    y = np.concatenate([f.rul.astype(np.float64) for f in frames])
    return FeatureScoreTable(correlation=corr, importance=tree_importances(X, y, tree_ids).values)

