"""Hard-drive remaining-useful-life pipeline.

Ingests daily SMART snapshots (or generates seeded synthetic cohorts), labels
pre-failure windows with capped RUL, selects predictors, standardizes per
device, and trains from-scratch LSTM / bidirectional LSTM regressors next to
a random-forest baseline, evaluated on 60-day and 120-day test horizons.
"""

from .dataset import (
    DriveFrame,
    DriveRecord,
    FailureEvent,
    LabeledSeries,
    SynthConfig,
    build_labeled_series,
    cap_rul,
    generate_synthetic,
    parse_snapshot_row,
    scan_failures,
)
from .evaluation import EvalReport, accuracy_rounded, mae, predict_frames, r2, run_matrix
from .features import FeatureScoreTable, correlation_scores, pearson, select_features, tree_importances
from .forest import RandomForest, RegressionTree, fit_forest, fit_tree
from .neural import (
    AdamState,
    BiLstmModel,
    TrainSettings,
    TrainTrace,
    adam_step,
    backward,
    mse_loss,
    train,
)
from .preprocess import WindowedDataset, standardize_per_device, window

__version__ = "0.1.0"

__all__ = [
    "DriveFrame",
    "DriveRecord",
    "FailureEvent",
    "LabeledSeries",
    "SynthConfig",
    "build_labeled_series",
    "cap_rul",
    "generate_synthetic",
    "parse_snapshot_row",
    "scan_failures",
    "EvalReport",
    "accuracy_rounded",
    "mae",
    "predict_frames",
    "r2",
    "run_matrix",
    "FeatureScoreTable",
    "correlation_scores",
    "pearson",
    "select_features",
    "tree_importances",
    "RandomForest",
    "RegressionTree",
    "fit_forest",
    "fit_tree",
    "AdamState",
    "BiLstmModel",
    "TrainSettings",
    "TrainTrace",
    "adam_step",
    "backward",
    "mse_loss",
    "train",
    "WindowedDataset",
    "standardize_per_device",
    "window",
    "__version__",
]
