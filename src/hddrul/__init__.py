"""Hard-drive remaining-useful-life pipeline.

Ingests daily SMART snapshots (or generates seeded synthetic cohorts), labels
pre-failure windows with capped RUL, selects predictors, standardizes per
device, and trains from-scratch LSTM / bidirectional LSTM regressors next to
a random-forest baseline, evaluated on 60-day and 120-day test horizons.
"""

__version__ = "0.1.0"
