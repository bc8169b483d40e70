"""Exception hierarchy. The CLI maps these onto exit codes:

1 = configuration error, 2 = data error, 3 = numeric divergence.
"""
from __future__ import annotations


class HddRulError(Exception):
    """Base class for package errors."""


class ConfigError(HddRulError):
    """Invalid configuration, option, or model/data shape mismatch."""


class DataError(HddRulError):
    """Malformed or inconsistent input data."""


class SnapshotParseError(DataError):
    """A snapshot CSV row could not be parsed."""

    def __init__(self, row_index: int, reason: str, path=None):
        self.row_index = row_index
        where = f"row {row_index}" if path is None else f"{path}: row {row_index}"
        super().__init__(f"{where}: {reason}")


class InconsistentCorpusError(DataError):
    """The corpus contradicts itself (missing failure-day record, duplicate days)."""


class NumericError(HddRulError):
    """Non-finite values reached a numeric routine."""


class DivergenceError(NumericError):
    """Training produced a non-finite loss. Carries the trace gathered so far."""

    def __init__(self, message: str, trace=None):
        super().__init__(message)
        self.trace = trace


class UndefinedCorrelationError(ValueError):
    """Correlation is undefined (zero variance in one of the inputs)."""


class UndefinedMetricError(ValueError):
    """Metric undefined for the given inputs (e.g. constant actuals)."""
