"""Output checks for the benchmark workloads.

Each check returns a list of problems; an empty list means the outputs are
correct. The checks read the files the CLI wrote and recompute what they can
on their own (report metrics, cohort rows and labels) instead of calling the
library code under test.
"""
from __future__ import annotations

import csv
import hashlib
import math
from datetime import date as Date
from pathlib import Path

import numpy as np


def tree_digest(*roots: Path) -> str:
    """SHA-256 over the relative paths and bytes of every file under ``roots``."""
    h = hashlib.sha256()
    for root in roots:
        for path in sorted(p for p in root.rglob("*") if p.is_file()):
            h.update(str(path.relative_to(root.parent)).encode())
            h.update(b"\0")
            h.update(path.read_bytes())
    return h.hexdigest()


def read_report(path: Path) -> tuple[dict[str, str], np.ndarray]:
    header: dict[str, str] = {}
    rows = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.rstrip("\n")
            if line.startswith("# "):
                key, _, value = line[2:].partition(" ")
                header[key] = value
            elif line and line != "actual,predicted":
                a, p = line.split(",")
                rows.append((float(a), float(p)))
    return header, np.array(rows, dtype=np.float64).reshape(-1, 2)


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-12)


def check_report(path: Path) -> tuple[list[str], dict[str, str]]:
    """Header metrics must recompute from the report's own rows; returns (problems, header)."""
    header, pairs = read_report(path)
    actual, predicted = pairs[:, 0], pairs[:, 1]
    problems = []
    if int(header.get("samples", -1)) != len(pairs) or len(pairs) < 2:
        problems.append(f"{path.name}: samples {header.get('samples')} vs {len(pairs)} rows")
        return problems, header
    if np.any(np.diff(actual) < 0):
        problems.append(f"{path.name}: rows not sorted by actual")
    rounded = np.floor(np.abs(predicted) + 0.5) * np.sign(predicted)
    residual = actual - predicted
    ss_tot = float(((actual - actual.mean()) ** 2).sum())
    expected = {
        "accuracy": float((rounded == actual).mean()),
        "mae": float(np.abs(residual).mean()),
        "r2": 1.0 - float((residual ** 2).sum()) / ss_tot,
    }
    for key, value in expected.items():
        if not _close(float(header.get(key, "nan")), value):
            problems.append(f"{path.name}: header {key} {header.get(key)} != rows {value!r}")
    return problems, header


def check_model_run(out: Path, expected_models: list[str]) -> tuple[list[str], dict]:
    """Models and reports of a synth/features/train/evaluate pass.

    Returns the problems and the accuracy figures the benchmark reports.
    """
    problems = []
    models = out / "models"
    reports = out / "reports"
    for name in expected_models + ["forest"]:
        if not (models / f"{name}.model").is_file():
            problems.append(f"missing model {name}.model")
    mae: dict[str, float] = {}
    for cohort in ("test60", "test120"):
        for name in expected_models + ["forest"]:
            path = reports / f"{name}_{cohort}.csv"
            if not path.is_file():
                problems.append(f"missing report {path.name}")
                continue
            more, header = check_report(path)
            problems += more
            mae[f"{name}_{cohort}"] = float(header.get("mae", "nan"))
    # the forest holdout report is checked for as long as train writes it
    holdout = reports / "forest_holdout.csv"
    if holdout.is_file():
        problems += check_report(holdout)[0]
    for key, value in mae.items():
        if not math.isfinite(value):
            problems.append(f"{key}: mae {value} is not finite")
    figures = {}
    if not problems:
        for cohort in ("test60", "test120"):
            figures[f"seq_mae_{cohort}"] = float(np.mean([mae[f"{m}_{cohort}"] for m in expected_models]))
            figures[f"forest_mae_{cohort}"] = mae[f"forest_{cohort}"]
        figures["model_bytes"] = sum(p.stat().st_size for p in models.iterdir())
    return problems, figures


def _read_cohort(path: Path):
    with open(path, encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        by_serial: dict[str, list[list[str]]] = {}
        for row in reader:
            by_serial.setdefault(row[0], []).append(row)
    return header, by_serial


def check_ingest(out: Path, truth, cap: int, lookbacks: dict[str, int]) -> list[str]:
    """Cohort CSVs written by ``ingest`` against the corpus ground truth."""
    problems = []
    cohorts = {}
    for name in lookbacks:
        path = out / "cohorts" / f"{name}.csv"
        if not path.is_file():
            return [f"missing cohort {path.name}"]
        header, by_serial = _read_cohort(path)
        expected_header = ["serial", "date", "rul"] + [f"smart_{fid}" for fid in truth.columns]
        if header != expected_header:
            problems.append(f"{name}: columns {header[3:]} != {expected_header[3:]}")
            continue
        cohorts[name] = by_serial
    if problems:
        return problems

    kept = set(truth.failed) - truth.skipped
    train, test = set(cohorts["train"]), set(cohorts["test60"])
    if train & test:
        problems.append(f"drives in both train and test: {sorted(train & test)}")
    if train | test != kept:
        problems.append(f"cohort drives {len(train | test)} != failed minus skipped {len(kept)}")
    if set(cohorts["test120"]) != test:
        problems.append("test120 and test60 hold different drives")

    for name, lookback in lookbacks.items():
        by_serial = cohorts[name]
        for serial, drive_rows in by_serial.items():
            problems += _check_drive(name, serial, drive_rows, truth, cap, lookback)
            if len(problems) > 20:
                return problems
    return problems


def _check_drive(cohort, serial, rows, truth, cap, lookback) -> list[str]:
    fail_date = truth.failed.get(serial)
    if fail_date is None:
        return [f"{cohort}: {serial} is not a failed target drive"]
    problems = []
    if len(rows) != truth.rows[(serial, lookback)]:
        problems.append(f"{cohort}: {serial} has {len(rows)} rows, ground truth {truth.rows[(serial, lookback)]}")
    dates = [Date.fromisoformat(r[1]) for r in rows]
    if any(b <= a for a, b in zip(dates, dates[1:])) or dates[-1] != fail_date:
        problems.append(f"{cohort}: {serial} dates not increasing up to its failure day")
    for row, day in zip(rows, dates):
        if int(row[2]) != min((fail_date - day).days, cap):
            problems.append(f"{cohort}: {serial} {day} rul {row[2]}")
            break
        reported = truth.values[(serial, day)]
        for fid, cell in zip(truth.columns, row[3:]):
            if fid in reported and float(cell) != reported[fid]:
                problems.append(f"{cohort}: {serial} {day} smart_{fid} {cell} != {reported[fid]}")
                return problems
    return problems
