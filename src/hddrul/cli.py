"""Command-line orchestration of the full pipeline.

Subcommands: ``synth`` (seeded synthetic cohorts), ``ingest`` (snapshot CSVs
to cohort CSVs), ``features`` (score table + predictor selection), ``train``
(all sequence models + forest baseline), ``evaluate`` (dual-horizon report
matrix), ``predict`` (per-day RUL for one drive history), ``report``
(reassemble summary tables from report files).

A run is described by a flat key/value config file (one ``key value`` pair
per line, ``#`` comments, ``schema_version 1``); every key can be overridden
by a command-line flag, and flags win. All randomness derives from the single
``seed`` key. Exit codes: 0 success, 1 configuration error, 2 data error,
3 numeric divergence.
"""
from __future__ import annotations

import argparse
import csv
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, fields, replace
from pathlib import Path

import numpy as np

from . import dataset as ds
from . import evaluation as ev
from . import features as feat
from . import forest as rf
from . import neural
from . import preprocess as pp
from .errors import ConfigError, DataError, NumericError
from .seeding import derive_seed

SCHEMA_VERSION = 1


@dataclass
class RunConfig:
    out: str = "runs/out"
    snapshot_dir: str = ""
    model_filter: str = "ST4000DM000"
    features: tuple[int, ...] | None = None  # None = default predictor set
    timesteps: tuple[int, ...] = (5, 10, 15, 30)
    lookback_train: int = 60
    lookback_test: int = 60
    lookback_extrap: int = 120
    cap: int = 30
    hidden_size: int = 32
    epochs: int = 50
    batch_size: int = 64
    learning_rate: float = 1e-3
    grad_clip: float | None = 5.0
    clip_predictions: bool = False
    seed: int = 76001
    rf_estimators: int = 1000
    rf_features: str = "all"  # all | selected
    rf_bootstrap: bool = True
    synth_train_drives: int = 78
    synth_test_drives: int = 71
    synth_extrap_drives: int = 133
    synth_features: int = 5
    synth_jump_day: int = 15
    synth_noise: float = 0.05
    ingest_train_frac: float = 0.5
    threads: int = 1

    def validate(self) -> None:
        if any(t < 1 or t > self.lookback_train for t in self.timesteps):
            raise ConfigError("timesteps must lie in 1..lookback_train")
        for name in ("lookback_train", "lookback_test", "lookback_extrap", "cap",
                     "hidden_size", "batch_size", "rf_estimators", "threads"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1")
        if self.epochs < 0:
            raise ConfigError("epochs must be >= 0")
        if self.rf_features not in ("all", "selected"):
            raise ConfigError("rf_features must be 'all' or 'selected'")
        if not 0.0 < self.ingest_train_frac < 1.0:
            raise ConfigError("ingest_train_frac must lie in (0, 1)")


def _parse_int_list(text: str) -> tuple[int, ...]:
    return tuple(int(tok) for tok in text.replace(",", " ").split())


def _format_value(name: str, value) -> str:
    if value is None:
        return "none" if name == "grad_clip" else "default"
    if isinstance(value, bool):
        return str(int(value))
    if isinstance(value, tuple):
        return ",".join(str(v) for v in value)
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _parse_value(name: str, ftype: str, text: str):
    text = text.strip()
    if name == "features":
        return None if text == "default" else _parse_int_list(text)
    if name == "grad_clip":
        return None if text == "none" else float(text)
    if name == "timesteps":
        return _parse_int_list(text)
    if ftype == "int":
        return int(text)
    if ftype == "float":
        return float(text)
    if ftype == "bool":
        return bool(int(text))
    return text


# annotation strings; features, timesteps and grad_clip are parsed by name
_FIELD_TYPES = {f.name: f.type for f in fields(RunConfig)}


def load_config(path: str | Path) -> RunConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.read().split("\n")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"{path}: cannot read the config file ({exc})") from exc
    config = RunConfig()
    seen_version = False
    for ln, line in enumerate(lines, start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        key, _, value = line.partition(" ")
        if key == "schema_version":
            if value.strip() != str(SCHEMA_VERSION):
                raise ConfigError(f"{path}:{ln}: unsupported schema_version {value.strip()!r}")
            seen_version = True
            continue
        if key not in _FIELD_TYPES:
            raise ConfigError(f"{path}:{ln}: unknown config key {key!r}")
        try:
            setattr(config, key, _parse_value(key, _FIELD_TYPES[key], value))
        except ValueError as exc:
            raise ConfigError(f"{path}:{ln}: bad value for {key}: {exc}") from exc
    if not seen_version:
        raise ConfigError(f"{path}: missing schema_version")
    return config


def config_text(config: RunConfig) -> str:
    lines = [f"schema_version {SCHEMA_VERSION}"]
    for f in fields(RunConfig):
        lines.append(f"{f.name} {_format_value(f.name, getattr(config, f.name))}")
    return "\n".join(lines) + "\n"


def _write_run_config(config: RunConfig, out: Path) -> None:
    out.mkdir(parents=True, exist_ok=True)
    (out / "run_config.txt").write_text(config_text(config), encoding="utf-8", newline="\n")


# ---------------------------------------------------------------------------
# Shared pipeline pieces


def _selected_features(config: RunConfig) -> list[int]:
    return list(config.features) if config.features is not None else list(feat.DEFAULT_FEATURES)


# (cohort, drive-count key, lookback key, serial prefix) of each synthetic cohort
_SYNTH_COHORTS = [
    ("train", "synth_train_drives", "lookback_train", "TRN"),
    ("test60", "synth_test_drives", "lookback_test", "T60"),
    ("test120", "synth_extrap_drives", "lookback_extrap", "T12"),
]


def _synth_series(config: RunConfig, name: str, drives_key: str, lookback_key: str, prefix: str):
    synth = ds.SynthConfig(
        n_drives=getattr(config, drives_key),
        lookback_days=getattr(config, lookback_key),
        n_features=config.synth_features,
        jump_day=config.synth_jump_day,
        noise_scale=config.synth_noise,
        seed=derive_seed(config.seed, f"synth/{name}"),
    )
    try:
        synth.validate()
    except ValueError as exc:
        raise ConfigError(
            f"synthetic {name} cohort: {exc} ({drives_key} {synth.n_drives}, "
            f"{lookback_key} {synth.lookback_days}, synth_features {synth.n_features}, "
            f"synth_jump_day {synth.jump_day}, synth_noise {synth.noise_scale!r})"
        ) from exc
    return ds.generate_synthetic(synth, serial_prefix=prefix)


def _write_manifest(path: Path, rows: list[dict]) -> None:
    with open(path, "w", newline="\n", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["cohort", "file", "drives", "records", "date_min", "date_max"])
        for row in rows:
            writer.writerow(
                [row["cohort"], row["file"], row["drives"], row["records"],
                 row["date_min"], row["date_max"]]
            )


def _manifest_row(name: str, filename: str, frames) -> dict:
    dates = [d for f in frames for d in f.dates]
    return {
        "cohort": name,
        "file": filename,
        "drives": len(frames),
        "records": sum(len(f.dates) for f in frames),
        "date_min": min(dates).isoformat() if dates else "",
        "date_max": max(dates).isoformat() if dates else "",
    }


def _read_cohort(out: Path, name: str):
    path = out / "cohorts" / f"{name}.csv"
    if not path.exists():
        raise ConfigError(f"cohort file {path} not found; run `synth` or `ingest` first")
    frames = ds.read_cohort_csv(path)
    if not frames:
        raise DataError(f"{path}: the {name} cohort holds no drives")
    return frames


# ---------------------------------------------------------------------------
# Commands


def cmd_synth(config: RunConfig) -> int:
    out = Path(config.out)
    (out / "cohorts").mkdir(parents=True, exist_ok=True)
    manifest = []
    for name, drives_key, lookback_key, prefix in _SYNTH_COHORTS:
        series = _synth_series(config, name, drives_key, lookback_key, prefix)
        capped = [ds.cap_rul(s, config.cap) for s in series]
        ids = ds.synthetic_attribute_ids(config.synth_features)
        frames = ds.materialize_cohort(capped, ids)
        filename = f"{name}.csv"
        ds.write_cohort_csv(out / "cohorts" / filename, frames)
        manifest.append(_manifest_row(name, filename, frames))
    _write_manifest(out / "cohorts" / "manifest.csv", manifest)
    _write_run_config(config, out)
    print(f"synth: wrote {len(manifest)} cohorts under {out / 'cohorts'}")
    return 0


def _read_snapshots(config: RunConfig) -> list[ds.DriveRecord]:
    snapshot_dir = Path(config.snapshot_dir)
    if not config.snapshot_dir or not snapshot_dir.is_dir():
        raise ConfigError(f"snapshot_dir {config.snapshot_dir!r} is not a directory")
    paths = sorted(snapshot_dir.glob("*.csv"))
    if not paths:
        return []
    if config.threads > 1:
        with ThreadPoolExecutor(max_workers=config.threads) as pool:
            chunks = list(pool.map(ds.read_snapshot_csv, paths))
    else:
        chunks = [ds.read_snapshot_csv(p) for p in paths]
    records = [rec for chunk in chunks for rec in chunk]
    records.sort(key=lambda r: (r.serial, r.date))
    return records


def _split_events(config: RunConfig, records: list[ds.DriveRecord]):
    """Failures of ``model_filter`` drives, split into train and test drives.

    Returns ``(records by serial, train events, test events)``, or None when
    no drive of the model failed. The split is the seeded
    ``ingest_train_frac`` draw, so ``ingest`` and ``features`` agree on it.
    """
    events = ds.scan_failures(records, config.model_filter)
    if not events:
        return None
    by_serial: dict[str, list[ds.DriveRecord]] = {}
    for rec in records:
        by_serial.setdefault(rec.serial, []).append(rec)
    perm = np.random.default_rng(derive_seed(config.seed, "ingest/split")).permutation(len(events))
    n_train = max(1, min(len(events) - 1, round(len(events) * config.ingest_train_frac)))
    train_events = [events[i] for i in sorted(perm[:n_train])]
    test_events = [events[i] for i in sorted(perm[n_train:])]
    return by_serial, train_events, test_events


def _labeled_series(command: str, by_serial, events, lookback: int) -> list[ds.LabeledSeries]:
    """Uncapped labeled series of the failed drives; an inconsistent drive is skipped and reported."""
    series = []
    for event in events:
        try:
            series.append(ds.build_labeled_series(by_serial[event.serial], event, lookback))
        except DataError as exc:
            print(f"{command}: skipping drive {event.serial}: {exc}", file=sys.stderr)
    return series


def cmd_ingest(config: RunConfig) -> int:
    out = Path(config.out)
    (out / "cohorts").mkdir(parents=True, exist_ok=True)
    split = _split_events(config, _read_snapshots(config))
    if split is None:
        print("ingest: no matching failures found; wrote empty manifest", file=sys.stderr)
        _write_manifest(out / "cohorts" / "manifest.csv", [])
        _write_run_config(config, out)
        return 0
    by_serial, train_events, test_events = split

    def build(event_list, lookback):
        labeled = _labeled_series("ingest", by_serial, event_list, lookback)
        return [ds.cap_rul(s, config.cap) for s in labeled]

    cohorts = {
        "train": build(train_events, config.lookback_train),
        "test60": build(test_events, config.lookback_test),
        "test120": build(test_events, config.lookback_extrap),
    }

    selected = _selected_features(config)
    survivors = {
        name: [
            s
            for s in series
            if all(any(rec.smart.get(fid) is not None for rec in s.records) for fid in selected)
        ]
        for name, series in cohorts.items()
    }
    for name in cohorts:
        dropped = len(cohorts[name]) - len(survivors[name])
        if dropped:
            print(f"ingest: {name}: excluded {dropped} drives missing selected features",
                  file=sys.stderr)
    all_series = [s for series in survivors.values() for s in series]
    if not all_series:
        raise DataError("no drives left after feature-availability filtering")
    columns = ds.attributes_on_every_drive(all_series)

    manifest = []
    for name, series in survivors.items():
        frames = ds.materialize_cohort(series, columns)
        filename = f"{name}.csv"
        ds.write_cohort_csv(out / "cohorts" / filename, frames)
        manifest.append(_manifest_row(name, filename, frames))
    _write_manifest(out / "cohorts" / "manifest.csv", manifest)
    _write_run_config(config, out)
    print(f"ingest: wrote {len(manifest)} cohorts under {out / 'cohorts'}")
    return 0


def _scoring_series(config: RunConfig):
    """Uncapped training-cohort series for attribute scoring."""
    if config.snapshot_dir:
        split = _split_events(config, _read_snapshots(config))
        if split is None:
            raise DataError("no matching failures found for feature scoring")
        by_serial, train_events, _ = split
        series = _labeled_series("features", by_serial, train_events, config.lookback_train)
        if not series:
            raise DataError("every train-split drive was skipped; nothing to score")
        return series
    return _synth_series(config, *_SYNTH_COHORTS[0])


def cmd_features(config: RunConfig) -> int:
    out = Path(config.out)
    (out / "features").mkdir(parents=True, exist_ok=True)
    series = _scoring_series(config)
    scoreable = sorted(
        {
            fid
            for s in series
            for rec in s.records
            for fid, v in rec.smart.items()
            if v is not None
        }
    )
    tree_ids = ds.attributes_on_every_drive(series)
    table = feat.score_features(series, scoreable, tree_attributes=tree_ids)
    selection = feat.select_features(table, config.features)
    table.to_csv(out / "features" / "features.csv")
    (out / "features" / "selected.txt").write_text(
        ",".join(str(f) for f in selection) + "\n", encoding="utf-8", newline="\n"
    )
    _write_run_config(config, out)
    print("features: selected " + ",".join(str(f) for f in selection))
    return 0


def _model_path(out: Path, arch: str, timesteps: int) -> Path:
    return out / "models" / f"{arch}_t{timesteps}.model"


def cmd_train(config: RunConfig) -> int:
    out = Path(config.out)
    (out / "models").mkdir(parents=True, exist_ok=True)
    (out / "traces").mkdir(parents=True, exist_ok=True)
    frames = _read_cohort(out, "train")
    selected = _selected_features(config)
    missing = [f for f in selected if f not in frames[0].feature_ids]
    if missing:
        raise ConfigError(f"selected features {missing} absent from the train cohort")

    standardized = [pp.standardize_per_device(f.select(selected)) for f in frames]
    for arch, bidirectional in (("lstm", False), ("bilstm", True)):
        for timesteps in config.timesteps:
            windows = pp.window(standardized, timesteps)
            settings = neural.TrainSettings(
                bidirectional=bidirectional,
                hidden_size=config.hidden_size,
                epochs=config.epochs,
                batch_size=config.batch_size,
                learning_rate=config.learning_rate,
                seed=derive_seed(config.seed, f"train/{arch}-t{timesteps}"),
                grad_clip=config.grad_clip,
            )
            model, trace = neural.train(settings, windows)
            neural.save_model(model, _model_path(out, arch, timesteps))
            with open(out / "traces" / f"{arch}_t{timesteps}.csv", "w", newline="\n",
                      encoding="utf-8") as fh:
                fh.write("epoch,loss,seconds\n")
                for e, (loss, secs) in enumerate(zip(trace.losses, trace.seconds)):
                    fh.write("%d,%.17g,%.6f\n" % (e, loss, secs))
            print(f"train: {arch} t={timesteps} final loss "
                  f"{trace.losses[-1] if trace.losses else float('nan'):.4f}")

    # the forest trains on a row-level 80% split of the pooled drive-days;
    # the held-out 20% gives a report in traces/, next to the loss traces,
    # since reports/ holds only what evaluate writes on the test cohorts
    rf_ids = list(frames[0].feature_ids) if config.rf_features == "all" else selected
    X, y = ev.per_day_rows(frames, rf_ids)
    perm = np.random.default_rng(derive_seed(config.seed, "train/forest-split")).permutation(len(y))
    n_fit = max(1, round(0.8 * len(y)))
    fit_rows, holdout_rows = perm[:n_fit], perm[n_fit:]
    model = rf.fit_forest(
        X[fit_rows],
        y[fit_rows],
        n_estimators=config.rf_estimators,
        seed=derive_seed(config.seed, "train/forest"),
        bootstrap=config.rf_bootstrap,
        feature_ids=rf_ids,
        threads=config.threads,
    )
    rf.save_forest(model, out / "models" / "forest.model")
    print(f"train: forest with {model.n_estimators} trees on {len(rf_ids)} features")
    # a set, not np.unique, which would import numpy.ma (about 1.7 MB)
    if len(set(y[holdout_rows].tolist())) < 2:
        print("train: no forest holdout report: under two distinct RUL values", file=sys.stderr)
    else:
        holdout = ev.evaluate_pairs(
            y[holdout_rows], model.predict(X[holdout_rows]),
            model_id="forest", cohort_id="holdout",
        )
        ev.write_report_csv(holdout, out / "traces" / "forest_holdout.csv")
        print(f"train: forest holdout accuracy {holdout.accuracy:.3f} mae {holdout.mae:.3f}")
    _write_run_config(config, out)
    return 0


def cmd_evaluate(config: RunConfig) -> int:
    out = Path(config.out)
    (out / "reports").mkdir(parents=True, exist_ok=True)
    expected = [_model_path(out, arch, t) for arch in ("lstm", "bilstm") for t in config.timesteps]
    expected.append(out / "models" / "forest.model")
    missing = [str(p) for p in expected if not p.exists()]
    if missing:
        raise ConfigError("missing model files: " + ", ".join(missing))

    models = {
        "lstm": {t: neural.load_model(_model_path(out, "lstm", t)) for t in config.timesteps},
        "bilstm": {t: neural.load_model(_model_path(out, "bilstm", t)) for t in config.timesteps},
        "forest": rf.load_forest(out / "models" / "forest.model"),
    }
    cohorts = {name: _read_cohort(out, name) for name in ("test60", "test120")}
    for name, frames in cohorts.items():
        if len({int(v) for f in frames for v in f.rul}) < 2:
            raise DataError(f"{out / 'cohorts' / name}.csv: one RUL on every day, R2 undefined")
    clip = (0.0, float(config.cap)) if config.clip_predictions else None
    reports = ev.run_matrix(models, cohorts, clip=clip)
    for report in reports:
        ev.write_report_csv(report, out / "reports" / f"{report.model_id}_{report.cohort_id}.csv")
    for name in cohorts:
        subset = [r for r in reports if r.cohort_id == name]
        ev.write_summary_csv(subset, out / "reports" / f"summary_{name}.csv")
        print(f"\n== {name} ==")
        print(ev.format_summary(subset))
    _write_run_config(config, out)
    return 0


def cmd_predict(config: RunConfig, model_path: str, history_path: str, out_path: str | None) -> int:
    if not Path(model_path).exists():
        raise ConfigError(f"model file {model_path} not found")
    if not Path(history_path).exists():
        raise ConfigError(f"history file {history_path} not found")
    with open(model_path, "r", encoding="utf-8") as fh:
        first = fh.readline().strip()
    frame = ds.read_history_csv(history_path)
    if first.startswith("hddrul-model"):
        model = neural.load_model(model_path)
        try:
            selected = frame.select(model.feature_ids)
        except KeyError as exc:
            raise ConfigError(str(exc)) from exc
        standardized = pp.standardize_per_device(selected)
        windows = pp.window([standardized], model.timesteps)
        clip = (0.0, float(config.cap)) if config.clip_predictions else None
        preds = model.predict(windows.windows, clip=clip)
        days = [day for _, day in windows.provenance]
    elif first.startswith("hddrul-forest"):
        model = rf.load_forest(model_path)
        try:
            selected = frame.select(model.feature_ids)
        except KeyError as exc:
            raise ConfigError(str(exc)) from exc
        preds = model.predict(selected.values)
        days = list(selected.dates)
    else:
        raise DataError(f"{model_path}: unrecognized model format {first!r}")

    lines = ["date,predicted_rul"]
    lines += ["%s,%.17g" % (day.isoformat(), p) for day, p in zip(days, preds)]
    text = "\n".join(lines) + "\n"
    if out_path:
        Path(out_path).write_text(text, encoding="utf-8", newline="\n")
    else:
        sys.stdout.write(text)
    return 0


def cmd_report(config: RunConfig) -> int:
    out = Path(config.out)
    reports_dir = out / "reports"
    if not reports_dir.is_dir():
        raise ConfigError(f"no reports directory under {out}")
    reports = []
    for path in sorted(reports_dir.glob("*.csv")):
        if path.name.startswith("summary_"):
            continue
        reports.append(ev.read_report_csv(path))
    if not reports:
        raise ConfigError(f"no report files under {reports_dir}")
    for name in sorted({r.cohort_id for r in reports}):
        subset = [r for r in reports if r.cohort_id == name]
        ev.write_summary_csv(subset, reports_dir / f"summary_{name}.csv")
        print(f"\n== {name} ==")
        print(ev.format_summary(subset))
    return 0


# ---------------------------------------------------------------------------
# Argument parsing


def _add_common_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="run configuration file")
    parser.add_argument("--out", help="output directory")
    parser.add_argument("--seed", type=int, help="root seed")
    parser.add_argument("--timesteps", type=_parse_int_list,
                        help="comma-separated lookback steps, e.g. 5,10,15,30")
    parser.add_argument("--lookback", type=int, help="train/test window length in days")
    parser.add_argument("--cap", type=int, help="RUL cap in days")
    parser.add_argument("--model-filter", dest="model_filter", help="drive model to ingest")
    parser.add_argument("--threads", type=int, help="worker threads (default 1)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hddrul", description="Hard-drive remaining-useful-life pipeline"
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, text in [
        ("ingest", "build cohort CSVs from daily snapshot files"),
        ("synth", "generate seeded synthetic cohorts"),
        ("features", "score attributes and emit the predictor selection"),
        ("train", "train all sequence models and the forest baseline"),
        ("evaluate", "evaluate every model on both test cohorts"),
        ("predict", "per-day RUL estimates for one drive history"),
        ("report", "rebuild summary tables from report files"),
    ]:
        p = sub.add_parser(name, help=text)
        _add_common_flags(p)
        if name in ("ingest", "features"):
            p.add_argument("--snapshot-dir", dest="snapshot_dir", help="directory of snapshot CSVs")
        if name == "predict":
            p.add_argument("--model", required=True, help="model file")
            p.add_argument("--history", required=True, help="drive history CSV")
            p.add_argument("--prediction-out", dest="prediction_out",
                           help="write predictions here instead of stdout")

    return parser


def _resolve_config(args: argparse.Namespace) -> RunConfig:
    config = load_config(args.config) if args.config else RunConfig()
    # a flag named after a field overrides it; --lookback sets two fields
    overrides = {
        f.name: getattr(args, f.name)
        for f in fields(RunConfig)
        if getattr(args, f.name, None) is not None
    }
    if args.lookback is not None:
        overrides["lookback_train"] = overrides["lookback_test"] = args.lookback
    config = replace(config, **overrides)
    config.validate()
    return config


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = _resolve_config(args)
        if args.command == "synth":
            return cmd_synth(config)
        if args.command == "ingest":
            return cmd_ingest(config)
        if args.command == "features":
            return cmd_features(config)
        if args.command == "train":
            return cmd_train(config)
        if args.command == "evaluate":
            return cmd_evaluate(config)
        if args.command == "predict":
            return cmd_predict(config, args.model, args.history, args.prediction_out)
        if args.command == "report":
            return cmd_report(config)
        raise ConfigError(f"unknown command {args.command!r}")
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except NumericError as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
