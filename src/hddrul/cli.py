"""Command-line orchestration of the full pipeline.

Subcommands: ``synth`` (seeded synthetic cohorts), ``ingest`` (snapshot CSVs
to cohort CSVs), ``features`` (score table; prints the predictor set), ``train``
(all sequence models + forest baseline), ``evaluate`` (dual-horizon report
matrix), ``predict`` (per-day RUL for one drive history), ``report``
(reassemble summary tables from report files).

A run is described by a flat key/value config file (one ``key value`` pair
per line, ``#`` comments, ``schema_version 1``). The flags ``--out``,
``--seed``, ``--timesteps``, ``--lookback`` (``lookback_train`` and
``lookback_test``), ``--cap``, ``--model-filter``, ``--threads`` and, on
``ingest``, ``--snapshot-dir`` override their keys, and flags win. ``threads``
is the most workers a run may use; every stage runs in the calling thread for
now. All randomness derives from the single ``seed`` key. Exit codes:
0 success, 1 configuration error (a bad flag and an output path that cannot be
written included), 2 data error, 3 numeric divergence.
"""
from __future__ import annotations

import argparse
import csv
import math
import sys
from dataclasses import dataclass, fields, replace
from pathlib import Path

import numpy as np

from . import container
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
        if not self.out:  # an empty out would write the run into the working directory
            raise ConfigError("out must name a directory")
        if not self.timesteps:
            raise ConfigError("timesteps must list at least one window length")
        if any(t < 1 or t > self.lookback_train for t in self.timesteps):
            raise ConfigError("timesteps must lie in 1..lookback_train")
        if len(set(self.timesteps)) != len(self.timesteps):
            raise ConfigError("timesteps must not repeat a window length")
        if self.features is not None and not self.features:
            raise ConfigError("features must name at least one attribute, or be 'default'")
        if self.features is not None and len(set(self.features)) != len(self.features):
            raise ConfigError("features must not repeat an attribute")
        for name in ("lookback_train", "lookback_test", "lookback_extrap", "cap",
                     "hidden_size", "batch_size", "rf_estimators", "threads"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1")
        if self.epochs < 0:
            raise ConfigError("epochs must be >= 0")
        if not (math.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise ConfigError("learning_rate must be a finite number > 0")
        # a negative clip would flip the gradient and a NaN one turn clipping off
        if self.grad_clip is not None and not (math.isfinite(self.grad_clip) and self.grad_clip > 0):
            raise ConfigError("grad_clip must be 'none' or a finite number > 0")
        if self.rf_features not in ("all", "selected"):
            raise ConfigError("rf_features must be 'all' or 'selected'")
        if not 0.0 < self.ingest_train_frac < 1.0:
            raise ConfigError("ingest_train_frac must lie in (0, 1)")


def _parse_int_list(text: str) -> tuple[int, ...]:
    # argparse prints an ArgumentTypeError's message after the flag's name
    try:
        return tuple(int(tok) for tok in text.replace(",", " ").split())
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a comma-separated list of integers: {text!r}") from None


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
        if text not in ("0", "1"):
            raise ValueError(f"{text!r} is neither 0 nor 1")
        return text == "1"
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
        except (ValueError, argparse.ArgumentTypeError) as exc:
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


def _write_manifest(path: Path, rows: list[list]) -> None:
    with open(path, "w", newline="\n", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["cohort", "file", "drives", "records", "date_min", "date_max"])
        writer.writerows(rows)


def _manifest_row(name: str, filename: str, frames) -> list:
    dates = [d for f in frames for d in f.dates]
    return [name, filename, len(frames), len(dates),
            min(dates).isoformat() if dates else "", max(dates).isoformat() if dates else ""]


def _write_cohorts(config: RunConfig, command: str, scoring, cohorts: dict, columns) -> int:
    """The files ``synth`` and ``ingest`` end with: ``scoring.csv`` of the uncapped
    ``scoring`` series, then each cohort's series capped and materialized on
    ``columns``, the manifest and the run config."""
    out = Path(config.out)
    (out / "cohorts").mkdir(parents=True, exist_ok=True)
    ds.write_scoring_csv(out / "cohorts" / "scoring.csv", scoring)
    manifest = []
    for name, series in cohorts.items():
        frames = ds.materialize_cohort([ds.cap_rul(s, config.cap) for s in series], columns)
        filename = f"{name}.csv"
        ds.write_cohort_csv(out / "cohorts" / filename, frames)
        manifest.append(_manifest_row(name, filename, frames))
    _write_manifest(out / "cohorts" / "manifest.csv", manifest)
    _write_run_config(config, out)
    print(f"{command}: wrote {len(manifest)} cohorts under {out / 'cohorts'}")
    return 0


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
    cohorts = {name: _synth_series(config, name, drives_key, lookback_key, prefix)
               for name, drives_key, lookback_key, prefix in _SYNTH_COHORTS}
    return _write_cohorts(config, "synth", cohorts["train"], cohorts,
                          ds.synthetic_attribute_ids(config.synth_features))


def _split_events(config: RunConfig):
    """Failed ``model_filter`` drives (:func:`~hddrul.dataset.read_failed_drives`),
    split into train and test drives by the seeded ``ingest_train_frac`` draw:
    ``(rows by serial, train events, test events)``. A corpus where no drive of
    the model failed is a DataError."""
    snapshot_dir = Path(config.snapshot_dir)
    if not config.snapshot_dir or not snapshot_dir.is_dir():
        raise ConfigError(f"snapshot_dir {config.snapshot_dir!r} is not a directory")
    by_serial, events = ds.read_failed_drives(
        snapshot_dir.glob("*.csv"), config.model_filter,
        max(config.lookback_train, config.lookback_test, config.lookback_extrap))
    if not events:
        raise DataError(f"{snapshot_dir}: no failure of a {config.model_filter!r} drive to label")

    perm = np.random.default_rng(derive_seed(config.seed, "ingest/split")).permutation(len(events))
    n_train = max(1, min(len(events) - 1, round(len(events) * config.ingest_train_frac)))
    train_events = [events[i] for i in sorted(perm[:n_train])]
    test_events = [events[i] for i in sorted(perm[n_train:])]
    return by_serial, train_events, test_events


def _labeled_series(by_serial, events, lookback: int, skipped: set[str]) -> list[ds.LabeledSeries]:
    """Uncapped labeled series of the failed drives. An inconsistent drive is
    skipped, and reported unless ``skipped`` names it already; it joins ``skipped``."""
    series = []
    for event in events:
        try:
            series.append(ds.build_labeled_series(by_serial[event.serial], event, lookback))
        except DataError as exc:
            if event.serial not in skipped:
                skipped.add(event.serial)
                print(f"ingest: skipping drive {event.serial}: {exc}", file=sys.stderr)
    return series


def cmd_ingest(config: RunConfig) -> int:
    by_serial, train_events, test_events = _split_events(config)
    skipped: set[str] = set()  # test60 and test120 label the same drives
    labeled = {
        "train": _labeled_series(by_serial, train_events, config.lookback_train, skipped),
        "test60": _labeled_series(by_serial, test_events, config.lookback_test, skipped),
        "test120": _labeled_series(by_serial, test_events, config.lookback_extrap, skipped),
    }
    selected = set(_selected_features(config))
    survivors = {}
    for name, series in labeled.items():
        survivors[name] = [s for s in series if selected <= set(s.rows.reported())]
        if len(survivors[name]) < len(series):
            print(f"ingest: {name}: excluded {len(series) - len(survivors[name])} drives "
                  "missing selected features", file=sys.stderr)
    all_series = [s for series in survivors.values() for s in series]
    if not any(labeled.values()):
        raise DataError(f"{config.snapshot_dir}: no drive left: all "
                        f"{len(train_events) + len(test_events)} failed {config.model_filter!r} "
                        "drives were skipped as inconsistent")
    if not all_series:
        raise DataError(f"{config.snapshot_dir}: no drive left: every labeled drive misses a "
                        f"selected feature of {sorted(selected)}")
    # features scores the train split before the availability filter and the cap
    return _write_cohorts(config, "ingest", labeled["train"], survivors,
                          ds.attributes_on_every_drive(all_series))


def cmd_features(config: RunConfig) -> int:
    out = Path(config.out)
    path = out / "cohorts" / "scoring.csv"
    if not path.exists():
        raise ConfigError(f"scoring file {path} not found; run `synth` or `ingest` first")
    scoreable, series = ds.read_scoring_csv(path)
    tree_ids = ds.attributes_on_every_drive(series)
    table = feat.score_features(series, scoreable, tree_attributes=tree_ids)
    # only an override is checked: the default five need not all be scored
    scored = set(table.attributes)
    missing = [fid for fid in config.features or () if fid not in scored]
    if missing:
        raise ConfigError(f"features names attributes that {path} does not score: {missing}")
    (out / "features").mkdir(parents=True, exist_ok=True)
    table.to_csv(out / "features" / "features.csv")
    _write_run_config(config, out)
    print("features: selected " + ",".join(str(f) for f in _selected_features(config)))
    return 0


def _model_path(out: Path, arch: str, timesteps: int) -> Path:
    return out / "models" / f"{arch}_t{timesteps}.model"


def _model_paths(config: RunConfig, out: Path) -> dict[str, Path]:
    """The file of every model ``train`` writes, keyed by its report id."""
    paths = {
        f"{arch}_t{t}": _model_path(out, arch, t)
        for arch in ("lstm", "bilstm")
        for t in sorted(config.timesteps)
    }
    paths["forest"] = out / "models" / "forest.model"
    return paths


def _load_model(path: Path):
    """A sequence model or a forest, by the kind its container names."""
    if container.read_kind(path) == rf.KIND:
        return rf.load_forest(path)
    return neural.load_model(path)


def _prediction_clip(config: RunConfig) -> tuple[float, float] | None:
    return (0.0, float(config.cap)) if config.clip_predictions else None


def _write_summaries(reports: list[ev.EvalReport], reports_dir: Path) -> None:
    """summary_<cohort>.csv and a printed table per cohort, in order of first appearance."""
    for name in dict.fromkeys(r.cohort_id for r in reports):
        subset = [r for r in reports if r.cohort_id == name]
        ev.write_summary_csv(subset, reports_dir / f"summary_{name}.csv")
        print(f"\n== {name} ==")
        print(ev.format_summary(subset))


def cmd_train(config: RunConfig) -> int:
    out = Path(config.out)
    frames = _read_cohort(out, "train")
    selected = _selected_features(config)
    missing = [f for f in selected if f not in frames[0].feature_ids]
    if missing:
        raise ConfigError(f"selected features {missing} absent from the train cohort")
    (out / "models").mkdir(parents=True, exist_ok=True)
    (out / "traces").mkdir(parents=True, exist_ok=True)

    standardized = [pp.standardize_per_device(f.select(selected)) for f in frames]
    for timesteps in config.timesteps:
        windows = pp.window(standardized, timesteps)  # both architectures train on them
        for arch, bidirectional in (("lstm", False), ("bilstm", True)):
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
    )
    rf.save_forest(model, out / "models" / "forest.model")
    print(f"train: forest with {config.rf_estimators} trees on {len(rf_ids)} features")
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
    paths = _model_paths(config, out)
    missing = [str(p) for p in paths.values() if not p.exists()]
    if missing:
        raise ConfigError("missing model files: " + ", ".join(missing))

    models = {model_id: _load_model(path) for model_id, path in paths.items()}
    cohorts = {name: _read_cohort(out, name) for name in ("test60", "test120")}
    for name, frames in cohorts.items():
        if len({int(v) for f in frames for v in f.rul}) < 2:
            raise DataError(f"{out / 'cohorts' / name}.csv: one RUL on every day, R2 undefined")
    reports = ev.run_matrix(models, cohorts, clip=_prediction_clip(config))
    (out / "reports").mkdir(parents=True, exist_ok=True)
    for report in reports:
        ev.write_report_csv(report, out / "reports" / f"{report.model_id}_{report.cohort_id}.csv")
    _write_summaries(reports, out / "reports")
    _write_run_config(config, out)
    return 0


def cmd_predict(config: RunConfig, model_path: str, history_path: str, out_path: str | None) -> int:
    if not Path(model_path).exists():
        raise ConfigError(f"model file {model_path} not found")
    if not Path(history_path).exists():
        raise ConfigError(f"history file {history_path} not found")
    model = _load_model(Path(model_path))
    frame = ds.read_history_csv(history_path)
    # both model kinds give one estimate per day of the history
    _, preds = ev.predict_frames(model, [frame], _prediction_clip(config))

    lines = ["date,predicted_rul"]
    lines += ["%s,%.17g" % (day.isoformat(), p) for day, p in zip(frame.dates, preds)]
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
    _write_summaries(reports, reports_dir)
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
    parser.add_argument("--threads", type=int,
                        help="most workers a run may use (default 1; every stage runs in one thread)")


class _Parser(argparse.ArgumentParser):
    """A usage error raises ConfigError, so it exits 1 like a bad config key."""

    def error(self, message: str):
        raise ConfigError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="hddrul", description="Hard-drive remaining-useful-life pipeline"
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, text in [
        ("ingest", "build cohort CSVs from daily snapshot files"),
        ("synth", "generate seeded synthetic cohorts"),
        ("features", "score attributes and print the predictor set"),
        ("train", "train all sequence models and the forest baseline"),
        ("evaluate", "evaluate every model on both test cohorts"),
        ("predict", "per-day RUL estimates for one drive history"),
        ("report", "rebuild summary tables from report files"),
    ]:
        p = sub.add_parser(name, help=text)
        _add_common_flags(p)
        if name == "ingest":
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


# each command's function and the parsed arguments it takes after the config
_COMMANDS = {"synth": (cmd_synth, ()), "ingest": (cmd_ingest, ()), "features": (cmd_features, ()),
             "train": (cmd_train, ()), "evaluate": (cmd_evaluate, ()), "report": (cmd_report, ()),
             "predict": (cmd_predict, ("model", "history", "prediction_out"))}


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        config = _resolve_config(args)
        command, extra = _COMMANDS[args.command]
        return command(config, *(getattr(args, name) for name in extra))
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except NumericError as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:  # every read turns its OSError into a DataError naming the file
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
