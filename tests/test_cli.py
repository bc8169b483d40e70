import csv
import io
import re
import shutil
from contextlib import redirect_stderr, redirect_stdout
from datetime import date, timedelta

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from hddrul import cli
from hddrul import dataset as ds
from hddrul import evaluation as ev
from hddrul import features as feat
from hddrul import forest, neural
from hddrul import preprocess as pp
from hddrul.cli import RunConfig, config_text, load_config, main
from hddrul.errors import ConfigError

TINY = """
# desk-scale run
schema_version 1
seed 404
timesteps 3
lookback_train 12
lookback_test 12
lookback_extrap 20
cap 8
hidden_size 4
epochs 2
batch_size 16
rf_estimators 4
synth_train_drives 4
synth_test_drives 3
synth_extrap_drives 3
synth_jump_day 4
"""


def _config_file(tmp_path, out_dir, extra="", name="run.cfg"):
    path = tmp_path / name
    path.write_text(TINY + f"out {out_dir}\n" + extra)
    return str(path)


@pytest.fixture(scope="module")
def tiny_run(tmp_path_factory):
    """A directory holding run.cfg and the out/ of synth, train and evaluate on it.

    It also holds history.csv, one test60 drive for ``predict``, and
    snapshots/, a small snapshot corpus for ``ingest``.
    """
    root = tmp_path_factory.mktemp("tiny_run")
    cfg = _config_file(root, root / "out")
    for command in ("synth", "train", "evaluate"):
        assert main([command, "--config", cfg]) == 0
    frames = ds.read_cohort_csv(root / "out" / "cohorts" / "test60.csv")
    ds.write_cohort_csv(root / "history.csv", [frames[0]])
    config = ds.SynthConfig(n_drives=2, lookback_days=10, jump_day=4, seed=5)
    _write_snapshots(root, ds.generate_synthetic(config), n_files=1)
    return root


def _copy_run(tiny_run, dest):
    """A copy of the tiny run and the arguments that point a command at it."""
    shutil.copytree(tiny_run, dest)
    return ["--config", str(dest / "run.cfg"), "--out", str(dest / "out")]


def _input_args(command, dest, model="lstm_t3.model"):
    """The flags naming the inputs of ``predict`` or ``ingest`` in a copied tiny run."""
    if command == "predict":
        return ["--model", str(dest / "out" / "models" / model),
                "--history", str(dest / "history.csv"),
                "--prediction-out", str(dest / "prediction.csv")]
    if command == "ingest":
        return ["--snapshot-dir", str(dest / "snapshots")]
    return []


def test_load_config_and_roundtrip(tmp_path):
    path = _config_file(tmp_path, tmp_path / "out")
    config = load_config(path)
    assert config.seed == 404
    assert config.timesteps == (3,)
    assert config.cap == 8
    # the serialized form parses back to the same config
    again = tmp_path / "again.cfg"
    again.write_text(config_text(config))
    assert load_config(again) == config


def test_load_config_rejects_unknown_key(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("schema_version 1\nnot_a_key 5\n")
    with pytest.raises(ConfigError):
        load_config(path)


def test_load_config_requires_schema_version(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("seed 1\n")
    with pytest.raises(ConfigError):
        load_config(path)


def test_flags_override_config(tmp_path):
    """A flag wins over its config key; --lookback sets lookback_train and lookback_test."""
    out = tmp_path / "out"
    cfg = _config_file(tmp_path, out)
    rc = main(["synth", "--config", cfg, "--seed", "777", "--lookback", "9",
               "--out", str(tmp_path / "other")])
    assert rc == 0
    lines = (tmp_path / "other" / "run_config.txt").read_text().splitlines()
    assert {"seed 777", "lookback_train 9", "lookback_test 9", "lookback_extrap 20"} <= set(lines)


def test_synth_outputs_and_determinism(tmp_path):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    cfg = _config_file(tmp_path, out_a)
    assert main(["synth", "--config", cfg]) == 0
    assert main(["synth", "--config", cfg, "--out", str(out_b)]) == 0
    for name in ("train", "test60", "test120"):
        bytes_a = (out_a / "cohorts" / f"{name}.csv").read_bytes()
        bytes_b = (out_b / "cohorts" / f"{name}.csv").read_bytes()
        assert bytes_a == bytes_b


def test_synth_manifest_matches_serial_scan(tmp_path):
    out = tmp_path / "out"
    cfg = _config_file(tmp_path, out)
    assert main(["synth", "--config", cfg]) == 0
    manifest = (out / "cohorts" / "manifest.csv").read_text().splitlines()
    rows = [line.split(",") for line in manifest[1:]]
    for cohort, filename, drives, records, *_ in rows:
        frames = ds.read_cohort_csv(out / "cohorts" / filename)
        serials = {f.serial for f in frames}
        assert int(drives) == len(serials)
        assert int(records) == sum(len(f.dates) for f in frames)
    assert [r[0] for r in rows] == ["train", "test60", "test120"]
    assert [int(r[2]) for r in rows] == [4, 3, 3]


def test_features_command_default_selection(tmp_path, capsys):
    out = tmp_path / "out"
    cfg = _config_file(tmp_path, out)
    assert main(["synth", "--config", cfg]) == 0
    assert main(["features", "--config", cfg]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "features: selected 7,9,240,241,242"
    assert [p.name for p in (out / "features").iterdir()] == ["features.csv"]
    lines = (out / "features" / "features.csv").read_text().splitlines()
    assert lines[0] == "attribute,correlation_score,tree_importance"
    corr = [float(r.split(",")[1]) for r in lines[1:] if r.split(",")[1]]
    imp = [float(r.split(",")[2]) for r in lines[1:] if r.split(",")[2]]
    assert all(0.0 <= v <= 1.0 for v in corr)
    assert sum(imp) == pytest.approx(1.0, abs=1e-9)


def test_features_override_checked_against_score_table(tmp_path, capsys):
    """features prints a scored override and writes only the score table; an
    override the score table lacks exits 1 and creates nothing."""
    out = tmp_path / "out"
    assert main(["synth", "--config", _config_file(tmp_path, out)]) == 0
    assert main(["features", "--config", _config_file(tmp_path, out, "features 241,9\n")]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "features: selected 241,9"
    assert [p.name for p in (out / "features").iterdir()] == ["features.csv"]
    shutil.rmtree(out / "features")
    assert main(["features", "--config", _config_file(tmp_path, out, "features 7,999\n")]) == 1
    err = capsys.readouterr().err
    assert "[999]" in err and str(out / "cohorts" / "scoring.csv") in err
    assert not (out / "features").exists()


def _run_pipeline(tmp_path, out):
    cfg = _config_file(tmp_path, out)
    assert main(["synth", "--config", cfg]) == 0
    assert main(["train", "--config", cfg]) == 0
    assert main(["evaluate", "--config", cfg]) == 0
    return cfg


def test_train_outputs(tmp_path):
    out = tmp_path / "out"
    cfg = _config_file(tmp_path, out)
    assert main(["synth", "--config", cfg]) == 0
    assert main(["train", "--config", cfg]) == 0
    models = sorted(p.name for p in (out / "models").iterdir())
    assert models == ["bilstm_t3.model", "forest.model", "lstm_t3.model"]
    trace = (out / "traces" / "lstm_t3.csv").read_text().splitlines()
    assert trace[0] == "epoch,loss,seconds"
    assert len(trace) == 1 + 2  # header + one row per epoch
    # the forest's row holdout is reported next to the traces; reports/ is evaluate's
    holdout = ev.read_report_csv(out / "traces" / "forest_holdout.csv")
    assert holdout.model_id == "forest" and holdout.cohort_id == "holdout"
    actual, predicted = holdout.pairs[:, 0], holdout.pairs[:, 1]
    assert len(actual) > 0
    assert ev.accuracy_rounded(predicted, actual) == pytest.approx(holdout.accuracy, abs=1e-12)
    assert ev.mae(predicted, actual) == pytest.approx(holdout.mae, abs=1e-12)
    assert not (out / "reports").exists()


def test_train_reruns_byte_identical_models(tmp_path):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    cfg = _config_file(tmp_path, out_a)
    assert main(["synth", "--config", cfg]) == 0
    assert main(["train", "--config", cfg]) == 0
    cfg_b = _config_file(tmp_path, out_b)
    assert main(["synth", "--config", cfg_b]) == 0
    assert main(["train", "--config", cfg_b]) == 0
    for name in ("lstm_t3.model", "bilstm_t3.model", "forest.model"):
        assert (out_a / "models" / name).read_bytes() == (out_b / "models" / name).read_bytes()
    holdout_a, holdout_b = (o / "traces" / "forest_holdout.csv" for o in (out_a, out_b))
    assert holdout_a.read_bytes() == holdout_b.read_bytes()


def test_evaluate_outputs_and_summary(tmp_path):
    out = tmp_path / "out"
    _run_pipeline(tmp_path, out)
    reports = sorted(p.name for p in (out / "reports").iterdir())
    assert "summary_test60.csv" in reports and "summary_test120.csv" in reports
    assert "lstm_t3_test60.csv" in reports and "forest_test120.csv" in reports
    summary = (out / "reports" / "summary_test60.csv").read_text().splitlines()
    assert summary[0] == "model,timesteps,accuracy,r2,mae"
    assert summary[1].startswith("LSTM,3")
    assert summary[2].startswith("Bi-LSTM,3")
    assert summary[3].startswith("RF,NA")


def test_evaluate_missing_model_exits_one(tmp_path):
    out = tmp_path / "out"
    cfg = _config_file(tmp_path, out)
    assert main(["synth", "--config", cfg]) == 0
    assert main(["train", "--config", cfg]) == 0
    (out / "models" / "bilstm_t3.model").unlink()
    assert main(["evaluate", "--config", cfg]) == 1


def test_report_command_rebuilds_summary(tmp_path, capsys):
    out = tmp_path / "out"
    cfg = _run_pipeline(tmp_path, out)
    before = (out / "reports" / "summary_test60.csv").read_bytes()
    (out / "reports" / "summary_test60.csv").unlink()
    assert main(["report", "--config", cfg]) == 0
    assert (out / "reports" / "summary_test60.csv").read_bytes() == before
    summaries = sorted(p.name for p in (out / "reports").glob("summary_*.csv"))
    assert summaries == ["summary_test120.csv", "summary_test60.csv"]
    assert "test60" in capsys.readouterr().out


def test_report_without_report_files_exits_one(tiny_run, tmp_path, capsys):
    """A reports/ holding only summaries has nothing to summarize: exit 1 naming
    it, and the summaries stay as they were."""
    args = _copy_run(tiny_run, tmp_path / "run")
    reports = tmp_path / "run" / "out" / "reports"
    for path in reports.glob("*.csv"):
        if not path.name.startswith("summary_"):
            path.unlink()
    before = _file_bytes(reports)
    assert before
    capsys.readouterr()
    assert main(["report", *args]) == 1
    assert f"no report files under {reports}" in capsys.readouterr().err
    assert _file_bytes(reports) == before


def test_predict_matches_library_forward(tmp_path):
    out = tmp_path / "out"
    cfg = _run_pipeline(tmp_path, out)

    frames = ds.read_cohort_csv(out / "cohorts" / "test60.csv")
    history = out / "history.csv"
    ds.write_cohort_csv(history, [frames[0]])
    pred_file = tmp_path / "pred.csv"
    rc = main(["predict", "--config", cfg, "--model", str(out / "models" / "bilstm_t3.model"),
               "--history", str(history), "--prediction-out", str(pred_file)])
    assert rc == 0

    model = neural.load_model(out / "models" / "bilstm_t3.model")
    standardized = pp.standardize_per_device(frames[0].select(model.feature_ids))
    windows = pp.window([standardized], model.timesteps)
    expected = [model.predict(w[None])[0] for w in windows.windows]
    lines = pred_file.read_text().splitlines()
    assert lines[0] == "date,predicted_rul"
    got = [float(line.split(",")[1]) for line in lines[1:]]
    assert got == pytest.approx(expected, rel=1e-10, abs=1e-10)


def test_predict_short_history_is_padded(tmp_path):
    out = tmp_path / "out"
    cfg = _run_pipeline(tmp_path, out)
    frames = ds.read_cohort_csv(out / "cohorts" / "test60.csv")
    short = ds.DriveFrame(
        serial=frames[0].serial, dates=frames[0].dates[:2],
        feature_ids=frames[0].feature_ids, values=frames[0].values[:2],
        rul=frames[0].rul[:2],
    )
    history = out / "short.csv"
    ds.write_cohort_csv(history, [short])
    pred_file = tmp_path / "short_pred.csv"
    rc = main(["predict", "--config", cfg, "--model", str(out / "models" / "lstm_t3.model"),
               "--history", str(history), "--prediction-out", str(pred_file)])
    assert rc == 0
    assert len(pred_file.read_text().splitlines()) == 1 + 2


def test_predict_forest_matches_library(tiny_run, tmp_path):
    dest = tmp_path / "run"
    args = _copy_run(tiny_run, dest)
    assert main(["predict", *args, *_input_args("predict", dest, "forest.model")]) == 0

    model = forest.load_forest(dest / "out" / "models" / "forest.model")
    frame = ds.read_history_csv(dest / "history.csv")
    expected = model.predict(frame.select(model.feature_ids).values)
    lines = (dest / "prediction.csv").read_text().splitlines()
    assert lines[0] == "date,predicted_rul"
    assert [line.split(",")[0] for line in lines[1:]] == [d.isoformat() for d in frame.dates]
    assert [float(line.split(",")[1]) for line in lines[1:]] == expected.tolist()


def test_predict_without_prediction_out_writes_stdout(tiny_run, tmp_path, capsys):
    dest = tmp_path / "run"
    args = _copy_run(tiny_run, dest) + _input_args("predict", dest)
    assert main(["predict", *args]) == 0
    capsys.readouterr()
    assert main(["predict", *args[:-2]]) == 0
    out = capsys.readouterr().out
    assert out.startswith("date,predicted_rul\n") and out == (dest / "prediction.csv").read_text()


def test_clip_predictions_bounds_every_estimate(tiny_run, tmp_path):
    # cap 4 lies below the training cap of 8, so the forest's leaf means exceed it too
    dest = tmp_path / "run"
    args = _copy_run(tiny_run, dest) + ["--cap", "4"]
    with open(dest / "run.cfg", "a") as fh:
        fh.write("clip_predictions 1\n")
    assert main(["evaluate", *args]) == 0
    reports = [ev.read_report_csv(p) for p in (dest / "out" / "reports").glob("*.csv")
               if not p.name.startswith("summary_")]
    assert {r.model_id for r in reports} == {"lstm_t3", "bilstm_t3", "forest"}
    for report in reports:
        assert np.all((report.pairs[:, 1] >= 0.0) & (report.pairs[:, 1] <= 4.0)), report.model_id
    for model in ("lstm_t3.model", "bilstm_t3.model", "forest.model"):
        assert main(["predict", *args, *_input_args("predict", dest, model)]) == 0
        lines = (dest / "prediction.csv").read_text().splitlines()[1:]
        assert all(0.0 <= float(line.split(",")[1]) <= 4.0 for line in lines), model


def test_evaluate_cohort_without_model_attribute_exits_one(tiny_run, tmp_path, capsys):
    dest = tmp_path / "run"
    args = _copy_run(tiny_run, dest)
    path = dest / "out" / "cohorts" / "test60.csv"
    rows = [line.split(",") for line in path.read_text().splitlines()]
    assert rows[0][-1] == "smart_242"
    path.write_text("".join(",".join(row[:-1]) + "\n" for row in rows))
    capsys.readouterr()
    assert main(["evaluate", *args]) == 1
    assert "attribute 242 " in capsys.readouterr().err


def test_exit_code_config_error(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("schema_version 1\nmystery 1\n")
    assert main(["synth", "--config", str(bad)]) == 1


@pytest.mark.parametrize("argv,named", [
    (["synth", "--seed", "abc"], "argument --seed: invalid int value: 'abc'"),
    (["synth", "--timesteps", "5,x"],
     "argument --timesteps: not a comma-separated list of integers: '5,x'"),
    (["synth", "--bogus", "1"], "unrecognized arguments: --bogus 1"),
    (["predict", "--history", "history.csv"], "the following arguments are required: --model"),
], ids=["seed", "timesteps", "unknown_flag", "predict_without_model"])
def test_bad_flag_exits_one(capsys, argv, named):
    assert main(argv) == 1
    assert named in capsys.readouterr().err


def test_help_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["train", "--help"])
    assert exc.value.code == 0
    assert "--threads" in capsys.readouterr().out


@pytest.mark.parametrize("command", ["synth", "train", "predict"])
def test_unwritable_output_exits_one(tiny_run, tmp_path, capsys, command):
    """An --out that is a file, a models/ that is a file under train's --out (whose
    cohorts must be read first), or a --prediction-out that is a directory."""
    dest = tmp_path / "run"
    args = _copy_run(tiny_run, dest)
    if command == "predict":
        path = dest / "prediction.csv"
        path.mkdir()
    elif command == "train":
        path = dest / "out" / "models"
        shutil.rmtree(path)
        path.write_text("")
    else:
        path = tmp_path / "file"
        path.write_text("")
        args += ["--out", str(path)]
    capsys.readouterr()
    assert main([command, *args, *_input_args(command, dest)]) == 1
    err = capsys.readouterr().err
    assert str(path) in err and "Traceback" not in err


@pytest.mark.parametrize("command,extra,args,error", [
    ("train", "", [], "cohort file"),
    ("evaluate", "", [], "missing model files"),
    ("ingest", "", [], "snapshot_dir '' is not a directory"),
    ("ingest", "snapshot_dir {tmp}/run.cfg\n", [], "run.cfg' is not a directory"),
    ("report", "", [], "no reports directory under"),
    ("predict", "", ["--model", "{tmp}/missing.model", "--history", "{tmp}/run.cfg"],
     "model file {tmp}/missing.model not found"),
    ("predict", "", ["--model", "{tmp}/run.cfg", "--history", "{tmp}/missing.csv"],
     "history file {tmp}/missing.csv not found"),
], ids=["train", "evaluate", "ingest_unset", "ingest_file", "report", "predict_model",
        "predict_history"])
def test_missing_input_creates_nothing(tmp_path, capsys, command, extra, args, error):
    """A command whose input is missing exits 1 naming it and leaves the out
    directory as it found it: train without cohorts, evaluate without models,
    ingest without a snapshot directory, report without reports/, and predict
    without its model or history file."""
    out = tmp_path / "out"
    out.mkdir()
    cfg = _config_file(tmp_path, out, extra=extra.format(tmp=tmp_path))
    assert main([command, "--config", cfg, *(a.format(tmp=tmp_path) for a in args)]) == 1
    assert error.format(tmp=tmp_path) in capsys.readouterr().err
    assert list(out.iterdir()) == []


def _file_bytes(root):
    return {p.relative_to(root): p.read_bytes() for p in root.rglob("*") if p.is_file()}


def test_threads_write_identical_models_and_reports(tmp_path):
    """traces/ is left out: it holds per-epoch seconds."""
    cfg = _config_file(tmp_path, tmp_path / "out")
    outs = [tmp_path / "threads1", tmp_path / "threads2"]
    for out, threads in zip(outs, ("1", "2")):
        for command in ("synth", "train", "evaluate"):
            assert main([command, "--config", cfg, "--out", str(out), "--threads", threads]) == 0
    for sub in ("models", "reports"):
        written = _file_bytes(outs[0] / sub)
        assert written and written == _file_bytes(outs[1] / sub)


def test_rf_features_selected_fits_forest_on_features(tmp_path):
    """``rf_features selected`` fits the forest on the ``features`` attributes only,
    and evaluate reads those columns of the test cohorts."""
    out = tmp_path / "out"
    cfg = _config_file(tmp_path, out, extra="features 7,9\nrf_features selected\n")
    for command in ("synth", "train", "evaluate"):
        assert main([command, "--config", cfg]) == 0
    assert forest.load_forest(out / "models" / "forest.model").feature_ids == [7, 9]
    assert (out / "reports" / "forest_test60.csv").exists()


@pytest.mark.filterwarnings("ignore:overflow encountered")
@pytest.mark.filterwarnings("ignore:invalid value encountered")
def test_exit_code_divergence(tmp_path):
    out = tmp_path / "out"
    cfg = _config_file(tmp_path, out, extra="learning_rate 1e200\ngrad_clip none\nbatch_size 4\n")
    assert main(["synth", "--config", cfg]) == 0
    assert main(["train", "--config", cfg]) == 3


def _write_snapshots(tmp_path, series, n_files=3):
    """Write labeled series as daily-snapshot CSVs split across files."""
    ids = sorted({fid for s in series for rec in s.records for fid in rec.smart})
    header = ["date", "serial_number", "model", "capacity_bytes", "failure"]
    for fid in ids:
        header += [f"smart_{fid}_raw", f"smart_{fid}_normalized"]
    rows = []
    for s in series:
        for rec in s.records:
            row = [rec.date.isoformat(), rec.serial, rec.model, "4000000000",
                   "1" if rec.failed else "0"]
            for fid in ids:
                v = rec.smart.get(fid)
                row += ["" if v is None else repr(v), "100"]
            rows.append(row)
    rows.sort(key=lambda r: r[0])
    snapshot_dir = tmp_path / "snapshots"
    snapshot_dir.mkdir()
    chunk = (len(rows) + n_files - 1) // n_files
    for k in range(n_files):
        with open(snapshot_dir / f"part{k}.csv", "w") as fh:
            fh.write(",".join(header) + "\n")
            for row in rows[k * chunk : (k + 1) * chunk]:
                fh.write(",".join(row) + "\n")
    return snapshot_dir


def test_ingest_builds_cohorts(tmp_path):
    config = ds.SynthConfig(n_drives=6, lookback_days=25, jump_day=4, seed=5)
    series = ds.generate_synthetic(config)
    snapshot_dir = _write_snapshots(tmp_path, series)
    out = tmp_path / "out"
    cfg = _config_file(
        tmp_path, out,
        extra=f"snapshot_dir {snapshot_dir}\nmodel_filter {ds.SYNTHETIC_MODEL}\n"
        "lookback_extrap 18\n",
    )
    assert main(["ingest", "--config", cfg]) == 0
    manifest = (out / "cohorts" / "manifest.csv").read_text().splitlines()
    assert len(manifest) == 4
    train = ds.read_cohort_csv(out / "cohorts" / "train.csv")
    test60 = ds.read_cohort_csv(out / "cohorts" / "test60.csv")
    assert len(train) == 3 and len(test60) == 3
    assert not {f.serial for f in train} & {f.serial for f in test60}
    assert all(f.rul.max() <= 8 for f in train)  # capped per config
    # 120-day cohort shares serials with test60 but longer lookback
    test120 = ds.read_cohort_csv(out / "cohorts" / "test120.csv")
    assert {f.serial for f in test120} == {f.serial for f in test60}
    assert all(len(f.dates) == 19 for f in test120)


@pytest.mark.parametrize("rows", [False, True], ids=["empty_dir", "other_model"])
def test_ingest_without_target_failure_is_data_error(tmp_path, capsys, rows):
    """No model_filter failure to label ends ingest, naming the directory and the model."""
    if rows:
        series = ds.generate_synthetic(ds.SynthConfig(n_drives=2, lookback_days=10, jump_day=4, seed=5))
        snapshot_dir = _write_snapshots(tmp_path, series, n_files=2)
    else:
        snapshot_dir = tmp_path / "snapshots"
        snapshot_dir.mkdir()
    out = tmp_path / "out"
    cfg = _config_file(tmp_path, out, extra=f"snapshot_dir {snapshot_dir}\nmodel_filter M1\n")
    assert main(["ingest", "--config", cfg]) == 2
    assert f"data error: {snapshot_dir}: no failure of a 'M1' drive to label" in capsys.readouterr().err
    assert not (out / "cohorts").exists()


def _add_superscript_column(snapshot_dir):
    """Every snapshot file with a ``smart_\u00b2_raw`` column (a digit ``int`` rejects) before ``failure``."""
    for path in snapshot_dir.glob("*.csv"):
        lines = path.read_text().splitlines()
        rows = [line.split(",") for line in lines]
        at = rows[0].index("failure")
        for k, row in enumerate(rows):
            row.insert(at, "smart_\u00b2_raw" if k == 0 else "7")
        path.write_text("".join(",".join(row) + "\n" for row in rows))


def test_ingest_skips_non_decimal_attribute_column(tmp_path):
    """A ``smart_<n>_raw`` column whose n is not decimal is skipped like any other column."""
    series = ds.generate_synthetic(ds.SynthConfig(n_drives=6, lookback_days=25, jump_day=4, seed=5))
    outputs = []
    for name in ("plain", "superscript"):
        root = tmp_path / name
        root.mkdir()
        snapshot_dir = _write_snapshots(root, series)
        if name == "superscript":
            _add_superscript_column(snapshot_dir)
        cfg = _config_file(root, root / "out", extra=(
            f"snapshot_dir {snapshot_dir}\nmodel_filter {ds.SYNTHETIC_MODEL}\nlookback_extrap 18\n"))
        assert main(["ingest", "--config", cfg]) == 0
        outputs.append({n: (root / "out" / "cohorts" / n).read_bytes() for n in COHORT_FILES})
    assert outputs[0] == outputs[1]


def test_ingest_malformed_snapshot_is_data_error(tmp_path, capsys):
    """A malformed row, or a header without the failure column, names the file."""
    snapshot_dir = tmp_path / "snapshots"
    snapshot_dir.mkdir()
    out = tmp_path / "out"
    cfg = _config_file(tmp_path, out, extra=f"snapshot_dir {snapshot_dir}\n")
    for text, error in [
        ("date,serial_number,model,failure\nnot-a-date,A,M,0\n", "row 1: malformed date 'not-a-date'"),
        ("date,serial_number,model\n2020-01-01,A,M\n",
         "snapshot header missing required column 'failure'"),
    ]:
        (snapshot_dir / "bad.csv").write_text(text)
        assert main(["ingest", "--config", cfg]) == 2
        assert f"{snapshot_dir / 'bad.csv'}: {error}" in capsys.readouterr().err


def test_ingest_skips_empty_and_header_only_snapshots(tmp_path):
    """An empty snapshot file and one holding only its header add nothing: the
    cohorts are those of the same directory without them."""
    series = ds.generate_synthetic(ds.SynthConfig(n_drives=6, lookback_days=25, jump_day=4, seed=5))
    snapshot_dir = _write_snapshots(tmp_path, series)
    cfg = _config_file(tmp_path, tmp_path / "out", extra=(
        f"snapshot_dir {snapshot_dir}\nmodel_filter {ds.SYNTHETIC_MODEL}\nlookback_extrap 18\n"))
    assert main(["ingest", "--config", cfg, "--out", str(tmp_path / "plain")]) == 0
    header = (snapshot_dir / "part0.csv").read_text().split("\n", 1)[0]
    # newest-first order reads the empty file first and the header-only one last
    (snapshot_dir / "part_empty.csv").write_text("")
    (snapshot_dir / "a_header_only.csv").write_text(header + "\n")
    assert main(["ingest", "--config", cfg, "--out", str(tmp_path / "with_empty")]) == 0
    for name in COHORT_FILES:
        plain = (tmp_path / "plain" / "cohorts" / name).read_bytes()
        assert plain == (tmp_path / "with_empty" / "cohorts" / name).read_bytes(), name


def test_ingest_error_names_newest_malformed_file(tmp_path, capsys):
    """Ingest reads the last path first, so of two malformed files it names that one."""
    snapshot_dir = tmp_path / "snapshots"
    snapshot_dir.mkdir()
    for day in ("2020-01-01", "2020-01-02"):
        (snapshot_dir / f"{day}.csv").write_text(
            f"date,serial_number,model,failure\n{day},A,M,0\n{day},B,M,maybe\n")
    out = tmp_path / "out"
    cfg = _config_file(tmp_path, out, extra=f"snapshot_dir {snapshot_dir}\n")
    assert main(["ingest", "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert f"{snapshot_dir / '2020-01-02.csv'}: row 2: non-numeric failure flag 'maybe'" in err
    assert "2020-01-01.csv" not in err


def test_ingest_oversized_quoted_cell_is_data_error(tmp_path, capsys):
    """A quoted cell over ``csv.field_size_limit()``, in a row or in the header,
    names the file (and the row)."""
    snapshot_dir = tmp_path / "snapshots"
    snapshot_dir.mkdir()
    cell = '"' + "1" * (csv.field_size_limit() + 1) + '"'
    header = "date,serial_number,model,failure,smart_5_raw"
    out = tmp_path / "out"
    cfg = _config_file(tmp_path, out, extra=f"snapshot_dir {snapshot_dir}\n")
    for text, where in [(f"{header}\n2020-01-01,A,M,0,{cell}\n", "row 1: "),
                        (f"{header},{cell}\n2020-01-01,A,M,0,1\n", "")]:
        (snapshot_dir / "big.csv").write_text(text)
        assert main(["ingest", "--config", cfg]) == 2
        err = capsys.readouterr().err
        assert f"{snapshot_dir / 'big.csv'}: {where}field larger than field limit" in err


@pytest.mark.parametrize("serial", ["Q,1", 'Q"1', "Q\n1", "Q\r1"])
def test_ingest_serial_a_drive_csv_cannot_hold_is_data_error(tmp_path, capsys, serial):
    """A quoted snapshot cell can give a failed drive a serial with a comma, a
    quote or a line break; ingest names the file and the serial and writes no
    cohort, where the unquoted serial would break the drive CSVs."""
    series = ds.generate_synthetic(ds.SynthConfig(n_drives=4, lookback_days=25, jump_day=4, seed=5))
    snapshot_dir = _write_snapshots(tmp_path, series, n_files=1)
    path = snapshot_dir / "part0.csv"
    quoted = '"' + serial.replace('"', '""') + '"'
    path.write_text(path.read_text().replace(f",{series[1].serial},", f",{quoted},"))
    out = tmp_path / "out"
    cfg = _config_file(tmp_path, out, extra=(
        f"snapshot_dir {snapshot_dir}\nmodel_filter {ds.SYNTHETIC_MODEL}\nlookback_extrap 18\n"))
    assert main(["ingest", "--config", cfg]) == 2
    assert f"data error: {path}: serial {serial!r} holds a comma" in capsys.readouterr().err
    assert not (out / "cohorts").exists()


@pytest.mark.parametrize("serial", ["", "   "])
def test_ingest_empty_serial_is_data_error(tmp_path, capsys, serial):
    """A failure row whose serial cell is empty or only spaces names the file
    and writes no cohort, where it would give a drive without a serial."""
    series = ds.generate_synthetic(ds.SynthConfig(n_drives=4, lookback_days=25, jump_day=4, seed=5))
    snapshot_dir = _write_snapshots(tmp_path, series, n_files=1)
    path = snapshot_dir / "part0.csv"
    path.write_text(path.read_text().replace(f",{series[1].serial},", f",{serial},"))
    out = tmp_path / "out"
    cfg = _config_file(tmp_path, out, extra=(
        f"snapshot_dir {snapshot_dir}\nmodel_filter {ds.SYNTHETIC_MODEL}\nlookback_extrap 18\n"))
    assert main(["ingest", "--config", cfg]) == 2
    fail_day = series[1].rows.dates[-1]
    assert (f"data error: {path}: a failure row of a 'SYNTHETIC' drive on {fail_day} has an "
            "empty serial") in capsys.readouterr().err
    assert not (out / "cohorts").exists()


@pytest.mark.parametrize("cause", ["duplicate", "features"])
def test_ingest_without_drives_left_names_the_cause(tmp_path, capsys, cause):
    """Ingest that keeps no drive says why: every failed drive was skipped as
    inconsistent, or every labeled drive misses a selected feature."""
    series = ds.generate_synthetic(ds.SynthConfig(n_drives=1, lookback_days=25, jump_day=4, seed=5))
    snapshot_dir = _write_snapshots(tmp_path, series, n_files=1)
    extra = f"snapshot_dir {snapshot_dir}\nmodel_filter {ds.SYNTHETIC_MODEL}\nlookback_extrap 18\n"
    if cause == "duplicate":
        path = snapshot_dir / "part0.csv"
        lines = path.read_text().splitlines(keepends=True)
        path.write_text("".join(lines + lines[-2:-1]))
        message = "no drive left: all 1 failed 'SYNTHETIC' drives were skipped as inconsistent"
    else:
        extra += "features 7,5\n"
        message = "no drive left: every labeled drive misses a selected feature of [5, 7]"
    out = tmp_path / "out"
    assert main(["ingest", "--config", _config_file(tmp_path, out, extra=extra)]) == 2
    assert f"data error: {snapshot_dir}: {message}" in capsys.readouterr().err
    assert not (out / "cohorts").exists()


@pytest.mark.parametrize("name", ["lstm_t3.model", "forest.model"])
def test_evaluate_truncated_model_is_data_error(tmp_path, capsys, name):
    out = tmp_path / "out"
    cfg = _config_file(tmp_path, out)
    assert main(["synth", "--config", cfg]) == 0
    assert main(["train", "--config", cfg]) == 0
    path = out / "models" / name
    path.write_bytes(path.read_bytes()[:200])
    capsys.readouterr()
    assert main(["evaluate", "--config", cfg]) == 2
    assert str(path) in capsys.readouterr().err


@pytest.mark.parametrize("command,cohort", [("train", "train"), ("evaluate", "test60")])
def test_header_only_cohort_is_data_error(tmp_path, capsys, command, cohort):
    out = tmp_path / "out"
    cfg = _config_file(tmp_path, out)
    assert main(["synth", "--config", cfg]) == 0
    if command == "evaluate":
        assert main(["train", "--config", cfg]) == 0
    path = out / "cohorts" / f"{cohort}.csv"
    path.write_text(path.read_text().splitlines()[0] + "\n")
    capsys.readouterr()
    assert main([command, "--config", cfg]) == 2
    assert str(path) in capsys.readouterr().err


def test_train_skips_holdout_report_without_r2(tiny_run, tmp_path):
    # three drive-days: the forest fits two and holds out one, whose R2 is undefined
    args = _copy_run(tiny_run, tmp_path / "run")
    out = tmp_path / "run" / "out"
    shutil.rmtree(out / "traces")
    path = out / "cohorts" / "train.csv"
    path.write_text("\n".join(path.read_text().splitlines()[:4]) + "\n")
    assert main(["train", *args]) == 0
    assert not (out / "traces" / "forest_holdout.csv").exists()


def test_features_reads_what_ingest_wrote(tmp_path):
    # eight snapshot attributes, where synth with this config writes five
    config = ds.SynthConfig(n_drives=6, lookback_days=25, n_features=8, jump_day=4, seed=5)
    snapshot_dir = _write_snapshots(tmp_path, ds.generate_synthetic(config))
    out = tmp_path / "out"
    cfg = _config_file(tmp_path, out, extra=f"model_filter {ds.SYNTHETIC_MODEL}\n")
    assert main(["ingest", "--config", cfg, "--snapshot-dir", str(snapshot_dir)]) == 0
    snapshot_dir.rename(tmp_path / "moved")  # features opens no snapshot file
    assert main(["features", "--config", cfg]) == 0
    lines = (out / "features" / "features.csv").read_text().splitlines()[1:]
    assert sorted(int(line.split(",")[0]) for line in lines) == sorted(
        ds.synthetic_attribute_ids(8))


COHORT_FILES = ("train.csv", "test60.csv", "test120.csv", "manifest.csv", "scoring.csv")
SMALL_CORPUS = dict(days=140, healthy_target=20, healthy_other=6, failed_target=8,
                    failed_other=2, duplicated=2, missing_days=2)


def _small_corpus(tmp_path, corpus, seed, size=SMALL_CORPUS):
    """Write the seeded small snapshot corpus, or one of another ``size``;
    return (run config path, ground truth)."""
    truth = corpus.generate_corpus(tmp_path / "snapshots", seed, corpus.CorpusSize(**size))
    lookbacks = corpus.LOOKBACKS
    cfg = _config_file(tmp_path, tmp_path / "out", extra=(
        f"seed {seed}\nsnapshot_dir {tmp_path / 'snapshots'}\nmodel_filter {corpus.TARGET_MODEL}\n"
        f"cap 30\nlookback_train {lookbacks['train']}\nlookback_test {lookbacks['test60']}\n"
        f"lookback_extrap {lookbacks['test120']}\n"
    ))
    return cfg, truth


def _rows_in_windows(corpus, truth):
    """The rows ingest keeps over all its reads: each failed target drive's rows
    inside its longest lookback, and the duplicated day of a skipped drive twice."""
    longest = max(corpus.LOOKBACKS.values())
    return sum(truth.rows[(serial, longest)] for serial in truth.failed) + len(truth.skipped)


def _failure_day_files(truth):
    return {f"{day.isoformat()}.csv" for day in truth.failed.values()}


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_streaming_ingest_matches_one_pass_oracle(tmp_path, monkeypatch, load_perfbench, seed):
    corpus = load_perfbench("corpus")
    cfg, truth = _small_corpus(tmp_path, corpus, seed)
    with monkeypatch.context() as patch:
        reads, served = _count_reads(patch)
        assert main(["ingest", "--config", cfg, "--out", str(tmp_path / "stream")]) == 0
    with monkeypatch.context() as patch:
        patch.setattr(cli, "_split_events", oracles.split_events_one_pass)
        assert main(["ingest", "--config", cfg, "--out", str(tmp_path / "oracle")]) == 0

    _assert_same_cohorts(tmp_path)
    # the reads keep the rows in the windows but the failure-day rows, which
    # come from the failure rows the failure-day files' reads kept, one per
    # failed drive
    assert sum(n for _, n in reads) == _rows_in_windows(corpus, truth) - len(truth.failed)
    assert sum(n for _, n in served) == len(truth.failed) < truth.rows_total / 2
    # every file is read once, newest first, and no file again
    files = sorted((path.name for path in (tmp_path / "snapshots").glob("*.csv")), reverse=True)
    assert [name for name, _ in reads] == files
    assert sorted(name for name, _ in served) == sorted(_failure_day_files(truth))


def _count_reads(monkeypatch):
    """Record (file name, rows kept) of each snapshot read, and of each time a
    read's scan serves more rows, from the rows its read kept or a second read;
    the two lists."""
    reads, served = [], []
    read_snapshot_csv = ds.read_snapshot_csv

    def reading(path, windows, kept):
        scan = read_snapshot_csv(path, windows, kept)
        reads.append((path.name, len(scan)))
        add_rows = scan.add_rows
        scan.add_rows = lambda *args: served.append((path.name, add_rows(*args)))
        return scan

    monkeypatch.setattr(ds, "read_snapshot_csv", reading)
    return reads, served


def test_traced_ingest_times_every_snapshot_read(tmp_path, load_perfbench):
    """The benchmark's tracer sees every snapshot read of an ingest: one span per
    file, and the rows those reads keep as ``dataset.rows_parsed``. The
    failure-day rows come from the failure rows the reads kept, which it does
    not see."""
    corpus, tracer = load_perfbench("corpus"), load_perfbench("tracer")
    cfg, truth = _small_corpus(tmp_path, corpus, 1)
    traced = tracer.Tracer()
    with tracer.installed(traced):
        assert main(["ingest", "--config", cfg]) == 0
    n_files = len(list((tmp_path / "snapshots").glob("*.csv")))
    assert traced.calls()["dataset.read_snapshot_csv"] == n_files
    assert traced.counts["dataset.rows_parsed"] == _rows_in_windows(corpus, truth) - len(truth.failed)


def _failure_day_corpus(snapshot_dir, case):
    """Daily files for days 0..24 of drives whose serials and models hold each
    other: S1 and S10 fail on day 20, P2 (its serial cell padded with spaces
    on even days) on day 22 and D on day 18, among healthy drives S11, S100
    and H0..H11 of model XS1. The files of days 18 and 22 end without a line
    end. ``case`` adds a same-day row of D before or after its failure row
    (``dup_before``, ``dup_after``), a quote or a CR in the last line of
    every file (``quote``, ``cr``), a CRLF end to every line of every file,
    the last ones included (``crlf``), or 32K rows of healthy XS1 drives
    S100000 and on before the rows of day 20, which take its file past 1 MiB
    (``large``)."""
    snapshot_dir.mkdir()
    fails = {"S10": 20, "S1": 20, "P2": 22, "D": 18}
    healthy = [(f"H{k}", "XS1") for k in range(12)]
    drives = [("S10", "M")] + healthy[:6] + [("S1", "M"), ("S11", "M")] + healthy[6:]
    drives += [("S100", "M"), ("P2", "M"), ("D", "M")]
    for day in range(25):
        rows = []
        for k, (serial, model) in enumerate(drives):
            if day > fails.get(serial, day):
                continue
            cell = f" {serial} " if serial == "P2" and day % 2 == 0 else serial
            value = "" if (day + k) % 7 == 0 else str(day * 100 + k)
            rows.append(f"{date(2021, 1, 1) + timedelta(days=day)},{cell},{model},"
                        f"{int(day == fails.get(serial))},{value},{day + k}")
        if day == 20 and case == "large":
            rows = [f"2021-01-21,S{100_000 + k},XS1,0,{k},{k % 97}" for k in range(32_000)] + rows
        if day == 18 and case.startswith("dup"):
            twin = rows[-1].replace(",1,", ",0,")
            rows = [twin] + rows if case == "dup_before" else rows + [twin]
        if case == "quote":
            rows[-1] = rows[-1].replace(",XS1,", ',"XS1",').replace(",M,", ',"M",')
        end = "\r\n" if case == "crlf" else "\n"
        text = end.join(["date,serial_number,model,failure,smart_5_raw,smart_9_raw"] + rows)
        if case == "cr":
            text += "\r"
        (snapshot_dir / f"{date(2021, 1, 1) + timedelta(days=day)}.csv").write_text(
            text if day % 4 == 2 and case != "crlf" else text + end)


@pytest.mark.parametrize("case", ["plain", "dup_before", "dup_after", "quote", "cr", "crlf", "large"])
def test_failure_day_rows_from_the_read_match_one_pass_oracle(tmp_path, monkeypatch, capsys, case):
    """Ingest takes a failure-day file's wanted rows from the failure rows its
    read kept, at any file size, whatever other serials and models hold the
    wanted serial, and gives the cohorts of the one-pass oracle, whatever
    quotes or line ends the files hold. A file whose wanted drive has another
    row there (D's twin) is read again from disk instead."""
    snapshot_dir = tmp_path / "snapshots"
    _failure_day_corpus(snapshot_dir, case)
    if case == "large":
        assert (snapshot_dir / "2021-01-21.csv").stat().st_size > 1 << 20
    else:
        monkeypatch.setattr(ds, "_BLOCK", 256)  # every file takes three blocks or more
    cfg = _config_file(tmp_path, tmp_path / "out", extra=(
        f"snapshot_dir {snapshot_dir}\nmodel_filter M\nfeatures 5,9\n"
        "lookback_train 6\nlookback_test 6\nlookback_extrap 8\n"))
    with monkeypatch.context() as patch:
        reads, served = _count_reads(patch)
        assert main(["ingest", "--config", cfg, "--out", str(tmp_path / "stream")]) == 0
    with monkeypatch.context() as patch:
        patch.setattr(cli, "_split_events", oracles.split_events_one_pass)
        assert main(["ingest", "--config", cfg, "--out", str(tmp_path / "oracle")]) == 0
    _assert_same_cohorts(tmp_path)

    labeled = {line.split(",")[0] for name in ("train.csv", "test60.csv")
               for line in (tmp_path / "stream" / "cohorts" / name).read_text().splitlines()[1:]}
    assert labeled == ({"S1", "S10", "P2"} if case.startswith("dup") else {"S1", "S10", "P2", "D"})
    assert ("skipping drive D: drive D has duplicate records" in capsys.readouterr().err) == (
        case.startswith("dup"))
    files = sorted((path.name for path in snapshot_dir.glob("*.csv")), reverse=True)
    failure_days = ["2021-01-23.csv", "2021-01-21.csv", "2021-01-19.csv"]
    # S1 and S10 fail on day 20, and D's twin is kept with its failure row
    served_rows = {"2021-01-21.csv": 2, "2021-01-19.csv": 2 if case.startswith("dup") else 1}
    assert served == [(name, served_rows.get(name, 1)) for name in failure_days]
    # add_rows served these from a second read of the file
    read_again = ["2021-01-19.csv"] if case.startswith("dup") else []
    assert [name for name, _ in reads] == [n for name in files
                                          for n in [name] * (1 + (name in read_again))]


@pytest.mark.parametrize("command", ["synth", "ingest"])
def test_drive_csvs_match_row_at_a_time_writer(tmp_path, monkeypatch, load_perfbench, command):
    """Every drive CSV that synth, or ingest of the benchmark's seed-1 corpus,
    writes has the bytes of the row-at-a-time writer."""
    if command == "ingest":
        cfg, _ = _small_corpus(tmp_path, load_perfbench("corpus"), 1, size={})
    else:
        cfg = _config_file(tmp_path, tmp_path / "out")
    written = []
    write = ds._write_drive_csv

    def writing(path, feature_ids, drives):
        drives = list(drives)
        write(path, feature_ids, drives)
        oracles.write_drive_csv_rows(tmp_path / "rows.csv", feature_ids, drives)
        written.append((path.name, path.read_bytes() == (tmp_path / "rows.csv").read_bytes()))

    monkeypatch.setattr(ds, "_write_drive_csv", writing)
    assert main([command, "--config", cfg]) == 0
    assert written == [(name, True) for name in ("scoring.csv", "train.csv", "test60.csv", "test120.csv")]


def _ingest_both_ways(tmp_path, cfg, *flags):
    """Ingest into stream/ and, with the one-pass oracle, into oracle/; the exit codes."""
    codes = [main(["ingest", "--config", cfg, "--out", str(tmp_path / "stream"), *flags])]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(cli, "_split_events", oracles.split_events_one_pass)
        codes.append(main(["ingest", "--config", cfg, "--out", str(tmp_path / "oracle"), *flags]))
    return codes


def _assert_same_cohorts(tmp_path):
    for name in COHORT_FILES:
        stream = (tmp_path / "stream" / "cohorts" / name).read_bytes()
        assert stream == (tmp_path / "oracle" / "cohorts" / name).read_bytes(), name


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_labeled_failure_day_matches_snapshot_flags(tmp_path, load_perfbench, seed):
    """Each series ingest labels marks as failed exactly the days whose snapshot
    row says ``failure`` 1: its last day, labeled 0, and no other."""
    cfg, _ = _small_corpus(tmp_path, load_perfbench("corpus"), seed)
    config = load_config(cfg)
    by_serial, train, test = cli._split_events(config)
    records, _, _ = oracles.split_events_one_pass(config)
    checked = 0
    for events, lookback in ((train, config.lookback_train), (test, config.lookback_test),
                             (test, config.lookback_extrap)):
        for series in cli._labeled_series(by_serial, events, lookback, set()):
            flags = {rec.date: rec.failed for rec in records[series.serial]}
            got = [rec.failed for rec in series.records]
            assert got == [flags[rec.date] for rec in series.records], series.serial
            assert got[-1] and not any(got[:-1]), series.serial
            checked += 1
    assert checked


@pytest.mark.parametrize("second", [45, 36])
@pytest.mark.parametrize("daily", [False, True], ids=["one_file", "daily_files"])
@pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
def test_double_failure_drive_is_one_event(tmp_path, seed, daily, second):
    """A drive that fails twice is labeled from its first failure, in one split only.

    Four drives; A reports failure 1 on day 30 and again on day ``second``.
    With daily files, ingest reads the second failure first and moves A's
    window when it reaches day 30; after day 36 the two windows overlap.
    """
    snapshot_dir = tmp_path / "snapshots"
    snapshot_dir.mkdir()
    header = ("date,serial_number,model,failure,smart_7_raw,smart_9_raw,smart_240_raw,"
              "smart_241_raw,smart_242_raw")
    lines = {}
    for serial, fails in {"A": (30, second), "B": (33,), "C": (38,), "D": (41,)}.items():
        for day in range(fails[-1] + 1):
            values = ",".join(str(day * k + len(serial)) for k in range(1, 6))
            lines.setdefault(f"{day:02d}.csv" if daily else "all.csv", []).append(
                f"{date(2020, 1, 1) + timedelta(days=day)},{serial},M,{int(day in fails)},{values}")
    for name, rows in lines.items():
        (snapshot_dir / name).write_text("\n".join([header] + rows) + "\n")
    cfg = _config_file(tmp_path, tmp_path / "out", extra=(
        f"seed {seed}\nsnapshot_dir {snapshot_dir}\nmodel_filter M\n"
        "lookback_train 10\nlookback_test 10\nlookback_extrap 12\n"))
    assert _ingest_both_ways(tmp_path, cfg) == [0, 0]
    _assert_same_cohorts(tmp_path)

    def dates_of_a(name):
        lines = (tmp_path / "stream" / "cohorts" / f"{name}.csv").read_text().splitlines()
        return [line.split(",")[1] for line in lines if line.startswith("A,")]

    in_train, in_test = bool(dates_of_a("train")), bool(dates_of_a("test60"))
    assert in_train != in_test
    # one series per file, ending on the first failure (day 30)
    for name, days, member in (("train", 11, in_train), ("scoring", 11, in_train),
                               ("test60", 11, in_test), ("test120", 13, in_test)):
        series = [str(date(2020, 1, 31) - timedelta(days=k)) for k in range(days - 1, -1, -1)]
        assert dates_of_a(name) == (series if member else []), name


@pytest.mark.parametrize("first,flags", [
    (date(1, 1, 1), []),
    (date(2020, 1, 1), ["--lookback", "800000"]),
    (date(2020, 1, 1), ["--lookback", "1000000000"]),
], ids=["failure_near_date_min", "lookback_800000", "lookback_1e9"])
def test_ingest_window_start_clamped_at_date_min(tmp_path, first, flags):
    """A lookback window that would start before 0001-01-01 starts on it: each
    cohort holds the drive's rows from that day, or from its first, on. A
    drive fails on the fifth day of the corpus, or the lookback passes year 1."""
    snapshot_dir = tmp_path / "snapshots"
    snapshot_dir.mkdir()
    fails = {"A": 4, "B": 30, "C": 34}
    for day in range(35):
        rows = [f"{first + timedelta(days=day)},{serial},M,{int(day == fail)},{day * 7 + k},{day + k}"
                for k, (serial, fail) in enumerate(fails.items()) if day <= fail]
        (snapshot_dir / f"{first + timedelta(days=day)}.csv").write_text(
            "\n".join(["date,serial_number,model,failure,smart_5_raw,smart_9_raw"] + rows) + "\n")
    cfg = _config_file(tmp_path, tmp_path / "out", extra=(
        f"snapshot_dir {snapshot_dir}\nmodel_filter M\nfeatures 5,9\n"))
    assert _ingest_both_ways(tmp_path, cfg, *flags) == [0, 0]
    _assert_same_cohorts(tmp_path)

    config = load_config(cfg)
    lookbacks = {"train": config.lookback_train, "test60": config.lookback_test,
                 "test120": config.lookback_extrap}
    if flags:
        lookbacks["train"] = lookbacks["test60"] = int(flags[1])
    cohorts = {}
    for name, lookback in lookbacks.items():
        days = cohorts[name] = {}
        for line in (tmp_path / "stream" / "cohorts" / f"{name}.csv").read_text().splitlines()[1:]:
            days.setdefault(line.split(",")[0], []).append(line.split(",")[1])
        for serial, got in days.items():
            fail = fails[serial]
            assert got == [str(first + timedelta(days=k))
                           for k in range(max(0, fail - lookback), fail + 1)], (name, serial)
    assert {*cohorts["train"], *cohorts["test60"]} == set(fails)


@st.composite
def _shuffled_snapshots(draw):
    """{file name: text} of a snapshot corpus that reading in path order does not
    favour: files hold several days each under names that do not follow the
    dates, rows are in any order (a failure row before or after its drive's
    other rows), and some drives report ``failure`` 1 on two days. Each file
    has its own attribute columns: the default predictors and attribute 1 in
    any order, with the last of them left out of some files."""
    n_days = 14
    attributes = [*feat.DEFAULT_FEATURES, 1]
    rows = []
    for k in range(draw(st.integers(2, 5), label="drives")):
        serial, model = f"S{k}", draw(st.sampled_from(["M", "M", "M", "N"]), label="model")
        kind = draw(st.sampled_from(["healthy", "failed", "twice"]), label="kind")
        last = n_days - 1 if kind == "healthy" else draw(st.integers(4, n_days - 1), label="last")
        first = draw(st.integers(0, last - 1), label="first")
        fails = set() if kind == "healthy" else {last}
        if kind == "twice":
            fails.add(draw(st.integers(first, last - 1), label="first failure"))
        for day in range(first, last + 1):
            if day not in fails and draw(st.integers(0, 9), label="gap") == 0:
                continue
            cells = {fid: "" if draw(st.integers(0, 19), label="blank") == 0 else str(day * 10 + k + j)
                     for j, fid in enumerate(attributes)}
            rows.append((day, f"{date(2020, 1, 1) + timedelta(days=day)},{serial},{model},"
                              f"{int(day in fails)}", cells))
    n_files = draw(st.integers(1, 5), label="files")
    file_of_day = draw(st.lists(st.integers(0, n_files - 1), min_size=n_days, max_size=n_days),
                       label="file of each day")
    names = draw(st.permutations([f"{c}.csv" for c in "qwertyu"[:n_files]]), label="names")
    files = {}
    for f, name in enumerate(names):
        columns = draw(st.permutations(attributes), label=f"columns of {name}")
        columns = columns[:len(columns) - draw(st.integers(0, 1), label=f"{name} drops one")]
        header = "date,serial_number,model,failure," + ",".join(f"smart_{fid}_raw" for fid in columns)
        lines = [identity + "," + ",".join(cells[fid] for fid in columns)
                 for day, identity, cells in rows if file_of_day[day] == f]
        files[name] = "\n".join([header] + draw(st.permutations(lines), label=name)) + "\n"
    return files


@settings(max_examples=60, deadline=None)
@given(files=_shuffled_snapshots(), seed=st.integers(0, 3))
def test_ingest_in_any_path_order_matches_one_pass_oracle(tmp_path_factory, files, seed):
    """Cohort bytes equal the one-pass oracle's however days, files, names and
    attribute columns are laid out."""
    tmp_path = tmp_path_factory.mktemp("shuffled")
    snapshot_dir = tmp_path / "snapshots"
    snapshot_dir.mkdir()
    for name, text in files.items():
        (snapshot_dir / name).write_text(text)
    cfg = _config_file(tmp_path, tmp_path / "out", extra=(
        f"seed {seed}\nsnapshot_dir {snapshot_dir}\nmodel_filter M\n"
        "lookback_train 3\nlookback_test 3\nlookback_extrap 5\n"))
    codes = _ingest_both_ways(tmp_path, cfg)
    assert codes[0] == codes[1]
    if codes[0] == 0:
        _assert_same_cohorts(tmp_path)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_features_matches_snapshot_scoring_oracle(tmp_path, capsys, load_perfbench, seed):
    """features scores the train split ingest wrote, duplicated-day drives skipped,
    to the bytes of a score over the split rebuilt from the snapshots. Seeds 2
    and 3 put duplicated-day drives in the train split."""
    cfg, truth = _small_corpus(tmp_path, load_perfbench("corpus"), seed)
    out = tmp_path / "out"
    assert main(["ingest", "--config", cfg]) == 0
    err = capsys.readouterr().err
    train = {f.serial for f in ds.read_cohort_csv(out / "cohorts" / "train.csv")}
    for serial in truth.skipped:
        assert f"ingest: skipping drive {serial}: " in err and serial not in train
    assert main(["features", "--config", cfg]) == 0

    oracles.score_snapshot_train_split(load_config(cfg)).to_csv(tmp_path / "features.csv")
    assert (out / "features" / "features.csv").read_bytes() == (tmp_path / "features.csv").read_bytes()


@pytest.mark.parametrize("seed", [1, 2])  # seeds whose test split holds a skipped drive
def test_ingest_reports_each_skipped_drive_once(tmp_path, capsys, load_perfbench, seed):
    """A drive skipped as inconsistent gets one line on stderr, though test60
    and test120 label the same test drives."""
    cfg, truth = _small_corpus(tmp_path, load_perfbench("corpus"), seed)
    assert main(["ingest", "--config", cfg]) == 0
    lines = re.findall(r"ingest: skipping drive (.+?): ", capsys.readouterr().err)
    assert sorted(lines) == sorted(truth.skipped)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_snapshot_path_end_to_end(tmp_path, capsys, load_perfbench, seed):
    """ingest, features, train and evaluate on a snapshot corpus, the paper's own path."""
    corpus = load_perfbench("corpus")
    cfg, truth = _small_corpus(tmp_path, corpus, seed)
    with open(cfg, "a", encoding="utf-8") as fh:
        fh.write("timesteps 5,15\n")
    outs = [tmp_path / "out", tmp_path / "again"]
    for out in outs:
        for command in ("ingest", "features", "train", "evaluate"):
            assert main([command, "--config", cfg, "--out", str(out)]) == 0, command
        err = capsys.readouterr().err
        assert set(re.findall(r"ingest: skipping drive (.+?): ", err)) == truth.skipped
    # the cohorts hold every failed target drive but the skipped ones, each with
    # its rows inside the cohort's lookback
    cohorts = {}
    for name, lookback in corpus.LOOKBACKS.items():
        frames = ds.read_cohort_csv(outs[0] / "cohorts" / f"{name}.csv")
        cohorts[name] = {f.serial: len(f.dates) for f in frames}
        assert all(n == truth.rows[(serial, lookback)] for serial, n in cohorts[name].items())
    assert cohorts["test60"].keys() == cohorts["test120"].keys()
    assert sorted([*cohorts["train"], *cohorts["test60"]]) == sorted(set(truth.failed) - truth.skipped)
    reports = [p for p in (outs[0] / "reports").iterdir() if not p.name.startswith("summary_")]
    assert len(reports) == 2 * 5  # (LSTM, Bi-LSTM) x (5, 15) and the forest, on two cohorts
    for path in reports:
        report = ev.read_report_csv(path)
        again = ev.evaluate_pairs(report.pairs[:, 0], report.pairs[:, 1],
                                  model_id=report.model_id, cohort_id=report.cohort_id)
        for metric in ("accuracy", "r2", "mae"):
            assert getattr(again, metric) == pytest.approx(getattr(report, metric), abs=1e-12)
    for sub in ("models", "reports"):
        assert _file_bytes(outs[0] / sub) == _file_bytes(outs[1] / sub)


@pytest.mark.parametrize("command,extra,named", [
    ("train", "batch_size 0\n", "batch_size"),
    ("train", "hidden_size 0\n", "hidden_size"),
    ("train", "rf_estimators 0\n", "rf_estimators"),
    ("train", "epochs -1\n", "epochs"),
    ("synth", "lookback_test 0\n", "lookback_test"),
    ("synth", "lookback_train 10\nsynth_jump_day 15\n", "synth_jump_day"),
    ("synth", "synth_features 40\n", "synth_features"),
    ("synth", "synth_noise -1\n", "synth_noise"),
    ("synth", "synth_noise inf\n", "synth_noise inf"),
    ("synth", None, "missing.cfg"),
    ("train", "timesteps\n", "timesteps"),
    ("train", "timesteps 3,3\n", "timesteps"),
    ("train", "grad_clip -5\n", "grad_clip"),
    ("train", "grad_clip nan\n", "grad_clip"),
    ("train", "learning_rate -0.001\n", "learning_rate"),
    ("train", "learning_rate nan\n", "learning_rate"),
    ("train", "features 7,7\n", "features"),
    ("train", "features\n", "features must name at least one attribute"),
    ("train", "features ,\n", "features must name at least one attribute"),
    ("train", "rf_features some\n", "rf_features must be 'all' or 'selected'"),
    ("synth", "ingest_train_frac 1\n", "ingest_train_frac must lie in (0, 1)"),
    ("train", "timesteps 13\n", "timesteps must lie in 1..lookback_train"),
    ("evaluate", "clip_predictions 2\n", "bad.cfg:19: bad value for clip_predictions"),
    ("train", "rf_bootstrap -1\n", "bad.cfg:19: bad value for rf_bootstrap"),
    ("synth", "out\n", "out must name a directory"),
    ("synth --out=", "", "out must name a directory"),
    ("train", "features 5\n", "selected features [5] absent from the train cohort"),
    ("synth --lookback 3000000", "", "after 9999-12-31 (synth_train_drives 4, lookback_train 3000000"),
], ids=["batch_size", "hidden_size", "rf_estimators", "epochs", "lookback_test", "jump_day",
        "synth_features", "synth_noise", "inf_synth_noise", "missing_file", "empty_timesteps",
        "dup_timesteps", "negative_grad_clip", "nan_grad_clip", "negative_learning_rate",
        "nan_learning_rate", "dup_features", "no_features", "comma_features", "rf_features",
        "ingest_train_frac", "timesteps_past_lookback", "bool_two", "bool_negative",
        "empty_out", "empty_out_flag", "features_not_in_cohort", "synth_past_9999"])
def test_bad_config_exits_one(tmp_path, monkeypatch, capsys, command, extra, named):
    """A bad config exits 1 naming the fault, and the command writes nothing:
    ``command`` is the command and any flags it gets after the config."""
    out = tmp_path / "out"
    assert main(["synth", "--config", _config_file(tmp_path, out)]) == 0
    if extra is None:
        cfg = str(tmp_path / "missing.cfg")
    else:
        cfg = _config_file(tmp_path, out, extra=extra, name="bad.cfg")
    monkeypatch.chdir(tmp_path)  # an empty out would name the working directory
    before = sorted(tmp_path.rglob("*"))
    capsys.readouterr()
    command, *flags = command.split()
    assert main([command, "--config", cfg, *flags]) == 1
    assert named in capsys.readouterr().err
    assert sorted(tmp_path.rglob("*")) == before


# the drive CSVs of a tiny run and the command that reads each
_DRIVE_FILES = [("out/cohorts/test60.csv", "evaluate"), ("out/cohorts/scoring.csv", "features"),
                ("history.csv", "predict")]

# rows that break one rule each, for a drive the file holds ({serial}), and
# a fragment of the error that rule gives
_MALFORMED_ROWS = {
    "short": ("{serial},2030-01-01", "2 fields, expected 8"),
    "long": ("{serial},2030-01-01,3,1.0,2.0,3.0,4.0,5.0,6.0", "9 fields, expected 8"),
    "bad_date": ("{serial},2030-13-01,3,1.0,2.0,3.0,4.0,5.0", "month must be in 1..12"),
    "bad_number": ("{serial},2030-01-01,3,1.0,2.0,x,4.0,5.0", "could not convert"),
    "non_finite": ("{serial},2030-01-01,3,1.0,2.0,nan,4.0,5.0", "not a finite number"),
    "unsorted": ("{serial},2030-01-02,3,1.0,2.0,3.0,4.0,5.0\n"
                 "{serial},2030-01-01,3,1.0,2.0,3.0,4.0,5.0", "dates must strictly increase"),
    "duplicate_day": ("{serial},2030-01-01,3,1.0,2.0,3.0,4.0,5.0\n"
                      "{serial},2030-01-01,3,1.0,2.0,3.0,4.0,5.0", "dates must strictly increase"),
    "oversized_cell": ("{serial},2030-01-01,3,1.0,2.0," + "3" * 200_000 + ",4.0,5.0",
                       "field larger than field limit"),
}


@pytest.mark.parametrize("name,command,row,error", [
    pytest.param(name, command, row, error, id=prefix + case)
    for prefix, (name, command) in zip(["", "scoring-", "history-"], _DRIVE_FILES)
    for case, (row, error) in _MALFORMED_ROWS.items()
])
def test_malformed_cohort_is_data_error(tiny_run, tmp_path, capsys, name, command, row, error):
    """A cohort, scoring or history row that breaks a rule of the drive CSV ends in
    exit 2 naming the file."""
    dest = tmp_path / "run"
    args = _copy_run(tiny_run, dest)
    path = dest / name
    serial = path.read_text().splitlines()[1].split(",")[0]
    with open(path, "a") as fh:
        fh.write(row.format(serial=serial) + "\n")
    capsys.readouterr()
    assert main([command, *args, *_input_args(command, dest)]) == 2
    err = capsys.readouterr().err
    assert str(path) in err and error in err


@pytest.mark.parametrize("name,command", _DRIVE_FILES, ids=["cohort", "scoring", "history"])
@pytest.mark.parametrize("repeat", ["smart_7", "smart_07"])
def test_repeated_attribute_is_data_error(tiny_run, tmp_path, capsys, name, command, repeat):
    """A header that names an attribute twice ends in exit 2 naming the file."""
    dest = tmp_path / "run"
    args = _copy_run(tiny_run, dest)
    path = dest / name
    header, rest = path.read_text().split("\n", 1)
    assert header.startswith("serial,date,rul,smart_7,")
    path.write_text(header.rsplit(",", 1)[0] + "," + repeat + "\n" + rest)
    capsys.readouterr()
    assert main([command, *args, *_input_args(command, dest)]) == 2
    err = capsys.readouterr().err
    assert str(path) in err and "attribute 7 named twice" in err


@pytest.mark.parametrize("edit", [
    lambda text: text.replace("# model lstm_t3\n", ""),
    lambda text: text + "3,four\n",
    lambda text: text.rsplit("\n", 2)[0] + "\n",  # last row cut off
    lambda text: re.sub(r"# accuracy .*", "# accuracy nan", text),
    lambda text: re.sub(r"# r2 .*", "# r2 inf", text),
    lambda text: re.sub(r"\n[^\n]*\n$", "\n1,nan\n", text),  # the last pair
], ids=["no_model_line", "bad_number", "missing_row", "nan_accuracy", "inf_r2", "nan_pair"])
def test_malformed_report_is_data_error(tiny_run, tmp_path, capsys, edit):
    args = _copy_run(tiny_run, tmp_path / "run")
    path = tmp_path / "run" / "out" / "reports" / "lstm_t3_test60.csv"
    text = path.read_text()
    path.write_text(edit(text))
    assert path.read_text() != text
    capsys.readouterr()
    assert main(["report", *args]) == 2
    assert str(path) in capsys.readouterr().err


def _set_model_member(path, name, index, value):
    with np.load(path) as archive:
        members = dict(archive)
    members[name][index] = value
    with open(path, "wb") as fh:
        np.savez(fh, **members)


@pytest.mark.parametrize("name,member,index,value", [
    ("bilstm_t3.model", "forward.w_x", (0, 0), np.nan),
    ("forest.model", "threshold", 0, np.nan),
    ("forest.model", "value", -1, np.inf),
], ids=["bilstm_weight", "forest_threshold", "forest_value"])
@pytest.mark.parametrize("command", ["evaluate", "predict"])
def test_non_finite_model_is_data_error(tiny_run, tmp_path, capsys, command, name, member,
                                        index, value):
    """A model file holding a NaN or an infinity ends in exit 2 naming it, and
    ``evaluate`` writes no report from it."""
    dest = tmp_path / "run"
    args = _copy_run(tiny_run, dest)
    shutil.rmtree(dest / "out" / "reports")
    path = dest / "out" / "models" / name
    _set_model_member(path, member, index, value)
    capsys.readouterr()
    assert main([command, *args, *_input_args(command, dest, model=name)]) == 2
    err = capsys.readouterr().err
    assert str(path) in err and f"{member} holds a value that is not finite" in err
    assert not any((dest / "out" / "reports").glob(f"{name.split('.')[0]}_*.csv"))


@pytest.mark.parametrize("name,command", [
    ("run.cfg", "evaluate"),
    ("out/cohorts/test60.csv", "evaluate"),
    ("out/reports/lstm_t3_test60.csv", "report"),
    ("out/models/lstm_t3.model", "evaluate"),
    ("out/models/forest.model", "evaluate"),
    ("out/cohorts/train.csv", "train"),
    ("history.csv", "predict"),
    ("out/cohorts/scoring.csv", "features"),
])
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_truncated_input_ends_in_exit_code(tiny_run, tmp_path_factory, name, command, data):
    dest = tmp_path_factory.mktemp("truncated") / "run"
    args = _copy_run(tiny_run, dest)
    raw = (dest / name).read_bytes()
    (dest / name).write_bytes(raw[: data.draw(st.integers(0, len(raw)), label="size")])
    assert main([command, *args, *_input_args(command, dest)]) in (0, 1, 2, 3)


def _tiny_snapshots():
    """{file name: bytes} of seven daily snapshot files: drives S1 and S2 of
    model M fail on days 5 and 6, S3 of M and X1 of N stay healthy."""
    fails = {"S1": 5, "S2": 6, "S3": None, "X1": None}
    files = {}
    for day in range(7):
        rows = [f"{date(2021, 1, 1) + timedelta(days=day)},{serial},{'N' if serial == 'X1' else 'M'},"
                f"{int(day == fail)},{day * 10 + k},{day + k}"
                for k, (serial, fail) in enumerate(fails.items()) if fail is None or day <= fail]
        text = "\n".join(["date,serial_number,model,failure,smart_5_raw,smart_9_raw"] + rows) + "\n"
        files[f"{date(2021, 1, 1) + timedelta(days=day)}.csv"] = text.encode()
    return files


_TOKENS = [b"nan", b"inf", b"1e400", b"-0", b'"', b",", b"\n", b"\r", b"\x00", b"2021-02-30",
           b"1" * 30]


def _mutation(data, raw):
    """``raw`` with one drawn mutation: a flipped byte, an inserted token, a
    line duplicated, deleted or swapped with another, or one cell replaced."""
    kind = data.draw(st.sampled_from(["flip", "insert", "duplicate", "delete", "swap", "cell"]),
                     label="mutation")
    if kind == "flip":
        at = data.draw(st.integers(0, len(raw) - 1), label="byte")
        return raw[:at] + bytes([raw[at] ^ data.draw(st.integers(1, 255), label="mask")]) + raw[at + 1:]
    if kind == "insert":
        at = data.draw(st.integers(0, len(raw)), label="at")
        return raw[:at] + data.draw(st.sampled_from(_TOKENS), label="token") + raw[at:]
    lines = raw.splitlines(keepends=True)
    i = data.draw(st.integers(0, len(lines) - 1), label="line")
    if kind == "duplicate":
        lines.insert(i, lines[i])
    elif kind == "delete":
        del lines[i]
    elif kind == "swap":
        j = data.draw(st.integers(0, len(lines) - 1), label="other line")
        lines[i], lines[j] = lines[j], lines[i]
    else:
        cells = lines[i].rstrip(b"\n").split(b",")
        cells[data.draw(st.integers(0, len(cells) - 1), label="cell")] = data.draw(
            st.sampled_from([b"", *_TOKENS]), label="value")
        lines[i] = b",".join(cells) + b"\n"
    return b"".join(lines)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_mutated_snapshot_ends_in_exit_code(tmp_path_factory, data):
    """One mutation of one snapshot file: ingest exits 0 or 2, never with an
    exception, and a data error names the snapshot directory or a file in it."""
    tmp_path = tmp_path_factory.mktemp("mutated")
    snapshot_dir = tmp_path / "snapshots"
    snapshot_dir.mkdir()
    files = _tiny_snapshots()
    name = data.draw(st.sampled_from(sorted(files)), label="file")
    files[name] = _mutation(data, files[name])
    for filename, raw in files.items():
        (snapshot_dir / filename).write_bytes(raw)
    cfg = _config_file(tmp_path, tmp_path / "out", extra=(
        f"snapshot_dir {snapshot_dir}\nmodel_filter M\nfeatures 5,9\n"))
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()) as err:
        code = main(["ingest", "--config", cfg])
    assert code in (0, 2)
    if code == 2:
        assert str(snapshot_dir) in err.getvalue()


def _ff_in_middle(path):
    raw = path.read_bytes()
    path.write_bytes(raw[: len(raw) // 2] + b"\xff" + raw[len(raw) // 2 :])


def _ff_fe_prefix(path):
    path.write_bytes(b"\xff\xfe" + path.read_bytes())


def _directory(path):
    path.unlink()
    path.mkdir()


def _empty(path):
    path.write_bytes(b"")


def _drop_rul(path):
    """Remove the third column, rul, from every line."""
    lines = [line.split(",") for line in path.read_text().splitlines()]
    assert lines[0][2] == "rul"
    path.write_text("".join(",".join(cells[:2] + cells[3:]) + "\n" for cells in lines))


@pytest.mark.parametrize("name,command,edit", [
    ("out/cohorts/test60.csv", "evaluate", _ff_in_middle),
    ("snapshots/part0.csv", "ingest", _ff_in_middle),
    ("history.csv", "predict", _ff_in_middle),
    ("out/models/lstm_t3.model", "predict", _ff_fe_prefix),
    ("history.csv", "predict", _directory),
    ("out/models/lstm_t3.model", "predict", _directory),
    ("snapshots/part0.csv", "ingest", _directory),
    ("out/reports/lstm_t3_test60.csv", "report", _directory),
    ("out/cohorts/scoring.csv", "features", _ff_in_middle),
    ("out/cohorts/scoring.csv", "features", _directory),
    ("out/cohorts/test60.csv", "evaluate", _empty),
    ("history.csv", "predict", _empty),
    ("out/cohorts/scoring.csv", "features", _empty),
    ("out/cohorts/test60.csv", "evaluate", _drop_rul),
    ("out/cohorts/scoring.csv", "features", _drop_rul),
], ids=["cohort", "snapshot", "history", "model", "history_dir", "model_dir", "snapshot_dir",
        "report_dir", "scoring", "scoring_dir", "cohort_empty", "history_empty", "scoring_empty",
        "cohort_no_rul", "scoring_no_rul"])
def test_non_utf8_input_is_data_error(tiny_run, tmp_path, capsys, name, command, edit):
    """Bytes that are not UTF-8 text (or not a model container), a directory
    where a file belongs, an empty drive CSV, or a cohort or scoring file
    without its rul column, end in exit 2 naming the path."""
    dest = tmp_path / "run"
    args = _copy_run(tiny_run, dest)
    path = dest / name
    edit(path)
    capsys.readouterr()
    assert main([command, *args, *_input_args(command, dest)]) == 2
    assert str(path) in capsys.readouterr().err


def _drop_file(path):
    path.unlink()


def _header_only(path):
    path.write_text(path.read_text().splitlines()[0] + "\n")


def _cell(value):
    """Replace the last cell of the first drive's second day."""
    def edit(path):
        lines = path.read_text().splitlines()
        lines[2] = lines[2].rsplit(",", 1)[0] + "," + value
        path.write_text("\n".join(lines) + "\n")
    return edit


@pytest.mark.parametrize("edit,code,drive", [
    (_drop_file, 1, False),
    (_header_only, 2, False),
    (_cell("nan"), 2, True),
    (_cell("-inf"), 2, True),
    (_cell(""), 0, False),
], ids=["missing", "no_drives", "nan", "inf", "empty_cell"])
def test_scoring_file_failures(tiny_run, tmp_path, capsys, edit, code, drive):
    """A missing scoring.csv is a configuration error, one without drives or with a
    non-finite value a data error; an empty cell is a value the drive did not report."""
    args = _copy_run(tiny_run, tmp_path / "run")
    path = tmp_path / "run" / "out" / "cohorts" / "scoring.csv"
    serial = path.read_text().splitlines()[1].split(",")[0]
    edit(path)
    capsys.readouterr()
    assert main(["features", *args]) == code
    err = capsys.readouterr().err
    if code:
        assert str(path) in err and (serial in err) == drive
