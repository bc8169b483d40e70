import shutil

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hddrul import dataset as ds
from hddrul import evaluation as ev
from hddrul import neural
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
    """A directory holding run.cfg and the out/ of synth, train and evaluate on it."""
    root = tmp_path_factory.mktemp("tiny_run")
    cfg = _config_file(root, root / "out")
    for command in ("synth", "train", "evaluate"):
        assert main([command, "--config", cfg]) == 0
    return root


def _copy_run(tiny_run, dest):
    """A copy of the tiny run and the arguments that point a command at it."""
    shutil.copytree(tiny_run, dest)
    return ["--config", str(dest / "run.cfg"), "--out", str(dest / "out")]


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
    out = tmp_path / "out"
    cfg = _config_file(tmp_path, out)
    rc = main(["synth", "--config", cfg, "--seed", "777", "--out", str(tmp_path / "other")])
    assert rc == 0
    text = (tmp_path / "other" / "run_config.txt").read_text()
    assert "seed 777" in text


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
    assert main(["features", "--config", cfg]) == 0
    selected = (out / "features" / "selected.txt").read_text().strip()
    assert selected == "7,9,240,241,242"
    lines = (out / "features" / "features.csv").read_text().splitlines()
    assert lines[0] == "attribute,correlation_score,tree_importance"
    corr = [float(r.split(",")[1]) for r in lines[1:] if r.split(",")[1]]
    imp = [float(r.split(",")[2]) for r in lines[1:] if r.split(",")[2]]
    assert all(0.0 <= v <= 1.0 for v in corr)
    assert sum(imp) == pytest.approx(1.0, abs=1e-9)


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


def test_exit_code_config_error(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("schema_version 1\nmystery 1\n")
    assert main(["synth", "--config", str(bad)]) == 1


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


def test_ingest_empty_dir_warns_and_succeeds(tmp_path, capsys):
    snapshot_dir = tmp_path / "snapshots"
    snapshot_dir.mkdir()
    out = tmp_path / "out"
    cfg = _config_file(tmp_path, out, extra=f"snapshot_dir {snapshot_dir}\n")
    assert main(["ingest", "--config", cfg]) == 0
    assert "no matching failures" in capsys.readouterr().err
    manifest = (out / "cohorts" / "manifest.csv").read_text().splitlines()
    assert len(manifest) == 1


def test_ingest_malformed_snapshot_is_data_error(tmp_path):
    snapshot_dir = tmp_path / "snapshots"
    snapshot_dir.mkdir()
    (snapshot_dir / "bad.csv").write_text(
        "date,serial_number,model,failure\nnot-a-date,A,M,0\n"
    )
    out = tmp_path / "out"
    cfg = _config_file(tmp_path, out, extra=f"snapshot_dir {snapshot_dir}\n")
    assert main(["ingest", "--config", cfg]) == 2


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


def test_features_skips_inconsistent_drive_like_ingest(tmp_path, capsys):
    config = ds.SynthConfig(n_drives=6, lookback_days=25, jump_day=4, seed=5)
    snapshot_dir = _write_snapshots(tmp_path, ds.generate_synthetic(config))
    out = tmp_path / "out"
    cfg = _config_file(tmp_path, out, extra=f"model_filter {ds.SYNTHETIC_MODEL}\n")
    assert main(["ingest", "--config", cfg, "--snapshot-dir", str(snapshot_dir)]) == 0
    serial = ds.read_cohort_csv(out / "cohorts" / "train.csv")[0].serial
    # repeat one of that train-split drive's healthy days inside its lookback
    parts = sorted(snapshot_dir.glob("*.csv"))
    rows = [line for p in parts for line in p.read_text().splitlines()[1:]]
    healthy = [r for r in rows if r.split(",")[1] == serial and r.split(",")[4] == "0"]
    with open(parts[-1], "a") as fh:
        fh.write(healthy[-1] + "\n")
    capsys.readouterr()

    assert main(["features", "--config", cfg, "--snapshot-dir", str(snapshot_dir)]) == 0
    err = capsys.readouterr().err
    assert f"features: skipping drive {serial}: " in err and "duplicate" in err
    assert (out / "features" / "selected.txt").exists()
    assert main(["ingest", "--config", cfg, "--snapshot-dir", str(snapshot_dir)]) == 0
    assert f"ingest: skipping drive {serial}: " in capsys.readouterr().err
    assert serial not in {f.serial for f in ds.read_cohort_csv(out / "cohorts" / "train.csv")}


@pytest.mark.parametrize("command,extra,named", [
    ("train", "batch_size 0\n", "batch_size"),
    ("train", "hidden_size 0\n", "hidden_size"),
    ("train", "rf_estimators 0\n", "rf_estimators"),
    ("train", "epochs -1\n", "epochs"),
    ("synth", "lookback_test 0\n", "lookback_test"),
    ("synth", "lookback_train 10\nsynth_jump_day 15\n", "synth_jump_day"),
    ("synth", "synth_features 40\n", "synth_features"),
    ("synth", "synth_noise -1\n", "synth_noise"),
    ("synth", None, "missing.cfg"),
], ids=["batch_size", "hidden_size", "rf_estimators", "epochs", "lookback_test", "jump_day",
        "synth_features", "synth_noise", "missing_file"])
def test_bad_config_exits_one(tmp_path, capsys, command, extra, named):
    out = tmp_path / "out"
    assert main(["synth", "--config", _config_file(tmp_path, out)]) == 0
    if extra is None:
        cfg = str(tmp_path / "missing.cfg")
    else:
        cfg = _config_file(tmp_path, out, extra=extra, name="bad.cfg")
    capsys.readouterr()
    assert main([command, "--config", cfg]) == 1
    assert named in capsys.readouterr().err


@pytest.mark.parametrize("row", [
    "T60-0000,2020-01-01",  # short
    "T60-0000,2020-01-01,3,1.0,2.0,3.0,4.0,5.0,6.0",  # one field too many
    "T60-0000,2020-13-01,3,1.0,2.0,3.0,4.0,5.0",  # no such date
    "T60-0000,2020-01-01,3,1.0,2.0,x,4.0,5.0",  # not a number
], ids=["short", "long", "bad_date", "bad_number"])
def test_malformed_cohort_is_data_error(tiny_run, tmp_path, capsys, row):
    args = _copy_run(tiny_run, tmp_path / "run")
    path = tmp_path / "run" / "out" / "cohorts" / "test60.csv"
    with open(path, "a") as fh:
        fh.write(row + "\n")
    capsys.readouterr()
    assert main(["evaluate", *args]) == 2
    assert str(path) in capsys.readouterr().err


@pytest.mark.parametrize("edit", [
    lambda text: text.replace("# model lstm_t3\n", ""),
    lambda text: text + "3,four\n",
    lambda text: text.rsplit("\n", 2)[0] + "\n",  # last row cut off
], ids=["no_model_line", "bad_number", "missing_row"])
def test_malformed_report_is_data_error(tiny_run, tmp_path, capsys, edit):
    args = _copy_run(tiny_run, tmp_path / "run")
    path = tmp_path / "run" / "out" / "reports" / "lstm_t3_test60.csv"
    path.write_text(edit(path.read_text()))
    capsys.readouterr()
    assert main(["report", *args]) == 2
    assert str(path) in capsys.readouterr().err


@pytest.mark.parametrize("name,command", [
    ("run.cfg", "evaluate"),
    ("out/cohorts/test60.csv", "evaluate"),
    ("out/reports/lstm_t3_test60.csv", "report"),
    ("out/models/lstm_t3.model", "evaluate"),
    ("out/models/forest.model", "evaluate"),
])
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_truncated_input_ends_in_exit_code(tiny_run, tmp_path_factory, name, command, data):
    dest = tmp_path_factory.mktemp("truncated") / "run"
    args = _copy_run(tiny_run, dest)
    raw = (dest / name).read_bytes()
    (dest / name).write_bytes(raw[: data.draw(st.integers(0, len(raw)), label="size")])
    assert main([command, *args]) in (0, 1, 2, 3)
