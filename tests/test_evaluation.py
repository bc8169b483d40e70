import numpy as np
import pytest

from hddrul import evaluation as ev
from hddrul.errors import ConfigError, UndefinedMetricError
from hddrul.preprocess import WindowedDataset
from oracles import mae_sorted_fsum


def test_accuracy_rounding_cases():
    assert ev.accuracy_rounded([24.4], [24.0]) == 1.0
    assert ev.accuracy_rounded([24.6], [24.0]) == 0.0
    assert ev.accuracy_rounded([24.5], [25.0]) == 1.0


def test_rounding_half_away_from_zero_negative():
    assert ev.round_half_away_from_zero([-0.5, -1.5, -0.4]).tolist() == [-1.0, -2.0, 0.0]
    assert ev.accuracy_rounded([-0.5], [-1.0]) == 1.0


def test_mae_cases():
    assert ev.mae([1.0, 2.0], [1.0, 2.0]) == 0.0
    assert ev.mae([1.0, 3.0], [2.0, 2.0]) == 1.0


def test_mae_matches_summation_oracle(rng):
    preds = rng.normal(size=100) * 17
    actuals = rng.normal(size=100) * 17
    assert ev.mae(preds, actuals) == pytest.approx(mae_sorted_fsum(preds, actuals), abs=1e-12)


def test_r2_cases(rng):
    actuals = rng.normal(size=50) * 3 + 10
    assert ev.r2(actuals, actuals) == 1.0
    assert ev.r2(np.full(50, actuals.mean()), actuals) == pytest.approx(0.0, abs=1e-9)
    far = np.full(50, actuals.mean() + 10 * actuals.std())
    assert ev.r2(far, actuals) < 0.0
    with pytest.raises(UndefinedMetricError):
        ev.r2(actuals, np.full(50, 1.0))


def test_metric_permutation_invariance(rng):
    preds = rng.normal(size=60)
    actuals = rng.normal(size=60)
    perm = rng.permutation(60)
    assert ev.accuracy_rounded(preds, actuals) == ev.accuracy_rounded(preds[perm], actuals[perm])
    assert ev.mae(preds, actuals) == pytest.approx(ev.mae(preds[perm], actuals[perm]), rel=1e-12)
    assert ev.r2(preds, actuals) == pytest.approx(ev.r2(preds[perm], actuals[perm]), rel=1e-9)


def _dataset(rng, n=40):
    targets = rng.integers(0, 31, size=n).astype(float)
    windows = rng.normal(size=(n, 3, 2))
    return WindowedDataset(windows=windows, targets=targets, feature_ids=[7, 9])


def test_evaluate_oracle_predictor(rng):
    dataset = _dataset(rng)
    report = ev.evaluate_pairs(dataset.targets, dataset.targets.copy(),
                               model_id="oracle", cohort_id="test")
    assert report.accuracy == 1.0
    assert report.r2 == 1.0
    assert report.mae == 0.0
    assert np.all(report.pairs[:-1, 0] <= report.pairs[1:, 0])  # sorted by actual


def test_evaluate_mean_predictor_r2_zero(rng):
    dataset = _dataset(rng)
    mean = dataset.targets.mean()
    report = ev.evaluate_pairs(dataset.targets, np.full(dataset.n_samples, mean),
                               model_id="mean", cohort_id="test")
    assert report.r2 == pytest.approx(0.0, abs=1e-9)


def test_evaluate_shape_mismatch(rng):
    dataset = _dataset(rng)
    with pytest.raises(ValueError):
        ev.evaluate_pairs(dataset.targets, np.zeros(3), model_id="bad", cohort_id="test")


def test_report_csv_roundtrip_and_recompute(rng, tmp_path):
    dataset = _dataset(rng)
    preds = dataset.targets + rng.normal(size=dataset.n_samples) * 0.7
    report = ev.evaluate_pairs(dataset.targets, preds, model_id="m", cohort_id="c", timesteps=15)
    path = tmp_path / "report.csv"
    ev.write_report_csv(report, path)
    back = ev.read_report_csv(path)

    assert back.model_id == "m" and back.cohort_id == "c" and back.timesteps == 15
    actual, predicted = back.pairs[:, 0], back.pairs[:, 1]
    assert ev.accuracy_rounded(predicted, actual) == pytest.approx(back.accuracy, abs=1e-12)
    assert ev.mae(predicted, actual) == pytest.approx(back.mae, abs=1e-12)
    assert ev.r2(predicted, actual) == pytest.approx(back.r2, abs=1e-12)


def test_report_bytes_deterministic(rng, tmp_path):
    dataset = _dataset(rng)
    preds = dataset.targets + 0.25
    report = ev.evaluate_pairs(dataset.targets, preds, model_id="m", cohort_id="c")
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    ev.write_report_csv(report, a)
    ev.write_report_csv(report, b)
    assert a.read_bytes() == b.read_bytes()


def test_report_rows_match_row_at_a_time_writer(rng, tmp_path):
    """All rows in one format call give the bytes of one write per pair."""
    values = np.concatenate([[-0.0, 5e-324, 1e16, 0.1 + 0.2, 0.0, -1e-300, 30.0],
                             rng.normal(size=93) * 10.0 ** rng.integers(-20, 20, size=93)])
    pairs = values.reshape(-1, 2)
    report = ev.EvalReport("m", None, "c", 0.5, 0.25, 1.0, pairs)
    path = tmp_path / "report.csv"
    ev.write_report_csv(report, path)
    rows = path.read_text().split("actual,predicted\n", 1)[1]
    assert rows == "".join("%.17g,%.17g\n" % (actual, predicted) for actual, predicted in pairs)
    assert rows.startswith("-0,4.9406564584124654e-324\n10000000000000000,0.30000000000000004\n")


def test_noise_does_not_help_in_expectation(rng):
    actuals = rng.integers(0, 31, size=200).astype(float)
    preds = actuals + rng.uniform(-0.3, 0.3, size=200)
    clean = ev.accuracy_rounded(preds, actuals)
    noisy = [
        ev.accuracy_rounded(preds + np.random.default_rng(s).uniform(-0.5, 0.5, 200), actuals)
        for s in range(30)
    ]
    assert clean >= np.mean(noisy)


def test_run_matrix_counts_and_summary(small_frames, tmp_path, rng):
    from hddrul import forest, neural
    from hddrul import preprocess as pp

    selected = small_frames[0].feature_ids
    std = [pp.standardize_per_device(f) for f in small_frames]
    models = {}
    for arch, bi in (("lstm", False), ("bilstm", True)):
        for timesteps in (2, 3):
            wd = pp.window(std, timesteps)
            settings = neural.TrainSettings(bidirectional=bi, hidden_size=3, epochs=1,
                                            batch_size=32, seed=timesteps)
            model, _ = neural.train(settings, wd)
            models[f"{arch}_t{timesteps}"] = model
    X, y = ev.per_day_rows(small_frames, selected)
    models["forest"] = forest.fit_forest(X, y, n_estimators=3, seed=0, feature_ids=selected)

    cohorts = {"test60": small_frames, "test120": small_frames}
    reports = ev.run_matrix(models, cohorts)
    assert len(reports) == 2 * (2 * 2 + 1)
    assert {r.cohort_id for r in reports} == {"test60", "test120"}
    assert [(r.model_id, r.timesteps) for r in reports[:5]] == [
        ("lstm_t2", 2), ("lstm_t3", 3), ("bilstm_t2", 2), ("bilstm_t3", 3), ("forest", None)
    ]

    summary = tmp_path / "summary.csv"
    subset = [r for r in reports if r.cohort_id == "test60"]
    ev.write_summary_csv(subset, summary)
    lines = summary.read_text().splitlines()
    assert lines[0] == "model,timesteps,accuracy,r2,mae"
    assert lines[1].startswith("LSTM,2") and lines[-1].startswith("RF,NA")


def test_per_day_rows_alignment(small_frames):
    """Rows and targets follow window()'s drive-day order whatever the order of
    the frames: the selected raw values of the drives by serial, day after day."""
    from hddrul import preprocess as pp

    ids = small_frames[0].feature_ids[::-1][:3]
    by_serial = sorted(small_frames, key=lambda f: f.serial)
    want = np.concatenate([f.select(ids).values for f in by_serial])
    for frames in (small_frames, small_frames[::-1]):
        X, y = ev.per_day_rows(frames, ids)
        wd = pp.window([pp.standardize_per_device(f) for f in frames], 3)
        assert len(y) == wd.n_samples
        assert np.array_equal(y, wd.targets)
        assert X.shape == want.shape and X.tobytes() == want.tobytes()


def test_predict_frames_aligns_kinds_clips_and_names_missing_attribute(small_frames):
    from hddrul import forest, neural
    from hddrul import preprocess as pp

    selected = small_frames[0].feature_ids
    settings = neural.TrainSettings(bidirectional=False, hidden_size=3, epochs=1, seed=0)
    lstm, _ = neural.train(settings, pp.window([pp.standardize_per_device(f)
                                                for f in small_frames], 3))
    X, y = ev.per_day_rows(small_frames, selected)
    rf = forest.fit_forest(X, y, n_estimators=3, seed=0, feature_ids=selected)

    for model in (lstm, rf):
        targets, raw = ev.predict_frames(model, small_frames)
        assert np.array_equal(targets, y)
        _, clipped = ev.predict_frames(model, small_frames, clip=(1.0, 5.0))
        assert np.array_equal(clipped, np.clip(raw, 1.0, 5.0))
        with pytest.raises(ConfigError, match=f"attribute {selected[-1]} "):
            ev.predict_frames(model, [f.select(selected[:-1]) for f in small_frames])
