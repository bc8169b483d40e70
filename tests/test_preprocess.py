from datetime import date, timedelta

import numpy as np
import pytest

from hddrul import dataset as ds
from hddrul import preprocess as pp


def _frame(serial, values, rul=None, ids=None):
    values = np.atleast_2d(np.asarray(values, dtype=float))
    n, f = values.shape
    return ds.DriveFrame(
        serial=serial,
        dates=[date(2020, 1, 1) + timedelta(days=i) for i in range(n)],
        feature_ids=ids or list(range(1, f + 1)),
        values=values,
        rul=np.asarray(rul if rul is not None else range(n - 1, -1, -1)),
    )


def test_zscore_hand_case():
    out = pp.standardize_per_device(_frame("A", [[1.0], [2.0], [3.0]]))
    assert out.values[:, 0] == pytest.approx([-1.224744871391589, 0.0, 1.224744871391589], abs=1e-12)


def test_zscore_constant_feature_maps_to_exact_zeros():
    out = pp.standardize_per_device(_frame("A", [[5.0, 1.0], [5.0, 2.0], [5.0, 3.0]]))
    assert np.array_equal(out.values[:, 0], np.zeros(3))


def test_zscore_moments(rng):
    values = rng.normal(size=(40, 3)) * 1e4 + 5e4
    out = pp.standardize_per_device(_frame("A", values))
    assert np.abs(out.values.mean(axis=0)).max() < 1e-9
    assert np.abs(out.values.var(axis=0) - 1.0).max() < 1e-6


def test_zscore_affine_invariance_power_of_two_exact(rng):
    base = rng.integers(0, 1000, size=(24, 2)).astype(float)
    plain = pp.standardize_per_device(_frame("A", base))
    scaled = pp.standardize_per_device(_frame("A", base * 4.0))
    assert np.array_equal(plain.values, scaled.values)


def test_zscore_affine_invariance_general(rng):
    base = rng.normal(size=(30, 2)) * 100
    plain = pp.standardize_per_device(_frame("A", base))
    mapped = pp.standardize_per_device(_frame("A", 3.7 * base + 1234.5))
    assert plain.values == pytest.approx(mapped.values, abs=1e-10)


def test_zscore_untouched_by_other_drives(small_frames):
    alone = pp.standardize_per_device(small_frames[0])
    with_others = [pp.standardize_per_device(f) for f in small_frames]
    assert np.array_equal(alone.values, with_others[0].values)
    assert np.array_equal(alone.rul, small_frames[0].rul)


def test_window_timesteps_one_is_identity(small_frames):
    wd = pp.window(small_frames, 1)
    flat = np.concatenate([f.values for f in sorted(small_frames, key=lambda x: x.serial)])
    assert wd.windows.shape == (flat.shape[0], 1, flat.shape[1])
    assert np.array_equal(wd.windows[:, 0, :], flat)


def test_window_sample_count_preserved_78x61():
    config = ds.SynthConfig(n_drives=78, lookback_days=60, seed=11)
    series = [ds.cap_rul(s) for s in ds.generate_synthetic(config)]
    frames = ds.materialize_cohort(series, ds.synthetic_attribute_ids(5))
    for timesteps in (5, 10, 15, 30):
        assert pp.window(frames, timesteps).n_samples == 4758


def test_window_rows_by_index_arithmetic():
    n = 10
    values = np.arange(n, dtype=float).reshape(n, 1)  # value == day index
    frame = _frame("A", values, rul=list(range(n - 1, -1, -1)))
    wd = pp.window([frame], 5)
    # find the sample whose label is 1; its rows must be the days labeled 5..1
    k = int(np.flatnonzero(wd.targets == 1.0)[0])
    assert wd.windows[k, :, 0].tolist() == [4.0, 5.0, 6.0, 7.0, 8.0]
    assert [frame.rul[int(v)] for v in wd.windows[k, :, 0]] == [5, 4, 3, 2, 1]


def test_window_left_padding_replicates_earliest():
    frame = _frame("A", np.arange(3, dtype=float).reshape(3, 1))
    wd = pp.window([frame], 4)
    assert wd.windows[0, :, 0].tolist() == [0.0, 0.0, 0.0, 0.0]
    assert wd.windows[1, :, 0].tolist() == [0.0, 0.0, 0.0, 1.0]
    assert wd.windows[2, :, 0].tolist() == [0.0, 0.0, 1.0, 2.0]


def test_window_provenance_dereferences_exactly(small_frames):
    wd = pp.window(small_frames, 7)
    frames = {f.serial: f for f in small_frames}
    for k in (0, 5, len(wd.provenance) - 1):
        serial, day = wd.provenance[k]
        frame = frames[serial]
        d = frame.dates.index(day)
        rows = np.maximum(np.arange(d - 6, d + 1), 0)
        assert np.array_equal(wd.windows[k], frame.values[rows])
        assert wd.targets[k] == frame.rul[d]


def test_window_never_mixes_serials(small_frames):
    wd = pp.window(small_frames, 5)
    start = 0
    for frame in sorted(small_frames, key=lambda f: f.serial):
        n = len(frame.dates)
        assert all(s == frame.serial for s, _ in wd.provenance[start : start + n])
        start += n
    assert start == wd.n_samples


def test_window_targets_within_cap(small_frames):
    wd = pp.window(small_frames, 5)
    assert wd.targets.min() >= 0.0
    assert wd.targets.max() <= 12.0  # fixture cohort capped at 12

