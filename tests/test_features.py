from datetime import date, timedelta

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hddrul import dataset as ds
from hddrul import features as feat
from hddrul.errors import UndefinedCorrelationError
from oracles import brute_force_predictions, pearson_mp


def test_pearson_perfect_and_flipped():
    x = [1.0, 2.0, 5.0, 9.0]
    assert feat.pearson(x, x) == pytest.approx(1.0, abs=1e-12)
    assert feat.pearson(x, [-v for v in x]) == pytest.approx(-1.0, abs=1e-12)


def test_pearson_hand_case():
    # direct closed-form evaluation: 5 / sqrt(2 * 114/9)
    assert feat.pearson([1, 2, 3], [2, 4, 7]) == pytest.approx(0.9933992677987828, abs=1e-12)


def test_pearson_zero_variance_signals():
    with pytest.raises(UndefinedCorrelationError):
        feat.pearson([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])
    with pytest.raises(UndefinedCorrelationError):
        feat.pearson([1.0, 2.0, 3.0], [4.0, 4.0, 4.0])


def test_pearson_matches_arbitrary_precision(rng):
    for _ in range(200):
        n = int(rng.integers(2, 40))
        x = rng.normal(size=n) * rng.uniform(0.1, 1e6)
        y = rng.normal(size=n) + 0.3 * x
        assert feat.pearson(x, y) == pytest.approx(pearson_mp(x, y), abs=1e-12)


# integer-valued inputs keep the affine map a*x+b lossless enough in float
# for the mathematical invariance to be observable
@given(st.lists(st.integers(-1000, 1000), min_size=3, max_size=20, unique=True),
       st.floats(0.1, 50.0), st.floats(-100.0, 100.0))
@settings(deadline=None, max_examples=60)
def test_pearson_symmetric_bounded_affine_invariant(x, a, b):
    rng = np.random.default_rng(abs(hash(tuple(x))) % 2**32)
    y = rng.normal(size=len(x))
    if np.var(y) == 0.0:
        return
    x = [float(v) for v in x]
    r = feat.pearson(x, y)
    assert abs(r) <= 1.0 + 1e-12
    assert r == pytest.approx(feat.pearson(y, x), abs=1e-12)
    assert r == pytest.approx(feat.pearson([a * v + b for v in x], y), abs=1e-9)


def _series(serial, values_by_attr, rul):
    n = len(rul)
    recs = []
    for k in range(n):
        smart = {fid: vals[k] for fid, vals in values_by_attr.items()}
        recs.append(ds.DriveRecord(serial, date(2020, 1, 1) + timedelta(days=k), "M", smart, False))
    return ds.LabeledSeries(serial, recs, list(rul))


def test_correlation_scores_identity_and_negation():
    rul = [5, 4, 3, 2, 1, 0]
    pos = _series("A", {7: [float(r) for r in rul]}, rul)
    neg = _series("B", {7: [-float(r) for r in rul]}, rul)
    assert feat.correlation_scores([pos], [7])[7] == pytest.approx(1.0, abs=1e-12)
    assert feat.correlation_scores([neg], [7])[7] == pytest.approx(1.0, abs=1e-12)


def test_correlation_scores_signed_mean_then_abs():
    # two drives with per-drive correlations +0.5 and -0.5 cancel to zero
    rul = [3, 2, 1, 0]
    base = np.array([3.0, 2.0, 1.0, 0.0])
    mix = np.array([3.0, 0.0, 2.0, 0.0])
    r = feat.pearson(mix, base)
    drive_pos = _series("A", {7: mix.tolist()}, rul)
    drive_neg = _series("B", {7: (-mix).tolist()}, rul)
    scores = feat.correlation_scores([drive_pos, drive_neg], [7])
    assert abs(r) > 0.1  # the per-drive correlations themselves are not zero
    assert scores[7] == pytest.approx(0.0, abs=1e-12)


def test_correlation_scores_absent_when_undefined_everywhere():
    """A drive whose attribute is constant over its window, or reported on one
    day only, adds nothing for it; an attribute constant on every drive (at a
    different value on each) is absent."""
    rul = [2, 1, 0]
    constant = _series("A", {7: [5.0, 5.0, 5.0]}, rul)
    scores = feat.correlation_scores([constant], [7])
    assert 7 not in scores
    varying = [1.0, 4.0, 2.0]
    a = _series("A", {7: varying, 9: [5.0] * 3}, rul)
    b = _series("B", {7: [6.0] * 3, 9: [2.0] * 3}, rul)
    assert feat.correlation_scores([a, b], [7, 9]) == {7: abs(feat.pearson(varying, rul))}
    # nor does a drive that reports the attribute on one day only
    once = _series("C", {7: [None, 9.0, None], 9: [3.0, None, None]}, rul)
    assert feat.correlation_scores([a, b, once], [7, 9]) == {7: abs(feat.pearson(varying, rul))}


def test_correlation_scores_drive_order_invariant(small_cohort):
    ids = ds.synthetic_attribute_ids(5)
    forward = feat.correlation_scores(small_cohort, ids)
    backward = feat.correlation_scores(list(reversed(small_cohort)), ids)
    for fid in ids:
        assert forward[fid] == pytest.approx(backward[fid], abs=1e-12)


def test_tree_importances_sum_to_one(rng):
    X = rng.normal(size=(40, 3))
    y = 2.0 * X[:, 1] + rng.normal(size=40) * 0.01
    result = feat.tree_importances(X, y, [7, 9, 240])
    assert sum(result.values.values()) == pytest.approx(1.0, abs=1e-9)
    assert max(result.values, key=result.values.get) == 9


def test_tree_importances_single_informative_feature():
    X = np.array([[0.0, 1.0], [1.0, 1.0], [2.0, 1.0], [3.0, 1.0]])
    y = np.array([0.0, 0.0, 1.0, 1.0])
    result = feat.tree_importances(X, y, [7, 9])
    assert result.values[7] == pytest.approx(1.0, abs=1e-12)
    assert result.values[9] == 0.0


def test_tree_importances_degenerate_target():
    X = np.arange(8.0).reshape(4, 2)
    result = feat.tree_importances(X, np.full(4, 3.0), [7, 9])
    # floats, so features.csv writes 0.0 as it writes every other importance
    assert all(v == 0.0 and type(v) is float for v in result.values.values())


def test_tree_predictions_match_brute_force_oracle(rng):
    from hddrul import forest

    for trial in range(60):
        n = int(rng.integers(2, 13))
        f = int(rng.integers(1, 4))
        X = rng.normal(size=(n, f))
        y = rng.normal(size=n)
        tree = forest.fit_tree(X, y)
        assert np.array_equal(tree.predict(X), brute_force_predictions(X, y, X)), (
            f"trial {trial}: fast tree diverged from exhaustive oracle"
        )


def test_score_table_csv(tmp_path, small_cohort):
    ids = ds.synthetic_attribute_ids(5)
    table = feat.score_features(small_cohort, ids)
    out = tmp_path / "features.csv"
    table.to_csv(out)
    lines = out.read_text().splitlines()
    assert lines[0] == "attribute,correlation_score,tree_importance"
    assert len(lines) == 1 + len(table.attributes)
    scores = [float(line.split(",")[1]) for line in lines[1:] if line.split(",")[1]]
    assert all(0.0 <= s <= 1.0 for s in scores)
    assert scores == sorted(scores, reverse=True)
