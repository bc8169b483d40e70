import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hddrul import forest
import oracles
from oracles import brute_force_predictions


def test_constant_target_single_leaf():
    X = np.arange(12.0).reshape(6, 2)
    tree = forest.fit_tree(X, np.full(6, 4.5))
    assert tree.n_nodes == 1
    assert tree.predict(X) == pytest.approx(np.full(6, 4.5))


def test_distinct_rows_memorize(rng):
    X = rng.normal(size=(25, 3))
    y = rng.normal(size=25)
    tree = forest.fit_tree(X, y)
    assert tree.predict(X) == pytest.approx(y, abs=1e-12)


def test_tree_matches_brute_force_oracle_small_instances(rng):
    for trial in range(120):
        n = int(rng.integers(2, 13))
        f = int(rng.integers(1, 4))
        X = rng.normal(size=(n, f)) * rng.uniform(0.5, 20)
        y = rng.normal(size=n) * rng.uniform(0.5, 10)
        tree = forest.fit_tree(X, y)
        queries = np.vstack([X, rng.normal(size=(4, f)) * 5])
        assert np.array_equal(tree.predict(queries), brute_force_predictions(X, y, queries)), (
            f"trial {trial} diverged"
        )


def test_tree_matches_oracle_with_exact_ties():
    # symmetric integer data with mathematically tied splits exercises the
    # lowest-feature, lowest-threshold tie rule
    X = np.array([[0, 0], [0, 1], [1, 0], [1, 1], [2, 0], [2, 1]], dtype=float)
    y = np.array([0.0, 1.0, 1.0, 0.0, 0.0, 1.0])
    tree = forest.fit_tree(X, y)
    assert np.array_equal(tree.predict(X), brute_force_predictions(X, y, X))


def test_forest_is_mean_of_trees(rng):
    X = rng.normal(size=(30, 2))
    y = X[:, 0] + rng.normal(size=30) * 0.1
    model = forest.fit_forest(X, y, n_estimators=7, seed=5)
    queries = rng.normal(size=(10, 2))
    per_tree = np.stack([t.predict(queries) for t in model.trees])
    assert model.predict(queries) == pytest.approx(per_tree.mean(axis=0), rel=1e-12)


def test_forest_deterministic(rng):
    X = rng.normal(size=(30, 2))
    y = rng.normal(size=30)
    a = forest.fit_forest(X, y, n_estimators=5, seed=9)
    b = forest.fit_forest(X, y, n_estimators=5, seed=9)
    queries = rng.normal(size=(8, 2))
    assert np.array_equal(a.predict(queries), b.predict(queries))


def test_forest_single_tree_no_bootstrap_equals_fit_tree(rng):
    X = rng.normal(size=(20, 3))
    y = rng.normal(size=20)
    model = forest.fit_forest(X, y, n_estimators=1, seed=1, bootstrap=False)
    tree = forest.fit_tree(X, y)
    queries = rng.normal(size=(15, 3))
    assert np.array_equal(model.predict(queries), tree.predict(queries))


def test_forest_prediction_tree_order_invariant(rng):
    X = rng.normal(size=(25, 2))
    y = rng.normal(size=25)
    model = forest.fit_forest(X, y, n_estimators=9, seed=2)
    queries = rng.normal(size=(6, 2))
    base = model.predict(queries)
    shuffled = forest.RandomForest(
        trees=[model.trees[i] for i in rng.permutation(9)],
        feature_ids=model.feature_ids, seed=model.seed,
    )
    assert shuffled.predict(queries) == pytest.approx(base, rel=1e-12)


def test_forest_predictions_within_target_range(rng):
    X = rng.normal(size=(40, 3))
    y = rng.uniform(3.0, 9.0, size=40)
    model = forest.fit_forest(X, y, n_estimators=20, seed=4)
    queries = rng.normal(size=(50, 3)) * 10
    preds = model.predict(queries)
    assert preds.min() >= y.min() - 1e-12
    assert preds.max() <= y.max() + 1e-12


def test_forest_serialization_roundtrip(rng, tmp_path):
    X = rng.normal(size=(30, 2))
    y = rng.normal(size=30)
    model = forest.fit_forest(X, y, n_estimators=4, seed=8, feature_ids=[7, 9])
    path = tmp_path / "forest.txt"
    forest.save_forest(model, path)
    loaded = forest.load_forest(path)
    queries = rng.normal(size=(20, 2))
    assert np.array_equal(model.predict(queries), loaded.predict(queries))
    assert loaded.feature_ids == [7, 9]
    assert loaded.seed == 8 and loaded.bootstrap is True


def test_forest_threads_match_sequential(rng):
    X = rng.normal(size=(40, 3))
    y = rng.normal(size=40)
    seq = forest.fit_forest(X, y, n_estimators=6, seed=11, threads=1)
    par = forest.fit_forest(X, y, n_estimators=6, seed=11, threads=4)
    queries = rng.normal(size=(10, 3))
    assert np.array_equal(seq.predict(queries), par.predict(queries))


def _same_arrays(got, want):
    return all(np.array_equal(g, w) and g.dtype == w.dtype for g, w in zip(got, want))


def test_tree_kernels_match_scalar_oracle(rng):
    for trial in range(40):
        n = int(rng.integers(1, 80))
        X = rng.normal(size=(n, int(rng.integers(1, 5))))
        y = rng.normal(size=n)
        arrays = forest._grow_tree_arrays(X, y, 2)
        assert _same_arrays(arrays, oracles._grow_tree_arrays(X, y, 2)), f"trial {trial}"
        queries = np.vstack([X, rng.normal(size=(10, X.shape[1]))])
        got = forest._predict_tree_arrays(*arrays[:5], queries)
        assert np.array_equal(got, oracles._predict_tree_arrays(*arrays[:5], queries))


@st.composite
def _tie_heavy_data(draw):
    n = draw(st.integers(1, 30))
    f = draw(st.integers(1, 3))
    cells = st.integers(0, 3).map(float)
    X = np.array(draw(st.lists(cells, min_size=n * f, max_size=n * f))).reshape(n, f)
    y = np.array(draw(st.lists(cells, min_size=n, max_size=n)))
    # large targets make float noise in tied gains exceed the absolute tolerance
    y *= draw(st.sampled_from([1.0, 0.1, 1e7 / 3]))
    return X, y, draw(st.integers(2, 4))


@given(_tie_heavy_data())
@settings(deadline=None, max_examples=150)
def test_grow_kernel_matches_scalar_oracle_on_tie_heavy_trees(data):
    # small integers make many exactly tied gains and equal feature values
    X, y, min_samples_split = data
    arrays = forest._grow_tree_arrays(X, y, min_samples_split)
    assert _same_arrays(arrays, oracles._grow_tree_arrays(X, y, min_samples_split))
    assert np.array_equal(forest._predict_tree_arrays(*arrays[:5], X),
                          oracles._predict_tree_arrays(*arrays[:5], X))
