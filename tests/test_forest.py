import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hddrul import forest
from hddrul.errors import ConfigError
from hddrul.seeding import rng_for
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


def test_fitted_trees_own_their_node_arrays(rng):
    """A fitted tree holds its nodes only, not views of the 2n+1-slot growth arrays,
    and one importance per column; a forest holds only the arrays predict reads,
    each one block of all trees."""
    X = rng.normal(size=(40, 3))
    y = rng.normal(size=40)
    tree = forest.fit_tree(X, y)
    assert all(getattr(tree, name).base is None and len(getattr(tree, name)) == tree.n_nodes
               for name in forest._NODES)
    assert tree.importance.base is None and tree.importance.shape == (3,)
    model = forest.fit_forest(X, y, n_estimators=3, seed=2)
    assert model.tree_nodes.dtype == np.int64 and len(model.tree_nodes) == 3
    assert all(getattr(model, name).base is None
               and len(getattr(model, name)) == model.tree_nodes.sum() for name in forest._NODES)


def _tree_blocks(model):
    """Each tree's (feature, threshold, left, value), sliced from the forest's arrays."""
    ends = np.cumsum(model.tree_nodes)
    return [[getattr(model, name)[end - n:end] for name in forest._NODES]
            for n, end in zip(model.tree_nodes, ends)]


def test_forest_is_mean_of_trees(rng):
    X = rng.normal(size=(30, 2))
    y = X[:, 0] + rng.normal(size=30) * 0.1
    model = forest.fit_forest(X, y, n_estimators=7, seed=5)
    trees = []
    for i in range(7):
        rows = rng_for(5, f"tree-{i}").integers(0, 30, size=30)
        trees.append(forest.fit_tree(X[rows], y[rows]))
    # the forest's blocks are those trees, in order
    for block, tree in zip(_tree_blocks(model), trees, strict=True):
        assert _same_arrays(block, [getattr(tree, name) for name in forest._NODES])
    queries = rng.normal(size=(10, 2))
    per_tree = np.stack([t.predict(queries) for t in trees])
    assert model.predict(queries) == pytest.approx(per_tree.mean(axis=0), rel=1e-12)


def test_forest_deterministic(rng):
    X = rng.normal(size=(30, 2))
    y = rng.normal(size=30)
    a = forest.fit_forest(X, y, n_estimators=5, seed=9)
    b = forest.fit_forest(X, y, n_estimators=5, seed=9)
    queries = rng.normal(size=(8, 2))
    assert np.array_equal(a.predict(queries), b.predict(queries))


def test_forest_negative_seed_is_rejected(rng):
    with pytest.raises(ValueError, match="seed"):
        forest.fit_forest(rng.normal(size=(6, 2)), rng.normal(size=6), n_estimators=2, seed=-1)


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
    order = rng.permutation(9)
    blocks = _tree_blocks(model)
    shuffled = forest.RandomForest(
        *(np.concatenate(arrays) for arrays in zip(*(blocks[i] for i in order))),
        tree_nodes=model.tree_nodes[order], feature_ids=model.feature_ids, seed=model.seed,
    )
    assert not np.array_equal(shuffled.feature, model.feature)
    assert shuffled.predict(queries) == pytest.approx(base, rel=1e-12)


def test_forest_predict_rejects_wrong_width(rng):
    model = forest.fit_forest(rng.normal(size=(20, 3)), rng.normal(size=20), n_estimators=2)
    for width in (1, 6):
        with pytest.raises(ConfigError, match=f"{width} columns"):
            model.predict(rng.normal(size=(4, width)))


def test_fit_forest_rejects_feature_ids_of_another_width(rng):
    with pytest.raises(ValueError, match="feature_ids"):
        forest.fit_forest(rng.normal(size=(10, 3)), rng.normal(size=10), n_estimators=2,
                          feature_ids=[7])


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
    model = forest.fit_forest(X, y, n_estimators=4, seed=2**64 - 1, feature_ids=[7, 9])
    path = tmp_path / "forest.model"
    forest.save_forest(model, path)
    loaded = forest.load_forest(path)
    queries = rng.normal(size=(20, 2))
    assert np.array_equal(model.predict(queries), loaded.predict(queries))
    assert loaded.feature_ids == [7, 9]
    assert loaded.seed == 2**64 - 1 and loaded.bootstrap is True
    # the file holds the forest's arrays as they are
    names = [*forest._NODES, "tree_nodes"]
    assert _same_arrays(*([getattr(f, name) for name in names] for f in (loaded, model)))
    # saving again gives the same bytes
    again = tmp_path / "again.model"
    forest.save_forest(loaded, again)
    assert again.read_bytes() == path.read_bytes()


def _same_arrays(got, want):
    return all(np.array_equal(g, w) and g.dtype == w.dtype for g, w in zip(got, want, strict=True))


def _importance_loop(feature, left, right, sse, n_features):
    """Per-node accumulation of the squared-error decrease, in node order."""
    out = np.zeros(n_features)
    for node, f in enumerate(feature):
        if f >= 0:
            out[f] += sse[node] - sse[left[node]] - sse[right[node]]
    return out


def _oracle_tree(X, y):
    """What ``forest._grow_tree_arrays`` returns, from the scalar oracle (grown
    with ``min_samples_split`` 2), and the oracle's ``right`` apart: its four
    node arrays, and the importance of a loop over its nodes' impurity and
    counts.

    The library derives an inner node's right child as ``left + 1``; the
    oracle still links it, so check that they agree.
    """
    feature, threshold, left, right, value, impurity, counts = oracles._grow_tree_arrays(X, y, 2)
    inner = feature >= 0
    assert np.array_equal(right[inner], left[inner] + 1)
    importance = _importance_loop(feature, left, right, impurity * counts, X.shape[1])
    return (feature, threshold, left, value, importance), right


def _oracle_predict(arrays, right, X):
    feature, threshold, left, value = arrays[:4]
    return oracles._predict_tree_arrays(feature, threshold, left, right, value, X)


def test_tree_kernels_match_scalar_oracle(rng):
    for trial in range(40):
        n = int(rng.integers(1, 80))
        X = rng.normal(size=(n, int(rng.integers(1, 5))))
        y = rng.normal(size=n)
        arrays = forest._grow_tree_arrays(X, y)
        want, right = _oracle_tree(X, y)
        assert _same_arrays(arrays, want), f"trial {trial}"
        queries = np.vstack([X, rng.normal(size=(10, X.shape[1]))])
        queries[rng.random(queries.shape) < 0.1] = np.nan  # a NaN goes right
        got = forest._predict_tree_arrays(*arrays[:4], queries)
        assert np.array_equal(got, _oracle_predict(arrays, right, queries))


@st.composite
def _tie_heavy_data(draw):
    n = draw(st.integers(1, 30))
    f = draw(st.integers(1, 3))
    cells = st.integers(0, 3).map(float)
    X = np.array(draw(st.lists(cells, min_size=n * f, max_size=n * f))).reshape(n, f)
    y = np.array(draw(st.lists(cells, min_size=n, max_size=n)))
    # large targets make float noise in tied gains exceed the absolute tolerance
    y *= draw(st.sampled_from([1.0, 0.1, 1e7 / 3]))
    return X, y


@given(_tie_heavy_data())
@settings(deadline=None, max_examples=150)
def test_grow_kernel_matches_scalar_oracle_on_tie_heavy_trees(data):
    # small integers make many exactly tied gains and equal feature values
    X, y = data
    arrays = forest._grow_tree_arrays(X, y)
    want, right = _oracle_tree(X, y)
    assert _same_arrays(arrays, want)
    assert np.array_equal(forest._predict_tree_arrays(*arrays[:4], X),
                          _oracle_predict(arrays, right, X))


def test_importance_matches_node_loop(rng):
    """A fitted tree's importance is the node loop over the oracle's impurity and counts."""
    for trial in range(30):
        n = int(rng.integers(1, 60))
        n_features = int(rng.integers(1, 5))
        X = rng.normal(size=(n, n_features))
        y = rng.normal(size=n)
        (*_, want), _ = _oracle_tree(X, y)
        assert _same_arrays([forest.fit_tree(X, y).importance], [want]), f"trial {trial}"


def test_forest_file_with_right_member_still_loads(rng, tmp_path):
    """Files written when forests stored ``right`` load to the same trees."""
    X = rng.normal(size=(30, 2))
    y = rng.normal(size=30)
    model = forest.fit_forest(X, y, n_estimators=3, seed=4)
    path = tmp_path / "forest.model"
    forest.save_forest(model, path)
    with np.load(path) as archive:
        members = dict(archive)
    inner = members["feature"] >= 0
    members["right"] = np.where(inner, members["left"] + 1, -1)
    with open(path, "wb") as fh:
        np.savez(fh, **members)
    loaded = forest.load_forest(path)
    queries = rng.normal(size=(20, 2))
    assert np.array_equal(loaded.predict(queries), model.predict(queries))
