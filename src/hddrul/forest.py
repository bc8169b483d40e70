"""Regression trees and a bagged random-forest baseline.

Trees are CART-style: at each node the split maximizing weighted variance
reduction is chosen, with candidate thresholds at midpoints between
consecutive distinct sorted values. Growth continues until a node's targets
are all equal (as a one-row node's are) or no split gains; there is no depth
cap and no minimum node size. Ties between equal-gain splits go to the lowest
feature index, then the lowest threshold; "equal" means within a small
relative tolerance so that float noise cannot flip the choice. Growth also
sums each feature's squared-error decrease over the splits, the importance
that attribute scoring reads from its one tree.

The forest fits each tree on a bootstrap resample (size n, with replacement)
drawn from a per-tree seeded stream, and predicts the mean of its trees. No
per-split feature subsampling: every feature is considered at every node. A
forest holds its trees' node arrays concatenated, the layout of its model file.
"""
from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from . import container
from .errors import ConfigError
from .seeding import rng_for

# A candidate split wins only if its gain beats the incumbent beyond float
# noise; otherwise the earlier (lower feature, lower threshold) split stays.
GAIN_RTOL = 1e-9
GAIN_ATOL = 1e-12


def _best_split(X, y, s, s2, sse):
    """Winning (feature, threshold) at one node under the tie rule, or None.

    The rows of every feature are sorted at once (stably), and the left sums
    come from a sequential ``cumsum``, so each gain has the bits of a scalar
    scan. The tie rule is replayed only over the gains that beat every earlier
    gain in feature-major order. That is exact: a winner must beat the
    incumbent by more than the tolerance, and any earlier gain that lost was
    within the tolerance of an incumbent no larger, so it is below the winner.
    """
    m = len(y)
    order = np.argsort(X, axis=0, kind="stable")
    xs = np.take_along_axis(X, order, axis=0)
    ys = y[order]
    sl = np.cumsum(ys, axis=0)[:-1]
    sl2 = np.cumsum(ys * ys, axis=0)[:-1]
    nl = np.arange(1, m, dtype=np.float64)[:, None]
    sr = s - sl
    sse_l = np.maximum(sl2 - sl * sl / nl, 0.0)
    sse_r = np.maximum((s2 - sl2) - sr * sr / (m - nl), 0.0)
    gain = sse - sse_l - sse_r
    gain[xs[:-1] == xs[1:]] = -np.inf  # no threshold between equal values
    flat = gain.T.ravel()
    earlier_max = np.maximum.accumulate(np.concatenate(([-np.inf], flat[:-1])))
    best_gain = 0.0
    best = None
    for j in np.flatnonzero(flat > earlier_max):
        if flat[j] > best_gain + GAIN_RTOL * best_gain + GAIN_ATOL:
            best_gain = flat[j]
            best = j
    if best is None:
        return None
    f, k = divmod(int(best), m - 1)
    return f, 0.5 * (xs[k, f] + xs[k + 1, f])


def _grow_tree_arrays(X, y):
    """Depth-first growth until a node's targets are all equal or no split
    gains; a split numbers its two children next, left first, so the right
    child of node i is ``left[i] + 1``.

    Returns ``(feature, threshold, left, value, importance)``: the node arrays
    and each feature's total squared-error decrease over the inner nodes.
    """
    n = X.shape[0]
    max_nodes = 2 * n + 1
    feature = np.full(max_nodes, -1, dtype=np.int64)
    threshold = np.zeros(max_nodes)
    left = np.full(max_nodes, -1, dtype=np.int64)
    value = np.zeros(max_nodes)
    node_sse = np.zeros(max_nodes)

    stack = [(0, np.arange(n))]
    n_nodes = 1
    while stack:
        node, rows = stack.pop()
        ys = y[rows]
        m = len(rows)
        # sequential sums, as the split scan adds its left sums
        s = np.cumsum(ys)[-1]
        s2 = np.cumsum(ys * ys)[-1]
        sse = s2 - s * s / m
        if sse < 0.0:
            sse = 0.0
        value[node] = s / m
        node_sse[node] = sse / m * m  # impurity times rows, whose bits the importance sums

        if ys.min() == ys.max():  # a one-row node stops here too
            continue
        split = _best_split(X[rows], ys, s, s2, sse)
        if split is None:
            continue
        f, thr = split
        goes_left = X[rows, f] <= thr
        feature[node] = f
        threshold[node] = thr
        left[node] = n_nodes
        n_nodes += 2
        stack.append((left[node] + 1, rows[~goes_left]))
        stack.append((left[node], rows[goes_left]))

    inner = feature >= 0  # the unused slots are -1 too
    children = left[inner]
    # bincount adds in node order, as a loop over the nodes would; without a
    # split it counts nothing and gives int64 zeros
    importance = np.bincount(feature[inner], minlength=X.shape[1],
                             weights=node_sse[inner] - node_sse[children] - node_sse[children + 1])
    importance = importance.astype(np.float64, copy=False)
    # copies, so that a fitted tree does not keep all 2n+1 slots alive
    return (*(a[:n_nodes].copy() for a in (feature, threshold, left, value)), importance)


def _predict_tree_arrays(feature, threshold, left, value, X):
    """All rows descend together, one tree level per step; a NaN fails ``<=`` and goes right."""
    node = np.zeros(X.shape[0], dtype=np.int64)
    rows = np.arange(X.shape[0])
    while rows.size:
        at = node[rows]
        inner = feature[at] >= 0
        rows, at = rows[inner], at[inner]
        node[rows] = np.where(X[rows, feature[at]] <= threshold[at], left[at], left[at] + 1)
    return value[node]


@dataclass
class RegressionTree:
    """Flat node arrays; ``feature[i] == -1`` marks a leaf, and an inner node's
    children are ``left[i]`` and ``left[i] + 1``.

    ``importance`` is the total squared-error decrease attributed to each
    column of the fit's ``X``; a forest does not keep it.
    """

    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    value: np.ndarray
    importance: np.ndarray

    @property
    def n_nodes(self) -> int:
        return len(self.feature)

    def predict(self, X: np.ndarray) -> np.ndarray:
        X = np.ascontiguousarray(np.atleast_2d(X), dtype=np.float64)
        return _predict_tree_arrays(self.feature, self.threshold, self.left, self.value, X)


def fit_tree(X: np.ndarray, y: np.ndarray) -> RegressionTree:
    """Grow one unpruned variance-reduction regression tree."""
    X = np.ascontiguousarray(np.atleast_2d(X), dtype=np.float64)
    y = np.ascontiguousarray(y, dtype=np.float64)
    if X.shape[0] == 0:
        raise ValueError("cannot fit a tree on zero rows")
    if X.shape[0] != y.shape[0]:
        raise ValueError("X and y row counts differ")
    return RegressionTree(*_grow_tree_arrays(X, y))


@dataclass
class RandomForest:
    """The trees' predict arrays concatenated in tree order, as a model file holds
    them: tree i owns the next ``tree_nodes[i]`` entries of each, and its ``left``
    links count from its own first node."""

    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    value: np.ndarray
    tree_nodes: np.ndarray
    feature_ids: list[int]
    seed: int
    bootstrap: bool = True

    def predict(self, X: np.ndarray) -> np.ndarray:
        X = np.ascontiguousarray(np.atleast_2d(X), dtype=np.float64)
        if X.shape[1] != len(self.feature_ids):
            raise ConfigError(f"{X.shape[1]} columns for a forest on {len(self.feature_ids)} features")
        acc = np.zeros(X.shape[0])
        ends = np.cumsum(self.tree_nodes).tolist()
        for start, end in zip([0] + ends, ends):
            acc += _predict_tree_arrays(*(getattr(self, name)[start:end] for name in _NODES), X)
        return acc / len(self.tree_nodes)


def fit_forest(
    X: np.ndarray,
    y: np.ndarray,
    n_estimators: int = 1000,
    seed: int = 0,
    bootstrap: bool = True,
    feature_ids: Sequence[int] | None = None,
) -> RandomForest:
    """Fit ``n_estimators`` trees on per-tree seeded bootstrap resamples."""
    X = np.ascontiguousarray(np.atleast_2d(X), dtype=np.float64)
    y = np.ascontiguousarray(y, dtype=np.float64)
    if n_estimators < 1:
        raise ValueError("n_estimators must be >= 1")
    if seed < 0:  # forest files store the seed unsigned
        raise ValueError(f"seed must be >= 0, got {seed}")
    ids = list(feature_ids) if feature_ids is not None else list(range(X.shape[1]))
    if len(ids) != X.shape[1]:
        raise ValueError(f"{len(ids)} feature_ids for {X.shape[1]} columns")
    n = X.shape[0]
    if n == 0:
        raise ValueError("cannot fit a forest on zero rows")

    per_tree = {name: [] for name in _NODES}
    for i in range(n_estimators):
        rows = rng_for(seed, f"tree-{i}").integers(0, n, size=n) if bootstrap else slice(None)
        tree = fit_tree(X[rows], y[rows])
        for name, arrays in per_tree.items():
            arrays.append(getattr(tree, name))
    tree_nodes = np.array([len(a) for a in per_tree["feature"]], dtype=np.int64)
    # one name at a time, so no array is held both per tree and concatenated
    nodes = {name: np.concatenate(per_tree.pop(name)) for name in _NODES}
    return RandomForest(**nodes, tree_nodes=tree_nodes, feature_ids=ids, seed=seed,
                        bootstrap=bootstrap)


# ---------------------------------------------------------------------------
# Model files (see container.py): the node arrays predict reads, of all trees
# concatenated

KIND = "forest"

# RegressionTree's predict arrays in field order, with their dtypes; the ``right``
# member of older files, always ``left + 1``, is not read
_NODES = {"feature": np.int64, "threshold": np.float64, "left": np.int64, "value": np.float64}


def save_forest(forest: RandomForest, path: str | Path) -> None:
    container.write(path, KIND, {
        "feature_ids": np.array(forest.feature_ids, dtype=np.int64),
        "seed": np.array(forest.seed, dtype=np.uint64),
        "bootstrap": np.array(forest.bootstrap),
        "tree_nodes": forest.tree_nodes,
        **{name: getattr(forest, name) for name in _NODES},
    })


def load_forest(path: str | Path) -> RandomForest:
    """Read a forest file; a damaged one, or one with broken node links, raises DataError naming it."""
    return container.read(path, KIND, _forest_from_members)


def _forest_from_members(member) -> RandomForest:
    feature_ids = member("feature_ids", np.int64, 1).tolist()
    counts = member("tree_nodes", np.int64, 1)
    nodes = {name: member(name, dtype, 1) for name, dtype in _NODES.items()}
    if counts.size == 0 or counts.min() < 1 or any(len(a) != counts.sum() for a in nodes.values()):
        raise ValueError(f"node arrays do not hold trees of {counts.tolist()} nodes")
    # children come after their parent, so every descent ends at a leaf
    starts = np.cumsum(counts) - counts
    local = np.arange(counts.sum()) - np.repeat(starts, counts)
    feature, left = nodes["feature"], nodes["left"]
    bad = (feature >= 0) & ((feature >= len(feature_ids)) | (left <= local)
                            | (left + 1 >= np.repeat(counts, counts)))
    if bad.any():
        node = np.argmax(bad)
        tree = np.searchsorted(starts, node, side="right") - 1
        raise ValueError(f"node {local[node]} of tree {tree} has a feature index past "
                         "feature_ids or child links that do not point forward")
    return RandomForest(
        **nodes,
        tree_nodes=counts,
        feature_ids=feature_ids,
        seed=member("seed", np.uint64, 0),
        bootstrap=member("bootstrap", np.bool_, 0),
    )
