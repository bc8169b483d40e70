"""Regression trees and a bagged random-forest baseline.

Trees are CART-style: at each node the split maximizing weighted variance
reduction is chosen, with candidate thresholds at midpoints between
consecutive distinct sorted values. Growth continues until a node is pure or
unsplittable (no depth cap). Ties between equal-gain splits go to the lowest
feature index, then the lowest threshold; "equal" means within a small
relative tolerance so that float noise cannot flip the choice.

The forest fits each tree on a bootstrap resample (size n, with replacement)
drawn from a per-tree seeded stream, and predicts the mean of its trees.
No per-split feature subsampling: every feature is considered at every node.
"""
from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import DataError
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


def _grow_tree_arrays(X, y, min_samples_split):
    """Depth-first growth; a split numbers its two children next, left first."""
    n = X.shape[0]
    max_nodes = 2 * n + 1
    feature = np.full(max_nodes, -1, dtype=np.int64)
    threshold = np.zeros(max_nodes)
    left = np.full(max_nodes, -1, dtype=np.int64)
    right = np.full(max_nodes, -1, dtype=np.int64)
    value = np.zeros(max_nodes)
    impurity = np.zeros(max_nodes)
    counts = np.zeros(max_nodes, dtype=np.int64)

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
        impurity[node] = sse / m
        counts[node] = m

        if m < min_samples_split or ys.min() == ys.max():
            continue
        split = _best_split(X[rows], ys, s, s2, sse)
        if split is None:
            continue
        f, thr = split
        goes_left = X[rows, f] <= thr
        feature[node] = f
        threshold[node] = thr
        left[node] = n_nodes
        right[node] = n_nodes + 1
        n_nodes += 2
        stack.append((right[node], rows[~goes_left]))
        stack.append((left[node], rows[goes_left]))

    return (
        feature[:n_nodes],
        threshold[:n_nodes],
        left[:n_nodes],
        right[:n_nodes],
        value[:n_nodes],
        impurity[:n_nodes],
        counts[:n_nodes],
    )


def _predict_tree_arrays(feature, threshold, left, right, value, X):
    """All rows descend together, one tree level per step."""
    node = np.zeros(X.shape[0], dtype=np.int64)
    rows = np.arange(X.shape[0])
    while rows.size:
        at = node[rows]
        inner = feature[at] >= 0
        rows, at = rows[inner], at[inner]
        node[rows] = np.where(X[rows, feature[at]] <= threshold[at], left[at], right[at])
    return value[node]


@dataclass
class RegressionTree:
    """Flat node arrays; ``feature[i] == -1`` marks a leaf."""

    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    value: np.ndarray
    impurity: np.ndarray
    n_node_samples: np.ndarray

    @property
    def n_nodes(self) -> int:
        return len(self.feature)

    def predict(self, X: np.ndarray) -> np.ndarray:
        X = np.ascontiguousarray(np.atleast_2d(X), dtype=np.float64)
        return _predict_tree_arrays(self.feature, self.threshold, self.left, self.right, self.value, X)

    def importance_raw(self, n_features: int) -> np.ndarray:
        """Total squared-error decrease attributed to each feature."""
        out = np.zeros(n_features)
        sse = self.impurity * self.n_node_samples
        for node in range(self.n_nodes):
            f = self.feature[node]
            if f >= 0:
                out[f] += sse[node] - sse[self.left[node]] - sse[self.right[node]]
        return out


def fit_tree(X: np.ndarray, y: np.ndarray, min_samples_split: int = 2) -> RegressionTree:
    """Grow one unpruned variance-reduction regression tree."""
    X = np.ascontiguousarray(np.atleast_2d(X), dtype=np.float64)
    y = np.ascontiguousarray(y, dtype=np.float64)
    if X.shape[0] == 0:
        raise ValueError("cannot fit a tree on zero rows")
    if X.shape[0] != y.shape[0]:
        raise ValueError("X and y row counts differ")
    arrays = _grow_tree_arrays(X, y, min_samples_split)
    return RegressionTree(*arrays)


@dataclass
class RandomForest:
    trees: list[RegressionTree]
    feature_ids: list[int]
    seed: int
    bootstrap: bool = True

    @property
    def n_estimators(self) -> int:
        return len(self.trees)

    def predict(self, X: np.ndarray) -> np.ndarray:
        X = np.ascontiguousarray(np.atleast_2d(X), dtype=np.float64)
        acc = np.zeros(X.shape[0])
        for tree in self.trees:
            acc += tree.predict(X)
        return acc / len(self.trees)


def fit_forest(
    X: np.ndarray,
    y: np.ndarray,
    n_estimators: int = 1000,
    seed: int = 0,
    bootstrap: bool = True,
    feature_ids: Sequence[int] | None = None,
    threads: int = 1,
) -> RandomForest:
    """Fit ``n_estimators`` trees on per-tree seeded bootstrap resamples."""
    X = np.ascontiguousarray(np.atleast_2d(X), dtype=np.float64)
    y = np.ascontiguousarray(y, dtype=np.float64)
    if n_estimators < 1:
        raise ValueError("n_estimators must be >= 1")
    n = X.shape[0]
    if n == 0:
        raise ValueError("cannot fit a forest on zero rows")

    def one(i: int) -> RegressionTree:
        if bootstrap:
            rows = rng_for(seed, f"tree-{i}").integers(0, n, size=n)
            return fit_tree(X[rows], y[rows])
        return fit_tree(X, y)

    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            trees = list(pool.map(one, range(n_estimators)))
    else:
        trees = [one(i) for i in range(n_estimators)]
    ids = list(feature_ids) if feature_ids is not None else list(range(X.shape[1]))
    return RandomForest(trees=trees, feature_ids=ids, seed=seed, bootstrap=bootstrap)


# ---------------------------------------------------------------------------
# Serialization (versioned textual node-array format)

_FORMAT = "hddrul-forest 1"


def save_forest(forest: RandomForest, path: str | Path) -> None:
    with open(path, "w", newline="\n", encoding="utf-8") as fh:
        fh.write(_FORMAT + "\n")
        fh.write(f"n_estimators {forest.n_estimators}\n")
        fh.write(f"seed {forest.seed}\n")
        fh.write(f"bootstrap {int(forest.bootstrap)}\n")
        fh.write("feature_ids " + " ".join(str(fid) for fid in forest.feature_ids) + "\n")
        for t, tree in enumerate(forest.trees):
            fh.write(f"tree {t} nodes {tree.n_nodes}\n")
            for node in range(tree.n_nodes):
                fh.write(
                    "%d %.17g %d %d %.17g %.17g %d\n"
                    % (
                        tree.feature[node],
                        tree.threshold[node],
                        tree.left[node],
                        tree.right[node],
                        tree.value[node],
                        tree.impurity[node],
                        tree.n_node_samples[node],
                    )
                )
        fh.write("end\n")


def load_forest(path: str | Path) -> RandomForest:
    """Read a forest file; a truncated or malformed one raises DataError naming it."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return _parse_forest(fh.read().splitlines())
        except (IndexError, KeyError, ValueError) as exc:
            raise DataError(f"{path}: malformed forest file ({type(exc).__name__}: {exc})") from exc


def _parse_forest(lines: list[str]) -> RandomForest:
    if not lines or lines[0] != _FORMAT:
        raise ValueError(f"not a {_FORMAT!r} file")
    if lines[-1] != "end":
        raise ValueError("truncated: no closing 'end' line")
    pos = 1
    meta = {}
    while not lines[pos].startswith("tree ") and lines[pos] != "end":
        key, _, rest = lines[pos].partition(" ")
        meta[key] = rest
        pos += 1
    n_estimators = int(meta["n_estimators"])
    feature_ids = [int(tok) for tok in meta["feature_ids"].split()]
    trees = []
    for t in range(n_estimators):
        head = lines[pos].split()
        if head[:3] != ["tree", str(t), "nodes"] or len(head) != 4:
            raise ValueError(f"expected the header of tree {t}, found {lines[pos]!r}")
        n_nodes = int(head[3])
        rows = [lines[pos + 1 + k].split() for k in range(n_nodes)]
        if any(len(r) != 7 for r in rows):
            raise ValueError(f"tree {t} has a node row without 7 fields")
        pos += 1 + n_nodes
        tree = RegressionTree(
            feature=np.array([int(r[0]) for r in rows], dtype=np.int64),
            threshold=np.array([float(r[1]) for r in rows]),
            left=np.array([int(r[2]) for r in rows], dtype=np.int64),
            right=np.array([int(r[3]) for r in rows], dtype=np.int64),
            value=np.array([float(r[4]) for r in rows]),
            impurity=np.array([float(r[5]) for r in rows]),
            n_node_samples=np.array([int(r[6]) for r in rows], dtype=np.int64),
        )
        # children come after their parent, so every descent ends at a leaf
        inner = np.flatnonzero(tree.feature >= 0)
        f, lo = tree.feature[inner], tree.left[inner]
        if n_nodes == 0 or np.any(
            (f >= len(feature_ids)) | (lo <= inner) | (tree.right[inner] != lo + 1)
            | (lo + 1 >= n_nodes)
        ):
            raise ValueError(f"tree {t} has inconsistent node links")
        trees.append(tree)
    if lines[pos] != "end":
        raise ValueError(f"more trees than n_estimators {n_estimators}")
    return RandomForest(
        trees=trees,
        feature_ids=feature_ids,
        seed=int(meta["seed"]),
        bootstrap=bool(int(meta["bootstrap"])),
    )
