"""Independent reference implementations used to cross-check the library.

Most of it is deliberately written with different algorithms than the
package: exhaustive enumeration instead of incremental scans, arbitrary
precision instead of float accumulation, sorted compensated summation instead
of vectorized means. The single-window LSTM reference runs one cell step at
a time over one window. The scalar kernels at the bottom are the loop versions
that the vectorized library kernels replaced; the library must match them bit
for bit.
"""
from __future__ import annotations

import math

import numpy as np
from mpmath import mp, mpf

# Same split-comparison semantics as the library: a candidate must beat the
# incumbent's gain beyond float noise, otherwise the earlier (lower feature,
# lower threshold) candidate stands.
GAIN_RTOL = 1e-9
GAIN_ATOL = 1e-12


def pearson_mp(x, y) -> float:
    """Product-moment correlation evaluated at 60 significant digits."""
    with mp.workdps(60):
        xs = [mpf(float(v)) for v in x]
        ys = [mpf(float(v)) for v in y]
        n = len(xs)
        mx = sum(xs) / n
        my = sum(ys) / n
        sxy = sum((a - mx) * (b - my) for a, b in zip(xs, ys))
        sxx = sum((a - mx) ** 2 for a in xs)
        syy = sum((b - my) ** 2 for b in ys)
        return float(sxy / mp.sqrt(sxx * syy))


def mae_sorted_fsum(predictions, actuals) -> float:
    """MAE via sorted compensated summation."""
    diffs = sorted(abs(float(p) - float(a)) for p, a in zip(predictions, actuals))
    return math.fsum(diffs) / len(diffs)


class _Leaf:
    def __init__(self, value):
        self.value = value

    def predict(self, row):
        return self.value


class _Node:
    def __init__(self, feature, threshold, left, right):
        self.feature = feature
        self.threshold = threshold
        self.left = left
        self.right = right

    def predict(self, row):
        child = self.left if row[self.feature] <= self.threshold else self.right
        return child.predict(row)


def _sse(ys):
    mean = sum(ys) / len(ys)
    return sum((v - mean) ** 2 for v in ys)


def brute_force_tree(X, y, min_samples_split: int = 2):
    """Exhaustive-split recursive regression tree with the documented tie rule."""
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)

    def fit(rows):
        ys = [y[i] for i in rows]
        if len(rows) < min_samples_split or min(ys) == max(ys):
            return _Leaf(sum(ys) / len(ys))
        parent = _sse(ys)
        best_gain = 0.0
        best = None
        for f in range(X.shape[1]):
            values = sorted(set(X[i, f] for i in rows))
            for a, b in zip(values, values[1:]):
                thr = 0.5 * (a + b)
                left = [i for i in rows if X[i, f] <= thr]
                right = [i for i in rows if X[i, f] > thr]
                gain = parent - _sse([y[i] for i in left]) - _sse([y[i] for i in right])
                if gain > best_gain + GAIN_RTOL * best_gain + GAIN_ATOL:
                    best_gain = gain
                    best = (f, thr, left, right)
        if best is None:
            return _Leaf(sum(ys) / len(ys))
        f, thr, left, right = best
        return _Node(f, thr, fit(left), fit(right))

    return fit(list(range(X.shape[0])))


def brute_force_predictions(X, y, queries) -> np.ndarray:
    tree = brute_force_tree(X, y)
    queries = np.atleast_2d(np.asarray(queries, dtype=float))
    return np.array([tree.predict(row) for row in queries])


# ---------------------------------------------------------------------------
# Single-window LSTM reference: one cell step at a time from the zero state,
# with the gate order (i, f, g, o) of the library's stacked weights


def _sigmoid(z):
    return 1.0 / (1.0 + np.exp(-z))


def lstm_cell_forward(params, x_t, h_prev, c_prev):
    """One cell step; returns (h_t, c_t, gate cache)."""
    hidden = params.hidden_size
    z = x_t @ params.w_x + h_prev @ params.w_h + params.bias
    i = _sigmoid(z[..., :hidden])
    f = _sigmoid(z[..., hidden : 2 * hidden])
    g = np.tanh(z[..., 2 * hidden : 3 * hidden])
    o = _sigmoid(z[..., 3 * hidden :])
    c_t = f * c_prev + i * g
    tanh_c = np.tanh(c_t)
    h_t = o * tanh_c
    cache = {"i": i, "f": f, "g": g, "o": o, "c_prev": c_prev, "tanh_c": tanh_c, "x": x_t, "h_prev": h_prev}
    return h_t, c_t, cache


def lstm_forward(params, window) -> np.ndarray:
    """Run the cell over a (timesteps, features) window; returns the last hidden state."""
    h = np.zeros(params.hidden_size)
    c = np.zeros(params.hidden_size)
    for x_t in np.asarray(window, dtype=np.float64):
        h, c, _ = lstm_cell_forward(params, x_t, h, c)
    return h


# ---------------------------------------------------------------------------
# Scalar kernels: the per-direction LSTM passes and the per-feature tree
# growth and descent loops the library used before it was vectorized, kept
# unchanged as bit-exact references (X is laid out (T, B, F))


def _lstm_forward_tbf(X, w_x, w_h, bias):
    T, B, F = X.shape
    H = w_h.shape[0]
    h_seq = np.zeros((T + 1, B, H))
    c_seq = np.zeros((T + 1, B, H))
    gates = np.empty((T, B, 4 * H))
    tanh_c = np.empty((T, B, H))
    for t in range(T):
        z = np.dot(X[t], w_x) + np.dot(h_seq[t], w_h) + bias
        i = 1.0 / (1.0 + np.exp(-z[:, :H]))
        f = 1.0 / (1.0 + np.exp(-z[:, H : 2 * H]))
        g = np.tanh(z[:, 2 * H : 3 * H])
        o = 1.0 / (1.0 + np.exp(-z[:, 3 * H :]))
        c = f * c_seq[t] + i * g
        tc = np.tanh(c)
        h_seq[t + 1] = o * tc
        c_seq[t + 1] = c
        gates[t, :, :H] = i
        gates[t, :, H : 2 * H] = f
        gates[t, :, 2 * H : 3 * H] = g
        gates[t, :, 3 * H :] = o
        tanh_c[t] = tc
    return h_seq, c_seq, gates, tanh_c


def _lstm_backward_tbf(X, w_x, w_h, h_seq, c_seq, gates, tanh_c, dh_last):
    T, B, F = X.shape
    H = w_h.shape[0]
    d_wx = np.zeros_like(w_x)
    d_wh = np.zeros_like(w_h)
    d_b = np.zeros(4 * H)
    dh = dh_last.copy()
    dc = np.zeros((B, H))
    dz = np.empty((B, 4 * H))
    for t in range(T - 1, -1, -1):
        i = gates[t][:, :H]
        f = gates[t][:, H : 2 * H]
        g = gates[t][:, 2 * H : 3 * H]
        o = gates[t][:, 3 * H :]
        tc = tanh_c[t]
        do = dh * tc
        dc = dc + dh * o * (1.0 - tc * tc)
        dz[:, :H] = (dc * g) * i * (1.0 - i)
        dz[:, H : 2 * H] = (dc * c_seq[t]) * f * (1.0 - f)
        dz[:, 2 * H : 3 * H] = (dc * i) * (1.0 - g * g)
        dz[:, 3 * H :] = do * o * (1.0 - o)
        d_wx += np.dot(X[t].T, dz)
        d_wh += np.dot(h_seq[t].T, dz)
        d_b += dz.sum(axis=0)
        dh = np.dot(dz, w_h.T)
        dc = dc * f
    return d_wx, d_wh, d_b


def _grow_tree_arrays(X, y, min_samples_split):
    n, n_features = X.shape
    max_nodes = 2 * n + 1
    feature = np.full(max_nodes, -1, dtype=np.int64)
    threshold = np.zeros(max_nodes)
    left = np.full(max_nodes, -1, dtype=np.int64)
    right = np.full(max_nodes, -1, dtype=np.int64)
    value = np.zeros(max_nodes)
    impurity = np.zeros(max_nodes)
    counts = np.zeros(max_nodes, dtype=np.int64)

    idx = np.arange(n)
    stack_node = np.empty(max_nodes, dtype=np.int64)
    stack_lo = np.empty(max_nodes, dtype=np.int64)
    stack_hi = np.empty(max_nodes, dtype=np.int64)
    stack_node[0] = 0
    stack_lo[0] = 0
    stack_hi[0] = n
    top = 1
    n_nodes = 1

    xf = np.empty(n)
    buf = np.empty(n, dtype=np.int64)

    while top > 0:
        top -= 1
        node = stack_node[top]
        lo = stack_lo[top]
        hi = stack_hi[top]
        m = hi - lo

        s = 0.0
        s2 = 0.0
        ymin = np.inf
        ymax = -np.inf
        for k in range(lo, hi):
            yi = y[idx[k]]
            s += yi
            s2 += yi * yi
            if yi < ymin:
                ymin = yi
            if yi > ymax:
                ymax = yi
        sse = s2 - s * s / m
        if sse < 0.0:
            sse = 0.0
        value[node] = s / m
        impurity[node] = sse / m
        counts[node] = m

        if m < min_samples_split or ymin == ymax:
            continue

        best_gain = 0.0
        best_feature = -1
        best_threshold = 0.0
        for f in range(n_features):
            for k in range(m):
                xf[k] = X[idx[lo + k], f]
            order = np.argsort(xf[:m], kind="mergesort")
            sl = 0.0
            sl2 = 0.0
            for k in range(m - 1):
                yi = y[idx[lo + order[k]]]
                sl += yi
                sl2 += yi * yi
                xk = xf[order[k]]
                xk1 = xf[order[k + 1]]
                if xk == xk1:
                    continue
                nl = k + 1
                nr = m - nl
                sr = s - sl
                sr2 = s2 - sl2
                sse_l = sl2 - sl * sl / nl
                sse_r = sr2 - sr * sr / nr
                if sse_l < 0.0:
                    sse_l = 0.0
                if sse_r < 0.0:
                    sse_r = 0.0
                gain = sse - sse_l - sse_r
                if gain > best_gain + GAIN_RTOL * best_gain + GAIN_ATOL:
                    best_gain = gain
                    best_feature = f
                    best_threshold = 0.5 * (xk + xk1)
        if best_feature < 0:
            continue

        # stable partition of idx[lo:hi] around the chosen threshold
        nl = 0
        for k in range(lo, hi):
            if X[idx[k], best_feature] <= best_threshold:
                nl += 1
        a = 0
        b = 0
        for k in range(lo, hi):
            i = idx[k]
            if X[i, best_feature] <= best_threshold:
                buf[a] = i
                a += 1
            else:
                buf[nl + b] = i
                b += 1
        for k in range(m):
            idx[lo + k] = buf[k]

        feature[node] = best_feature
        threshold[node] = best_threshold
        left_id = n_nodes
        right_id = n_nodes + 1
        n_nodes += 2
        left[node] = left_id
        right[node] = right_id
        stack_node[top] = right_id
        stack_lo[top] = lo + nl
        stack_hi[top] = hi
        top += 1
        stack_node[top] = left_id
        stack_lo[top] = lo
        stack_hi[top] = lo + nl
        top += 1

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
    n = X.shape[0]
    out = np.empty(n)
    for i in range(n):
        node = 0
        while feature[node] >= 0:
            if X[i, feature[node]] <= threshold[node]:
                node = left[node]
            else:
                node = right[node]
        out[i] = value[node]
    return out
