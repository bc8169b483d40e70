"""Independent reference implementations used to cross-check the library.

Most of it is deliberately written with different algorithms than the
package: exhaustive enumeration instead of incremental scans, arbitrary
precision instead of float accumulation, sorted compensated summation instead
of vectorized means. The single-window LSTM reference runs one cell step at
a time over one window. The one-pass ingest reference parses every snapshot
row, as ingest did before it streamed them, and the two snapshot
reads are kept as they were when every row went through
``csv.reader``. Both parse a row into a :class:`DriveRecord` with an
attribute map, as the library did before it kept rows in per-drive float64
matrices. The snapshot scoring reference scores the train split rebuilt
from the snapshots, as ``features`` did before it read ``scoring.csv``. The
forward-fill loop, the row-at-a-time drive CSV writer, the cell-at-a-time
CSV writers and the scalar kernels at the bottom are the loop versions that
the vectorized library code replaced, over hand-built records; the library
must match them bit for bit.
"""
from __future__ import annotations

import csv
import math
from pathlib import Path

import numpy as np
from mpmath import mp, mpf

from hddrul import cli
from hddrul import dataset as ds
from hddrul import features as feat
from hddrul import neural
from hddrul.errors import DataError
from hddrul.errors import NumericError
from hddrul.seeding import derive_seed
from hddrul.seeding import rng_for

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


def lstm_cell_forward(w_x, w_h, bias, x_t, h_prev, c_prev):
    """One step of the cell w_x (F, 4H), w_h (H, 4H), bias (4H,); returns (h_t, c_t, gate cache)."""
    hidden = w_h.shape[0]
    z = x_t @ w_x + h_prev @ w_h + bias
    i = _sigmoid(z[..., :hidden])
    f = _sigmoid(z[..., hidden : 2 * hidden])
    g = np.tanh(z[..., 2 * hidden : 3 * hidden])
    o = _sigmoid(z[..., 3 * hidden :])
    c_t = f * c_prev + i * g
    tanh_c = np.tanh(c_t)
    h_t = o * tanh_c
    cache = {"i": i, "f": f, "g": g, "o": o, "c_prev": c_prev, "tanh_c": tanh_c, "x": x_t, "h_prev": h_prev}
    return h_t, c_t, cache


def lstm_forward(w_x, w_h, bias, window) -> np.ndarray:
    """Run the cell over a (timesteps, features) window; returns the last hidden state."""
    h = np.zeros(w_h.shape[0])
    c = np.zeros(w_h.shape[0])
    for x_t in np.asarray(window, dtype=np.float64):
        h, c, _ = lstm_cell_forward(w_x, w_h, bias, x_t, h, c)
    return h


# ---------------------------------------------------------------------------
# One-pass ingest reference: every snapshot row parsed in full and held in
# memory, the way ingest read snapshots before it streamed them in two passes


def _parse_float(cell):
    """A cell's value; empty, unparseable and non-finite (nan, inf) cells are missing."""
    cell = cell.strip()
    if not cell:
        return None
    try:
        value = float(cell)
    except ValueError:
        return None
    return value if math.isfinite(value) else None


def parse_snapshot_row(header, row, row_index=0):
    """One snapshot row as a record, its identity cells checked as the library
    checks them. Every ``smart_<n>_raw`` column is in the attribute map (of two
    for one id, the last), a missing cell as None."""
    layout = ds._header_layout(tuple(header))
    day, failed = ds._row_identity(layout, row, row_index)
    smart = {}
    for col, name in enumerate(header):
        mid = name[len("smart_"):-len("_raw")]
        if name.startswith("smart_") and name.endswith("_raw") and mid.isdecimal():
            smart[int(mid)] = _parse_float(row[col]) if col < len(row) else None
    return ds.DriveRecord(row[layout.serial].strip(), day, row[layout.model].strip(), smart, failed)


def split_events_one_pass(config):
    """``cli._split_events`` over the whole corpus: (records by serial, train, test);
    a corpus without a ``model_filter`` failure is a DataError, as there."""
    records = []
    for path in sorted(Path(config.snapshot_dir).glob("*.csv")):
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            for row_index, row in enumerate(reader, start=1):
                if row:
                    records.append(parse_snapshot_row(header, row, row_index))
    records.sort(key=lambda r: (r.serial, r.date))
    events = ds.scan_failures(records, config.model_filter)
    if not events:
        raise DataError(f"{config.snapshot_dir}: no {config.model_filter!r} failure")
    by_serial = {}
    for rec in records:
        by_serial.setdefault(rec.serial, []).append(rec)
    perm = np.random.default_rng(derive_seed(config.seed, "ingest/split")).permutation(len(events))
    n_train = max(1, min(len(events) - 1, round(len(events) * config.ingest_train_frac)))
    train_events = [events[i] for i in sorted(perm[:n_train])]
    test_events = [events[i] for i in sorted(perm[n_train:])]
    return by_serial, train_events, test_events


def score_snapshot_train_split(config):
    """The score table of the train split rebuilt from ``config.snapshot_dir``
    by the one-pass reference, its attribute lists taken from the records."""
    by_serial, train_events, _ = split_events_one_pass(config)
    series = cli._labeled_series(by_serial, train_events, config.lookback_train, set())
    reported = [{fid for rec in s.records for fid, v in rec.smart.items() if v is not None}
                for s in series]
    return feat.score_features(series, sorted(set().union(*reported)),
                               tree_attributes=sorted(set.intersection(*reported)))


# ---------------------------------------------------------------------------
# The two snapshot passes as they were when every row went through csv.reader
# and was split into all of its cells


def _snapshot_header(path, reader):
    """The header row and its layout, or None for an empty file."""
    header = next(reader, None)
    if header is None:
        return None
    try:
        return header, ds._header_layout(tuple(header))
    except DataError as exc:
        raise DataError(f"{path}: {exc}") from None


def read_failure_rows_csv(path):
    """The failure rows of ``dataset.read_snapshot_csv`` over ``csv.reader``."""
    failures = []
    with ds._csv_reader(path) as reader:
        found = _snapshot_header(path, reader)
        if found is None:
            return failures
        _, layout = found
        for row_index, row in enumerate(reader, start=1):
            if not row:
                continue
            day, failed = ds._row_identity(layout, row, row_index, path)
            if failed:
                failures.append(ds.DriveRecord(
                    serial=row[layout.serial].strip(),
                    date=day,
                    model=row[layout.model].strip(),
                    smart={},
                    failed=True,
                ))
    return failures


def read_snapshot_csv_csv(path, windows):
    """The rows in ``windows`` that ``dataset.read_snapshot_csv`` keeps, over
    ``csv.reader``; only the rows of those drives are checked."""
    records = []
    with ds._csv_reader(path) as reader:
        found = _snapshot_header(path, reader)
        if found is None:
            return records
        header, layout = found
        for row_index, row in enumerate(reader, start=1):
            window = windows.get(row[layout.serial].strip()) if len(row) > layout.serial else None
            if window is None:
                continue
            day, _ = ds._row_identity(layout, row, row_index, path)
            if window[0] <= day <= window[1]:
                records.append(parse_snapshot_row(header, row, row_index))
    return records


# ---------------------------------------------------------------------------
# The forward fill and the cohort and scoring writers as they were before they
# were vectorized: one loop per attribute, one float() per written cell, over
# records with attribute maps


def materialize_series_loop(serial, records, rul, feature_ids):
    """``dataset.materialize_series`` of a drive's chronological records, as a
    loop over each attribute's days; an attribute never reported is a ValueError."""
    n = len(records)
    values = np.empty((n, len(feature_ids)))
    for j, fid in enumerate(feature_ids):
        raw = [rec.smart.get(fid) for rec in records]
        if all(v is None for v in raw):
            raise ValueError(f"drive {serial}: attribute {fid} is missing on every day")
        first = next(v for v in raw if v is not None)
        prev = first
        for k, v in enumerate(raw):
            if v is None:
                values[k, j] = prev
            else:
                values[k, j] = v
                prev = v
    return ds.DriveFrame(
        serial=serial,
        dates=[rec.date for rec in records],
        feature_ids=list(feature_ids),
        values=values,
        rul=np.asarray(rul, dtype=np.int64),
    )


def write_drive_csv_rows(path, feature_ids, drives):
    """``dataset._write_drive_csv`` writing one row at a time, each cell
    through ``repr`` and NaN as an empty cell."""
    with open(path, "w", newline="\n", encoding="utf-8") as fh:
        header = ["serial", "date", "rul"] + [f"smart_{fid}" for fid in feature_ids]
        fh.write(",".join(header) + "\n")
        for serial, dates, rul, values in drives:
            for day, label, row in zip(dates, rul, values.tolist()):
                cells = [serial, day.isoformat(), str(label)]
                cells += ["" if math.isnan(v) else repr(v) for v in row]
                fh.write(",".join(cells) + "\n")


def write_cohort_csv_cells(path, frames):
    """``dataset.write_cohort_csv`` formatting one NumPy scalar at a time."""
    frames = sorted(frames, key=lambda f: f.serial)
    feature_ids = frames[0].feature_ids if frames else []
    with open(path, "w", newline="\n", encoding="utf-8") as fh:
        header = ["serial", "date", "rul"] + [f"smart_{fid}" for fid in feature_ids]
        fh.write(",".join(header) + "\n")
        for frame in frames:
            for k, day in enumerate(frame.dates):
                cells = [frame.serial, day.isoformat(), str(int(frame.rul[k]))]
                cells += [repr(float(v)) for v in frame.values[k]]
                fh.write(",".join(cells) + "\n")


def write_scoring_csv_cells(path, drives):
    """``dataset.write_scoring_csv`` of ``(serial, records, rul)`` drives,
    formatting one value at a time."""
    feature_ids = sorted({fid for _, records, _ in drives for rec in records
                          for fid, v in rec.smart.items() if v is not None})
    with open(path, "w", newline="\n", encoding="utf-8") as fh:
        header = ["serial", "date", "rul"] + [f"smart_{fid}" for fid in feature_ids]
        fh.write(",".join(header) + "\n")
        for serial, records, ruls in drives:
            for rec, rul in zip(records, ruls):
                cells = [serial, rec.date.isoformat(), str(rul)]
                cells += ["" if rec.smart.get(fid) is None else repr(float(rec.smart[fid]))
                          for fid in feature_ids]
                fh.write(",".join(cells) + "\n")


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


# ---------------------------------------------------------------------------
# The LSTM training loop as it ran on the per-parameter arrays before they
# moved into one flat vector: each batch checks, clips and updates one named
# array at a time


def train_per_array(settings, dataset):
    """The parameters, in ``parameter_arrays`` order, and the epoch losses that
    ``neural.train`` gives, and the number of batches whose gradient was clipped."""
    n = dataset.n_samples
    model = neural.init_model(settings, n_features=dataset.n_features,
                              timesteps=dataset.timesteps, feature_ids=dataset.feature_ids)
    names, params = neural.parameter_arrays(model)
    m = [np.zeros_like(p) for p in params]
    v = [np.zeros_like(p) for p in params]
    lr, b1, b2, eps = settings.learning_rate, 0.9, 0.999, 1e-8
    X = np.ascontiguousarray(dataset.windows, dtype=np.float64)
    y = np.asarray(dataset.targets, dtype=np.float64)
    losses, step, clipped = [], 0, 0
    for epoch in range(settings.epochs):
        perm = rng_for(settings.seed, f"shuffle/epoch-{epoch}").permutation(n)
        sse = 0.0
        for lo in range(0, n, settings.batch_size):
            sel = perm[lo : lo + settings.batch_size]
            grads = neural.backward(model, X[sel], y[sel])
            arrays = [a.copy() for a in grads.arrays]
            for name, arr in zip(names, arrays):
                if not np.all(np.isfinite(arr)):
                    raise NumericError(f"non-finite gradient in {name}")
            sse += grads.loss * len(sel)
            if settings.grad_clip:
                norm = math.sqrt(sum(float((a * a).sum()) for a in arrays))
                if norm > settings.grad_clip:
                    clipped += 1
                    scale = settings.grad_clip / norm
                    for a in arrays:
                        a *= scale
            step += 1
            correction1 = 1.0 - b1**step
            correction2 = 1.0 - b2**step
            for p, g, mp_, vp in zip(params, arrays, m, v):
                mp_ *= b1
                mp_ += (1.0 - b1) * g
                vp *= b2
                vp += (1.0 - b2) * g * g
                p -= lr * (mp_ / correction1) / (np.sqrt(vp / correction2) + eps)
        losses.append(sse / n)
    return params, losses, clipped
