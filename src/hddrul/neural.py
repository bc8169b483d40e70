"""From-scratch LSTM / bidirectional LSTM regression with BPTT and Adam.

Cell equations (gate order i, f, g, o along the stacked weight axis)::

    z   = x_t @ w_x + h_prev @ w_h + bias          # (B, 4H)
    i   = sigmoid(z_i);  f = sigmoid(z_f)
    g   = tanh(z_g);     o = sigmoid(z_o)
    c_t = f * c_prev + i * g
    h_t = o * tanh(c_t)

A linear head maps the final hidden state (vanilla) or the concatenation of
both directions' final hidden states (bidirectional) to the RUL estimate. The
head is evaluated as a sum of per-direction dot products, so a bidirectional
model whose backward half is zeroed reproduces the vanilla prediction
bit-for-bit.

Gradients are exact backpropagation through time for the mean-squared-error
loss, accumulated over the full unrolled sequence and both directions. The
forward/backward kernels at the bottom of the module run both directions at
once, stacked on a leading axis.
"""
from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import ConfigError, DataError, DivergenceError, NumericError
from .preprocess import WindowedDataset
from .seeding import rng_for


@dataclass
class LstmCellParams:
    """Stacked gate parameters: w_x (F, 4H), w_h (H, 4H), bias (4H,)."""

    w_x: np.ndarray
    w_h: np.ndarray
    bias: np.ndarray

    @property
    def input_size(self) -> int:
        return self.w_x.shape[0]

    @property
    def hidden_size(self) -> int:
        return self.w_h.shape[0]

    @classmethod
    def zeros(cls, input_size: int, hidden_size: int) -> "LstmCellParams":
        return cls(
            w_x=np.zeros((input_size, 4 * hidden_size)),
            w_h=np.zeros((hidden_size, 4 * hidden_size)),
            bias=np.zeros(4 * hidden_size),
        )


@dataclass
class DenseParams:
    """Linear head: one weight per (direction-concatenated) hidden unit."""

    weights: np.ndarray  # (H,) or (2H,)
    bias: np.ndarray  # (1,)


@dataclass
class TrainSettings:
    bidirectional: bool = True
    hidden_size: int = 32
    epochs: int = 50
    batch_size: int = 64
    learning_rate: float = 1e-3
    seed: int = 0
    grad_clip: float | None = 5.0


@dataclass
class BiLstmModel:
    forward_cell: LstmCellParams
    backward_cell: LstmCellParams | None
    dense: DenseParams
    bidirectional: bool
    timesteps: int
    feature_ids: list[int]
    settings: TrainSettings

    @property
    def hidden_size(self) -> int:
        return self.forward_cell.hidden_size

    @property
    def n_features(self) -> int:
        return self.forward_cell.input_size

    def predict(
        self, windows: np.ndarray, clip: tuple[float, float] | None = None
    ) -> np.ndarray:
        """RUL estimates for a (n, timesteps, features) block.

        Estimates are raw regression outputs; pass ``clip=(lo, hi)`` to clamp
        them.
        """
        X = np.ascontiguousarray(np.asarray(windows, dtype=np.float64))
        if X.ndim != 3 or X.shape[2] != self.n_features:
            raise ConfigError(
                f"windows shaped {X.shape} do not match a {self.n_features}-feature model"
            )
        if not np.all(np.isfinite(X)):
            raise NumericError("non-finite values in prediction input")
        preds = _predict_batch(self, X)
        if clip is not None:
            preds = np.clip(preds, clip[0], clip[1])
        return preds


@dataclass
class TrainTrace:
    losses: list[float] = field(default_factory=list)
    seconds: list[float] = field(default_factory=list)


# ---------------------------------------------------------------------------
# Loss


def mse_loss(predictions, targets) -> float:
    predictions = np.asarray(predictions, dtype=np.float64)
    targets = np.asarray(targets, dtype=np.float64)
    if predictions.shape != targets.shape or predictions.size == 0:
        raise ValueError("predictions and targets must be equal-length and non-empty")
    return float(np.mean((predictions - targets) ** 2))


# ---------------------------------------------------------------------------
# Initialization


def _glorot_stack(rng: np.random.Generator, fan_in: int, hidden: int) -> np.ndarray:
    """Four (fan_in, hidden) gate blocks drawn in i, f, g, o order."""
    limit = math.sqrt(6.0 / (fan_in + hidden))
    w = np.empty((fan_in, 4 * hidden))
    for k in range(4):
        w[:, k * hidden : (k + 1) * hidden] = rng.uniform(-limit, limit, size=(fan_in, hidden))
    return w


def _init_cell(rng: np.random.Generator, n_features: int, hidden: int) -> LstmCellParams:
    w_x = _glorot_stack(rng, n_features, hidden)
    w_h = _glorot_stack(rng, hidden, hidden)
    bias = np.zeros(4 * hidden)
    bias[hidden : 2 * hidden] = 1.0  # forget-gate bias starts open
    return LstmCellParams(w_x=w_x, w_h=w_h, bias=bias)


def init_model(
    settings: TrainSettings,
    n_features: int,
    timesteps: int,
    feature_ids: Sequence[int] | None = None,
) -> BiLstmModel:
    forward_cell = _init_cell(rng_for(settings.seed, "init/forward"), n_features, settings.hidden_size)
    backward_cell = None
    if settings.bidirectional:
        backward_cell = _init_cell(rng_for(settings.seed, "init/backward"), n_features, settings.hidden_size)
    concat = settings.hidden_size * (2 if settings.bidirectional else 1)
    rng = rng_for(settings.seed, "init/dense")
    limit = math.sqrt(6.0 / (concat + 1))
    dense = DenseParams(weights=rng.uniform(-limit, limit, size=concat), bias=np.zeros(1))
    return BiLstmModel(
        forward_cell=forward_cell,
        backward_cell=backward_cell,
        dense=dense,
        bidirectional=settings.bidirectional,
        timesteps=timesteps,
        feature_ids=list(feature_ids) if feature_ids is not None else list(range(n_features)),
        settings=settings,
    )


def parameter_arrays(model: BiLstmModel) -> tuple[list[str], list[np.ndarray]]:
    """Named live views of every trainable array, in serialization order."""
    names = ["forward.w_x", "forward.w_h", "forward.bias"]
    arrays = [model.forward_cell.w_x, model.forward_cell.w_h, model.forward_cell.bias]
    if model.bidirectional:
        names += ["backward.w_x", "backward.w_h", "backward.bias"]
        arrays += [model.backward_cell.w_x, model.backward_cell.w_h, model.backward_cell.bias]
    names += ["dense.weights", "dense.bias"]
    arrays += [model.dense.weights, model.dense.bias]
    return names, arrays


# ---------------------------------------------------------------------------
# Gradients


@dataclass
class Gradients:
    names: list[str]
    arrays: list[np.ndarray]

    def global_norm(self) -> float:
        return math.sqrt(sum(float((a * a).sum()) for a in self.arrays))

    def clip_global_norm(self, max_norm: float) -> None:
        norm = self.global_norm()
        if norm > max_norm:
            scale = max_norm / norm
            for a in self.arrays:
                a *= scale


def _stacked_cells(model: BiLstmModel):
    """Cell parameters of the D directions stacked on a leading axis.

    Returns w_x (D, F, 4H), w_h (D, H, 4H) and bias (D, 1, 4H); D is 1 for the
    vanilla model and 2 (forward, backward) for the bidirectional one.
    """
    cells = [model.forward_cell] + ([model.backward_cell] if model.bidirectional else [])
    return (
        np.stack([c.w_x for c in cells]),
        np.stack([c.w_h for c in cells]),
        np.stack([c.bias for c in cells])[:, None, :],
    )


def _direction_inputs(model: BiLstmModel, X: np.ndarray) -> np.ndarray:
    """(n, T, F) windows as the (T, D, n, F) kernel input; direction 1 runs time reversed."""
    X_tbf = X.transpose(1, 0, 2)
    if model.bidirectional:
        return np.ascontiguousarray(np.stack([X_tbf, X_tbf[::-1]], axis=1))
    return np.ascontiguousarray(X_tbf[:, None])


def _head(model: BiLstmModel, h_last: np.ndarray) -> np.ndarray:
    """Linear head over the final hidden states (D, n, H), one dot product per direction."""
    hidden = model.hidden_size
    preds = h_last[0] @ model.dense.weights[:hidden]
    if model.bidirectional:
        preds = preds + h_last[1] @ model.dense.weights[hidden:]
    return preds + model.dense.bias[0]


# most rows per forward pass in predict: bounds its working set whatever the batch size
_PREDICT_CHUNK = 256


def _predict_batch(model: BiLstmModel, X: np.ndarray) -> np.ndarray:
    # near-equal chunks, so that no chunk holds a single row unless the batch
    # does: BLAS multiplies a one-row matrix on its vector path, whose sums
    # differ in the last bits from those of the matrix path
    n = X.shape[0]
    n_chunks = -(-n // _PREDICT_CHUNK)
    bounds = [n * k // n_chunks for k in range(n_chunks + 1)]
    w_x, w_h, bias = _stacked_cells(model)
    h_last = np.empty((w_x.shape[0], n, model.hidden_size))
    for lo, hi in zip(bounds, bounds[1:]):
        h_last[:, lo:hi] = _lstm_last_state(_direction_inputs(model, X[lo:hi]), w_x, w_h, bias)
    return _head(model, h_last)


def _loss_and_gradients(model: BiLstmModel, windows: np.ndarray, targets: np.ndarray):
    X = np.ascontiguousarray(np.asarray(windows, dtype=np.float64))
    y = np.asarray(targets, dtype=np.float64)
    if X.ndim != 3 or X.shape[0] == 0 or X.shape[0] != y.shape[0]:
        raise ValueError("batch must be non-empty (n, timesteps, features) with aligned targets")
    if X.shape[2] != model.n_features:
        raise ConfigError("batch feature count does not match the model")
    if not (np.all(np.isfinite(X)) and np.all(np.isfinite(y))):
        raise NumericError("non-finite values in training batch")
    n = X.shape[0]
    hidden = model.hidden_size

    X_dir = _direction_inputs(model, X)
    w_x, w_h, bias = _stacked_cells(model)
    cache = _lstm_forward(X_dir, w_x, w_h, bias)
    h_last = cache[0][-1]
    preds = _head(model, h_last)

    dy = 2.0 * (preds - y) / n
    dh_last = dy[None, :, None] * model.dense.weights.reshape(-1, 1, hidden)
    d_wx, d_wh, d_b = _lstm_backward(X_dir, w_h, *cache, dh_last)
    names, _ = parameter_arrays(model)
    arrays = [grad for d in range(len(h_last)) for grad in (d_wx[d], d_wh[d], d_b[d])]
    arrays += [np.concatenate([h.T @ dy for h in h_last]), np.array([dy.sum()])]

    for name, arr in zip(names, arrays):
        if not np.all(np.isfinite(arr)):
            raise NumericError(f"non-finite gradient in {name}")
    return Gradients(names=names, arrays=arrays), preds


def backward(model: BiLstmModel, windows: np.ndarray, targets: np.ndarray) -> Gradients:
    """Exact gradient of the MSE loss through the full unrolled network."""
    grads, _ = _loss_and_gradients(model, windows, targets)
    return grads


# ---------------------------------------------------------------------------
# Adam


@dataclass
class AdamState:
    m: list[np.ndarray]
    v: list[np.ndarray]
    t: int = 0
    learning_rate: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8

    @classmethod
    def for_params(cls, params: Sequence[np.ndarray], learning_rate: float = 1e-3) -> "AdamState":
        return cls(
            m=[np.zeros_like(p) for p in params],
            v=[np.zeros_like(p) for p in params],
            learning_rate=learning_rate,
        )


def adam_step(
    state: AdamState, params: Sequence[np.ndarray], grads: Sequence[np.ndarray]
) -> tuple[Sequence[np.ndarray], AdamState]:
    """One bias-corrected Adam update, applied to the parameters in place."""
    if len(params) != len(state.m) or len(params) != len(grads):
        raise ValueError("params, grads and optimizer state are misaligned")
    state.t += 1
    b1, b2 = state.beta1, state.beta2
    correction1 = 1.0 - b1**state.t
    correction2 = 1.0 - b2**state.t
    for p, g, m, v in zip(params, grads, state.m, state.v):
        m *= b1
        m += (1.0 - b1) * g
        v *= b2
        v += (1.0 - b2) * g * g
        p -= state.learning_rate * (m / correction1) / (np.sqrt(v / correction2) + state.eps)
    return params, state


# ---------------------------------------------------------------------------
# Training loop


def train(settings: TrainSettings, dataset: WindowedDataset) -> tuple[BiLstmModel, TrainTrace]:
    """Seeded init, per-epoch shuffles, mini-batch Adam on the MSE loss.

    Identical settings + seed + data give bit-identical models and traces. A
    non-finite loss aborts with :class:`DivergenceError` carrying the trace
    gathered so far.
    """
    n = dataset.n_samples
    if n == 0:
        raise ValueError("training dataset is empty")
    model = init_model(
        settings,
        n_features=dataset.n_features,
        timesteps=dataset.timesteps,
        feature_ids=dataset.feature_ids,
    )
    _, params = parameter_arrays(model)
    state = AdamState.for_params(params, learning_rate=settings.learning_rate)
    X = np.ascontiguousarray(dataset.windows, dtype=np.float64)
    y = np.asarray(dataset.targets, dtype=np.float64)

    trace = TrainTrace()
    for epoch in range(settings.epochs):
        started = time.perf_counter()
        perm = rng_for(settings.seed, f"shuffle/epoch-{epoch}").permutation(n)
        sse = 0.0
        for lo in range(0, n, settings.batch_size):
            sel = perm[lo : lo + settings.batch_size]
            try:
                grads, preds = _loss_and_gradients(model, X[sel], y[sel])
            except NumericError as exc:
                raise DivergenceError(f"epoch {epoch}: {exc}", trace=trace) from exc
            batch_loss = mse_loss(preds, y[sel])
            if not math.isfinite(batch_loss):
                raise DivergenceError(f"non-finite loss in epoch {epoch}", trace=trace)
            sse += batch_loss * len(sel)
            if settings.grad_clip:
                grads.clip_global_norm(settings.grad_clip)
            adam_step(state, params, grads.arrays)
        trace.losses.append(sse / n)
        trace.seconds.append(time.perf_counter() - started)
    return model, trace


# ---------------------------------------------------------------------------
# Model files (versioned text; %.17g round-trips float64 exactly)

_FORMAT = "hddrul-model 1"


def serialize_model(model: BiLstmModel) -> str:
    s = model.settings
    lines = [
        _FORMAT,
        f"mode {'bidirectional' if model.bidirectional else 'vanilla'}",
        f"hidden_size {model.hidden_size}",
        f"n_features {model.n_features}",
        f"timesteps {model.timesteps}",
        f"epochs {s.epochs}",
        f"batch_size {s.batch_size}",
        "learning_rate %.17g" % s.learning_rate,
        f"seed {s.seed}",
        "grad_clip " + ("none" if s.grad_clip is None else "%.17g" % s.grad_clip),
        "feature_ids " + " ".join(str(f) for f in model.feature_ids),
    ]
    names, arrays = parameter_arrays(model)
    for name, arr in zip(names, arrays):
        mat = np.atleast_2d(arr)
        lines.append(f"param {name} {mat.shape[0]} {mat.shape[1]}")
        for row in mat:
            lines.append(" ".join("%.17g" % v for v in row))
    lines.append("end")
    return "\n".join(lines) + "\n"


def save_model(model: BiLstmModel, path: str | Path) -> None:
    with open(path, "w", newline="\n", encoding="utf-8") as fh:
        fh.write(serialize_model(model))


def load_model(path: str | Path) -> BiLstmModel:
    """Read a model file; a truncated or malformed one raises DataError naming it."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return _parse_model(fh.read().splitlines())
        except (IndexError, KeyError, ValueError) as exc:
            raise DataError(f"{path}: malformed model file ({type(exc).__name__}: {exc})") from exc


def _parse_model(lines: list[str]) -> BiLstmModel:
    if not lines or lines[0] != _FORMAT:
        raise ValueError(f"not a {_FORMAT!r} file")
    if lines[-1] != "end":
        raise ValueError("truncated: no closing 'end' line")
    meta = {}
    pos = 1
    while not lines[pos].startswith("param ") and lines[pos] != "end":
        key, _, rest = lines[pos].partition(" ")
        meta[key] = rest
        pos += 1
    bidirectional = meta["mode"] == "bidirectional"
    settings = TrainSettings(
        bidirectional=bidirectional,
        hidden_size=int(meta["hidden_size"]),
        epochs=int(meta["epochs"]),
        batch_size=int(meta["batch_size"]),
        learning_rate=float(meta["learning_rate"]),
        seed=int(meta["seed"]),
        grad_clip=None if meta["grad_clip"] == "none" else float(meta["grad_clip"]),
    )
    blocks: dict[str, np.ndarray] = {}
    while lines[pos] != "end":
        _, name, rows, cols = lines[pos].split()
        rows, cols = int(rows), int(cols)
        mat = np.array([[float(tok) for tok in lines[pos + 1 + r].split()] for r in range(rows)])
        if mat.shape != (rows, cols):
            raise ValueError(f"param {name} is not {rows} x {cols}")
        blocks[name] = mat
        pos += 1 + rows
    hidden, n_features = settings.hidden_size, int(meta["n_features"])
    expected = {"dense.weights": (1, hidden * (2 if bidirectional else 1)), "dense.bias": (1, 1)}
    for prefix in ("forward", "backward") if bidirectional else ("forward",):
        expected[f"{prefix}.w_x"] = (n_features, 4 * hidden)
        expected[f"{prefix}.w_h"] = (hidden, 4 * hidden)
        expected[f"{prefix}.bias"] = (1, 4 * hidden)
    shapes = {name: mat.shape for name, mat in blocks.items()}
    if shapes != expected:
        raise ValueError(f"parameter shapes {shapes} differ from {expected}")

    def cell(prefix: str) -> LstmCellParams:
        return LstmCellParams(
            w_x=blocks[f"{prefix}.w_x"],
            w_h=blocks[f"{prefix}.w_h"],
            bias=blocks[f"{prefix}.bias"].ravel(),
        )

    dense = DenseParams(weights=blocks["dense.weights"].ravel(), bias=blocks["dense.bias"].ravel())
    return BiLstmModel(
        forward_cell=cell("forward"),
        backward_cell=cell("backward") if bidirectional else None,
        dense=dense,
        bidirectional=bidirectional,
        timesteps=int(meta["timesteps"]),
        feature_ids=[int(tok) for tok in meta["feature_ids"].split()],
        settings=settings,
    )


# ---------------------------------------------------------------------------
# Kernels over D stacked directions: X is laid out (T, D, B, F), so each time
# step is one batched matmul per product whatever the number of directions


def _cell_step(x_t, h, c, w_x, w_h, bias):
    """One step of the stacked cells.

    Returns the gate activations laid out (4, D, B, H) in i, f, g, o order,
    so each gate is one contiguous block, then c_t, tanh(c_t) and h_t.
    """
    D, B, H = h.shape
    z = np.matmul(x_t, w_x)
    z += np.matmul(h, w_h)
    z += bias
    # sigmoid 1 / (1 + exp(-z)) over all four gates, in place; then tanh for g
    gates = np.empty((4, D, B, H))
    np.negative(z.reshape(D, B, 4, H).transpose(2, 0, 1, 3), out=gates)
    np.exp(gates, out=gates)
    gates += 1.0
    np.divide(1.0, gates, out=gates)
    i, f, g, o = gates
    np.tanh(z[..., 2 * H : 3 * H], out=g)
    c = f * c
    c += i * g
    tanh_c = np.tanh(c)
    return gates, c, tanh_c, o * tanh_c


def _lstm_last_state(X, w_x, w_h, bias):
    """Final hidden state (D, B, H) from the zero state; keeps nothing but h and c."""
    h = c = np.zeros(X.shape[1:3] + (w_h.shape[1],))
    for x_t in X:
        _, c, _, h = _cell_step(x_t, h, c, w_x, w_h, bias)
    return h


def _lstm_forward(X, w_x, w_h, bias):
    """Forward pass from the zero state, with what backprop needs.

    Returns per-step lists: h and c for steps 0..T (each (D, B, H)), the gate
    activations (4, D, B, H) and tanh(c_t) (D, B, H) for steps 1..T.
    """
    h = c = np.zeros(X.shape[1:3] + (w_h.shape[1],))
    h_seq, c_seq, gates, tanh_c = [h], [c], [], []
    for x_t in X:
        a, c, tc, h = _cell_step(x_t, h, c, w_x, w_h, bias)
        h_seq.append(h)
        c_seq.append(c)
        gates.append(a)
        tanh_c.append(tc)
    return h_seq, c_seq, gates, tanh_c


def _lstm_backward(X, w_h, h_seq, c_seq, gates, tanh_c, dh_last):
    """Backprop through time; gradients w_x (D, F, 4H), w_h (D, H, 4H), bias (D, 4H).

    Each step's contribution is added as it is computed, newest step first.
    """
    T, D, B, F = X.shape
    H = w_h.shape[1]
    d_wx = np.zeros((D, F, 4 * H))
    d_wh = np.zeros((D, H, 4 * H))
    d_b = np.zeros((D, 4 * H))
    w_h_t = w_h.transpose(0, 2, 1)
    dh = dh_last
    dc = np.zeros((D, B, H))
    dz = np.empty((D, B, 4 * H))
    dz_gates = dz.reshape(D, B, 4, H).transpose(2, 0, 1, 3)
    for t in range(T - 1, -1, -1):
        i, f, g, o = gates[t]
        tc = tanh_c[t]
        do = dh * tc
        dc = dc + dh * o * (1.0 - tc * tc)
        dz_gates[0] = (dc * g) * i * (1.0 - i)
        dz_gates[1] = (dc * c_seq[t]) * f * (1.0 - f)
        dz_gates[2] = (dc * i) * (1.0 - g * g)
        dz_gates[3] = do * o * (1.0 - o)
        d_wx += np.matmul(X[t].transpose(0, 2, 1), dz)
        d_wh += np.matmul(h_seq[t].transpose(0, 2, 1), dz)
        d_b += dz.sum(axis=1)
        dh = np.matmul(dz, w_h_t)
        dc = dc * f
    return d_wx, d_wh, d_b
