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
model holds each cell parameter with its directions stacked on a leading
axis, the layout the forward/backward kernels at the bottom of the module
read, so they run both directions at once on the model's own arrays. The
kernels keep each step's gate activations in i, f, o, g order, so that one
sigmoid covers the three sigmoid gates as one contiguous block; the weights
and model files keep i, f, g, o.

:func:`train` puts every parameter of the model into one flat vector and
makes the model's arrays views of it; :func:`backward` lays the gradients
out the same way. So the finiteness check, the clip scaling and Adam each
run once per batch, over that one vector. Each of them is elementwise, and
the clip norm still sums one named array at a time, so the results keep the
bits of doing it all array by array.
"""
from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np

from . import container
from .errors import ConfigError, DivergenceError, NumericError
from .preprocess import WindowedDataset
from .seeding import rng_for


@dataclass
class TrainSettings:
    bidirectional: bool = True
    hidden_size: int = 32
    epochs: int = 50
    batch_size: int = 64
    learning_rate: float = 1e-3
    seed: int = 0
    grad_clip: float | None = 5.0

    def __post_init__(self):
        if self.seed < 0:  # model files store the seed unsigned
            raise ValueError(f"seed must be >= 0, got {self.seed}")


@dataclass
class BiLstmModel:
    """The cells of the D directions stacked on a leading axis, as the kernels read them.

    D is 1 for the vanilla model and 2 (forward, backward) for the
    bidirectional one: w_x (D, F, 4H), w_h (D, H, 4H) and bias (D, 4H). The
    head maps the D final hidden states, concatenated, through head_weights
    (D*H,) and head_bias (1,).
    """

    w_x: np.ndarray
    w_h: np.ndarray
    bias: np.ndarray
    head_weights: np.ndarray
    head_bias: np.ndarray
    timesteps: int
    feature_ids: list[int]
    settings: TrainSettings

    @property
    def bidirectional(self) -> bool:
        return len(self.w_x) == 2

    @property
    def hidden_size(self) -> int:
        return self.w_h.shape[1]

    @property
    def n_features(self) -> int:
        return self.w_x.shape[1]

    def predict(self, windows: np.ndarray) -> np.ndarray:
        """Raw RUL estimates for a (n, timesteps, features) block."""
        X = np.ascontiguousarray(np.asarray(windows, dtype=np.float64))
        if X.ndim != 3 or X.shape[2] != self.n_features:
            raise ConfigError(
                f"windows shaped {X.shape} do not match a {self.n_features}-feature model"
            )
        if not np.all(np.isfinite(X)):
            raise NumericError("non-finite values in prediction input")
        return _predict_batch(self, X)


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


def _init_cell(rng: np.random.Generator, n_features: int, hidden: int):
    w_x = _glorot_stack(rng, n_features, hidden)
    w_h = _glorot_stack(rng, hidden, hidden)
    bias = np.zeros(4 * hidden)
    bias[hidden : 2 * hidden] = 1.0  # forget-gate bias starts open
    return w_x, w_h, bias


# the directions in stacking order; each names its parameters in model files
_DIRECTIONS = ("forward", "backward")


def init_model(
    settings: TrainSettings,
    n_features: int,
    timesteps: int,
    feature_ids: Sequence[int] | None = None,
) -> BiLstmModel:
    directions = _DIRECTIONS[: 2 if settings.bidirectional else 1]
    cells = [_init_cell(rng_for(settings.seed, f"init/{d}"), n_features, settings.hidden_size)
             for d in directions]
    concat = settings.hidden_size * len(directions)
    limit = math.sqrt(6.0 / (concat + 1))
    return BiLstmModel(
        *(np.stack(p) for p in zip(*cells)),
        head_weights=rng_for(settings.seed, "init/dense").uniform(-limit, limit, size=concat),
        head_bias=np.zeros(1),
        timesteps=timesteps,
        feature_ids=list(feature_ids) if feature_ids is not None else list(range(n_features)),
        settings=settings,
    )


def _stacked(model: BiLstmModel) -> tuple[np.ndarray, ...]:
    """The model's arrays in the order of its flat parameter vector."""
    return model.w_x, model.w_h, model.bias, model.head_weights, model.head_bias


def _split(flat: np.ndarray, model: BiLstmModel) -> list[np.ndarray]:
    """Views of ``flat`` shaped as :func:`_stacked` returns the model's arrays."""
    views, lo = [], 0
    for a in _stacked(model):
        views.append(flat[lo : lo + a.size].reshape(a.shape))
        lo += a.size
    return views


def _named(w_x, w_h, bias, head_weights, head_bias) -> tuple[list[str], list[np.ndarray]]:
    names, arrays = [], []
    for d, prefix in enumerate(_DIRECTIONS[: len(w_x)]):
        names += [f"{prefix}.w_x", f"{prefix}.w_h", f"{prefix}.bias"]
        arrays += [w_x[d], w_h[d], bias[d]]
    return names + ["dense.weights", "dense.bias"], arrays + [head_weights, head_bias]


def parameter_arrays(model: BiLstmModel) -> tuple[list[str], list[np.ndarray]]:
    """Named live views of every trainable array, in serialization order."""
    return _named(*_stacked(model))


# ---------------------------------------------------------------------------
# Gradients


@dataclass
class Gradients:
    """One batch's parameter gradients, and the batch's MSE loss they are the
    gradient of.

    ``flat`` holds them laid out as a trained model's flat parameter vector;
    ``arrays`` are views of it, named as :func:`parameter_arrays` names the
    parameters and in its order.
    """

    names: list[str]
    arrays: list[np.ndarray]
    flat: np.ndarray
    loss: float

    def clip_global_norm(self, max_norm: float) -> None:
        # the norm sums one array at a time, in name order, which fixes its bits
        norm = math.sqrt(sum(float((a * a).sum()) for a in self.arrays))
        if norm > max_norm:
            self.flat *= max_norm / norm


def _direction_inputs(model: BiLstmModel, X: np.ndarray) -> np.ndarray:
    """(n, T, F) windows as the (T, D, n, F) kernel input; direction 1 runs time reversed."""
    X_tbf = X.transpose(1, 0, 2)
    if model.bidirectional:
        return np.ascontiguousarray(np.stack([X_tbf, X_tbf[::-1]], axis=1))
    return np.ascontiguousarray(X_tbf[:, None])


def _head(model: BiLstmModel, h_last: np.ndarray) -> np.ndarray:
    """Linear head over the final hidden states (D, n, H), one dot product per direction."""
    hidden = model.hidden_size
    preds = h_last[0] @ model.head_weights[:hidden]
    if model.bidirectional:
        preds = preds + h_last[1] @ model.head_weights[hidden:]
    return preds + model.head_bias[0]


# most rows per forward pass in predict: bounds its working set whatever the batch size
_PREDICT_CHUNK = 256


def _predict_batch(model: BiLstmModel, X: np.ndarray) -> np.ndarray:
    # near-equal chunks, so that no chunk holds a single row unless the batch
    # does: BLAS multiplies a one-row matrix on its vector path, whose sums
    # differ in the last bits from those of the matrix path
    n = X.shape[0]
    n_chunks = max(1, -(-n // _PREDICT_CHUNK))  # one empty chunk for zero rows
    bounds = [n * k // n_chunks for k in range(n_chunks + 1)]
    h_last = np.empty((len(model.w_x), n, model.hidden_size))
    for lo, hi in zip(bounds, bounds[1:]):
        h_last[:, lo:hi] = _lstm_last_state(_direction_inputs(model, X[lo:hi]), model.w_x,
                                            model.w_h, model.bias[:, None])
    return _head(model, h_last)


def backward(model: BiLstmModel, windows: np.ndarray, targets: np.ndarray) -> Gradients:
    """Exact gradient of the MSE loss through the full unrolled network, with
    that loss; a non-finite input or gradient raises NumericError."""
    X = np.ascontiguousarray(np.asarray(windows, dtype=np.float64))
    y = np.asarray(targets, dtype=np.float64)
    if X.ndim != 3 or X.shape[0] == 0 or y.shape != X.shape[:1]:
        raise ValueError("batch must be non-empty (n, timesteps, features) with targets shaped (n,)")
    if X.shape[2] != model.n_features:
        raise ConfigError("batch feature count does not match the model")
    if not (np.all(np.isfinite(X)) and np.all(np.isfinite(y))):
        raise NumericError("non-finite values in training batch")
    n = X.shape[0]
    hidden = model.hidden_size

    X_dir = _direction_inputs(model, X)
    cache = _lstm_forward(X_dir, model.w_x, model.w_h, model.bias[:, None])
    h_last = cache[0][-1]
    preds = _head(model, h_last)

    residual = preds - y
    dy = 2.0 * residual / n
    dh_last = dy[None, :, None] * model.head_weights.reshape(-1, 1, hidden)
    d_wx, d_wh, d_b = _lstm_backward(X_dir, model.w_h, *cache, dh_last)
    flat = np.concatenate([d_wx, d_wh, d_b, *(h.T @ dy for h in h_last), [dy.sum()]], axis=None)
    names, arrays = _named(*_split(flat, model))
    if not np.all(np.isfinite(flat)):
        name = next(n for n, a in zip(names, arrays) if not np.all(np.isfinite(a)))
        raise NumericError(f"non-finite gradient in {name}")
    return Gradients(names=names, arrays=arrays, flat=flat, loss=float(np.mean(residual ** 2)))


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
    # the model's arrays become views of one flat parameter vector
    params = [np.concatenate(_stacked(model), axis=None)]
    model.w_x, model.w_h, model.bias, model.head_weights, model.head_bias = _split(params[0], model)
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
                grads = backward(model, X[sel], y[sel])
            except NumericError as exc:
                raise DivergenceError(f"epoch {epoch}: {exc}", trace=trace) from exc
            if not math.isfinite(grads.loss):
                raise DivergenceError(f"non-finite loss in epoch {epoch}", trace=trace)
            sse += grads.loss * len(sel)
            if settings.grad_clip:
                grads.clip_global_norm(settings.grad_clip)
            adam_step(state, params, [grads.flat])
        trace.losses.append(sse / n)
        trace.seconds.append(time.perf_counter() - started)
    return model, trace


# ---------------------------------------------------------------------------
# Model files (see container.py)

KIND = "lstm"

# the stored TrainSettings fields; grad_clip is stored apart, as an empty array for None
_SETTINGS = {"bidirectional": np.bool_, "hidden_size": np.int64, "epochs": np.int64,
             "batch_size": np.int64, "learning_rate": np.float64, "seed": np.uint64}


def save_model(model: BiLstmModel, path: str | Path) -> None:
    s = model.settings
    names, arrays = parameter_arrays(model)
    container.write(path, KIND, {
        **{name: np.array(getattr(s, name), dtype=dtype) for name, dtype in _SETTINGS.items()},
        "grad_clip": np.array([] if s.grad_clip is None else [s.grad_clip]),
        "timesteps": np.array(model.timesteps, dtype=np.int64),
        "feature_ids": np.array(model.feature_ids, dtype=np.int64),
        **dict(zip(names, arrays)),
    })


def load_model(path: str | Path) -> BiLstmModel:
    """Read a model file; a damaged one, or one whose shapes do not fit, raises DataError naming it."""
    return container.read(path, KIND, _model_from_members)


def _model_from_members(member) -> BiLstmModel:
    clip = member("grad_clip", np.float64, 1)
    settings = TrainSettings(**{name: member(name, dtype, 0) for name, dtype in _SETTINGS.items()},
                             grad_clip=float(clip[0]) if clip.size else None)
    feature_ids = member("feature_ids", np.int64, 1).tolist()
    hidden = settings.hidden_size
    directions = _DIRECTIONS[: 2 if settings.bidirectional else 1]
    expected = {"dense.weights": (hidden * len(directions),), "dense.bias": (1,)}
    for prefix in directions:
        expected[f"{prefix}.w_x"] = (len(feature_ids), 4 * hidden)
        expected[f"{prefix}.w_h"] = (hidden, 4 * hidden)
        expected[f"{prefix}.bias"] = (4 * hidden,)
    blocks = {name: member(name, np.float64, len(shape)) for name, shape in expected.items()}
    shapes = {name: block.shape for name, block in blocks.items()}
    if shapes != expected:
        raise ValueError(f"parameter shapes {shapes} differ from {expected}")
    timesteps = member("timesteps", np.int64, 0)
    if timesteps < 1:
        raise ValueError(f"timesteps {timesteps} is not >= 1")
    return BiLstmModel(
        *(np.stack([blocks[f"{d}.{p}"] for d in directions]) for p in ("w_x", "w_h", "bias")),
        head_weights=blocks["dense.weights"],
        head_bias=blocks["dense.bias"],
        timesteps=timesteps,
        feature_ids=feature_ids,
        settings=settings,
    )


# ---------------------------------------------------------------------------
# Kernels over D stacked directions: X is laid out (T, D, B, F), so each time
# step is one batched matmul per product whatever the number of directions


def _cell_step(x_t, h, c, w_x, w_h, bias):
    """One step of the stacked cells.

    Returns the gate activations laid out (4, D, B, H) in i, f, o, g order,
    so each gate is one contiguous block and the three sigmoid gates are one,
    then c_t, tanh(c_t) and h_t. The weights stack the gates i, f, g, o.
    """
    D, B, H = h.shape
    z = np.matmul(x_t, w_x)
    z += np.matmul(h, w_h)
    z += bias
    z_gates = z.reshape(D, B, 4, H).transpose(2, 0, 1, 3)  # i, f, g, o
    gates = np.empty((4, D, B, H))
    # sigmoid 1 / (1 + exp(-z)) once over the contiguous i, f, o block, in place
    np.negative(z_gates[:2], out=gates[:2])
    np.negative(z_gates[3], out=gates[2])
    sigmoid = gates[:3]
    np.exp(sigmoid, out=sigmoid)
    sigmoid += 1.0
    np.divide(1.0, sigmoid, out=sigmoid)
    np.tanh(z_gates[2], out=gates[3])
    i, f, o, g = gates
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
    # the gate gradients in i, f, g, o order, each contiguous, copied into dz at once
    d_gates = np.empty((4, D, B, H))
    d_i, d_f, d_g, d_o = d_gates
    tmp = np.empty((D, B, H))
    for t in range(T - 1, -1, -1):
        i, f, o, g = gates[t]
        tc = tanh_c[t]
        dc = dc + dh * o * (1.0 - tc * tc)
        # one operation at a time, in the order (dc * g) * i * (1.0 - i) and the
        # like evaluate, which keeps their bits
        np.multiply(dc, g, out=d_i)
        d_i *= i
        np.subtract(1.0, i, out=tmp)
        d_i *= tmp
        np.multiply(dc, c_seq[t], out=d_f)
        d_f *= f
        np.subtract(1.0, f, out=tmp)
        d_f *= tmp
        np.multiply(dc, i, out=d_g)
        np.multiply(g, g, out=tmp)
        np.subtract(1.0, tmp, out=tmp)
        d_g *= tmp
        np.multiply(dh, tc, out=d_o)
        d_o *= o
        np.subtract(1.0, o, out=tmp)
        d_o *= tmp
        dz.reshape(D, B, 4, H)[...] = d_gates.transpose(1, 2, 0, 3)
        d_wx += np.matmul(X[t].transpose(0, 2, 1), dz)
        d_wh += np.matmul(h_seq[t].transpose(0, 2, 1), dz)
        d_b += dz.sum(axis=1)
        dh = np.matmul(dz, w_h_t)
        dc = dc * f
    return d_wx, d_wh, d_b
