import math
from dataclasses import replace

import numpy as np
import pytest

from hddrul import neural
from hddrul import preprocess as pp
from hddrul.errors import ConfigError, DivergenceError, NumericError
import oracles


def _scalar_cell(w_xi, w_xf, w_xg, w_xo, w_hi, w_hf, w_hg, w_ho, b):
    """1-unit cell (w_x, w_h, bias) with distinct per-gate scalar weights (gate order i,f,g,o)."""
    return (np.array([[w_xi, w_xf, w_xg, w_xo]]), np.array([[w_hi, w_hf, w_hg, w_ho]]),
            np.array(b, dtype=float))


def _zero_cell(input_size, hidden_size):
    return (np.zeros((input_size, 4 * hidden_size)), np.zeros((hidden_size, 4 * hidden_size)),
            np.zeros(4 * hidden_size))


def _random_cell(rng, input_size, hidden_size):
    return (rng.normal(size=(input_size, 4 * hidden_size)), rng.normal(size=(hidden_size, 4 * hidden_size)),
            rng.normal(size=4 * hidden_size))


def _cell(model, d):
    """Direction ``d``'s (w_x, w_h, bias), as views of the model's stacked arrays."""
    return model.w_x[d], model.w_h[d], model.bias[d]


def _sig(z):
    return 1.0 / (1.0 + math.exp(-z))


def test_cell_zero_params_zero_state():
    x = np.array([5.0, -2.0, 7.0])
    h, c, _ = oracles.lstm_cell_forward(*_zero_cell(3, 4), x, np.zeros(4), np.zeros(4))
    assert np.array_equal(h, np.zeros(4))
    assert np.array_equal(c, np.zeros(4))


def test_cell_activation_ranges(rng):
    cell = _random_cell(rng, 3, 2)
    _, _, cache = oracles.lstm_cell_forward(*cell, rng.normal(size=3), rng.normal(size=2), rng.normal(size=2))
    for gate in ("i", "f", "o"):
        assert np.all((cache[gate] > 0.0) & (cache[gate] < 1.0))
    assert np.all((cache["g"] > -1.0) & (cache["g"] < 1.0))


def test_cell_scalar_hand_trace():
    params = _scalar_cell(0.5, -0.3, 0.8, 0.2, 0.1, 0.4, -0.6, 0.7, [0.05, -0.1, 0.2, 0.0])
    x, h0, c0 = 1.5, 0.3, -0.4
    i = _sig(0.5 * x + 0.1 * h0 + 0.05)
    f = _sig(-0.3 * x + 0.4 * h0 - 0.1)
    g = math.tanh(0.8 * x - 0.6 * h0 + 0.2)
    o = _sig(0.2 * x + 0.7 * h0 + 0.0)
    c1 = f * c0 + i * g
    h1 = o * math.tanh(c1)
    h, c, _ = oracles.lstm_cell_forward(*params, np.array([x]), np.array([h0]), np.array([c0]))
    assert h[0] == pytest.approx(h1, abs=1e-15)
    assert c[0] == pytest.approx(c1, abs=1e-15)


def test_cell_contraction_property(rng):
    cell = _random_cell(rng, 2, 3)
    for _ in range(50):
        c_prev = rng.normal(size=3) * 5
        _, c, _ = oracles.lstm_cell_forward(*cell, rng.normal(size=2), rng.normal(size=3), c_prev)
        assert np.abs(c).max() <= np.abs(c_prev).max() + 1.0


def test_predict_rejects_nonfinite_window(rng):
    settings = neural.TrainSettings(bidirectional=True, hidden_size=2, seed=1)
    model = neural.init_model(settings, n_features=2, timesteps=3)
    windows = rng.normal(size=(4, 3, 2))
    windows[2, 1, 0] = np.nan
    with pytest.raises(NumericError):
        model.predict(windows)


@pytest.mark.parametrize("bidirectional", [False, True])
def test_predict_on_zero_windows_is_empty(bidirectional):
    """Like the forest's predict on zero rows, no windows give no estimates."""
    settings = neural.TrainSettings(bidirectional=bidirectional, hidden_size=2, seed=1)
    model = neural.init_model(settings, n_features=2, timesteps=3)
    preds = model.predict(np.empty((0, 3, 2)))
    assert preds.shape == (0,) and preds.dtype == np.float64


def test_lstm_forward_single_step_equals_cell(rng):
    cell = _random_cell(rng, 3, 2)
    window = rng.normal(size=(1, 3))
    expected, _, _ = oracles.lstm_cell_forward(*cell, window[0], np.zeros(2), np.zeros(2))
    assert np.array_equal(oracles.lstm_forward(*cell, window), expected)


def test_lstm_forward_zero_params_zero_output(rng):
    assert np.array_equal(oracles.lstm_forward(*_zero_cell(3, 5), rng.normal(size=(7, 3))), np.zeros(5))


def test_lstm_forward_two_step_scalar_trace():
    params = _scalar_cell(0.5, -0.3, 0.8, 0.2, 0.1, 0.4, -0.6, 0.7, [0.05, -0.1, 0.2, 0.0])
    xs = [1.5, -0.7]
    h, c = 0.0, 0.0
    for x in xs:
        i = _sig(0.5 * x + 0.1 * h + 0.05)
        f = _sig(-0.3 * x + 0.4 * h - 0.1)
        g = math.tanh(0.8 * x - 0.6 * h + 0.2)
        o = _sig(0.2 * x + 0.7 * h + 0.0)
        c = f * c + i * g
        h = o * math.tanh(c)
    out = oracles.lstm_forward(*params, np.array(xs).reshape(2, 1))
    assert out[0] == pytest.approx(h, abs=1e-15)


def _model(settings, n_features, timesteps):
    return neural.init_model(settings, n_features=n_features, timesteps=timesteps)


def test_bilstm_zero_params_predicts_bias(rng):
    settings = neural.TrainSettings(bidirectional=True, hidden_size=4, seed=1)
    model = _model(settings, 3, 5)
    for p in (model.w_x, model.w_h, model.bias):
        p[:] = 0.0
    model.head_bias[:] = 2.5
    assert model.predict(rng.normal(size=(5, 3))[None])[0] == 2.5


def test_bilstm_palindrome_symmetry(rng):
    settings = neural.TrainSettings(bidirectional=True, hidden_size=3, seed=2)
    model = _model(settings, 2, 5)
    for p in (model.w_x, model.w_h, model.bias):
        p[1] = p[0]
    half = rng.normal(size=(2, 2))
    window = np.concatenate([half, half[0:1], half[::-1]])  # palindrome in time
    h_fwd = oracles.lstm_forward(*_cell(model, 0), window)
    h_bwd = oracles.lstm_forward(*_cell(model, 1), window[::-1])
    assert h_fwd == pytest.approx(h_bwd, abs=1e-12)


def test_bilstm_scalar_hand_trace():
    fwd = _scalar_cell(0.5, -0.3, 0.8, 0.2, 0.1, 0.4, -0.6, 0.7, [0.05, -0.1, 0.2, 0.0])
    bwd = _scalar_cell(-0.2, 0.6, 0.3, -0.5, 0.9, -0.1, 0.2, 0.3, [0.0, 0.1, -0.2, 0.3])
    settings = neural.TrainSettings(bidirectional=True, hidden_size=1, seed=0)
    model = neural.BiLstmModel(
        *(np.stack(p) for p in zip(fwd, bwd)),
        head_weights=np.array([1.25, -0.75]), head_bias=np.array([0.5]),
        timesteps=2, feature_ids=[7], settings=settings,
    )
    window = np.array([[1.5], [-0.7]])

    def run(cell, xs):
        w_x, w_h, bias = cell
        h, c = 0.0, 0.0
        for x in xs:
            i = _sig(w_x[0, 0] * x + w_h[0, 0] * h + bias[0])
            f = _sig(w_x[0, 1] * x + w_h[0, 1] * h + bias[1])
            g = math.tanh(w_x[0, 2] * x + w_h[0, 2] * h + bias[2])
            o = _sig(w_x[0, 3] * x + w_h[0, 3] * h + bias[3])
            c = f * c + i * g
            h = o * math.tanh(c)
        return h

    expected = 1.25 * run(fwd, [1.5, -0.7]) + (-0.75) * run(bwd, [-0.7, 1.5]) + 0.5
    assert model.predict(window[None])[0] == pytest.approx(expected, abs=1e-12)


def test_bilstm_zeroed_backward_equals_vanilla_exactly(rng):
    bi_settings = neural.TrainSettings(bidirectional=True, hidden_size=6, seed=5)
    bi = _model(bi_settings, 4, 7)
    for p in (bi.w_x, bi.w_h, bi.bias):
        p[1] = 0.0
    bi.head_weights[6:] = 0.0

    vanilla_settings = neural.TrainSettings(bidirectional=False, hidden_size=6, seed=5)
    vanilla = _model(vanilla_settings, 4, 7)
    vanilla.w_x, vanilla.w_h, vanilla.bias = (p[:1].copy() for p in (bi.w_x, bi.w_h, bi.bias))
    vanilla.head_weights = bi.head_weights[:6].copy()
    vanilla.head_bias = bi.head_bias.copy()

    windows = rng.normal(size=(9, 7, 4))
    assert np.array_equal(bi.predict(windows), vanilla.predict(windows))


def test_predict_matches_reference_forward(rng):
    settings = neural.TrainSettings(bidirectional=True, hidden_size=5, seed=9)
    model = _model(settings, 3, 6)
    windows = rng.normal(size=(8, 6, 3))
    batched = model.predict(windows)
    hidden = model.hidden_size
    for k in range(8):
        h_f = oracles.lstm_forward(*_cell(model, 0), windows[k])
        h_b = oracles.lstm_forward(*_cell(model, 1), windows[k][::-1])
        ref = h_f @ model.head_weights[:hidden] + h_b @ model.head_weights[hidden:] + model.head_bias[0]
        assert batched[k] == pytest.approx(ref, rel=1e-12, abs=1e-12)


def test_predict_shape_mismatch_is_config_error(rng):
    settings = neural.TrainSettings(bidirectional=False, hidden_size=4, seed=3)
    model = _model(settings, 3, 5)
    with pytest.raises(ConfigError):
        model.predict(rng.normal(size=(2, 5, 4)))


def test_negative_seed_is_rejected():
    with pytest.raises(ValueError, match="seed"):
        neural.TrainSettings(seed=-1, hidden_size=2)


def test_mse_cases():
    assert neural.mse_loss([1.0, 2.0], [1.0, 2.0]) == 0.0
    assert neural.mse_loss([0.0], [3.0]) == 9.0
    assert neural.mse_loss([1.0, 2.0], [2.0, 4.0]) == pytest.approx(2.5, abs=1e-15)


def _numeric_gradients(model, X, y, step=1e-5):
    names, params = neural.parameter_arrays(model)
    out = []
    for p in params:
        g = np.zeros_like(p)
        it = np.nditer(p, flags=["multi_index"])
        for _ in it:
            ix = it.multi_index
            orig = p[ix]
            p[ix] = orig + step
            lp = neural.mse_loss(model.predict(X), y)
            p[ix] = orig - step
            lm = neural.mse_loss(model.predict(X), y)
            p[ix] = orig
            g[ix] = (lp - lm) / (2 * step)
        out.append(g)
    return names, out


def _max_rel_err(analytic, numeric):
    worst = 0.0
    for a, n in zip(analytic, numeric):
        denom = np.maximum(np.maximum(np.abs(a), np.abs(n)), 1e-6)
        worst = max(worst, float((np.abs(a - n) / denom).max()))
    return worst


def test_gradcheck_seeded_instance():
    rng = np.random.default_rng(0)
    settings = neural.TrainSettings(bidirectional=True, hidden_size=2, seed=0, grad_clip=None)
    model = _model(settings, 2, 3)
    X = rng.normal(size=(4, 3, 2))
    y = rng.normal(size=4)
    grads = neural.backward(model, X, y)
    _, numeric = _numeric_gradients(model, X, y, step=1e-5)
    assert _max_rel_err(grads.arrays, numeric) <= 1e-5


def test_gradcheck_vanilla_instance():
    rng = np.random.default_rng(1)
    settings = neural.TrainSettings(bidirectional=False, hidden_size=2, seed=1, grad_clip=None)
    model = _model(settings, 2, 3)
    X = rng.normal(size=(3, 2, 2))
    y = rng.normal(size=3)
    grads = neural.backward(model, X, y)
    _, numeric = _numeric_gradients(model, X, y)
    assert _max_rel_err(grads.arrays, numeric) <= 1e-5


def test_backward_zero_residual_zero_gradients(rng):
    settings = neural.TrainSettings(bidirectional=True, hidden_size=3, seed=4)
    model = _model(settings, 2, 4)
    X = rng.normal(size=(5, 4, 2))
    y = model.predict(X)
    grads = neural.backward(model, X, y)
    for arr in grads.arrays:
        assert np.allclose(arr, 0.0, atol=1e-15)


def test_backward_residual_linearity(rng):
    settings = neural.TrainSettings(bidirectional=True, hidden_size=3, seed=6)
    model = _model(settings, 2, 4)
    X = rng.normal(size=(1, 4, 2))
    base = model.predict(X)
    g1, g2 = (neural.backward(model, X, base - r) for r in (1.0, 2.0))
    k = g1.names.index("dense.bias")
    g1, g2 = g1.arrays[k], g2.arrays[k]
    assert g2[0] == pytest.approx(2.0 * g1[0], rel=1e-12)


@pytest.mark.parametrize("n", [1, 64])
@pytest.mark.parametrize("bidirectional", [False, True])
def test_backward_loss_is_mse_of_predict(rng, bidirectional, n):
    """The loss ``backward`` returns is, bit for bit, the MSE of ``predict`` on
    the same batch, which is what ``train`` sums into each epoch's loss."""
    settings = neural.TrainSettings(bidirectional=bidirectional, hidden_size=3, seed=8)
    model = _model(settings, 2, 4)
    X = rng.normal(size=(n, 4, 2))
    y = rng.normal(size=n) * 10.0
    assert neural.backward(model, X, y).loss == neural.mse_loss(model.predict(X), y)


@pytest.mark.parametrize("targets", [np.zeros((1, 1)), np.float64(0.0)], ids=["1x1", "0d"])
def test_backward_requires_targets_shaped_n(rng, targets):
    # a one-row batch with (1, 1) targets used to give a (H, 1) head gradient
    model = _model(neural.TrainSettings(bidirectional=True, hidden_size=3, seed=8), 2, 4)
    with pytest.raises(ValueError, match=r"targets shaped \(n,\)"):
        neural.backward(model, rng.normal(size=(1, 4, 2)), targets)


@pytest.mark.filterwarnings("ignore:overflow encountered")
@pytest.mark.filterwarnings("ignore:invalid value encountered")
@pytest.mark.parametrize("bidirectional", [False, True])
def test_nonfinite_gradient_names_the_first_such_parameter(rng, bidirectional):
    model = _model(neural.TrainSettings(bidirectional=bidirectional, hidden_size=3, seed=8), 2, 4)
    model.head_weights[:] = 1e308
    with pytest.raises(NumericError, match=r"^non-finite gradient in forward\.w_x$"):
        neural.backward(model, rng.normal(size=(5, 4, 2)), rng.normal(size=5))


def test_adam_zero_gradient_keeps_params():
    params = [np.array([1.0, -2.0]), np.array([[3.0]])]
    state = neural.AdamState.for_params(params)
    before = [p.copy() for p in params]
    neural.adam_step(state, params, [np.zeros(2), np.zeros((1, 1))])
    assert state.t == 1
    for p, b in zip(params, before):
        assert np.array_equal(p, b)


def test_adam_first_step_magnitude():
    for g in (0.5, -3.0, 10.0):
        params = [np.array([1.0])]
        state = neural.AdamState.for_params(params, learning_rate=0.001)
        neural.adam_step(state, params, [np.array([g])])
        update = params[0][0] - 1.0
        expected = -0.001 * g / (abs(g) + 1e-8)
        assert update == pytest.approx(expected, rel=1e-12)


def test_adam_three_step_hand_trace():
    alpha, b1, b2, eps = 0.001, 0.9, 0.999, 1e-8
    theta, m, v = 1.0, 0.0, 0.0
    expected = [theta]
    for t in range(1, 4):
        m = b1 * m + (1 - b1) * 1.0
        v = b2 * v + (1 - b2) * 1.0
        m_hat = m / (1 - b1**t)
        v_hat = v / (1 - b2**t)
        theta = theta - alpha * m_hat / (math.sqrt(v_hat) + eps)
        expected.append(theta)

    params = [np.array([1.0])]
    state = neural.AdamState.for_params(params, learning_rate=alpha)
    for t in range(1, 4):
        neural.adam_step(state, params, [np.array([1.0])])
        assert params[0][0] == pytest.approx(expected[t], abs=1e-15)
    assert state.t == 3


@pytest.mark.parametrize("bidirectional", [False, True])
def test_parameter_arrays_are_views_that_adam_updates(bidirectional):
    settings = neural.TrainSettings(bidirectional=bidirectional, hidden_size=3, seed=8)
    model = neural.init_model(settings, n_features=2, timesteps=4)
    directions = ["forward", "backward"][: 2 if bidirectional else 1]
    names, params = neural.parameter_arrays(model)
    assert names == [f"{d}.{p}" for d in directions for p in ("w_x", "w_h", "bias")] + [
        "dense.weights", "dense.bias"]
    stacked = [model.w_x, model.w_h, model.bias] * len(directions) + [model.head_weights, model.head_bias]
    assert all(np.shares_memory(p, s) for p, s in zip(params, stacked))
    before = [s.copy() for s in stacked]
    neural.adam_step(neural.AdamState.for_params(params), params, [np.ones_like(p) for p in params])
    assert all(np.all(s != b) for s, b in zip(stacked, before))


def _toy_dataset(rng, n=40, timesteps=4, features=2):
    windows = rng.normal(size=(n, timesteps, features))
    targets = windows[:, -1, 0] * 2.0 + 1.0
    return pp.WindowedDataset(windows=windows, targets=targets, feature_ids=list(range(features)))


def _same_parameters(a, b):
    """Equal parameter names, and arrays equal in value and dtype."""
    (names_a, arrays_a), (names_b, arrays_b) = neural.parameter_arrays(a), neural.parameter_arrays(b)
    return names_a == names_b and all(
        np.array_equal(x, y) and x.dtype == y.dtype for x, y in zip(arrays_a, arrays_b)
    )


def test_train_deterministic(rng):
    dataset = _toy_dataset(rng)
    settings = neural.TrainSettings(bidirectional=True, hidden_size=4, epochs=3, batch_size=16, seed=12)
    m1, t1 = neural.train(settings, dataset)
    m2, t2 = neural.train(settings, dataset)
    assert t1.losses == t2.losses
    assert _same_parameters(m1, m2)


@pytest.mark.parametrize("grad_clip", [0.05, None])
@pytest.mark.parametrize("bidirectional", [False, True])
def test_train_matches_per_array_loop_oracle(rng, bidirectional, grad_clip):
    # 45 windows in batches of 16: the last batch of each epoch holds 13
    dataset = _toy_dataset(rng, n=45)
    settings = neural.TrainSettings(bidirectional=bidirectional, hidden_size=4, epochs=3,
                                    batch_size=16, seed=5, grad_clip=grad_clip)
    model, trace = neural.train(settings, dataset)
    params, losses, clipped = oracles.train_per_array(settings, dataset)
    assert (clipped > 0) == (grad_clip is not None)
    assert trace.losses == losses
    _, got = neural.parameter_arrays(model)
    assert all(np.array_equal(a, b) for a, b in zip(got, params, strict=True))


def test_train_zero_epochs_returns_init(rng):
    dataset = _toy_dataset(rng)
    settings = neural.TrainSettings(bidirectional=False, hidden_size=4, epochs=0, seed=7)
    model, trace = neural.train(settings, dataset)
    init = neural.init_model(settings, n_features=2, timesteps=4, feature_ids=dataset.feature_ids)
    assert trace.losses == [] and trace.seconds == []
    assert _same_parameters(model, init)


def test_train_loss_decreases(rng):
    dataset = _toy_dataset(rng, n=80)
    settings = neural.TrainSettings(bidirectional=False, hidden_size=8, epochs=8, batch_size=16, seed=3)
    _, trace = neural.train(settings, dataset)
    assert trace.losses[-1] < trace.losses[0]


@pytest.mark.filterwarnings("ignore:overflow encountered")
@pytest.mark.filterwarnings("ignore:invalid value encountered")
def test_train_divergence_aborts_with_trace(rng):
    dataset = _toy_dataset(rng, n=40)
    settings = neural.TrainSettings(
        bidirectional=False, hidden_size=4, epochs=2, batch_size=8,
        learning_rate=1e200, grad_clip=None, seed=1,
    )
    with pytest.raises(DivergenceError) as err:
        neural.train(settings, dataset)
    assert err.value.trace is not None
    assert isinstance(err.value.trace.losses, list)


def test_model_file_roundtrip_bitwise(rng, tmp_path):
    dataset = _toy_dataset(rng)
    settings = neural.TrainSettings(bidirectional=True, hidden_size=4, epochs=2, batch_size=16, seed=21)
    model, _ = neural.train(settings, dataset)
    path = tmp_path / "model.model"
    neural.save_model(model, path)
    loaded = neural.load_model(path)
    windows = rng.normal(size=(12, 4, 2))
    assert np.array_equal(model.predict(windows), loaded.predict(windows))
    assert _same_parameters(loaded, model)
    assert loaded.feature_ids == model.feature_ids
    assert loaded.timesteps == model.timesteps
    assert loaded.settings == model.settings
    # saving again gives the same bytes
    again = tmp_path / "again.model"
    neural.save_model(loaded, again)
    assert again.read_bytes() == path.read_bytes()
    # a derived seed may use all 64 bits, and clipping may be off
    settings = replace(settings, bidirectional=False, seed=2**64 - 1, grad_clip=None)
    neural.save_model(neural.init_model(settings, n_features=2, timesteps=4), path)
    assert neural.load_model(path).settings == settings


def test_lstm_kernels_match_scalar_oracle(rng):
    # each direction of the stacked kernels has the bits of the scalar kernel
    # run on that direction alone, B=1 included
    for T, B, F, H, D in [(3, 6, 2, 4, 1), (3, 6, 2, 4, 2), (4, 1, 3, 4, 2), (5, 64, 5, 8, 2)]:
        X = rng.normal(size=(T, B, F))
        inputs = [X, np.ascontiguousarray(X[::-1])][:D]
        cells = [(rng.normal(size=(F, 4 * H)), rng.normal(size=(H, 4 * H)), rng.normal(size=4 * H))
                 for _ in range(D)]
        X_dir = np.ascontiguousarray(np.stack(inputs, axis=1))
        w_x, w_h, bias = (np.stack(ws) for ws in zip(*cells))
        bias = bias[:, None, :]
        cache = neural._lstm_forward(X_dir, w_x, w_h, bias)
        last = neural._lstm_last_state(X_dir, w_x, w_h, bias)
        dh = rng.normal(size=(D, B, H))
        grads = neural._lstm_backward(X_dir, w_h, *cache, dh)
        h_seq, c_seq, gates, tanh_c = (np.stack(a) for a in cache)
        for d in range(D):
            ref = oracles._lstm_forward_tbf(inputs[d], *cells[d])
            gates_d = gates[:, [0, 1, 3, 2], d].transpose(0, 2, 1, 3).reshape(T, B, 4 * H)  # as (T, B, 4H)
            for got, want in zip((h_seq[:, d], c_seq[:, d], gates_d, tanh_c[:, d]), ref):
                assert np.array_equal(got, want)
            assert np.array_equal(last[d], ref[0][-1])
            ref_grads = oracles._lstm_backward_tbf(
                inputs[d], cells[d][0], cells[d][1], *ref, np.ascontiguousarray(dh[d])
            )
            for got, want in zip(grads, ref_grads):
                assert np.array_equal(got[d], want)


@pytest.mark.parametrize("bidirectional", [False, True])
def test_chunked_predict_matches_one_pass_oracle(rng, bidirectional):
    # 257 rows split into chunks: none may hold a lone row, whose BLAS vector
    # path would change the last bits
    H = 8
    settings = neural.TrainSettings(bidirectional=bidirectional, hidden_size=H, seed=4)
    model = neural.init_model(settings, n_features=3, timesteps=4)
    windows = rng.normal(size=(257, 4, 3))
    X_tbf = np.ascontiguousarray(windows.transpose(1, 0, 2))
    inputs = [X_tbf, np.ascontiguousarray(X_tbf[::-1])]
    want = 0.0
    for d in range(len(model.w_x)):
        h_last = oracles._lstm_forward_tbf(inputs[d], *_cell(model, d))[0][-1]
        want = want + h_last @ model.head_weights[d * H : (d + 1) * H]
    want = want + model.head_bias[0]
    assert np.array_equal(model.predict(windows), want)
