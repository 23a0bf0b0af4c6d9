import json
import tracemalloc

import numpy as np
import pytest

from mouseauth.errors import MouseAuthError
from mouseauth.model import (
    ADAM_BETA1,
    ADAM_BETA2,
    ADAM_EPSILON,
    AdamState,
    PREDICT_BLOCK,
    ModelConfig,
    TrainConfig,
    _Workspace,
    _conv,
    _conv_adjoint,
    _conv_grads,
    _forward,
    _kernel,
    _prepare,
    adam_step,
    backward,
    batch_from_maus,
    cross_entropy,
    forward,
    init_params,
    load_checkpoint,
    predict,
    predict_batch,
    save_checkpoint,
    train,
)

TINY = ModelConfig(
    input_length=8, conv_channels=2, kernel_size=5, res_blocks=1, res_kernel=3,
    gru_hidden=3, seed=3,
)


def tiny_batch(n=4, seed=7):
    return np.random.default_rng(seed).normal(size=(n, TINY.input_length))


# ---------------------------------------------------------------------------
# config / init

def test_even_kernel_rejected():
    with pytest.raises(MouseAuthError, match="kernel sizes must be odd"):
        ModelConfig(input_length=8, kernel_size=4)


@pytest.mark.parametrize("values", [
    {"kernel_size": "3"}, {"input_length": 30.0}, {"gru_hidden": None},
    {"res_blocks": True}, {"seed": 0.5}, {"seed": -1}, {"seed": True}, {"standardize": 1},
    {"standardize": "yes"},
])
def test_model_config_types_checked(values):
    name = next(iter(values))
    with pytest.raises(MouseAuthError, match=f"{name} must be"):
        ModelConfig(**{"input_length": 8, **values})


def test_model_config_accepts_numpy_integers():
    assert ModelConfig(input_length=np.int64(8)).input_length == 8


def test_checkpoint_config_types_checked(tmp_path):
    path = tmp_path / "ckpt.json"
    save_checkpoint(path, init_params(TINY), TINY)
    payload = json.loads(path.read_text())
    payload["config"]["kernel_size"] = "3"
    path.write_text(json.dumps(payload))
    with pytest.raises(MouseAuthError, match="kernel_size must be an integer"):
        load_checkpoint(path)


def test_init_deterministic():
    a = init_params(TINY)
    b = init_params(TINY)
    assert all(np.array_equal(a[k], b[k]) for k in a)


def test_init_seed_sensitivity():
    a = init_params(TINY)
    b = init_params(ModelConfig(**{**TINY.__dict__, "seed": 4}))
    assert any(not np.array_equal(a[k], b[k]) for k in a)


def test_init_zero_biases():
    params = init_params(TINY)
    for name in ("stem_b", "res0_b1", "res0_b2", "gru_bz", "gru_br", "gru_bc", "head_b"):
        assert np.all(params[name] == 0)


# ---------------------------------------------------------------------------
# forward

def test_probabilities_normalized():
    params = init_params(TINY)
    probs, _ = forward(params, tiny_batch(), TINY)
    assert np.all(probs > 0) and np.all(probs < 1)
    assert np.allclose(probs.sum(axis=1), 1.0, atol=1e-12)


def test_zero_head_gives_uniform():
    params = init_params(TINY)
    params["head_w"][:] = 0
    params["head_b"][:] = 0
    probs, _ = forward(params, tiny_batch(), TINY)
    assert np.allclose(probs, 0.5, atol=0)


def test_sequence_length_preserved():
    params = init_params(TINY)
    _, cache = forward(params, tiny_batch(), TINY)
    L = TINY.input_length
    # each conv's input strip holds the L steps between its pad steps
    stem_in, *res_in = cache["conv_in"]
    assert stem_in.shape[0] == L + 2 * (TINY.kernel_size // 2)
    assert len(res_in) == 2 * TINY.res_blocks
    for strip in res_in:
        assert strip.shape[0] == L + 2 * (TINY.res_kernel // 2)
    assert cache["gru_in"].shape[0] == L


def test_forward_shape_mismatch():
    params = init_params(TINY)
    with pytest.raises(MouseAuthError, match="batch must be"):
        forward(params, np.zeros((2, 9)), TINY)
    batch = tiny_batch()
    for bad in (
        {**params, "head_w": np.zeros((3, 3))},
        {k: v for k, v in params.items() if k != "gru_uz"},
        {**params, "extra": np.zeros(1)},
    ):
        with pytest.raises(MouseAuthError, match="parameters do not match the config"):
            forward(bad, batch, TINY)


def test_residual_identity_with_zero_weights():
    params = init_params(TINY)
    params["res0_w1"][:] = 0
    params["res0_b1"][:] = 0
    params["res0_w2"][:] = 0
    params["res0_b2"][:] = 0
    _, cache = forward(params, tiny_batch(), TINY)
    # block input is post-ReLU (non-negative), so out = relu(0 + in) = in
    pad = TINY.res_kernel // 2
    block_in = cache["conv_in"][1][pad : pad + TINY.input_length]
    assert np.array_equal(cache["gru_in"][:, : TINY.conv_channels], block_in)


# ---------------------------------------------------------------------------
# loss

def test_cross_entropy_values():
    assert cross_entropy(np.array([[0.5, 0.5]]), [1]) == pytest.approx(np.log(2))
    assert cross_entropy(np.array([[1 - 1e-12, 1e-12]]), [0]) == pytest.approx(0.0, abs=1e-9)
    two = np.array([[0.5, 0.5], [1.0, 0.0]])
    assert cross_entropy(two, [0, 0]) == pytest.approx(np.log(2) / 2)


def test_cross_entropy_label_range():
    with pytest.raises(MouseAuthError, match="labels must be in"):
        cross_entropy(np.array([[0.5, 0.5]]), [2])


@pytest.mark.parametrize("labels", [[0.9], [-1], ["1"]])
def test_cross_entropy_rejects_labels_that_int_would_convert(labels):
    # [0.9] used to truncate to class 0 and give -log 0.3 = 1.204
    with pytest.raises(MouseAuthError, match="labels must be in"):
        cross_entropy(np.array([[0.3, 0.7]]), labels)


@pytest.mark.parametrize("rows, labels", [(1, [0, 1]), (3, [0, 1])])
def test_cross_entropy_label_count_mismatch(rows, labels):
    # one row with two labels raised a bare IndexError, and three rows with
    # two labels gave the loss of the first two rows
    probs = np.tile([0.3, 0.7], (rows, 1))
    with pytest.raises(MouseAuthError, match=f"expected {rows} labels for the batch"):
        cross_entropy(probs, labels)


# ---------------------------------------------------------------------------
# backward

def finite_difference_check(config, batch, labels, h=1e-5):
    params = init_params(config)
    probs, cache = forward(params, batch, config)
    grads = backward(params, labels, cache, config)
    worst = 0.0
    for name, p in params.items():
        it = np.nditer(p, flags=["multi_index"])
        for _ in it:
            idx = it.multi_index
            orig = p[idx]
            p[idx] = orig + h
            lp = cross_entropy(forward(params, batch, config)[0], labels)
            p[idx] = orig - h
            lm = cross_entropy(forward(params, batch, config)[0], labels)
            p[idx] = orig
            fd = (lp - lm) / (2 * h)
            g = grads[name][idx]
            denom = max(abs(fd), abs(g), 1e-6)
            worst = max(worst, abs(fd - g) / denom)
    return worst


def test_gradients_match_finite_differences():
    batch = tiny_batch(4, seed=7)
    labels = np.array([0, 1, 1, 0])
    assert finite_difference_check(TINY, batch, labels) < 1e-4


def test_duplicate_sample_gradient():
    params = init_params(TINY)
    one = tiny_batch(1, seed=9)
    two = np.vstack([one, one])
    p1, c1 = forward(params, one, TINY)
    p2, c2 = forward(params, two, TINY)
    g1 = backward(params, np.array([1]), c1, TINY)
    g2 = backward(params, np.array([1, 1]), c2, TINY)
    for name in g1:
        assert np.allclose(g1[name], g2[name], atol=1e-12)


def test_backward_rejects_fractional_labels():
    params = init_params(TINY)
    _, cache = forward(params, tiny_batch(2, seed=1), TINY)
    with pytest.raises(MouseAuthError, match="labels must be in"):
        backward(params, np.array([0.0, 0.5]), cache, TINY)


def test_backward_label_count_mismatch():
    params = init_params(TINY)
    _, cache = forward(params, tiny_batch(2, seed=1), TINY)
    with pytest.raises(MouseAuthError, match="expected 2 labels for the cached batch"):
        backward(params, np.array([0, 1, 1]), cache, TINY)


def gru_by_gates(params, xs):
    """Hidden states and class probabilities of the GRU and head, one gate at
    a time: xs is (steps, B, C); returns (steps + 1, B, H) states, the first
    all zeros, and (B, 2) probabilities."""
    def sigmoid(v):
        return 1.0 / (1.0 + np.exp(-v))

    p = params
    hidden = [np.zeros((xs.shape[1], p["gru_uz"].shape[0]))]
    for x in xs:
        h = hidden[-1]
        z = sigmoid(x @ p["gru_wz"] + h @ p["gru_uz"] + p["gru_bz"])
        r = sigmoid(x @ p["gru_wr"] + h @ p["gru_ur"] + p["gru_br"])
        c = np.tanh(x @ p["gru_wc"] + (r * h) @ p["gru_uc"] + p["gru_bc"])
        hidden.append((1.0 - z) * h + z * c)
    logits = hidden[-1] @ p["head_w"] + p["head_b"]
    exp = np.exp(logits - logits.max(axis=1, keepdims=True))
    return np.array(hidden), exp / exp.sum(axis=1, keepdims=True)


@pytest.mark.parametrize("B", [1, 4])
@pytest.mark.parametrize("L", [1, 8])
def test_gru_scan_matches_gate_by_gate_reference(B, L):
    # one residual block with equal pads, then two whose strips are padded
    # by 2 after a stem padded by 1
    for res_blocks, res_kernel in ((1, 3), (2, 5)):
        config = ModelConfig(input_length=L, conv_channels=3, kernel_size=3,
                             res_blocks=res_blocks, res_kernel=res_kernel, gru_hidden=5,
                             seed=B * 10 + L)
        params = init_params(config)
        rng = np.random.default_rng(L)
        for name in ("gru_bz", "gru_br", "gru_bc", "head_b"):  # nonzero biases
            params[name] = rng.normal(size=params[name].shape)
        batch = rng.normal(size=(B, L))
        probs, cache = forward(params, batch, config)
        # the GRU's (L, C + 1, B) input holds the conv output over a row of ones
        xs = cache["gru_in"][:, : config.conv_channels].transpose(0, 2, 1)
        hidden, ref_probs = gru_by_gates(params, xs)
        assert np.max(np.abs(cache["gru"][0] - hidden.transpose(0, 2, 1))) <= 1e-12
        assert np.max(np.abs(probs - ref_probs)) <= 1e-12
        # predict_batch's blocks read the weights it prepared once
        assert np.array_equal(predict_batch(params, batch, config), probs[:, 1])


def test_gradients_match_finite_differences_at_batch_one():
    assert finite_difference_check(TINY, tiny_batch(1, seed=11), np.array([1])) < 1e-4


def test_gradients_match_finite_differences_with_unequal_pads():
    # the stem's strip is padded by 1 and the residual blocks' by 2, and the
    # second block reads the first block's output strip
    config = ModelConfig(input_length=7, conv_channels=2, kernel_size=3, res_blocks=2,
                         res_kernel=5, gru_hidden=3, seed=5)
    batch = np.random.default_rng(13).normal(size=(3, 7))
    assert finite_difference_check(config, batch, np.array([1, 0, 1])) < 1e-4


def conv1d_by_taps(x, w, b):
    """y[b, o, l] = b[o] + sum over c, k of w[o, c, k] x[b, c, l + k - K//2],
    with x zero outside [0, L)."""
    B, C, L = x.shape
    O, _, K = w.shape
    y = np.zeros((B, O, L)) + b[:, None]
    for l in range(L):
        for k in range(K):
            src = l + k - K // 2
            if 0 <= src < L:
                y[:, :, l] += x[:, :, src] @ w[:, :, k].T
    return y


def to_strip(x, pad):
    """A (B, C, L) map as its time-major strip of shape (L + 2 pad, C, B):
    strip[pad + l, c, b] holds x[b, c, l], and the pad steps are zero."""
    B, C, L = x.shape
    strip = np.zeros((L + 2 * pad, C, B))
    strip[pad : pad + L] = x.transpose(2, 1, 0)
    return strip


def from_steps(y):
    """The (B, O, L) map of a conv's (L, O, B) output."""
    return y.transpose(2, 1, 0)


@pytest.mark.parametrize("K", [1, 3, 5, 7])
# L=2 is shorter than K>=3; B=0 has no windows
@pytest.mark.parametrize("B, L", [(1, 9), (4, 9), (3, 2), (0, 9)])
def test_conv1d_matches_tap_sum_and_its_adjoint(K, B, L):
    rng = np.random.default_rng(K * 100 + B * 10 + L)
    x = rng.normal(size=(B, 2, L))
    w = rng.normal(size=(3, 2, K))
    b = rng.normal(size=3)
    dy = rng.normal(size=(B, 3, L))
    pad = K // 2
    x_strip, dy_strip = to_strip(x, pad), to_strip(dy, pad)
    y = from_steps(_conv(x_strip, _kernel(w), np.empty((L, 3, B)))) + b[:, None]
    assert y.shape == (B, 3, L)
    assert np.max(np.abs(y - conv1d_by_taps(x, w, b)), initial=0.0) <= 1e-12
    dw, db = _conv_grads(dy_strip[pad : pad + L], x_strip)
    dx = from_steps(_conv_adjoint(dy_strip, w, np.empty((L, 2, B))))
    # conv(x, w) - b is bilinear in x and w, so dy's inner product with it
    # equals both <x, dx> and <w, dw>
    lhs = np.vdot(y - b[:, None], dy)
    assert abs(lhs - np.vdot(x, dx)) <= 1e-12
    assert abs(lhs - np.vdot(w, dw)) <= 1e-12
    assert np.max(np.abs(db - dy.sum(axis=(0, 2)))) <= 1e-12


def conv_stack_by_taps(params, batch, config):
    """The (B, C, L) map the conv stack hands the GRU, by conv1d_by_taps:
    the stem over the standardized rows, then each residual block, with
    their ReLUs and skips."""
    centred = batch - batch.mean(axis=1, keepdims=True)
    x = centred / np.maximum(batch.std(axis=1, keepdims=True), 1e-8)
    h = np.maximum(conv1d_by_taps(x[:, None], params["stem_w"], params["stem_b"]), 0.0)
    for i in range(config.res_blocks):
        mid = np.maximum(conv1d_by_taps(h, params[f"res{i}_w1"], params[f"res{i}_b1"]), 0.0)
        h = np.maximum(conv1d_by_taps(mid, params[f"res{i}_w2"], params[f"res{i}_b2"]) + h, 0.0)
    return h


@pytest.mark.parametrize("config", [
    ModelConfig(input_length=30, conv_channels=8, kernel_size=5, res_blocks=1,
                res_kernel=3, gru_hidden=16, seed=0),
    ModelConfig(input_length=11, conv_channels=5, kernel_size=3, res_blocks=2,
                res_kernel=7, gru_hidden=6, seed=4),
], ids=["benchmark", "two_blocks_unequal_pads"])
def test_the_gru_input_is_the_conv_stack_by_taps(config):
    # the smaller blocks reuse the larger ones' buffers, so their strips'
    # pad steps land on values an earlier block wrote
    params = init_params(config)
    rng = np.random.default_rng(config.input_length)
    for name in ["stem_b"] + [f"res{i}_b{j}" for i in range(config.res_blocks) for j in (1, 2)]:
        params[name] = rng.normal(size=params[name].shape)
    weights, ws, C = _prepare(params, config), _Workspace(), config.conv_channels
    X = rng.normal(10.0, 3.0, size=(128, config.input_length))
    for n in (128, 32, 22, 1):
        expected = conv_stack_by_taps(params, X[:n], config)
        for cache in (forward(params, X[:n], config)[1], _forward(weights, X[:n], config, ws)[1]):
            got = cache["gru_in"][:, :C].transpose(2, 1, 0)
            assert np.max(np.abs(got - expected)) <= 1e-12, n


# ---------------------------------------------------------------------------
# adam

def test_adam_first_step_magnitude():
    params = {"w": np.array([1.0])}
    grads = {"w": np.array([0.5])}
    state = AdamState.zeros_like(params)
    cfg = TrainConfig(learning_rate=1e-3)
    new, state = adam_step(params, grads, state, cfg)
    # bias corrections cancel at t=1: step = lr * g / (|g| + eps)
    assert new["w"][0] == pytest.approx(1.0 - 1e-3, rel=1e-6)
    assert state.t == 1


def test_adam_zero_gradient_no_move():
    params = init_params(TINY)
    grads = {k: np.zeros_like(v) for k, v in params.items()}
    new, _ = adam_step(params, grads, AdamState.zeros_like(params), TrainConfig())
    assert all(np.array_equal(new[k], params[k]) for k in params)


def test_adam_defaults():
    assert (ADAM_BETA1, ADAM_BETA2, ADAM_EPSILON) == (0.9, 0.999, 1e-8)


def test_adam_shape_mismatch():
    params = {"w": np.zeros(3)}
    grads = {"w": np.zeros(4)}
    with pytest.raises(MouseAuthError, match="w: gradient shape"):
        adam_step(params, grads, AdamState.zeros_like(params), TrainConfig())
    with pytest.raises(MouseAuthError, match="Adam state holds 4 values, the parameters 3"):
        adam_step(params, params, AdamState.zeros_like(grads), TrainConfig())
    with pytest.raises(MouseAuthError, match="gradient names do not match parameters"):
        adam_step(params, {"v": np.zeros(3)}, AdamState.zeros_like(params), TrainConfig())


def per_tensor_adam(params, grads, m, v, t, learning_rate):
    """Adam one tensor at a time, updating the moment dicts m and v."""
    out = {}
    for name, p in params.items():
        g = grads[name]
        m[name] = ADAM_BETA1 * m[name] + (1 - ADAM_BETA1) * g
        v[name] = ADAM_BETA2 * v[name] + (1 - ADAM_BETA2) * g * g
        m_hat = m[name] / (1 - ADAM_BETA1**t)
        v_hat = v[name] / (1 - ADAM_BETA2**t)
        out[name] = p - learning_rate * m_hat / (np.sqrt(v_hat) + ADAM_EPSILON)
    return out


def test_flat_adam_matches_per_tensor_adam_bit_for_bit():
    params = init_params(TINY)
    ref = {name: p.copy() for name, p in params.items()}
    m = {name: np.zeros_like(p) for name, p in params.items()}
    v = {name: np.zeros_like(p) for name, p in params.items()}
    state = AdamState.zeros_like(params)
    cfg = TrainConfig(learning_rate=3e-3)
    batch, labels = tiny_batch(6, seed=2), np.array([0, 1, 1, 0, 1, 0])
    for t in range(1, 6):
        # backprop's gradients, some of them transposed views
        grads = backward(params, labels, forward(params, batch, TINY)[1], TINY)
        params, state = adam_step(params, grads, state, cfg)
        ref = per_tensor_adam(ref, grads, m, v, t, cfg.learning_rate)
        assert state.t == t
        assert all(np.array_equal(params[name], ref[name]) for name in ref), t


# ---------------------------------------------------------------------------
# train / predict

SEP_CFG = ModelConfig(
    input_length=8, conv_channels=2, kernel_size=3, res_blocks=1, res_kernel=3,
    gru_hidden=4, seed=0, standardize=False,
)


def separable_data():
    # constant-level windows at 1.0 vs 100.0; standardization would erase the
    # level difference, so this sanity set runs with standardize=False
    X = np.vstack([np.full((30, 8), 1.0), np.full((30, 8), 100.0)])
    y = np.array([0] * 30 + [1] * 30)
    return X, y


def test_train_separable_classes():
    X, y = separable_data()
    params, history = train(X, y, SEP_CFG, TrainConfig(epochs=20, batch_size=16, seed=0))
    preds = (predict_batch(params, X, SEP_CFG) >= 0.5).astype(int)
    assert np.mean(preds == y) == 1.0
    for a, b in zip(history[:5], history[1:6]):
        assert b <= a + 1e-6


@pytest.mark.parametrize("values", [
    {"batch_size": -3}, {"batch_size": 0}, {"epochs": 0},
    {"batch_size": 8.0}, {"epochs": 1.5}, {"batch_size": True},
])
def test_train_config_needs_a_step(values):
    # batch_size=-3 ran no step and reported a loss of 0.0 for each epoch; a
    # float died inside train with a TypeError and True trained at batch 1
    with pytest.raises(MouseAuthError, match="batch_size/epochs must be integers >= 1"):
        TrainConfig(**values)


@pytest.mark.parametrize("rate", [0.0, -1e-3, float("nan"), float("inf"), True, "0.1"])
def test_train_config_needs_a_finite_positive_learning_rate(rate):
    # a NaN rate passed every comparison and trained to NaN parameters, True
    # trained at rate 1.0 and a string raised a bare TypeError
    with pytest.raises(MouseAuthError, match="learning_rate must be positive and finite"):
        TrainConfig(learning_rate=rate)


@pytest.mark.parametrize("seed", [-1, "x", 0.5, True, None])
def test_train_config_needs_a_non_negative_integer_seed(seed):
    # a string was accepted, and -1 failed in the shuffle after the data loaded
    with pytest.raises(MouseAuthError, match="seed must be an integer >= 0"):
        TrainConfig(seed=seed)


def test_train_config_accepts_numpy_integer_seed():
    assert TrainConfig(seed=np.int64(3)).seed == 3


def test_train_single_class_rejected():
    X = np.zeros((10, 8))
    y = np.ones(10, dtype=int)
    with pytest.raises(MouseAuthError, match="training data must contain both classes"):
        train(X, y, SEP_CFG, TrainConfig())


@pytest.mark.parametrize("labels", [[0, 1, 0, 1, 0], [0, 1, 0, 1, 0, 1, 1]])
def test_train_label_count_mismatch(labels):
    # five labels for six rows raised a bare IndexError in the first epoch,
    # and seven trained on the first six
    with pytest.raises(MouseAuthError, match="expected 6 labels for the batch"):
        train(np.zeros((6, 8)), labels, SEP_CFG, TrainConfig())


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_train_rejects_non_finite_inputs(bad):
    # one NaN made every loss and parameter NaN, and the checkpoint was
    # written before read_checkpoint refused it
    X, y = np.random.default_rng(0).normal(size=(20, 8)), [0, 1] * 10
    X[3, 5] = bad
    with pytest.raises(MouseAuthError, match="training inputs must be finite"):
        train(X, y, SEP_CFG, TrainConfig(epochs=2))


def test_forward_is_called_once_per_training_batch_and_never_by_decisions(monkeypatch):
    # the benchmark's tracer wraps the module attribute model.forward, so
    # its count is the training batches; decisions run the layers directly
    calls = []

    def counted(params, batch, config):
        calls.append(len(batch))
        return forward(params, batch, config)

    monkeypatch.setattr("mouseauth.model.forward", counted)
    X = np.random.default_rng(0).normal(size=(10, 8))
    y = [0, 1] * 5
    params, _ = train(X, y, SEP_CFG, TrainConfig(batch_size=4, epochs=3))
    assert calls == [4, 4, 2] * 3  # epochs x ceil(10 / 4)
    calls.clear()
    predict(params, X[0], SEP_CFG)
    predict_batch(params, np.zeros((PREDICT_BLOCK + 1, 8)), SEP_CFG)
    assert calls == []


def test_train_rejects_fractional_labels():
    # these used to train with 0.5 and 0.7 truncated to imposter labels
    X = np.zeros((6, 8))
    with pytest.raises(MouseAuthError, match="labels must be in"):
        train(X, [0, 1, 0.5, 1, 0.7, 1], SEP_CFG, TrainConfig())


def test_train_deterministic():
    X, y = separable_data()
    tcfg = TrainConfig(epochs=3, batch_size=16, seed=5)
    p1, h1 = train(X, y, SEP_CFG, tcfg)
    p2, h2 = train(X, y, SEP_CFG, tcfg)
    assert h1 == h2
    assert all(np.array_equal(p1[k], p2[k]) for k in p1)


def test_predict_untrained_zero_head():
    params = init_params(TINY)
    params["head_w"][:] = 0
    params["head_b"][:] = 0
    assert predict(params, np.zeros(8), TINY) == 0.5


def test_predict_pure_and_batch_consistent():
    params = init_params(TINY)
    X = tiny_batch(5, seed=3)
    single = [predict(params, X[i], TINY) for i in range(5)]
    assert single == [predict(params, X[i], TINY) for i in range(5)]
    batched = predict_batch(params, X, TINY)
    assert np.allclose(batched, single, atol=1e-12)
    # around and across the block size, against one unblocked pass
    for n in (0, 1, PREDICT_BLOCK - 1, PREDICT_BLOCK, PREDICT_BLOCK + 1, 718):
        X = tiny_batch(n, seed=n)
        batched = predict_batch(params, X, TINY)
        assert batched.shape == (n,)
        assert np.allclose(batched, forward(params, X, TINY)[0][:, 1], rtol=0, atol=1e-15), n
        single = [predict(params, row, TINY) for row in X]
        assert np.allclose(batched, single, rtol=0, atol=1e-12), n
    with pytest.raises(MouseAuthError, match="batch must be"):
        predict_batch(params, np.zeros((0, TINY.input_length + 1)), TINY)


@pytest.mark.parametrize("config", [
    TINY,
    # the benchmark's decision model
    ModelConfig(input_length=30, conv_channels=8, kernel_size=5, res_blocks=1,
                res_kernel=3, gru_hidden=16, seed=0),
], ids=["tiny", "benchmark"])
def test_predict_and_predict_batch_equal_forward_exactly(config):
    # one decision and one block of rows are each one forward pass over the
    # same weights, so the scores are forward's, to the last bit
    params = init_params(config)
    rng = np.random.default_rng(config.input_length)
    for name in ("stem_b", "res0_b2", "gru_bz", "gru_br", "gru_bc", "head_b"):
        params[name] = rng.normal(size=params[name].shape)
    X = rng.normal(10.0, 3.0, size=(PREDICT_BLOCK, config.input_length))
    for row in X[:8]:
        assert np.array_equal(predict(params, row, config),
                              forward(params, row[None], config)[0][0, 1])
    for n in range(1, PREDICT_BLOCK + 1):
        assert np.array_equal(predict_batch(params, X[:n], config),
                              forward(params, X[:n], config)[0][:, 1]), n


def test_a_reused_workspace_gives_a_fresh_one_s_scores_at_any_block_size():
    # a pass over 22 rows writes its GRU states over the first values of the
    # buffer, which a later pass over 32 rows reads as its initial state
    config = ModelConfig(input_length=30, conv_channels=8, kernel_size=5, res_blocks=1,
                         res_kernel=3, gru_hidden=16, seed=0)
    weights = _prepare(init_params(config), config)
    X = np.random.default_rng(8).normal(10.0, 3.0, size=(86, config.input_length))
    ws = _Workspace()
    for block in (X[:32], X[32:54], X[54:]):
        reused = _forward(weights, block, config, ws)[0].copy()
        assert np.array_equal(reused, _forward(weights, block, config, _Workspace())[0])


def test_prepared_weights_do_not_outlive_a_predict_batch_call():
    # predict_batch prepares the weights once for all its blocks; a
    # parameter changed in place before the next call must be read afresh
    params = init_params(TINY)
    X = tiny_batch(PREDICT_BLOCK + 3, seed=5)
    before = predict_batch(params, X, TINY)
    for name in ("stem_w", "res0_w1", "gru_wz", "gru_br", "gru_uz", "gru_uc"):
        params[name] += 0.25
        scores = predict_batch(params, X, TINY)
        # fresh forward passes over the same two blocks
        fresh = [forward(params, X[start : start + PREDICT_BLOCK], TINY)[0][:, 1]
                 for start in (0, PREDICT_BLOCK)]
        assert np.array_equal(scores, np.concatenate(fresh)), name
        assert not np.array_equal(scores, before), name
        before = scores


def test_predict_memory_does_not_grow_with_rows():
    params = init_params(TINY)
    peaks = []
    for n in (1000, 20000):
        X = tiny_batch(n, seed=1)
        tracemalloc.start()
        predict_batch(params, X, TINY)
        peaks.append(tracemalloc.get_traced_memory()[1])
        tracemalloc.stop()
    assert peaks[0] > PREDICT_BLOCK * TINY.input_length * 8  # one standardized block
    # only the returned scores grow with the rows
    assert peaks[1] < peaks[0] + 8 * (20000 - 1000) + 64 * 1024


def test_batch_from_maus():
    class FakeMau:
        def __init__(self, values):
            self.values = values

    X = batch_from_maus([FakeMau([1.0, 2.0]), FakeMau([3.0, 4.0])])
    assert X.shape == (2, 2)


def test_checkpoint_roundtrip(tmp_path):
    params = init_params(TINY)
    path = tmp_path / "ckpt.json"
    save_checkpoint(path, params, TINY)
    loaded, cfg = load_checkpoint(path)
    assert cfg == TINY
    assert all(np.allclose(loaded[k], params[k], atol=0) for k in params)


@pytest.mark.parametrize("edit", [
    lambda config: config.update(dropout=0.5),
    lambda config: config.pop("gru_hidden"),
    lambda config: config.update(classes=3),
    # the key checkpoints held before the head was fixed at two classes
    lambda config: config.update(classes=2),
])
def test_checkpoint_config_keys_checked(tmp_path, edit):
    path = tmp_path / "ckpt.json"
    save_checkpoint(path, init_params(TINY), TINY)
    payload = json.loads(path.read_text())
    edit(payload["config"])
    path.write_text(json.dumps(payload))
    with pytest.raises(MouseAuthError, match="checkpoint config does not match ModelConfig"):
        load_checkpoint(path)


@pytest.mark.parametrize("version", [True, 1.0, "1", 2, None])
def test_checkpoint_version_must_be_the_int_1(tmp_path, version):
    # true and 1.0 loaded as version 1
    path = tmp_path / "ckpt.json"
    save_checkpoint(path, init_params(TINY), TINY)
    payload = json.loads(path.read_text())
    payload["version"] = version
    path.write_text(json.dumps(payload))
    with pytest.raises(MouseAuthError, match="unsupported checkpoint version"):
        load_checkpoint(path)


@pytest.mark.parametrize("key", ["config", "params"])
def test_checkpoint_without_config_or_params(tmp_path, key):
    path = tmp_path / "ckpt.json"
    save_checkpoint(path, init_params(TINY), TINY)
    payload = json.loads(path.read_text())
    del payload[key]
    path.write_text(json.dumps(payload))
    with pytest.raises(MouseAuthError, match='checkpoint needs a "config" and a "params" object'):
        load_checkpoint(path)
