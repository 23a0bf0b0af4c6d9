import json

import numpy as np
import pytest

from mouseauth.errors import (
    LabelOutOfRange,
    ShapeMismatch,
    SingleClassDataset,
)
from mouseauth.model import (
    ADAM_BETA1,
    ADAM_BETA2,
    ADAM_EPSILON,
    AdamState,
    ModelConfig,
    TrainConfig,
    _conv1d,
    _conv1d_adjoint,
    _conv1d_backward,
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
    with pytest.raises(ShapeMismatch):
        ModelConfig(input_length=8, kernel_size=4)


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
    assert cache["stem_out"].shape[2] == L
    for blk in cache["res"]:
        assert blk["pre"].shape[2] == L
    assert cache["conv_out"].shape[2] == L


def test_forward_shape_mismatch():
    params = init_params(TINY)
    with pytest.raises(ShapeMismatch):
        forward(params, np.zeros((2, 9)), TINY)
    batch = tiny_batch()
    for bad in (
        {**params, "head_w": np.zeros((3, 3))},
        {k: v for k, v in params.items() if k != "gru_uz"},
        {**params, "extra": np.zeros(1)},
    ):
        with pytest.raises(ShapeMismatch):
            forward(bad, batch, TINY)


def test_residual_identity_with_zero_weights():
    params = init_params(TINY)
    params["res0_w1"][:] = 0
    params["res0_b1"][:] = 0
    params["res0_w2"][:] = 0
    params["res0_b2"][:] = 0
    _, cache = forward(params, tiny_batch(), TINY)
    # block input is post-ReLU (non-negative), so out = relu(0 + in) = in
    blk = cache["res"][0]
    out = np.maximum(blk["pre"], 0)
    assert np.array_equal(out, blk["in"])


# ---------------------------------------------------------------------------
# loss

def test_cross_entropy_values():
    assert cross_entropy(np.array([[0.5, 0.5]]), [1]) == pytest.approx(np.log(2))
    assert cross_entropy(np.array([[1 - 1e-12, 1e-12]]), [0]) == pytest.approx(0.0, abs=1e-9)
    two = np.array([[0.5, 0.5], [1.0, 0.0]])
    assert cross_entropy(two, [0, 0]) == pytest.approx(np.log(2) / 2)


def test_cross_entropy_label_range():
    with pytest.raises(LabelOutOfRange):
        cross_entropy(np.array([[0.5, 0.5]]), [2])


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


def test_backward_label_count_mismatch():
    params = init_params(TINY)
    _, cache = forward(params, tiny_batch(2, seed=1), TINY)
    with pytest.raises(ShapeMismatch):
        backward(params, np.array([0, 1, 1]), cache, TINY)


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


@pytest.mark.parametrize("K", [1, 3, 5, 7])
@pytest.mark.parametrize("B, L", [(1, 9), (4, 9), (3, 2)])  # L=2 is shorter than K>=3
def test_conv1d_matches_tap_sum_and_its_adjoint(K, B, L):
    rng = np.random.default_rng(K * 100 + B * 10 + L)
    x = rng.normal(size=(B, 2, L))
    w = rng.normal(size=(3, 2, K))
    b = rng.normal(size=3)
    dy = rng.normal(size=(B, 3, L))
    y, win = _conv1d(x, w, b)
    assert np.max(np.abs(y - conv1d_by_taps(x, w, b))) <= 1e-12
    dw, _ = _conv1d_backward(dy, win, w)
    dx = _conv1d_adjoint(dy, w)
    # conv(x, w) - b is bilinear in x and w, so dy's inner product with it
    # equals both <x, dx> and <w, dw>
    lhs = np.vdot(y - b[:, None], dy)
    assert abs(lhs - np.vdot(x, dx)) <= 1e-12
    assert abs(lhs - np.vdot(w, dw)) <= 1e-12


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
    with pytest.raises(ShapeMismatch):
        adam_step(params, grads, AdamState.zeros_like(params), TrainConfig())


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


def test_train_single_class_rejected():
    X = np.zeros((10, 8))
    y = np.ones(10, dtype=int)
    with pytest.raises(SingleClassDataset):
        train(X, y, SEP_CFG, TrainConfig())


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


def test_checkpoint_with_classes_key_loads(tmp_path):
    # checkpoints from before ModelConfig dropped its classes field carry
    # "classes": 2 in their config
    params = init_params(TINY)
    path = tmp_path / "ckpt.json"
    save_checkpoint(path, params, TINY)
    payload = json.loads(path.read_text())
    payload["config"]["classes"] = 2
    path.write_text(json.dumps(payload))
    loaded, cfg = load_checkpoint(path)
    assert cfg == TINY
    X = tiny_batch(5, seed=4)
    assert np.array_equal(predict_batch(loaded, X, cfg), predict_batch(params, X, TINY))


@pytest.mark.parametrize("edit", [
    lambda config: config.update(dropout=0.5),
    lambda config: config.pop("gru_hidden"),
    lambda config: config.update(classes=3),
])
def test_checkpoint_config_keys_checked(tmp_path, edit):
    path = tmp_path / "ckpt.json"
    save_checkpoint(path, init_params(TINY), TINY)
    payload = json.loads(path.read_text())
    edit(payload["config"])
    path.write_text(json.dumps(payload))
    with pytest.raises(ShapeMismatch):
        load_checkpoint(path)


@pytest.mark.parametrize("key", ["config", "params"])
def test_checkpoint_without_config_or_params(tmp_path, key):
    path = tmp_path / "ckpt.json"
    save_checkpoint(path, init_params(TINY), TINY)
    payload = json.loads(path.read_text())
    del payload[key]
    path.write_text(json.dumps(payload))
    with pytest.raises(ShapeMismatch):
        load_checkpoint(path)
