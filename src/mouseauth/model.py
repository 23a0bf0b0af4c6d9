"""Desk-scale authentication classifier over MAU speed windows.

Pipeline: length-preserving 1D conv stem -> residual conv blocks -> gated
recurrent scan over time steps -> dense softmax head. Everything is plain
numpy in double precision with hand-written backprop, so gradients can be
verified against finite differences.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, asdict, fields
from pathlib import Path

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import (
    LabelOutOfRange,
    ShapeMismatch,
    SingleClassDataset,
)

CHECKPOINT_VERSION = 1
PROB_FLOOR = 1e-12
STD_FLOOR = 1e-8
# Adam's moment decay rates and denominator guard (Kingma & Ba 2015 defaults)
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPSILON = 1e-8


@dataclass(frozen=True)
class ModelConfig:
    input_length: int
    conv_channels: int = 16
    kernel_size: int = 5
    res_blocks: int = 2
    res_kernel: int = 3
    gru_hidden: int = 32
    seed: int = 0
    standardize: bool = True

    def __post_init__(self):
        if self.kernel_size % 2 == 0 or self.res_kernel % 2 == 0:
            raise ShapeMismatch("kernel sizes must be odd (symmetric padding)")
        for name in ("input_length", "conv_channels", "kernel_size", "res_blocks",
                     "res_kernel", "gru_hidden"):
            if getattr(self, name) < 1:
                raise ShapeMismatch(f"{name} must be >= 1")


@dataclass
class TrainConfig:
    learning_rate: float = 1e-3
    batch_size: int = 32
    epochs: int = 20
    seed: int = 0

    def __post_init__(self):
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")


# ---------------------------------------------------------------------------
# parameters

def _param_shapes(config: ModelConfig) -> dict[str, tuple[int, ...]]:
    """Name -> shape of every parameter, in initialization order.

    The head has two outputs: imposter (class 0) and legitimate (class 1).
    """
    C, H, K = config.conv_channels, config.gru_hidden, config.res_kernel
    shapes = {"stem_w": (C, 1, config.kernel_size), "stem_b": (C,)}
    for i in range(config.res_blocks):
        shapes.update({f"res{i}_w1": (C, C, K), f"res{i}_b1": (C,),
                       f"res{i}_w2": (C, C, K), f"res{i}_b2": (C,)})
    for gate in ("z", "r", "c"):
        shapes.update({f"gru_w{gate}": (C, H), f"gru_u{gate}": (H, H),
                       f"gru_b{gate}": (H,)})
    shapes.update({"head_w": (H, 2), "head_b": (2,)})
    return shapes


def init_params(config: ModelConfig) -> dict[str, np.ndarray]:
    """Seeded uniform init scaled by 1/sqrt(fan_in); zero biases."""
    rng = np.random.default_rng(config.seed)
    params = {}
    for name, shape in _param_shapes(config).items():
        if len(shape) == 1:
            params[name] = np.zeros(shape)
            continue
        # conv kernels (out, in, k) take in * k inputs; dense maps (in, out) take in
        fan_in = shape[1] * shape[2] if len(shape) == 3 else shape[0]
        params[name] = rng.uniform(-1.0, 1.0, size=shape) / np.sqrt(fan_in)
    return params


def _check_shapes(params: dict[str, np.ndarray], config: ModelConfig):
    shapes = _param_shapes(config)
    got = {name: arr.shape for name, arr in params.items()}
    if got != shapes:
        mismatched = sorted(set(got.items()) ^ set(shapes.items()))
        raise ShapeMismatch(f"parameters do not match the config: {mismatched}")


# ---------------------------------------------------------------------------
# layers

def _conv1d(x: np.ndarray, w: np.ndarray, b: np.ndarray):
    """Length-preserving convolution of a (B, C, L) map by an (O, C, K) kernel.

    Returns the (B, O, L) output and the (B, L, C*K) window matrix of the
    zero-padded input, which backprop needs for the kernel gradient.
    """
    B, C, L = x.shape
    O, _, K = w.shape
    pad = K // 2
    # a zero-filled buffer, not np.pad: its per-call overhead dominates at batch 1
    xp = np.zeros((B, C, L + 2 * pad))
    xp[:, :, pad : pad + L] = x
    win = sliding_window_view(xp, K, axis=2).transpose(0, 2, 1, 3).reshape(B, L, C * K)
    y = (win @ w.reshape(O, C * K).T).transpose(0, 2, 1) + b[:, None]
    return y, win


def _conv1d_backward(dy: np.ndarray, win: np.ndarray, w: np.ndarray):
    """Kernel and bias gradients of _conv1d, given the output gradient and
    the window matrix of its forward call."""
    dw = np.tensordot(dy, win, axes=([0, 2], [0, 1])).reshape(w.shape)
    return dw, dy.sum(axis=(0, 2))


def _conv1d_adjoint(dy: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Input gradient of _conv1d, given the output gradient.

    With K odd and symmetric zero padding, <conv(x, w) - b, dy> =
    <x, conv(dy, w')> for w'[c, o, k] = w[o, c, K-1-k], so it is the same
    convolution run with the kernel flipped along k and its channel axes
    swapped.
    """
    dx, _ = _conv1d(dy, w[:, :, ::-1].transpose(1, 0, 2), np.zeros(w.shape[1]))
    return dx


def _sigmoid(x: np.ndarray) -> np.ndarray:
    return 0.5 * (1.0 + np.tanh(0.5 * x))


def standardize_batch(x: np.ndarray) -> np.ndarray:
    """Per-window standardization; std floored so constant windows map to 0."""
    mean = x.mean(axis=1, keepdims=True)
    std = np.maximum(x.std(axis=1, keepdims=True), STD_FLOOR)
    return (x - mean) / std


def batch_from_maus(maus) -> np.ndarray:
    return np.array([np.asarray(m.values, dtype=float) for m in maus])


# ---------------------------------------------------------------------------
# forward / backward

def forward(params: dict[str, np.ndarray], batch: np.ndarray, config: ModelConfig):
    """Class probabilities plus the activation cache backprop needs.

    batch is (B, input_length); rows are standardized here when the config
    asks for it.
    """
    _check_shapes(params, config)
    batch = np.asarray(batch, dtype=float)
    if batch.ndim != 2 or batch.shape[1] != config.input_length:
        raise ShapeMismatch(
            f"batch must be (B, {config.input_length}), got {batch.shape}"
        )
    x = standardize_batch(batch) if config.standardize else batch
    cache: dict = {"x": x, "res": []}

    h, stem_win = _conv1d(x[:, None, :], params["stem_w"], params["stem_b"])
    cache["stem_win"] = stem_win
    cache["stem_pre"] = h
    h = np.maximum(h, 0.0)
    cache["stem_out"] = h

    for i in range(config.res_blocks):
        y1_pre, win1 = _conv1d(h, params[f"res{i}_w1"], params[f"res{i}_b1"])
        y2, win2 = _conv1d(np.maximum(y1_pre, 0.0), params[f"res{i}_w2"], params[f"res{i}_b2"])
        pre = y2 + h
        cache["res"].append({"in": h, "win1": win1, "y1_pre": y1_pre, "win2": win2, "pre": pre})
        h = np.maximum(pre, 0.0)
    cache["conv_out"] = h

    # gated recurrent scan over the L time steps of channel vectors; hidden[t]
    # is the state before step t, and z, r, c are step t's gates
    hidden, zs, rs, cs = [np.zeros((len(x), config.gru_hidden))], [], [], []
    for t in range(h.shape[2]):
        xt, hprev = h[:, :, t], hidden[-1]
        zs.append(_sigmoid(xt @ params["gru_wz"] + hprev @ params["gru_uz"] + params["gru_bz"]))
        rs.append(_sigmoid(xt @ params["gru_wr"] + hprev @ params["gru_ur"] + params["gru_br"]))
        cs.append(np.tanh(
            xt @ params["gru_wc"] + (rs[-1] * hprev) @ params["gru_uc"] + params["gru_bc"]
        ))
        hidden.append((1.0 - zs[-1]) * hprev + zs[-1] * cs[-1])
    cache["gru"] = (hidden, zs, rs, cs)

    logits = hidden[-1] @ params["head_w"] + params["head_b"]
    logits -= logits.max(axis=1, keepdims=True)
    exp = np.exp(logits)
    probs = exp / exp.sum(axis=1, keepdims=True)
    cache["probs"] = probs
    return probs, cache


def cross_entropy(probs: np.ndarray, labels: np.ndarray) -> float:
    """Mean negative log probability of the true class."""
    probs = np.asarray(probs, dtype=float)
    labels = np.asarray(labels, dtype=int)
    if np.any((labels < 0) | (labels >= probs.shape[1])):
        raise LabelOutOfRange("labels must be in {0, 1}")
    picked = probs[np.arange(len(labels)), labels]
    return float(-np.mean(np.log(np.maximum(picked, PROB_FLOOR))))


def backward(
    params: dict[str, np.ndarray],
    labels: np.ndarray,
    cache: dict,
    config: ModelConfig,
) -> dict[str, np.ndarray]:
    """Analytic gradients of mean cross-entropy w.r.t. every parameter, for
    the batch whose forward pass produced cache."""
    labels = np.asarray(labels, dtype=int)
    B = len(cache["x"])
    if labels.shape != (B,):
        raise ShapeMismatch(f"expected {B} labels for the cached batch, got {labels.shape}")
    dlogits = cache["probs"].copy()
    dlogits[np.arange(B), labels] -= 1.0
    dlogits /= B

    # gates are (steps, B, H); hidden has one more state, the initial zeros
    hidden, z, r, c = (np.stack(seq) for seq in cache["gru"])
    hprev = hidden[:-1]
    grads = {"head_w": hidden[-1].T @ dlogits, "head_b": dlogits.sum(axis=0)}
    dh = dlogits @ params["head_w"].T

    # the scan carries only dh; each step's gate pre-activation gradients are
    # kept and contracted with the gate inputs once, after the loop
    dgate = {gate: np.empty_like(z) for gate in "zrc"}
    for t in range(len(z) - 1, -1, -1):
        dgate["c"][t] = dh * z[t] * (1.0 - c[t] * c[t])
        dgate["z"][t] = dh * (c[t] - hprev[t]) * z[t] * (1.0 - z[t])
        drh = dgate["c"][t] @ params["gru_uc"].T
        dgate["r"][t] = drh * hprev[t] * r[t] * (1.0 - r[t])
        dh = (dh * (1.0 - z[t]) + drh * r[t] + dgate["z"][t] @ params["gru_uz"].T
              + dgate["r"][t] @ params["gru_ur"].T)

    xs = cache["conv_out"].transpose(2, 0, 1)  # (steps, B, C)
    recurrent_in = {"z": hprev, "r": hprev, "c": r * hprev}
    steps_and_batch = ([0, 1], [0, 1])
    dxs = 0.0
    for gate in "zrc":
        grads[f"gru_w{gate}"] = np.tensordot(xs, dgate[gate], axes=steps_and_batch)
        grads[f"gru_u{gate}"] = np.tensordot(recurrent_in[gate], dgate[gate], axes=steps_and_batch)
        grads[f"gru_b{gate}"] = dgate[gate].sum(axis=(0, 1))
        dxs = dxs + dgate[gate] @ params[f"gru_w{gate}"].T

    dout = dxs.transpose(1, 2, 0)
    for i in range(config.res_blocks - 1, -1, -1):
        blk = cache["res"][i]
        dpre = dout * (blk["pre"] > 0)
        grads[f"res{i}_w2"], grads[f"res{i}_b2"] = _conv1d_backward(
            dpre, blk["win2"], params[f"res{i}_w2"])
        dy1 = _conv1d_adjoint(dpre, params[f"res{i}_w2"]) * (blk["y1_pre"] > 0)
        grads[f"res{i}_w1"], grads[f"res{i}_b1"] = _conv1d_backward(
            dy1, blk["win1"], params[f"res{i}_w1"])
        dout = _conv1d_adjoint(dy1, params[f"res{i}_w1"]) + dpre  # skip connection

    dstem = dout * (cache["stem_pre"] > 0)
    # the stem's input is the data, so it needs no input gradient
    grads["stem_w"], grads["stem_b"] = _conv1d_backward(
        dstem, cache["stem_win"], params["stem_w"])
    return grads


# ---------------------------------------------------------------------------
# optimization

@dataclass
class AdamState:
    m: dict[str, np.ndarray]
    v: dict[str, np.ndarray]
    t: int = 0

    @classmethod
    def zeros_like(cls, params: dict[str, np.ndarray]) -> "AdamState":
        return cls(
            m={k: np.zeros_like(p) for k, p in params.items()},
            v={k: np.zeros_like(p) for k, p in params.items()},
        )


def adam_step(
    params: dict[str, np.ndarray],
    grads: dict[str, np.ndarray],
    state: AdamState,
    cfg: TrainConfig,
) -> tuple[dict[str, np.ndarray], AdamState]:
    """Standard Adam with bias correction; returns fresh params and state."""
    if set(grads) != set(params):
        raise ShapeMismatch("gradient names do not match parameters")
    state.t += 1
    t = state.t
    out = {}
    for name, p in params.items():
        g = grads[name]
        if g.shape != p.shape:
            raise ShapeMismatch(f"{name}: gradient shape {g.shape} != {p.shape}")
        state.m[name] = ADAM_BETA1 * state.m[name] + (1 - ADAM_BETA1) * g
        state.v[name] = ADAM_BETA2 * state.v[name] + (1 - ADAM_BETA2) * g * g
        m_hat = state.m[name] / (1 - ADAM_BETA1**t)
        v_hat = state.v[name] / (1 - ADAM_BETA2**t)
        out[name] = p - cfg.learning_rate * m_hat / (np.sqrt(v_hat) + ADAM_EPSILON)
    return out, state


def train(
    X: np.ndarray,
    y: np.ndarray,
    mcfg: ModelConfig,
    tcfg: TrainConfig,
) -> tuple[dict[str, np.ndarray], list[float]]:
    """Minibatch Adam training; deterministic given the two seeds.

    X is (N, input_length); y holds labels in {0, 1} with 1 = legitimate.
    Returns final params and the per-epoch mean training loss.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=int)
    if X.ndim != 2 or X.shape[1] != mcfg.input_length:
        raise ShapeMismatch(f"X must be (N, {mcfg.input_length})")
    if len(set(y.tolist())) < 2:
        raise SingleClassDataset("training data must contain both classes")

    params = init_params(mcfg)
    state = AdamState.zeros_like(params)
    shuffle_rng = np.random.default_rng(tcfg.seed)
    history: list[float] = []
    for _ in range(tcfg.epochs):
        order = shuffle_rng.permutation(len(X))
        losses = []
        for start in range(0, len(X), tcfg.batch_size):
            idx = order[start : start + tcfg.batch_size]
            probs, cache = forward(params, X[idx], mcfg)
            losses.append(cross_entropy(probs, y[idx]) * len(idx))
            grads = backward(params, y[idx], cache, mcfg)
            params, state = adam_step(params, grads, state, tcfg)
        history.append(float(sum(losses) / len(X)))
    return params, history


def predict(params: dict[str, np.ndarray], mau, config: ModelConfig) -> float:
    """Probability that one MAU belongs to the legitimate user (class 1)."""
    values = np.asarray(getattr(mau, "values", mau), dtype=float)
    return float(predict_batch(params, values[None, :], config)[0])


def predict_batch(
    params: dict[str, np.ndarray], X: np.ndarray, config: ModelConfig
) -> np.ndarray:
    probs, _ = forward(params, X, config)
    return probs[:, 1]


# ---------------------------------------------------------------------------
# checkpoints

def save_checkpoint(path: str | Path, params: dict[str, np.ndarray], config: ModelConfig):
    payload = {
        "version": CHECKPOINT_VERSION,
        "config": asdict(config),
        "params": {k: v.tolist() for k, v in params.items()},
    }
    Path(path).write_text(json.dumps(payload))


def load_checkpoint(path: str | Path) -> tuple[dict[str, np.ndarray], ModelConfig]:
    payload = json.loads(Path(path).read_text())
    if payload.get("version") != CHECKPOINT_VERSION:
        raise ShapeMismatch(f"unsupported checkpoint version: {payload.get('version')}")
    if not isinstance(payload.get("config"), dict) or not isinstance(payload.get("params"), dict):
        raise ShapeMismatch('checkpoint needs a "config" and a "params" object')
    config_doc = dict(payload["config"])
    # checkpoints written before the head was fixed at two classes record it
    classes = config_doc.pop("classes", 2)
    if classes != 2 or set(config_doc) != {f.name for f in fields(ModelConfig)}:
        raise ShapeMismatch(f"checkpoint config does not match ModelConfig: {payload['config']}")
    config = ModelConfig(**config_doc)
    params = {k: np.asarray(v, dtype=float) for k, v in payload["params"].items()}
    _check_shapes(params, config)
    return params, config
