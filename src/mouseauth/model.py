"""Desk-scale authentication classifier over MAU speed windows.

Pipeline: length-preserving 1D conv stem -> residual conv blocks -> gated
recurrent scan over time steps -> dense softmax head. Everything is plain
numpy in double precision with hand-written backprop, so gradients can be
verified against finite differences.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass, asdict, fields
from pathlib import Path

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .errors import MouseAuthError

CHECKPOINT_VERSION = 1
PROB_FLOOR = 1e-12
STD_FLOOR = 1e-8
# Adam's moment decay rates and denominator guard (Kingma & Ba 2015 defaults)
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPSILON = 1e-8
# rows per forward call in predict_batch: a larger block grows memory, not speed
PREDICT_BLOCK = 128


def _is_integer(value) -> bool:
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


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
        sizes = ("input_length", "conv_channels", "kernel_size", "res_blocks",
                 "res_kernel", "gru_hidden")
        for name in sizes + ("seed",):
            value = getattr(self, name)
            if not _is_integer(value):
                raise MouseAuthError(f"{name} must be an integer, got {value!r}")
        if not isinstance(self.standardize, bool):
            raise MouseAuthError(f"standardize must be true or false, got {self.standardize!r}")
        if self.kernel_size % 2 == 0 or self.res_kernel % 2 == 0:
            raise MouseAuthError("kernel sizes must be odd (symmetric padding)")
        for name in sizes:
            if getattr(self, name) < 1:
                raise MouseAuthError(f"{name} must be >= 1")


@dataclass
class TrainConfig:
    learning_rate: float = 1e-3
    batch_size: int = 32
    epochs: int = 20
    seed: int = 0

    def __post_init__(self):
        # a bool or a string is not a rate; written so that NaN fails too
        rate = self.learning_rate
        if isinstance(rate, bool) or not isinstance(rate, numbers.Real) or not 0 < rate < np.inf:
            raise MouseAuthError("learning_rate must be positive and finite")
        for name in ("batch_size", "epochs"):
            value = getattr(self, name)
            # a float fails inside train and True trains at batch 1
            if not _is_integer(value) or value < 1:
                raise MouseAuthError(f"batch_size/epochs must be integers >= 1, got {name}={value!r}")


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
        raise MouseAuthError(f"parameters do not match the config: {mismatched}")


# ---------------------------------------------------------------------------
# layers

class _Workspace:
    """Named flat buffers that forward writes its activations into.

    A buffer is allocated when its name is first taken and reused by every
    later take that fits, so forward over row blocks, largest first,
    allocates once. A taken array is a C-ordered prefix of its buffer, valid
    until the name is taken again. A conv input keeps the zeros of its pad
    columns by never writing them: with rows on the leading axis, they sit
    at the same offsets for any row count.
    """

    def __init__(self):
        self._buffers: dict[str, np.ndarray] = {}

    def take(self, name: str, shape: tuple[int, ...], zeros: bool = False) -> np.ndarray:
        size = math.prod(shape)
        buf = self._buffers.get(name)
        if buf is None or buf.size < size:
            buf = self._buffers[name] = np.zeros(size) if zeros else np.empty(size)
        return buf[:size].reshape(shape)


def _conv1d(x: np.ndarray, w: np.ndarray, b: np.ndarray, ws: _Workspace | None = None,
            name: str = "conv"):
    """Length-preserving convolution of a (B, C, L) map by an (O, C, K) kernel.

    Returns the (B, O, L) output, a view of a (B, L, O) array, and the
    (B, L, C*K) window matrix of the zero-padded input, which backprop
    needs for the kernel gradient. Both are written into ws under name,
    or into fresh arrays without one.
    """
    B, C, L = x.shape
    O, _, K = w.shape
    pad = K // 2
    ws = ws or _Workspace()
    # a zero-filled buffer, not np.pad: its per-call overhead dominates at batch 1
    xp = ws.take(f"{name}.in", (B, C, L + 2 * pad), zeros=True)
    xp[:, :, pad : pad + L] = x
    # win[b, l, c, k] = xp[b, c, l + k], as a view copied into the window
    # matrix. sliding_window_view builds the same view, with more per-call
    # overhead
    s0, s1, s2 = xp.strides
    win = ws.take(f"{name}.win", (B, L, C * K))
    np.copyto(win.reshape(B, L, C, K), as_strided(xp, (B, L, C, K), (s0, s2, s1, s2)))
    y = np.matmul(win, w.reshape(O, C * K).T, out=ws.take(f"{name}.out", (B, L, O)))
    y = y.transpose(0, 2, 1)
    y += b[:, None]
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


def _sigmoid_inplace(x: np.ndarray):
    """x <- 0.5 * (1 + tanh(x / 2)), the logistic function without overflow."""
    x *= 0.5
    np.tanh(x, out=x)
    x += 1.0
    x *= 0.5


def standardize_batch(x: np.ndarray) -> np.ndarray:
    """Per-window standardization; std floored so constant windows map to 0."""
    mean = x.mean(axis=1, keepdims=True)
    std = np.maximum(x.std(axis=1, keepdims=True), STD_FLOOR)
    return (x - mean) / std


def batch_from_maus(maus) -> np.ndarray:
    return np.array([np.asarray(m.values, dtype=float) for m in maus])


# ---------------------------------------------------------------------------
# forward / backward

def _as_batch(batch: np.ndarray, config: ModelConfig) -> np.ndarray:
    batch = np.asarray(batch, dtype=float)
    if batch.ndim != 2 or batch.shape[1] != config.input_length:
        raise MouseAuthError(
            f"batch must be (B, {config.input_length}), got {batch.shape}"
        )
    return batch


def forward(params: dict[str, np.ndarray], batch: np.ndarray, config: ModelConfig,
            *, workspace: _Workspace | None = None):
    """Class probabilities plus the activation cache backprop needs.

    batch is (B, input_length); rows are standardized here when the config
    asks for it. Activations are written into fresh arrays, or into
    workspace when one is given (predict_batch's blocks); the returned
    cache then aliases it until the next call with the same workspace.
    """
    _check_shapes(params, config)
    batch = _as_batch(batch, config)
    ws = workspace or _Workspace()
    x = standardize_batch(batch) if config.standardize else batch
    cache: dict = {"x": x, "res": []}
    B, L = x.shape

    def relu(v, name):
        # into a (B, L, C) buffer, the layout of the conv outputs
        return np.maximum(v, 0.0, out=ws.take(name, (B, L, v.shape[1])).transpose(0, 2, 1))

    h, stem_win = _conv1d(x[:, None, :], params["stem_w"], params["stem_b"], ws, "stem")
    cache["stem_win"] = stem_win
    cache["stem_pre"] = h
    h = relu(h, "stem.relu")
    cache["stem_out"] = h

    for i in range(config.res_blocks):
        y1_pre, win1 = _conv1d(h, params[f"res{i}_w1"], params[f"res{i}_b1"], ws, f"res{i}.1")
        y2, win2 = _conv1d(relu(y1_pre, f"res{i}.1.relu"), params[f"res{i}_w2"],
                           params[f"res{i}_b2"], ws, f"res{i}.2")
        pre = np.add(y2, h, out=y2)  # in place: y2 is kept only as pre
        cache["res"].append({"in": h, "win1": win1, "y1_pre": y1_pre, "win2": win2, "pre": pre})
        h = relu(pre, f"res{i}.relu")
    cache["conv_out"] = h

    # gated recurrent scan over the L time steps of channel vectors. The gate
    # weights are stacked on a leading axis (z, r, c), so one matmul gives
    # every step's three input projections, before the scan, and one a
    # step's z and r recurrent terms. hidden[t] is the state before step t;
    # zr[t] = (z, r) and c[t] are step t's gates
    H = config.gru_hidden
    # np.array, not np.stack: its per-call overhead shows at batch 1
    w = np.array([params["gru_wz"], params["gru_wr"], params["gru_wc"]])
    b = np.array([params["gru_bz"], params["gru_br"], params["gru_bc"]])[:, None]
    u_zr = np.array([params["gru_uz"], params["gru_ur"]])
    # proj[t] holds step t's (z, r, c) input projections, (3, B, H)
    proj = np.matmul(h.transpose(2, 0, 1)[:, None], w, out=ws.take("gru.proj", (L, 3, B, H)))
    proj += b
    hidden = ws.take("gru.hidden", (L + 1, B, H))
    hidden[0] = 0.0  # a reused buffer holds an earlier block's states
    zr, c = ws.take("gru.zr", (L, 2, B, H)), ws.take("gru.c", (L, B, H))
    # every step writes into these arrays, so a large batch makes no
    # per-step temporaries
    for t in range(L):
        hprev, zr_t, c_t, hnext, proj_t = hidden[t], zr[t], c[t], hidden[t + 1], proj[t]
        np.matmul(hprev, u_zr, out=zr_t)
        zr_t += proj_t[:2]
        _sigmoid_inplace(zr_t)
        z, r = zr_t[0], zr_t[1]
        np.multiply(r, hprev, out=hnext)  # scratch until the state update
        np.matmul(hnext, params["gru_uc"], out=c_t)
        c_t += proj_t[2]
        np.tanh(c_t, out=c_t)
        # hnext = (1 - z) * hprev + z * c, with the spent proj_t[0] as scratch
        np.subtract(1.0, z, out=hnext)
        hnext *= hprev
        np.multiply(z, c_t, out=proj_t[0])
        hnext += proj_t[0]
    cache["gru"] = (hidden, zr, c)

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
        raise MouseAuthError("labels must be in {0, 1}")
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
        raise MouseAuthError(f"expected {B} labels for the cached batch, got {labels.shape}")
    dlogits = cache["probs"].copy()
    dlogits[np.arange(B), labels] -= 1.0
    dlogits /= B

    # hidden is (steps + 1, B, H), its first state the initial zeros; zr is
    # (steps, 2, B, H) and c (steps, B, H)
    hidden, zr, c = cache["gru"]
    hprev = hidden[:-1]
    steps, _, H = c.shape
    grads = {"head_w": hidden[-1].T @ dlogits, "head_b": dlogits.sum(axis=0)}
    dh = dlogits @ params["head_w"].T

    # the scan carries only dh; each step's gate pre-activation gradients are
    # kept, gates side by side in dgate[t] = (B, [z, r, c], H), and contracted
    # with the gate inputs once, after the loop. One matmul against the
    # stacked [uz^T; ur^T] carries dz and dr back together
    dgate = np.empty((steps, B, 3, H))
    u_zr_t = np.concatenate([params["gru_uz"].T, params["gru_ur"].T])
    uc_t = params["gru_uc"].T
    for t in range(steps - 1, -1, -1):
        z, r, ct, hp, dg = zr[t, 0], zr[t, 1], c[t], hprev[t], dgate[t]
        np.multiply(dh * z, 1.0 - ct * ct, out=dg[:, 2])
        np.multiply(dh * (ct - hp) * z, 1.0 - z, out=dg[:, 0])
        drh = dg[:, 2] @ uc_t
        np.multiply(drh * hp * r, 1.0 - r, out=dg[:, 1])
        dh = dh * (1.0 - z) + drh * r + dg[:, :2].reshape(B, 2 * H) @ u_zr_t

    xs = cache["conv_out"].transpose(2, 0, 1)  # (steps, B, C)
    steps_and_batch = ([0, 1], [0, 1])
    dw = np.tensordot(xs, dgate, axes=steps_and_batch)  # (C, 3, H)
    du_zr = np.tensordot(hprev, dgate[:, :, :2], axes=steps_and_batch)  # (H, 2, H)
    db = dgate.sum(axis=(0, 1))
    for i, gate in enumerate("zrc"):
        grads[f"gru_w{gate}"], grads[f"gru_b{gate}"] = dw[:, i], db[i]
    grads["gru_uz"], grads["gru_ur"] = du_zr[:, 0], du_zr[:, 1]
    grads["gru_uc"] = np.tensordot(zr[:, 1] * hprev, dgate[:, :, 2], axes=steps_and_batch)
    w_t = np.concatenate([params["gru_wz"].T, params["gru_wr"].T, params["gru_wc"].T])
    dxs = dgate.reshape(steps, B, 3 * H) @ w_t

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
        raise MouseAuthError("gradient names do not match parameters")
    state.t += 1
    t = state.t
    out = {}
    for name, p in params.items():
        g = grads[name]
        if g.shape != p.shape:
            raise MouseAuthError(f"{name}: gradient shape {g.shape} != {p.shape}")
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
    X = _as_batch(X, mcfg)
    y = np.asarray(y, dtype=int)
    if len(set(y.tolist())) < 2:
        raise MouseAuthError("training data must contain both classes")

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
    """Class 1 probability of every row of X.

    Rows go through forward in blocks of PREDICT_BLOCK over one workspace,
    so memory does not grow with the rows. Each row's score is computed
    from that row alone.
    """
    _check_shapes(params, config)
    X = _as_batch(X, config)
    ws = _Workspace()
    scores = np.empty(len(X))
    for start in range(0, len(X), PREDICT_BLOCK):
        probs, _ = forward(params, X[start : start + PREDICT_BLOCK], config, workspace=ws)
        scores[start : start + len(probs)] = probs[:, 1]
    return scores


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
        raise MouseAuthError(f"unsupported checkpoint version: {payload.get('version')}")
    if not isinstance(payload.get("config"), dict) or not isinstance(payload.get("params"), dict):
        raise MouseAuthError('checkpoint needs a "config" and a "params" object')
    config_doc = dict(payload["config"])
    # checkpoints written before the head was fixed at two classes record it
    classes = config_doc.pop("classes", 2)
    if classes != 2 or set(config_doc) != {f.name for f in fields(ModelConfig)}:
        raise MouseAuthError(f"checkpoint config does not match ModelConfig: {payload['config']}")
    config = ModelConfig(**config_doc)
    params = {k: np.asarray(v, dtype=float) for k, v in payload["params"].items()}
    _check_shapes(params, config)
    return params, config
