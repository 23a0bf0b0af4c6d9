"""Desk-scale authentication classifier over MAU speed windows.

Pipeline: length-preserving 1D conv stem -> residual conv blocks -> gated
recurrent scan over time steps -> dense softmax head. Everything is plain
numpy in double precision with hand-written backprop, so gradients can be
verified against finite differences.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass, asdict, fields
from pathlib import Path

import numpy as np

from .errors import MouseAuthError, are_labels, is_integer, is_positive_finite

CHECKPOINT_VERSION = 1
PROB_FLOOR = 1e-12
STD_FLOOR = 1e-8
# Adam's moment decay rates and denominator guard (Kingma & Ba 2015 defaults)
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPSILON = 1e-8
# rows per layer pass in predict_batch: a larger block grows memory, not speed
PREDICT_BLOCK = 128


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
            if not is_integer(value):
                raise MouseAuthError(f"{name} must be an integer, got {value!r}")
        if not isinstance(self.standardize, bool):
            raise MouseAuthError(f"standardize must be true or false, got {self.standardize!r}")
        if self.kernel_size % 2 == 0 or self.res_kernel % 2 == 0:
            raise MouseAuthError("kernel sizes must be odd (symmetric padding)")
        for name in sizes:
            if getattr(self, name) < 1:
                raise MouseAuthError(f"{name} must be >= 1")
        if self.seed < 0:  # np.random.default_rng takes no negative seed
            raise MouseAuthError(f"seed must be an integer >= 0, got {self.seed!r}")


@dataclass
class TrainConfig:
    learning_rate: float = 1e-3
    batch_size: int = 32
    epochs: int = 20
    seed: int = 0

    def __post_init__(self):
        if not is_positive_finite(self.learning_rate):
            raise MouseAuthError("learning_rate must be positive and finite")
        for name in ("batch_size", "epochs"):
            value = getattr(self, name)
            # a float fails inside train and True trains at batch 1
            if not is_integer(value) or value < 1:
                raise MouseAuthError(f"batch_size/epochs must be integers >= 1, got {name}={value!r}")
        if not is_integer(self.seed) or self.seed < 0:
            raise MouseAuthError(f"seed must be an integer >= 0, got {self.seed!r}")


# ---------------------------------------------------------------------------
# parameters

@functools.cache
def _param_shapes(config: ModelConfig) -> dict[str, tuple[int, ...]]:
    """Name -> shape of every parameter, in initialization order; cached, so read only.

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
    """Named buffers that _forward writes its activations into.

    A buffer is allocated when its name is first taken and reused by every
    later take that fits, so _forward over row blocks, largest first,
    allocates once. A taken array is a C-ordered prefix of its buffer, valid
    until the name is taken again, and holds whatever the buffer last held.
    """

    def __init__(self):
        self._buffers: dict[str, np.ndarray] = {}

    def take(self, name: str, shape: tuple[int, ...]) -> np.ndarray:
        buf = self._buffers.get(name)
        if buf is not None:
            size = math.prod(shape)
            if buf.size >= size:
                return buf.reshape(-1)[:size].reshape(shape)
        buf = self._buffers[name] = np.empty(shape)
        return buf


# A conv layer's input map of L steps over B rows is kept time-major in a
# C-ordered strip of shape (L + 2 * pad, C, B), pad = K // 2: strip[pad + l]
# holds step l's channels, and the pad steps at each end hold zeros. So the
# K * C * B values of steps l .. l + K - 1 are contiguous, and each output
# step's window is a view of the strip.

def _kernel(w: np.ndarray) -> np.ndarray:
    """An (O, C, K) conv kernel as the (K * C, O) matrix _conv multiplies by."""
    O, C, K = w.shape
    return w.transpose(2, 1, 0).reshape(K * C, O)


def _windows(strip: np.ndarray, L: int) -> np.ndarray:
    """The (L, K * C, B) view of a strip whose l-th matrix is its steps
    l .. l + K - 1; as_strided builds the same view with more per-call
    overhead."""
    S, C, B = strip.shape
    return np.ndarray((L, (S - L + 1) * C, B), buffer=strip, strides=strip.strides)


def _conv(strip: np.ndarray, kernel: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Length-preserving convolution of a strip by a kernel given as its
    (K * C, O) matrix (_kernel), written into the (L, O, B) out: one matmul
    of the kernel's transpose over the windows, without a copy of them.

    One row's windows are one (L, K * C) matrix, copied, as numpy would
    otherwise take L matrix-vector products, which BLAS sums in another
    order than the matrix product of a larger batch.
    """
    windows = _windows(strip, len(out))
    if windows.shape[2] == 1:
        np.matmul(windows[:, :, 0].copy(), kernel, out=out[:, :, 0])
    else:
        np.matmul(kernel.T, windows, out=out)
    return out


def _conv_grads(dy: np.ndarray, strip: np.ndarray):
    """Kernel and bias gradients of _conv over a strip, given the (L, O, B)
    output gradient: each step's product with its window, summed over the
    steps."""
    L, O, _ = dy.shape
    dw = np.matmul(dy, _windows(strip, L).transpose(0, 2, 1)).sum(axis=0)
    return dw.reshape(O, -1, strip.shape[1]).transpose(0, 2, 1), dy.sum(axis=(0, 2))


def _conv_adjoint(dy: np.ndarray, w: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Input gradient of _conv, given the output gradient as a strip with
    zero pad steps, written into the (L, C, B) out.

    With K odd and symmetric zero padding, <conv(x, w) - b, dy> =
    <x, conv(dy, w')> for w'[c, o, k] = w[o, c, K-1-k], so it is the same
    convolution run with the kernel flipped along k and its channel axes
    swapped.
    """
    return _conv(dy, _kernel(w[:, :, ::-1].transpose(1, 0, 2)), out)


def standardize_batch(x: np.ndarray) -> np.ndarray:
    """Per-window standardization; std floored so constant windows map to 0.

    These are np.std's own steps, sharing the centred windows, so the values
    are the same; each mean is an add-reduce divided by the count, as in
    np.mean, without its Python wrapper.
    """
    L = x.shape[1]
    centred = x - np.add.reduce(x, 1, keepdims=True) / L
    std = np.sqrt(np.add.reduce(centred * centred, 1, keepdims=True) / L)
    centred /= np.maximum(std, STD_FLOOR)
    return centred


# bench/workloads.py stacks its warm-up MAUs with this
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


def _prepare(params: dict[str, np.ndarray], config: ModelConfig) -> dict[str, np.ndarray]:
    """The weights _forward reads, in the layouts its GEMMs read.

    Each conv kernel becomes its _kernel matrix, under its own name; the
    other parameters, the biases and the head among them, pass through.
    "gru_w" is the GRU's input weights over their biases, gates (z, r, c)
    side by side, and "gru_u_zr" the z and r recurrent weights, each a
    C-ordered block seen transposed, with its z and r parts halved (see the
    scan); "gru_uc" is the c recurrent weights transposed. A matmul can
    round differently when a weight's row stride changes, so no two of them
    share a block.
    """
    C, H = config.conv_channels, config.gru_hidden
    weights = {name: _kernel(w) if w.ndim == 3 else w for name, w in params.items()}
    w, u_zr = np.empty((C + 1, 3 * H)), np.empty((H, 2 * H))
    np.concatenate([params["gru_wz"], params["gru_wr"], params["gru_wc"]], axis=1, out=w[:C])
    np.concatenate([params["gru_bz"], params["gru_br"], params["gru_bc"]], out=w[C])
    np.concatenate([params["gru_uz"], params["gru_ur"]], axis=1, out=u_zr)
    w[:, : 2 * H] *= 0.5
    u_zr *= 0.5
    weights["gru_w"], weights["gru_u_zr"], weights["gru_uc"] = w.T, u_zr.T, params["gru_uc"].T
    return weights


def forward(params: dict[str, np.ndarray], batch: np.ndarray, config: ModelConfig):
    """Class probabilities plus the activation cache backprop needs.

    batch is (B, input_length), its rows standardized here when the config
    asks; the cache holds what backward reads, in the layout it reads it.
    """
    _check_shapes(params, config)
    return _forward(_prepare(params, config), _as_batch(batch, config), config, _Workspace())


def _forward(weights: dict[str, np.ndarray], batch: np.ndarray, config: ModelConfig,
             ws: _Workspace):
    """forward's layers over _prepare'd weights and a checked batch; the
    activations, and so the returned cache, live in ws until its next use."""
    B, L = batch.shape
    C, H = config.conv_channels, config.gru_hidden
    pad = config.res_kernel // 2

    def strip(name, pad, channels):
        """A strip, its pad steps zeroed, and its (L, channels, B) map."""
        s = ws.take(name, (L + 2 * pad, channels, B))
        s[:pad] = 0.0
        s[pad + L :] = 0.0
        return s, s[pad : pad + L]

    def conv_relu(strip, w, b, out, skip=None):
        """out = relu(conv(strip, weights[w]) + weights[b] (+ skip)), in
        place; the adds and the ReLU run along the contiguous B axis."""
        _conv(strip, weights[w], out)
        out += weights[b][:, None]
        if skip is not None:
            out += skip
        return np.maximum(out, 0.0, out=out)

    x_strip, x = strip("stem.in", config.kernel_size // 2, 1)
    x[:, 0] = (standardize_batch(batch) if config.standardize else batch).T
    h_strip, h = strip("res0.in", pad, C)
    conv_relu(x_strip, "stem_w", "stem_b", h)

    # each ReLU writes into the next conv's strip, and the last one into the
    # GRU's (L, C + 1, B) input, whose last row holds ones for the biases.
    # Backward reads each conv's input strip, and its ReLU's mask from the
    # output: relu(a) > 0 exactly where a > 0
    gru_in = ws.take("gru.in", (L, C + 1, B))
    cache: dict = {"conv_in": [x_strip]}
    for i in range(config.res_blocks):
        mid_strip, mid = strip(f"res{i}.mid", pad, C)
        conv_relu(h_strip, f"res{i}_w1", f"res{i}_b1", mid)
        if i + 1 < config.res_blocks:
            out_strip, out = strip(f"res{i + 1}.in", pad, C)
        else:
            out_strip, out = None, gru_in[:, :C]
        conv_relu(mid_strip, f"res{i}_w2", f"res{i}_b2", out, skip=h)
        cache["conv_in"] += [h_strip, mid_strip]
        h_strip, h = out_strip, out

    # gated recurrent scan over the L time steps of channel vectors, feature
    # major: step t's input, state and gates are (features, B) blocks, so
    # every slice the scan takes is contiguous. The gate weights (z, r, c)
    # sit over their biases, which meet the input's row of ones, so one
    # matmul gives every step's input projections, biases added, before the
    # scan, and the scan adds each step's recurrent terms to them in place:
    # one dot gives z's and r's. sigmoid(a) = (1 + tanh(a / 2)) / 2, and
    # _prepare halves the z and r weights and biases, which is exact, so the
    # scan takes tanh of its sums directly. hidden[t] is the state before
    # step t, and gates[t] holds step t's z, r and c
    H2 = 2 * H
    gru_in[:, C] = 1.0
    gates = np.matmul(weights["gru_w"], gru_in, out=ws.take("gru.gates", (L, 3 * H, B)))
    # hidden[0], the initial state, is the buffer's first H * B values, which
    # an earlier pass over fewer rows wrote its later states into
    hidden = ws.take("gru.hidden", (L + 1, H, B))
    hidden[0] = 0.0
    zr, c = gates[:, :H2], gates[:, H2:]
    rh = ws.take("gru.rh", (H, B))  # a step's r * h, which backward recomputes
    rec = ws.take("gru.rec", (H2, B))  # a step's recurrent terms
    rec_c, dot_zr, dot_c = rec[:H], weights["gru_u_zr"].dot, weights["gru_uc"].dot
    hprev = hidden[0]
    # every step writes into these arrays, so a large batch makes no
    # per-step temporaries. At one row each call costs far more than its
    # arithmetic, so the calls are made as cheap as numpy allows, with the
    # same values: ndarray.dot skips np.dot's dispatch, the ufuncs are local
    # names with positional outputs, and the sigmoid's 1 and 1/2 are 0-d
    # arrays, which a call need not convert as it does a Python float
    add, multiply, subtract, tanh = np.add, np.multiply, np.subtract, np.tanh
    one, half = np.array(1.0), np.array(0.5)
    for hnext, zr_t, z, r, c_t in zip(hidden[1:], zr, zr[:, :H], zr[:, H:], c):
        dot_zr(hprev, rec)
        add(zr_t, rec, zr_t)
        tanh(zr_t, zr_t)
        add(zr_t, one, zr_t)
        multiply(zr_t, half, zr_t)
        multiply(r, hprev, rh)
        dot_c(rh, rec_c)
        add(c_t, rec_c, c_t)
        tanh(c_t, c_t)
        # hnext = (1 - z) * hprev + z * c
        subtract(c_t, hprev, hnext)
        multiply(hnext, z, hnext)
        add(hnext, hprev, hnext)
        hprev = hnext
    cache["gru"] = (hidden, zr, c)
    cache["gru_in"] = gru_in

    # a softmax over the two classes, in place; ndarray.dot gives the
    # product's values at less cost per call than @, and the reductions are
    # the ufuncs' own, which max and sum call
    logits = hidden[-1].T.dot(weights["head_w"])
    logits += weights["head_b"]
    logits -= np.maximum.reduce(logits, 1, keepdims=True)
    probs = np.exp(logits, out=logits)
    probs /= np.add.reduce(probs, 1, keepdims=True)
    cache["probs"] = probs
    return probs, cache


def _labels(labels, rows: int, batch: str = "batch") -> np.ndarray:
    """labels as ints; MouseAuthError unless there is one per row, each 0 or 1."""
    if not are_labels(labels):
        raise MouseAuthError("labels must be in {0, 1}")
    labels = np.asarray(labels, dtype=int)
    if labels.shape != (rows,):
        raise MouseAuthError(f"expected {rows} labels for the {batch}, got {labels.shape}")
    return labels


def cross_entropy(probs: np.ndarray, labels: np.ndarray) -> float:
    """Mean negative log probability of the true class."""
    probs = np.asarray(probs, dtype=float)
    labels = _labels(labels, len(probs))
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
    B = len(cache["probs"])
    labels = _labels(labels, B, "cached batch")
    dlogits = cache["probs"].copy()
    dlogits[np.arange(B), labels] -= 1.0
    dlogits /= B

    # the scan's arrays are feature major: hidden is (L + 1, H, B), its first
    # state the initial zeros; zr is (L, 2H, B), c is (L, H, B)
    hidden, zr, c = cache["gru"]
    hprev = hidden[:-1]
    L, H, _ = c.shape
    H2 = 2 * H
    grads = {"head_w": hidden[-1] @ dlogits, "head_b": dlogits.sum(axis=0)}
    dh = params["head_w"] @ dlogits.T  # (H, B)

    # the scan carries only dh. The factors of each step's gate gradients
    # that do not depend on dh are computed for all steps before it: dc =
    # dh z (1 - c^2), dz = dh (c - h) z (1 - z) and dr = d(rh) h r (1 - r).
    # The pre-activation gradients are kept stacked, dgate[t] = ([z, r, c],
    # B), and contracted with the gate inputs after the loop. One dot with
    # [uz, ur] carries dz and dr back together
    z, r = zr[:, :H], zr[:, H:]
    rh = r * hprev  # the scan's r * h, the same products
    keep = 1.0 - z
    c_factor = z * (1.0 - c * c)
    z_factor = (c - hprev) * z * keep
    r_factor = rh * (1.0 - r)
    dgate = np.empty((L, 3 * H, B))
    drh = np.empty((H, B))
    u_zr = np.concatenate([params["gru_uz"], params["gru_ur"]], axis=1)
    uc = params["gru_uc"]
    for t in range(L - 1, -1, -1):
        dg = dgate[t]
        np.multiply(dh, c_factor[t], out=dg[H2:])
        np.multiply(dh, z_factor[t], out=dg[:H])
        uc.dot(dg[H2:], drh)
        np.multiply(drh, r_factor[t], out=dg[H:H2])
        # dh <- dh (1 - z) + d(rh) r + [uz, ur] [dz; dr]
        dh *= keep[t]
        drh *= r[t]
        dh += drh
        dh += u_zr.dot(dg[:H2], drh)

    # each weight gradient sums a per-step product over the steps; the
    # input's row of ones gives the bias gradients in the last column
    C = config.conv_channels
    dwb = np.matmul(dgate, cache["gru_in"].transpose(0, 2, 1)).sum(axis=0)  # (3H, C + 1)
    du_zr = np.matmul(dgate[:, :H2], hprev.transpose(0, 2, 1)).sum(axis=0)  # (2H, H)
    for i, gate in enumerate("zrc"):
        gate_rows = dwb[i * H : (i + 1) * H]
        grads[f"gru_w{gate}"], grads[f"gru_b{gate}"] = gate_rows[:, :C].T, gate_rows[:, C]
    grads["gru_uz"], grads["gru_ur"] = du_zr[:H].T, du_zr[H:].T
    grads["gru_uc"] = np.matmul(dgate[:, H2:], rh.transpose(0, 2, 1)).sum(axis=0).T

    # conv layers, back to front. Each conv's pre-activation gradient is the
    # (L, C, B) map of a strip whose zero pad steps the adjoint reads, masked
    # by its ReLU's output; the last conv's comes from the GRU's input
    # weights with no transpose
    def grad_strip(pad):
        s = np.zeros((L + 2 * pad, C, B))
        return s, s[pad : pad + L]

    pad = config.res_kernel // 2
    ins = cache["conv_in"]
    w = np.concatenate([params["gru_wz"], params["gru_wr"], params["gru_wc"]], axis=1)
    dpre_strip, dpre = grad_strip(pad)
    np.matmul(w, dgate, out=dpre)
    np.multiply(dpre, cache["gru_in"][:, :C] > 0, out=dpre)
    for i in range(config.res_blocks - 1, -1, -1):
        in_strip, mid_strip = ins[2 * i + 1], ins[2 * i + 2]
        grads[f"res{i}_w2"], grads[f"res{i}_b2"] = _conv_grads(dpre, mid_strip)
        dmid_strip, dmid = grad_strip(pad)
        _conv_adjoint(dpre_strip, params[f"res{i}_w2"], dmid)
        np.multiply(dmid, mid_strip[pad : pad + L] > 0, out=dmid)
        grads[f"res{i}_w1"], grads[f"res{i}_b1"] = _conv_grads(dmid, in_strip)
        # the stem's output gradient needs no pad steps: the stem's input is
        # the data, so it takes no adjoint
        din_strip, din = grad_strip(pad if i else 0)
        _conv_adjoint(dmid_strip, params[f"res{i}_w1"], din)
        din += dpre  # skip connection
        np.multiply(din, in_strip[pad : pad + L] > 0, out=din)
        dpre_strip, dpre = din_strip, din
    grads["stem_w"], grads["stem_b"] = _conv_grads(dpre, ins[0])
    return grads


# ---------------------------------------------------------------------------
# optimization

@dataclass
class AdamState:
    """Adam's moment estimates over every parameter as one flat vector, in
    the parameters' dict order, and the step count."""

    m: np.ndarray
    v: np.ndarray
    t: int = 0

    @classmethod
    def zeros_like(cls, params: dict[str, np.ndarray]) -> "AdamState":
        size = sum(p.size for p in params.values())
        return cls(m=np.zeros(size), v=np.zeros(size))


def adam_step(
    params: dict[str, np.ndarray],
    grads: dict[str, np.ndarray],
    state: AdamState,
    cfg: TrainConfig,
) -> tuple[dict[str, np.ndarray], AdamState]:
    """Standard Adam with bias correction; returns fresh params and state.

    Adam is element-wise, so it runs once over all parameters as one flat
    vector; the returned params are named views of that vector.
    """
    if set(grads) != set(params):
        raise MouseAuthError("gradient names do not match parameters")
    for name, p in params.items():
        if grads[name].shape != p.shape:
            raise MouseAuthError(f"{name}: gradient shape {grads[name].shape} != {p.shape}")
    # axis=None flattens each array in turn
    p = np.concatenate(list(params.values()), axis=None)
    g = np.concatenate([grads[name] for name in params], axis=None)
    if state.m.shape != p.shape or state.v.shape != p.shape:
        raise MouseAuthError(f"Adam state holds {state.m.size} values, the parameters {p.size}")
    state.t += 1
    t = state.t
    state.m = ADAM_BETA1 * state.m + (1 - ADAM_BETA1) * g
    state.v = ADAM_BETA2 * state.v + (1 - ADAM_BETA2) * g * g
    m_hat = state.m / (1 - ADAM_BETA1**t)
    v_hat = state.v / (1 - ADAM_BETA2**t)
    flat = p - cfg.learning_rate * m_hat / (np.sqrt(v_hat) + ADAM_EPSILON)
    out, start = {}, 0
    for name, value in params.items():
        out[name] = flat[start : start + value.size].reshape(value.shape)
        start += value.size
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
    # before the first batch, so no epoch runs on a bad label or a NaN input,
    # which would turn every parameter NaN
    if not np.isfinite(X).all():
        raise MouseAuthError("training inputs must be finite")
    y = _labels(y, len(X))
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
    # bench/workloads.py passes a Mau in its warm-up
    return float(predict_batch(params, [getattr(mau, "values", mau)], config)[0])


def predict_batch(
    params: dict[str, np.ndarray], X: np.ndarray, config: ModelConfig
) -> np.ndarray:
    """Class 1 probability of every row of X.

    The params are checked and laid out once per call, and the rows go
    through forward's layers in blocks of PREDICT_BLOCK over one workspace,
    so memory does not grow with the rows; a row's score depends on it alone.
    """
    _check_shapes(params, config)
    weights, X, ws = _prepare(params, config), _as_batch(X, config), _Workspace()
    scores = np.empty(len(X))
    for start in range(0, len(X), PREDICT_BLOCK):
        probs, _ = _forward(weights, X[start : start + PREDICT_BLOCK], config, ws)
        scores[start : start + len(probs)] = probs[:, 1]
    return scores


# ---------------------------------------------------------------------------
# checkpoints

def save_checkpoint(path: str | Path, params: dict[str, np.ndarray], config: ModelConfig,
                    split: dict | None = None):
    """Write the parameters, the config and the record of the training split."""
    payload = {
        "version": CHECKPOINT_VERSION,
        "config": asdict(config),
        "params": {k: v.tolist() for k, v in params.items()},
        "split": split,
    }
    Path(path).write_text(json.dumps(payload))


# bench/workloads.py loads the CLI's checkpoint with this
def load_checkpoint(path: str | Path) -> tuple[dict[str, np.ndarray], ModelConfig]:
    return read_checkpoint(path)[:2]


def read_checkpoint(path: str | Path) -> tuple[dict[str, np.ndarray], ModelConfig, object]:
    """The parameters, config and split record (or None) save_checkpoint wrote."""
    payload = json.loads(Path(path).read_text())
    if not isinstance(payload, dict):
        raise MouseAuthError(f"checkpoint must hold a JSON object, got a {type(payload).__name__}")
    # true and 1.0 equal 1, so the type is compared too
    version = payload.get("version")
    if type(version) is not int or version != CHECKPOINT_VERSION:
        raise MouseAuthError(f"unsupported checkpoint version: {version!r}")
    if not isinstance(payload.get("config"), dict) or not isinstance(payload.get("params"), dict):
        raise MouseAuthError('checkpoint needs a "config" and a "params" object')
    if set(payload["config"]) != {f.name for f in fields(ModelConfig)}:
        raise MouseAuthError(f"checkpoint config does not match ModelConfig: {payload['config']}")
    config = ModelConfig(**payload["config"])
    params = {}
    for name, value in payload["params"].items():
        # float() would read a null as NaN, and a string such as "0.1" or a
        # bool as a number; bool is an int subclass, so types compare exactly
        leaves = np.asarray(value, dtype=object)
        if not all(type(leaf) in (int, float) for leaf in leaves.flat):
            raise MouseAuthError(f"checkpoint parameter {name} holds a value that is not a JSON number")
        try:
            array = leaves.astype(float)
        except OverflowError:  # an integer past the float range
            array = np.array(np.inf)
        if not np.isfinite(array).all():  # 1e999 reads as inf
            raise MouseAuthError(f"checkpoint parameter {name} holds a non-finite value")
        params[name] = array
    _check_shapes(params, config)
    return params, config, payload.get("split")
