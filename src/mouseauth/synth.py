"""Seeded synthetic velocity generators used as ground-truth test substrate.

The generator is SplitMix64 (Steele, Lea & Flood 2014), chosen because it is
fully defined by three constants and a handful of shifts, so any
reimplementation reproduces the exact same streams:

    state   += 0x9E3779B97F4A7C15                    (mod 2^64)
    z = state
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9         (mod 2^64)
    z = (z ^ (z >> 27)) * 0x94D049BB133111EB         (mod 2^64)
    output = z ^ (z >> 31)

Uniform doubles are output / 2^64; normals come from the Box-Muller
transform on consecutive uniform pairs, through the platform's libm as
math.log, math.cos and math.sin compute them.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field

import numpy as np

from .errors import MouseAuthError
from .kinematics import VelocitySequence, check_dt

_MASK = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


class SplitMix64:
    """Deterministic 64-bit generator; see module docstring for constants."""

    def __init__(self, seed: int):
        self.state = seed & _MASK

    def next_u64(self) -> int:
        self.state = (self.state + _GAMMA) & _MASK
        z = self.state
        z = ((z ^ (z >> 30)) * _MIX1) & _MASK
        z = ((z ^ (z >> 27)) * _MIX2) & _MASK
        return z ^ (z >> 31)

    def uniform(self) -> float:
        return self.next_u64() / 2.0**64

    def normals(self, n: int) -> np.ndarray:
        """n standard-normal draws via Box-Muller on uniform pairs.

        The uniforms come from the same stream as `uniform`, generated as
        one uint64 array; `state` advances past every draw used.
        """
        pairs = np.empty((0, 2))
        while len(pairs) < (n + 1) // 2:
            draws = 2 * ((n + 1) // 2 - len(pairs))
            z = np.uint64(self.state) + _GAMMA * np.arange(1, draws + 1, dtype=np.uint64)
            self.state = (self.state + _GAMMA * draws) & _MASK
            z = (z ^ (z >> np.uint64(30))) * np.uint64(_MIX1)
            z = (z ^ (z >> np.uint64(27))) * np.uint64(_MIX2)
            u = ((z ^ (z >> np.uint64(31))).astype(float) / 2.0**64).reshape(-1, 2)
            # a pair with u1 = 0 (probability 2^-64) is dropped: log(0) guard
            pairs = np.concatenate([pairs, u[u[:, 0] > 0.0]])
        # math's libm calls over lists, not numpy's ufuncs, whose SIMD log
        # differs in the last bit on some inputs and CPUs; sqrt and the
        # products are correctly rounded either way
        k = len(pairs)
        radius = np.sqrt(-2.0 * np.fromiter(map(math.log, pairs[:, 0].tolist()), float, k))
        angle = ((2.0 * math.pi) * pairs[:, 1]).tolist()
        out = np.empty_like(pairs)
        out[:, 0] = radius * np.fromiter(map(math.cos, angle), float, k)
        out[:, 1] = radius * np.fromiter(map(math.sin, angle), float, k)
        return out.ravel()[:n]


# each kind's parameter names and their defaults
KINDS = {
    "gaussian_iid": {"mean": 0.0, "std": 1.0},
    "ar1": {"phi": 0.5, "sigma": 1.0, "mean": 0.0},
    "sine_plus_noise": {"amplitude": 1.0, "period": 100.0, "noise_std": 0.0, "mean": 0.0},
}


@dataclass(frozen=True)
class SynthSpec:
    """Specification of one synthetic velocity sequence, checked on creation.

    kind names an entry of KINDS, and params may set any of its parameters;
    the others keep their defaults. ar1 needs |phi| < 1 and adds its mean
    after the zero-mean recursion. Speeds are clamped at zero after
    generation.
    """

    kind: str
    params: dict = field(default_factory=dict)
    length: int = 1000
    seed: int = 0

    def __post_init__(self):
        # type() is int excludes bool
        if type(self.length) is not int or type(self.seed) is not int:
            raise MouseAuthError(
                f"length and seed must be ints, got {self.length!r} and {self.seed!r}"
            )
        if self.length < 1:
            raise MouseAuthError("length must be >= 1")
        if self.kind not in KINDS:
            raise MouseAuthError(f"unknown kind {self.kind!r}")
        defaults = KINDS[self.kind]
        if not isinstance(self.params, dict) or not set(self.params) <= set(defaults):
            raise MouseAuthError(
                f"{self.kind} params are among {list(defaults)}, got {self.params!r}"
            )
        p = {**defaults, **self.params}
        # abs() compares an int of any size exactly, and inf and nan fail
        if not all((type(v) is int or isinstance(v, float)) and abs(v) <= sys.float_info.max
                   for v in p.values()):
            raise MouseAuthError(f"params must be finite numbers, got {self.params!r}")
        if self.kind == "gaussian_iid":
            if p["std"] <= 0:
                raise MouseAuthError("std must be positive")
        elif self.kind == "ar1":
            if abs(p["phi"]) >= 1:
                raise MouseAuthError("ar1 requires |phi| < 1")
            if p["sigma"] <= 0:
                raise MouseAuthError("sigma must be positive")
        else:  # sine_plus_noise
            if p["amplitude"] <= 0 or p["period"] <= 0:
                raise MouseAuthError("amplitude and period must be positive")
            if p["noise_std"] < 0:
                raise MouseAuthError("noise_std must be >= 0")


def generate(
    spec: SynthSpec, user_id: str = "synth", session_id: str = "s0", dt: float = 0.01
) -> VelocitySequence:
    """Generate one synthetic speed sequence, deterministic given the seed."""
    check_dt(dt)
    rng = SplitMix64(spec.seed)
    p = {**KINDS[spec.kind], **spec.params}
    n = spec.length
    if spec.kind == "gaussian_iid":
        v = p["mean"] + p["std"] * rng.normals(n)
    elif spec.kind == "ar1":
        phi, noise = p["phi"], p["sigma"] * rng.normals(n)
        x = []
        prev = 0.0  # stationary mean of the zero-mean recursion
        for e in noise.tolist():
            prev = phi * prev + e
            x.append(prev)
        v = np.array(x) + p["mean"]
    else:  # sine_plus_noise
        t = np.arange(n, dtype=float)
        v = p["mean"] + p["amplitude"] * np.sin(2.0 * np.pi * t / p["period"])
        if p["noise_std"] > 0:
            v = v + p["noise_std"] * rng.normals(n)
    return VelocitySequence(user_id, session_id, dt, np.maximum(v, 0.0))


def generate_user_pool(
    specs: dict[str, list[SynthSpec]], dt: float = 0.01
) -> dict[str, list[VelocitySequence]]:
    """One synthetic session per spec, grouped by user.

    Users with an empty spec list are omitted (they yield no sessions).
    """
    if not specs:
        raise MouseAuthError("at least one user required")
    pool: dict[str, list[VelocitySequence]] = {}
    for user, user_specs in specs.items():
        if not user_specs:
            continue
        pool[user] = [
            generate(s, user_id=user, session_id=f"s{i}", dt=dt)
            for i, s in enumerate(user_specs)
        ]
    return pool


def to_session_csv(vel: VelocitySequence) -> str:
    """Emit a velocity sequence as an ingest-compatible positions CSV.

    Positions integrate the speeds along x with y fixed at 0, so parsing the
    CSV and recomputing velocities round-trips the original sequence.
    """
    n, dt = len(vel.v), vel.dt
    t = np.arange(1, n + 1) * dt
    # a running sum from 0 in sample order, as a scalar loop would add; the
    # float64 copy keeps a float32 input's products in float64
    steps = np.concatenate([[0.0], np.asarray(vel.v, dtype=float) * dt])
    x = np.add.accumulate(steps)[1:]
    return "t,x,y\n0,0,0\n" + "".join(f"{a!r},{b!r},0\n" for a, b in zip(t.tolist(), x.tolist()))
