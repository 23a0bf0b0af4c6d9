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
transform on consecutive uniform pairs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidSpec
from .kinematics import VelocitySequence

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
        out = []
        for u1, u2 in pairs.tolist():
            radius = math.sqrt(-2.0 * math.log(u1))
            out += (radius * math.cos(2.0 * math.pi * u2), radius * math.sin(2.0 * math.pi * u2))
        return np.array(out[:n], dtype=float)


@dataclass(frozen=True)
class SynthSpec:
    """Specification of one synthetic velocity sequence.

    kinds and their params:
      gaussian_iid:    mean, std
      ar1:             phi, sigma, mean (|phi| < 1; level added after the
                       zero-mean recursion)
      sine_plus_noise: amplitude, period, noise_std, mean
    Speeds are clamped at zero after generation.
    """

    kind: str
    params: dict = field(default_factory=dict)
    length: int = 1000
    seed: int = 0

    def validate(self):
        if self.length < 1:
            raise InvalidSpec("length must be >= 1")
        p = self.params
        if self.kind == "gaussian_iid":
            if p.get("std", 1.0) <= 0:
                raise InvalidSpec("std must be positive")
        elif self.kind == "ar1":
            if abs(p.get("phi", 0.0)) >= 1:
                raise InvalidSpec("ar1 requires |phi| < 1")
            if p.get("sigma", 1.0) <= 0:
                raise InvalidSpec("sigma must be positive")
        elif self.kind == "sine_plus_noise":
            if p.get("amplitude", 1.0) <= 0 or p.get("period", 100.0) <= 0:
                raise InvalidSpec("amplitude and period must be positive")
            if p.get("noise_std", 0.0) < 0:
                raise InvalidSpec("noise_std must be >= 0")
        else:
            raise InvalidSpec(f"unknown kind {self.kind!r}")


def generate(
    spec: SynthSpec, user_id: str = "synth", session_id: str = "s0", dt: float = 0.01
) -> VelocitySequence:
    """Generate one synthetic speed sequence, deterministic given the seed."""
    spec.validate()
    rng = SplitMix64(spec.seed)
    p = spec.params
    n = spec.length
    if spec.kind == "gaussian_iid":
        v = p.get("mean", 0.0) + p.get("std", 1.0) * rng.normals(n)
    elif spec.kind == "ar1":
        phi = p.get("phi", 0.5)
        sigma = p.get("sigma", 1.0)
        noise = sigma * rng.normals(n)
        x = []
        prev = 0.0  # stationary mean of the zero-mean recursion
        for e in noise.tolist():
            prev = phi * prev + e
            x.append(prev)
        v = np.array(x) + p.get("mean", 0.0)
    else:  # sine_plus_noise
        amp = p.get("amplitude", 1.0)
        period = p.get("period", 100.0)
        noise_std = p.get("noise_std", 0.0)
        t = np.arange(n, dtype=float)
        v = p.get("mean", 0.0) + amp * np.sin(2.0 * np.pi * t / period)
        if noise_std > 0:
            v = v + noise_std * rng.normals(n)
    return VelocitySequence(user_id, session_id, dt, np.maximum(v, 0.0))


def generate_user_pool(
    specs: dict[str, list[SynthSpec]], dt: float = 0.01
) -> dict[str, list[VelocitySequence]]:
    """One synthetic session per spec, grouped by user.

    Users with an empty spec list are omitted (they yield no sessions).
    """
    if not specs:
        raise InvalidSpec("at least one user required")
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
    lines = ["t,x,y", "0,0,0"]
    x = 0.0
    for i, v in enumerate(vel.v):
        x += float(v) * vel.dt
        lines.append(f"{(i + 1) * vel.dt!r},{x!r},0")
    return "\n".join(lines) + "\n"
