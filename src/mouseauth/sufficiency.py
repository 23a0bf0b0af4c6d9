"""Data-volume sufficiency via kernel density estimates and KL convergence.

The proper volume of a speed sequence is the smallest prefix length at which
adding more data no longer materially changes the estimated density: the KL
divergence between densities of consecutive prefixes is both small and
changing slowly.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field

import numpy as np

from .errors import (
    EmptyInput,
    GridMismatch,
    InvalidBandwidth,
    TooFewSamples,
    TooShort,
)
from .kinematics import VelocitySequence

GRID_POINTS = 1024
GRID_PAD_BANDWIDTHS = 5.0
DENSITY_FLOOR = 1e-300
KL_ZERO_TOL = 1e-9
BANDWIDTH_FLOOR = 1e-6


@dataclass(frozen=True)
class DensityEstimate:
    grid: np.ndarray
    density: np.ndarray
    bandwidth: float
    n: int


@dataclass
class SufficiencyReport:
    """KL trajectory over growing prefixes plus the selected proper volume.

    n_hat is the selected sample count, or the string "exhausted" when the
    sequence ended before both convergence conditions held.
    """

    session_id: str
    step_m: int
    kl_trajectory: list[tuple[int, float]] = field(default_factory=list)
    n_hat: int | str = "exhausted"
    eps1: float = 1e-4
    eps2: float = 1e-6
    total_length: int = 0

    @property
    def exhausted(self) -> bool:
        return self.n_hat == "exhausted"

    def to_json(self) -> str:
        return json.dumps(asdict(self))

    def trajectory_csv(self) -> str:
        lines = ["n,kl"] + [f"{n},{kl!r}" for n, kl in self.kl_trajectory]
        return "\n".join(lines) + "\n"


def silverman_bandwidth(samples: np.ndarray) -> float:
    """Rule-of-thumb kernel width h = 1.06 * sigma * n^(-1/5)."""
    samples = np.asarray(samples, dtype=float)
    n = len(samples)
    if n < 2:
        raise TooFewSamples("bandwidth needs >= 2 samples")
    sigma = samples.std(ddof=1)
    if sigma < 1e-12:
        return BANDWIDTH_FLOOR
    return 1.06 * sigma * n ** (-0.2)


def kde(samples: np.ndarray, grid: np.ndarray, bandwidth: float) -> DensityEstimate:
    """Gaussian kernel density estimate evaluated on a fixed grid."""
    samples = np.asarray(samples, dtype=float)
    grid = np.asarray(grid, dtype=float)
    if len(samples) == 0:
        raise EmptyInput("kde needs at least one sample")
    if bandwidth <= 0:
        raise InvalidBandwidth(f"bandwidth must be positive, got {bandwidth}")
    if np.any(np.diff(grid) <= 0):
        raise GridMismatch("grid must be strictly increasing")
    norm = 1.0 / (math.sqrt(2.0 * math.pi) * bandwidth)
    density = np.zeros_like(grid)
    # chunked so n_samples x n_grid never materializes at once
    for start in range(0, len(samples), 4096):
        chunk = samples[start : start + 4096, None]
        z = (grid[None, :] - chunk) / bandwidth
        density += np.exp(-0.5 * z * z).sum(axis=0)
    density *= norm / len(samples)
    return DensityEstimate(grid=grid, density=density, bandwidth=bandwidth, n=len(samples))


def kl_divergence(p: DensityEstimate, q: DensityEstimate) -> float:
    """Trapezoid-rule KL(p || q) over the shared grid.

    Densities are floored at 1e-300 before the log ratio; tiny negative
    results from integration error are clamped to zero.
    """
    if len(p.grid) != len(q.grid) or not np.array_equal(p.grid, q.grid):
        raise GridMismatch("density estimates must share an identical grid")
    fp = np.maximum(p.density, DENSITY_FLOOR)
    fq = np.maximum(q.density, DENSITY_FLOOR)
    integrand = fp * np.log(fp / fq)
    kl = float(np.trapezoid(integrand, p.grid))
    if -KL_ZERO_TOL < kl < 0.0:
        kl = 0.0
    return kl


def _shared_grid(samples: np.ndarray, h_max: float) -> np.ndarray:
    lo = samples.min() - GRID_PAD_BANDWIDTHS * h_max
    hi = samples.max() + GRID_PAD_BANDWIDTHS * h_max
    return np.linspace(lo, hi, GRID_POINTS)


def _prefix_kl(v: np.ndarray, n: int, m: int) -> float:
    """KL between densities of prefixes n+m and n on a grid shared by both."""
    big = v[: n + m]
    h_small = silverman_bandwidth(v[:n])
    h_big = silverman_bandwidth(big)
    grid = _shared_grid(big, max(h_small, h_big))
    p = kde(big, grid, h_big)
    q = kde(v[:n], grid, h_small)
    return kl_divergence(p, q)


def sufficiency_point(
    vel: VelocitySequence,
    step_m: int = 200,
    eps1: float = 1e-4,
    eps2: float = 1e-6,
) -> SufficiencyReport:
    """Scan prefixes n = m, 2m, ... for the KL convergence point.

    Selects the smallest n with |KL(n+m||n)| <= eps1 and
    |KL(n+2m||n+m) - KL(n+m||n)| <= eps2; reports "exhausted" when the
    sequence ends before both hold.
    """
    if step_m < 2:
        raise ValueError("step_m must be >= 2")
    if eps1 <= 0 or eps2 <= 0:
        raise ValueError("eps1 and eps2 must be positive")
    v = np.asarray(vel.v, dtype=float)
    if len(v) < 3 * step_m:
        raise TooShort(
            f"{vel.session_id}: need >= {3 * step_m} samples, have {len(v)}"
        )
    report = SufficiencyReport(
        session_id=vel.session_id,
        step_m=step_m,
        eps1=eps1,
        eps2=eps2,
        total_length=len(v),
    )
    n = step_m
    while n + step_m <= len(v):
        report.kl_trajectory.append((n, _prefix_kl(v, n, step_m)))
        if len(report.kl_trajectory) >= 2:
            (_, kl_prev), (_, kl) = report.kl_trajectory[-2:]
            if abs(kl_prev) <= eps1 and abs(kl - kl_prev) <= eps2:
                report.n_hat = n - step_m
                break
        n += step_m
    return report


def aggregate_user_volume(reports: list[SufficiencyReport]) -> tuple[int, list[str]]:
    """Sum per-session proper volumes; exhausted sessions contribute their
    full length and are flagged by session id."""
    if not reports:
        raise EmptyInput("no sufficiency reports to aggregate")
    total = 0
    flagged: list[str] = []
    for r in reports:
        if r.exhausted:
            total += r.total_length
            flagged.append(r.session_id)
        else:
            total += int(r.n_hat)
    return total, flagged
