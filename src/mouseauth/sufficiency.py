"""Data-volume sufficiency via kernel density estimates and KL convergence.

The proper volume of a speed sequence is the smallest prefix length at which
adding more data no longer materially changes the estimated density: the KL
divergence between densities of consecutive prefixes is both small and
changing slowly.

The scan screens every step with a binned-FFT density (Silverman 1982,
Algorithm AS 176; Wand 1994) and recomputes with the exact ``kde`` only the
steps the screen cannot settle.
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
KDE_CHUNK = 4096  # samples per block of the exact kde's summation order
KDE_ROWS = 256  # samples whose kernels the exact kde holds at once

# The screen (_screen_kl) bins each prefix onto a refinement of the shared
# grid with at least CELLS_PER_BANDWIDTH cells per bandwidth and cuts its
# Gaussian kernel at KERNEL_CUT bandwidths. It covers a step when every new
# sample lies within TAIL_BANDWIDTHS small-prefix bandwidths of the small
# prefix's range and both bandwidths span at least one shared-grid spacing.
# On the covered steps of the gate sessions in tests/test_sufficiency.py its
# KL was off the exact KL by at most 9.6e-8 (1.7e-6 when binning onto the
# shared grid itself), below SCREEN_ERROR. SCREEN_BAND, the margin around
# eps1 and eps2 inside which screened values do not settle the stopping
# rule, is twice the worst error of a difference of two screened values.
CELLS_PER_BANDWIDTH = 128
KERNEL_CUT = 8.0
TAIL_BANDWIDTHS = 3.0
SCREEN_ERROR = 1e-7
SCREEN_BAND = 4 * SCREEN_ERROR


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
    sequence ended before both convergence conditions held. exact_steps are
    the steps n whose trajectory value is the exact KDE's KL; the others are
    the binned screen's.
    """

    session_id: str
    step_m: int
    kl_trajectory: list[tuple[int, float]] = field(default_factory=list)
    exact_steps: list[int] = field(default_factory=list)
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
    # Each block of KDE_CHUNK samples is summed in sample order, then added
    # to the density. The block sum runs over KDE_ROWS kernels at a time,
    # carried in row 0 of `rows`, so memory stays at KDE_ROWS + 1 grid rows
    # whatever the sample count. Scaling z * z by -0.5 is exact, so each
    # kernel equals exp(-0.5 * z * z).
    rows = np.empty((min(len(samples), KDE_ROWS) + 1, len(grid)))
    for start in range(0, len(samples), KDE_CHUNK):
        end = min(start + KDE_CHUNK, len(samples))
        rows[0] = 0.0
        for at in range(start, end, KDE_ROWS):
            block = samples[at : min(at + KDE_ROWS, end), None]
            z = rows[1 : 1 + len(block)]
            np.subtract(grid, block, out=z)
            z /= bandwidth
            np.square(z, out=z)
            z *= -0.5
            np.exp(z, out=z)
            rows[0] = np.add.reduce(rows[: 1 + len(z)], axis=0)
        density += rows[0]
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


def _binned_kde(samples: np.ndarray, grid: np.ndarray, bandwidth: float) -> DensityEstimate:
    """Gaussian KDE on an evenly spaced grid: linear binning onto a
    refinement of the grid with at least CELLS_PER_BANDWIDTH cells per
    bandwidth, then one FFT convolution with the kernel cut at KERNEL_CUT
    bandwidths. O(n + G log G) against kde's O(n G). Every sample must lie
    on the grid."""
    refine = math.ceil(CELLS_PER_BANDWIDTH * (grid[1] - grid[0]) / bandwidth)
    fine = (len(grid) - 1) * refine + 1
    spacing = (grid[-1] - grid[0]) / (fine - 1)
    pos = (samples - grid[0]) / spacing
    cell = np.minimum(pos.astype(np.intp), fine - 2)
    frac = pos - cell
    counts = np.bincount(cell, 1.0 - frac, fine) + np.bincount(cell + 1, frac, fine)
    half = math.ceil(KERNEL_CUT * bandwidth / spacing)
    size = 1 << (fine + 2 * half - 1).bit_length()  # no wrap-around
    kernel = np.exp(-0.5 * (np.arange(-half, half + 1) * (spacing / bandwidth)) ** 2)
    smooth = np.fft.irfft(np.fft.rfft(counts, size) * np.fft.rfft(kernel, size), size)
    norm = 1.0 / (math.sqrt(2.0 * math.pi) * bandwidth * len(samples))
    density = np.maximum(smooth[half : half + fine : refine], 0.0) * norm
    return DensityEstimate(grid=grid, density=density, bandwidth=bandwidth, n=len(samples))


def _screen_kl(v: np.ndarray, n: int, m: int) -> float | None:
    """_prefix_kl from binned densities, or None for a step the screen does
    not cover: new samples far past the small prefix's range, where its cut
    kernel tail meets them, or a bandwidth narrower than the grid spacing."""
    small, big = v[:n], v[: n + m]
    h_small = silverman_bandwidth(small)
    h_big = silverman_bandwidth(big)
    reach = TAIL_BANDWIDTHS * h_small
    grid = _shared_grid(big, max(h_small, h_big))
    if (
        big.min() < small.min() - reach
        or big.max() > small.max() + reach
        or min(h_small, h_big) < grid[1] - grid[0]
    ):
        return None
    return kl_divergence(_binned_kde(big, grid, h_big), _binned_kde(small, grid, h_small))


def _settled(kl_n: float, kl_next: float, eps1: float, eps2: float) -> bool:
    """Whether the stopping rule gives one answer for every pair whose
    |kl_n| and |kl_next - kl_n| lie within SCREEN_BAND of these."""
    level, change = abs(kl_n), abs(kl_next - kl_n)
    return (
        level > eps1 + SCREEN_BAND
        or change > eps2 + SCREEN_BAND
        or (level < eps1 - SCREEN_BAND and change < eps2 - SCREEN_BAND)
    )


def sufficiency_point(
    vel: VelocitySequence,
    step_m: int = 200,
    eps1: float = 1e-4,
    eps2: float = 1e-6,
) -> SufficiencyReport:
    """Scan prefixes n = m, 2m, ... for the KL convergence point.

    Selects the smallest n with |KL(n+m||n)| <= eps1 and
    |KL(n+2m||n+m) - KL(n+m||n)| <= eps2; reports "exhausted" when the
    sequence ends before both hold. Each step's KL comes from the binned
    screen; the exact _prefix_kl judges the steps the screen does not cover
    and both steps of every pair the screened values do not settle. The rule
    is decided on the recorded values, so the trajectory obeys it.
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
    steps = range(step_m, len(v) - step_m + 1, step_m)
    kl: list[float] = []
    exact: set[int] = set()  # indices of the steps the judge decided

    def judge(i: int) -> bool:
        if i in exact:
            return False
        kl[i] = _prefix_kl(v, steps[i], step_m)
        exact.add(i)
        return True

    i = 0  # the pair of steps i, i + 1 under decision
    while i + 1 < len(steps):
        while len(kl) < i + 2:
            kl.append(_screen_kl(v, steps[len(kl)], step_m))
            if kl[-1] is None:
                judge(len(kl) - 1)
        if not {i, i + 1} <= exact and not _settled(kl[i], kl[i + 1], eps1, eps2):
            judge(i + 1)
            if judge(i) and i > 0:
                i -= 1  # step i's value changed: decide the pair before it again
            continue
        if abs(kl[i]) <= eps1 and abs(kl[i + 1] - kl[i]) <= eps2:
            report.n_hat = steps[i]
            break
        i += 1
    report.kl_trajectory = list(zip(steps, kl))
    report.exact_steps = [steps[j] for j in sorted(exact)]
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
