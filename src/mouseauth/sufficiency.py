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
from dataclasses import asdict, dataclass

import numpy as np

from .errors import MouseAuthError, is_integer, is_positive_finite
from .kinematics import VelocitySequence

GRID_POINTS = 1024
GRID_PAD_BANDWIDTHS = 5.0
DENSITY_FLOOR = 1e-300
KL_ZERO_TOL = 1e-9
BANDWIDTH_FLOOR = 1e-6
KDE_CHUNK = 4096  # samples per block of the exact kde's summation order
KDE_ROWS = 64  # samples whose kernels the exact kde holds at once

# The screen (_prefix_kl(..., screen=True)) bins each prefix onto a
# refinement of the shared grid with at least CELLS_PER_BANDWIDTH cells per
# bandwidth and smooths it by a circular convolution whose wrap-around
# margin is KERNEL_CUT bandwidths: a kernel's periodic images weigh at most
# e^-32 on the lattice, the weight of the tail that a kernel cut at
# KERNEL_CUT would drop. It covers a step when every new sample lies within
# TAIL_BANDWIDTHS small-prefix bandwidths of the small prefix's range and
# both bandwidths span at least one shared-grid spacing.
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
    kl_trajectory: list[tuple[int, float]]
    exact_steps: list[int]
    n_hat: int | str
    eps1: float
    eps2: float
    total_length: int

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
        raise MouseAuthError("bandwidth needs >= 2 samples")
    sigma = samples.std(ddof=1)
    if sigma < 1e-12:
        return BANDWIDTH_FLOOR
    return 1.06 * sigma * n ** (-0.2)


def kde(samples: np.ndarray, grid: np.ndarray, bandwidth: float) -> DensityEstimate:
    """Gaussian kernel density estimate evaluated on a fixed grid."""
    samples = np.asarray(samples, dtype=float)
    grid = np.asarray(grid, dtype=float)
    if len(samples) == 0:
        raise MouseAuthError("kde needs at least one sample")
    if not is_positive_finite(bandwidth):
        raise MouseAuthError(f"bandwidth must be positive and finite, got {bandwidth!r}")
    # a NaN passes a `diff <= 0` test and an infinite end point a `diff > 0` one
    if not (np.isfinite(grid).all() and (np.diff(grid) > 0).all()):
        raise MouseAuthError("grid must be strictly increasing and finite")
    if not np.isfinite(samples).all():
        raise MouseAuthError("kde samples must be finite")
    norm = 1.0 / (math.sqrt(2.0 * math.pi) * bandwidth)
    density = np.zeros_like(grid)
    # Each block of KDE_CHUNK samples is summed in sample order, then added
    # to the density. The block sum runs over KDE_ROWS kernels at a time,
    # carried in row 0 of `rows`, so memory stays at KDE_ROWS + 1 grid rows
    # whatever the sample count. Copying the grid into the rows and then
    # subtracting each row's sample in place is a cheaper loop per element
    # than np.subtract(grid, block), which broadcasts both operands, and
    # gives the same IEEE result.
    # Scaling z * z by -0.5 is exact, so each kernel equals exp(-0.5 * z * z).
    rows = np.empty((min(len(samples), KDE_ROWS) + 1, len(grid)))
    for start in range(0, len(samples), KDE_CHUNK):
        end = min(start + KDE_CHUNK, len(samples))
        rows[0] = 0.0
        for at in range(start, end, KDE_ROWS):
            block = samples[at : min(at + KDE_ROWS, end), None]
            z = rows[1 : 1 + len(block)]
            z[:] = grid
            z -= block
            z /= bandwidth
            np.square(z, out=z)
            z *= -0.5
            np.exp(z, out=z)
            rows[0] = np.add.reduce(rows[: 1 + len(z)], axis=0)
        density += rows[0]
    density *= norm / len(samples)
    return DensityEstimate(grid=grid, density=density)


def kl_divergence(p: DensityEstimate, q: DensityEstimate) -> float:
    """Trapezoid-rule KL(p || q) over the shared grid.

    Densities are floored at 1e-300 before the log ratio; tiny negative
    results from integration error are clamped to zero.
    """
    if len(p.grid) != len(q.grid) or not np.array_equal(p.grid, q.grid):
        raise MouseAuthError("density estimates must share an identical grid")
    fp = np.maximum(p.density, DENSITY_FLOOR)
    fq = np.maximum(q.density, DENSITY_FLOOR)
    integrand = fp * np.log(fp / fq)
    kl = float(np.trapezoid(integrand, p.grid))
    if -KL_ZERO_TOL < kl < 0.0:
        kl = 0.0
    return kl


def _five_smooth(limit: int) -> np.ndarray:
    """Every 2^a * 3^b * 5^c <= limit, ascending."""
    sizes = np.array([1])
    for p in (2, 3, 5):
        sizes = np.outer(sizes, p ** np.arange(int(math.log(limit, p)) + 1)).ravel()
        sizes = sizes[sizes <= limit]
    return np.sort(sizes)


# np.fft takes about as long per element on a length with no prime factor
# above 5 as on a power of two. From 2,000 up, the next such length is at
# most 6.7 % away; the next power of two can be twice as far.
_FFT_SIZES = _five_smooth(2**31)


def _fft_size(n: int) -> int:
    """The smallest 2^a * 3^b * 5^c >= n."""
    return int(_FFT_SIZES[np.searchsorted(_FFT_SIZES, n)])


def _binned_kde(samples: np.ndarray, grid: np.ndarray, bandwidth: float) -> DensityEstimate:
    """Gaussian KDE on an evenly spaced grid: linear binning onto a
    refinement of the grid with at least CELLS_PER_BANDWIDTH cells per
    bandwidth, one real FFT of the counts times the Gaussian's closed-form
    spectrum, then one inverse FFT at the grid's own rate. O(n + G log G)
    against kde's O(n G). Every sample must lie on the grid."""
    refine = math.ceil(CELLS_PER_BANDWIDTH * (grid[1] - grid[0]) / bandwidth)
    fine = (len(grid) - 1) * refine + 1
    spacing = (grid[-1] - grid[0]) / (fine - 1)
    pos = (samples - grid[0]) / spacing
    cell = np.minimum(pos.astype(np.intp), fine - 2)
    frac = pos - cell
    counts = np.bincount(cell, 1.0 - frac, fine) + np.bincount(cell + 1, frac, fine)
    # The convolution is circular over `length` lattice cells, so a kernel
    # wraps onto the lattice only past KERNEL_CUT bandwidths.
    reach = math.ceil(KERNEL_CUT * bandwidth / spacing)
    size = _fft_size(math.ceil((fine + reach) / refine))
    length = refine * size
    # By Poisson summation, bin k of the length-point DFT of the kernel
    # sampled every `spacing` is sqrt(2 pi) h / spacing times
    # exp(-2 pi^2 (h k / (spacing length))^2); its other images underflow, as
    # h spans at least CELLS_PER_BANDWIDTH spacings. From bin `top` on
    # (about length / 20 at most, far below length / 2) the exponent is
    # under -746 and the term itself is 0.
    top = math.ceil(math.sqrt(373.0) / math.pi * spacing * length / bandwidth)
    freq = np.arange(top) * (bandwidth / (spacing * length))
    spectrum = np.fft.rfft(counts, length)[:top] * np.exp(-2.0 * math.pi**2 * freq**2)
    # Grid point t is lattice cell refine * t, whose value is the size-point
    # inverse of the spectrum folded onto `size` bins: the sum of bins
    # 0..top-1 by residue plus the conjugate of their mirror images. Bin 0 is
    # its own mirror, so it enters that sum at half weight.
    spectrum[0] *= 0.5
    aliases = np.zeros(-(-top // size) * size, dtype=complex)
    aliases[:top] = spectrum
    folded = aliases.reshape(-1, size).sum(axis=0)
    half = folded[: size // 2 + 1] + folded[-np.arange(size // 2 + 1) % size].conj()
    smooth = np.fft.irfft(half, size)[: len(grid)]
    density = np.maximum(smooth, 0.0) * (size / (spacing * length * len(samples)))
    return DensityEstimate(grid=grid, density=density)


def _prefix_kl(v: np.ndarray, n: int, m: int, screen: bool = False) -> float | None:
    """KL between densities of prefixes n+m and n on a grid shared by both,
    from the exact kde, or with screen from _binned_kde densities. The
    screen returns None for a step it does not cover: new samples far past
    the small prefix's range, where its cut kernel tail meets them, or a
    bandwidth narrower than the grid spacing."""
    small, big = v[:n], v[: n + m]
    h_small = silverman_bandwidth(small)
    h_big = silverman_bandwidth(big)
    pad = GRID_PAD_BANDWIDTHS * max(h_small, h_big)
    grid = np.linspace(big.min() - pad, big.max() + pad, GRID_POINTS)
    if not screen:
        return kl_divergence(kde(big, grid, h_big), kde(small, grid, h_small))
    reach = TAIL_BANDWIDTHS * h_small
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


def check_settings(step_m: int, eps1: float, eps2: float):
    """Raise MouseAuthError unless sufficiency_point can scan with these
    settings: an integer step of two or more samples, finite positive thresholds."""
    if not is_integer(step_m) or step_m < 2:
        raise MouseAuthError(f"step_m must be >= 2 and an integer, got {step_m!r}")
    if not (is_positive_finite(eps1) and is_positive_finite(eps2)):
        raise MouseAuthError(f"eps1 and eps2 must be positive and finite, got {eps1!r}, {eps2!r}")


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
    check_settings(step_m, eps1, eps2)
    v = np.asarray(vel.v, dtype=float)
    if len(v) < 3 * step_m:
        raise MouseAuthError(
            f"{vel.session_id}: need >= {3 * step_m} samples, have {len(v)}"
        )
    # a NaN or an infinity would reach the screen's binning and the judge
    bad = np.flatnonzero(~np.isfinite(v))
    if len(bad):
        raise MouseAuthError(f"{vel.session_id}: non-finite speed at sample {bad[0]}")
    steps = range(step_m, len(v) - step_m + 1, step_m)
    kl: list[float] = []
    exact: set[int] = set()  # indices of the steps the judge decided

    def judge(i: int) -> bool:
        if i in exact:
            return False
        kl[i] = _prefix_kl(v, steps[i], step_m)
        exact.add(i)
        return True

    n_hat: int | str = "exhausted"
    i = 0  # the pair of steps i, i + 1 under decision
    while i + 1 < len(steps):
        while len(kl) < i + 2:
            kl.append(_prefix_kl(v, steps[len(kl)], step_m, screen=True))
            if kl[-1] is None:
                judge(len(kl) - 1)
        if not {i, i + 1} <= exact and not _settled(kl[i], kl[i + 1], eps1, eps2):
            judge(i + 1)
            if judge(i) and i > 0:
                i -= 1  # step i's value changed: decide the pair before it again
            continue
        if abs(kl[i]) <= eps1 and abs(kl[i + 1] - kl[i]) <= eps2:
            n_hat = steps[i]
            break
        i += 1
    return SufficiencyReport(
        session_id=vel.session_id,
        step_m=step_m,
        kl_trajectory=list(zip(steps, kl)),
        exact_steps=[steps[j] for j in sorted(exact)],
        n_hat=n_hat,
        eps1=eps1,
        eps2=eps2,
        total_length=len(v),
    )


def aggregate_user_volume(reports: list[SufficiencyReport]) -> tuple[int, list[str]]:
    """Sum per-session proper volumes; exhausted sessions contribute their
    full length and are flagged by session id."""
    if not reports:
        raise MouseAuthError("no sufficiency reports to aggregate")
    total = 0
    flagged: list[str] = []
    for r in reports:
        if r.exhausted:
            total += r.total_length
            flagged.append(r.session_id)
        else:
            total += int(r.n_hat)
    return total, flagged
