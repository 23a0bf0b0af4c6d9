import functools
import math
import tracemalloc

import numpy as np
import pytest

from mouseauth.errors import MouseAuthError
from mouseauth.kinematics import VelocitySequence
from mouseauth.sufficiency import (
    CELLS_PER_BANDWIDTH,
    KDE_ROWS,
    KERNEL_CUT,
    SCREEN_ERROR,
    _binned_kde,
    _fft_size,
    _prefix_kl,
    aggregate_user_volume,
    kde,
    kl_divergence,
    silverman_bandwidth,
    sufficiency_point,
    DensityEstimate,
    SufficiencyReport,
)
from mouseauth.synth import SplitMix64, SynthSpec, generate


def gaussian_samples(n, mean=0.0, std=1.0, seed=0):
    return mean + std * SplitMix64(seed).normals(n)


# ---------------------------------------------------------------------------
# bandwidth


def test_silverman_n100():
    # samples scaled so the (n-1)-denominator std is exactly 1
    x = np.array([-1.0, 1.0] * 50)
    x = x / x.std(ddof=1)
    expected = 1.06 * 1.0 * math.exp(-0.2 * math.log(100))
    assert silverman_bandwidth(x) == pytest.approx(expected, rel=1e-12)
    assert expected == pytest.approx(0.421993, abs=1e-6)


def test_silverman_n32_sigma2():
    x = np.array([-2.0, 2.0] * 16)
    x = 2.0 * x / x.std(ddof=1)
    # 2.12 * 32^(-1/5) = 2.12 / 2 exactly
    assert silverman_bandwidth(x) == pytest.approx(1.06, rel=1e-12)


def test_silverman_constant_floor():
    assert silverman_bandwidth(np.full(10, 3.0)) == 1e-6


def test_silverman_too_few():
    with pytest.raises(MouseAuthError, match="bandwidth needs >= 2 samples"):
        silverman_bandwidth(np.array([1.0]))


def test_silverman_monotonicity():
    # decreasing in n at fixed sigma: tile the same values so sigma is stable
    x = np.array([-1.0, 1.0])
    hs = [silverman_bandwidth(np.tile(x, reps)) for reps in (50, 100, 200)]
    assert hs[0] > hs[1] > hs[2]
    # increasing in sigma at fixed n
    base = gaussian_samples(400, seed=5)
    assert silverman_bandwidth(2.0 * base) > silverman_bandwidth(base)


# ---------------------------------------------------------------------------
# kde


def test_kde_single_sample_peak():
    grid = np.linspace(-1, 1, 3)
    est = kde(np.array([0.0]), grid, 1.0)
    assert est.density[1] == pytest.approx(1.0 / math.sqrt(2 * math.pi), rel=1e-12)


def test_kde_two_samples_midpoint():
    grid = np.linspace(-2, 2, 5)
    est = kde(np.array([-1.0, 1.0]), grid, 1.0)
    phi1 = math.exp(-0.5) / math.sqrt(2 * math.pi)
    assert est.density[2] == pytest.approx(phi1, rel=1e-12)
    assert est.density[2] == pytest.approx(0.241971, abs=1e-6)


def test_kde_tail_decay():
    est = kde(np.array([0.0, 1.0]), np.array([10.0, 11.0, 12.0]), 0.5)
    assert np.all(est.density < 1e-20)


def test_kde_errors():
    grid = np.linspace(0, 1, 4)
    with pytest.raises(MouseAuthError, match="kde needs at least one sample"):
        kde(np.array([]), grid, 1.0)
    with pytest.raises(MouseAuthError, match="bandwidth must be positive"):
        kde(np.array([1.0]), grid, 0.0)
    with pytest.raises(MouseAuthError, match="grid must be strictly increasing"):
        kde(np.array([1.0]), np.array([1.0, 0.5]), 1.0)


# each of these passed kde's checks and gave NaN, zero or misweighted densities
@pytest.mark.parametrize("samples, grid, bandwidth, message", [
    ([1.0], [0.0, 1.0], float("nan"), "bandwidth must be positive and finite"),
    ([1.0], [0.0, 1.0], float("inf"), "bandwidth must be positive and finite"),
    ([1.0], [0.0, float("nan"), 1.0], 1.0, "grid must be strictly increasing and finite"),
    ([1.0], [0.0, float("inf")], 1.0, "grid must be strictly increasing and finite"),
    ([1.0, float("nan")], [0.0, 1.0], 1.0, "kde samples must be finite"),
    ([float("-inf"), 1.0], [0.0, 1.0], 1.0, "kde samples must be finite"),
])
def test_kde_rejects_non_finite_arguments(samples, grid, bandwidth, message):
    with pytest.raises(MouseAuthError, match=message):
        kde(np.array(samples), np.array(grid), bandwidth)


def test_kde_normalization():
    samples = gaussian_samples(1000, mean=10, std=2, seed=3)
    h = silverman_bandwidth(samples)
    grid = np.linspace(samples.min() - 5 * h, samples.max() + 5 * h, 1024)
    est = kde(samples, grid, h)
    assert np.trapezoid(est.density, grid) == pytest.approx(1.0, abs=1e-3)
    assert np.all(est.density >= 0)


def test_kde_sums_each_block_of_4096_samples_in_order():
    samples = gaussian_samples(9000, seed=8)
    grid = np.linspace(-6, 6, 1024)
    for n in (1, 255, 256, 257, 4096, 4097, 9000):
        want = np.zeros_like(grid)
        for start in range(0, n, 4096):
            z = (grid[None, :] - samples[start : min(start + 4096, n), None]) / 0.2
            want += np.exp(-0.5 * z * z).sum(axis=0)
        want *= 1.0 / (math.sqrt(2.0 * math.pi) * 0.2) / n
        assert np.array_equal(kde(samples[:n], grid, 0.2).density, want), n


def test_kde_memory_does_not_grow_with_samples():
    grid = np.linspace(-6, 6, 1024)
    peaks = []
    for n in (1000, 20000):
        samples = gaussian_samples(n, seed=9)
        tracemalloc.start()
        kde(samples, grid, 0.2)
        peaks.append(tracemalloc.get_traced_memory()[1])
        tracemalloc.stop()
    assert peaks[0] > KDE_ROWS * 1024 * 8  # the kernels of KDE_ROWS samples
    assert peaks[1] < peaks[0] + 64 * 1024


def test_kde_matches_the_direct_formula_where_kernels_underflow():
    # a narrow bandwidth on a wide grid: most kernels underflow to 0, and the
    # ones about 38 bandwidths from their sample are subnormal
    samples = gaussian_samples(600, seed=10)
    grid = np.linspace(-40, 40, 1024)
    z = (grid[None, :] - samples[:, None]) / 0.05
    kernels = np.exp(-0.5 * z * z)
    tiny = np.finfo(float).tiny
    assert np.mean(kernels < tiny) > 0.9 and np.any((0 < kernels) & (kernels < tiny))
    want = kernels.sum(axis=0)
    want *= 1.0 / (math.sqrt(2.0 * math.pi) * 0.05) / len(samples)
    assert np.array_equal(kde(samples, grid, 0.05).density, want)


# ---------------------------------------------------------------------------
# binned screen


def five_smooth(n):
    for p in (2, 3, 5):
        while n % p == 0:
            n //= p
    return n == 1


def test_fft_size_is_the_next_five_smooth_length():
    want = {}
    nxt = 20250  # 2 * 3**4 * 5**3, the first five-smooth number past 20,000
    for n in range(nxt, 0, -1):
        if five_smooth(n):
            nxt = n
        want[n] = nxt
    assert all(_fft_size(n) == want[n] for n in range(1, 20001))


@pytest.mark.parametrize("points, bandwidth", [(64, 0.3), (64, 0.9), (200, 0.2), (1024, 0.25)])
def test_binned_kde_matches_a_direct_convolution(points, bandwidth):
    samples = gaussian_samples(500, seed=6)
    grid = np.linspace(samples.min() - 1.0, samples.max() + 1.0, points)
    refine = math.ceil(CELLS_PER_BANDWIDTH * (grid[1] - grid[0]) / bandwidth)
    fine = (points - 1) * refine + 1
    spacing = (grid[-1] - grid[0]) / (fine - 1)
    half = math.ceil(KERNEL_CUT * bandwidth / spacing)
    # _binned_kde's circular transform covers the lattice and the kernel's
    # reach past it, so no kernel wraps onto the grid
    assert refine * _fft_size(math.ceil((fine + half) / refine)) >= fine + half
    # linear binning and the cut kernel, then the linear convolution itself
    pos = (samples - grid[0]) / spacing
    cell = np.minimum(pos.astype(int), fine - 2)
    counts = np.zeros(fine)
    np.add.at(counts, cell, 1.0 - (pos - cell))
    np.add.at(counts, cell + 1, pos - cell)
    kernel = np.exp(-0.5 * (np.arange(-half, half + 1) * (spacing / bandwidth)) ** 2)
    want = np.convolve(counts, kernel)[half : half + fine : refine]
    want /= math.sqrt(2.0 * math.pi) * bandwidth * len(samples)
    got = _binned_kde(samples, grid, bandwidth).density
    assert np.abs(got - want).max() <= 1e-12 * want.max()


@pytest.mark.parametrize("spacings", [1.0, 1.5, 2.0])
def test_binned_kde_folds_the_spectrum_of_a_narrow_bandwidth(spacings):
    # a bandwidth of a few grid spacings leaves the Gaussian's spectrum far
    # from 0 at the grid's Nyquist bin, so reading every refine-th lattice
    # cell needs the spectrum's aliases summed
    assert math.exp(-0.5 * (math.pi * spacings) ** 2) > 1e-9
    samples = gaussian_samples(500, seed=6)
    points = 200
    grid = np.linspace(samples.min() - 1.0, samples.max() + 1.0, points)
    test_binned_kde_matches_a_direct_convolution(points, spacings * (grid[1] - grid[0]))


# ---------------------------------------------------------------------------
# kl divergence


def test_kl_self_zero():
    samples = gaussian_samples(200, seed=1)
    grid = np.linspace(-6, 6, 512)
    p = kde(samples, grid, 0.3)
    assert kl_divergence(p, p) == 0.0
    # q a hair above p everywhere gives a KL of about -1e-12, which the
    # clamp takes for integration error; at -1e-6 the value stands
    for scale, want in [(1 + 1e-12, 0.0), (1 + 1e-6, -1e-6)]:
        q = DensityEstimate(grid, p.density * scale)
        assert kl_divergence(p, q) == pytest.approx(want, rel=1e-3, abs=0)


def test_kl_gaussian_oracle():
    # closed-form KL between N(0,1) and N(1,1) is 0.5
    grid = np.linspace(-8, 9, 1024)
    p = kde(gaussian_samples(5000, 0.0, 1.0, seed=11), grid, 0.2)
    q = kde(gaussian_samples(5000, 1.0, 1.0, seed=12), grid, 0.2)
    kl = kl_divergence(p, q)
    assert abs(kl - 0.5) / 0.5 < 0.25


def test_kl_grid_mismatch():
    g1 = np.linspace(0, 1, 16)
    g2 = np.linspace(0, 2, 16)
    p = kde(np.array([0.5]), g1, 0.2)
    q = kde(np.array([0.5]), g2, 0.2)
    with pytest.raises(MouseAuthError, match="density estimates must share an identical grid"):
        kl_divergence(p, q)


def test_kl_nonnegative_random_pairs():
    grid = np.linspace(-10, 15, 1024)
    for seed in range(8):
        a = gaussian_samples(300, mean=seed % 3, std=1 + seed % 2, seed=seed)
        b = gaussian_samples(300, mean=(seed + 1) % 4, std=1.5, seed=seed + 100)
        p = kde(a, grid, silverman_bandwidth(a))
        q = kde(b, grid, silverman_bandwidth(b))
        assert kl_divergence(p, q) >= 0.0


# ---------------------------------------------------------------------------
# sufficiency point


def make_vel(v):
    return VelocitySequence("u", "s", 0.01, np.asarray(v, dtype=float))


def test_sufficiency_too_short():
    vel = make_vel(np.abs(gaussian_samples(500, mean=10, seed=2)))
    with pytest.raises(MouseAuthError, match="need >= 600 samples, have 500"):
        sufficiency_point(vel, step_m=200)


def test_sufficiency_converges_and_is_minimal():
    vel = generate(SynthSpec("gaussian_iid", {"mean": 10, "std": 1}, 20000, seed=4))
    report = sufficiency_point(vel, step_m=200, eps1=1e-4, eps2=1e-6)
    assert not report.exhausted
    n_hat = report.n_hat
    assert n_hat % 200 == 0 and n_hat < 20000
    # minimality: no earlier grid point satisfies both conditions
    kl = dict(report.kl_trajectory)
    for n in range(200, n_hat, 200):
        ok = (
            n in kl
            and n + 200 in kl
            and abs(kl[n]) <= 1e-4
            and abs(kl[n + 200] - kl[n]) <= 1e-6
        )
        assert not ok
    assert abs(kl[n_hat]) <= 1e-4
    assert abs(kl[n_hat + 200] - kl[n_hat]) <= 1e-6


def test_sufficiency_trajectory_shape():
    vel = generate(SynthSpec("gaussian_iid", {"mean": 10, "std": 1}, 3000, seed=9))
    report = sufficiency_point(vel, step_m=200, eps1=1e-12, eps2=1e-15)
    ns = [n for n, _ in report.kl_trajectory]
    assert ns == list(range(200, 2801, 200))
    assert report.exhausted
    assert all(klv >= -1e-9 for _, klv in report.kl_trajectory)


IID = {"mean": 10, "std": 1}
SINE = {"amplitude": 3, "period": 50, "noise_std": 1, "mean": 10}
AR07 = {"phi": 0.7, "sigma": 1, "mean": 10}
AR09 = {"phi": 0.9, "sigma": 1, "mean": 10}

# (kind, params, length, seed, n_hat of the scan on the exact KDE alone)
EXACT_SCAN_N_HAT = (
    [("gaussian_iid", IID, 50000, seed, n_hat)
     for seed, n_hat in zip(range(5, 10), (8200, 5200, 5400, 7800, 5800))]
    + [("gaussian_iid", IID, 14000, seed, n_hat)
       for seed, n_hat in zip((1, 2, 3), (2600, 7600, 10000))]
    + [("sine_plus_noise", SINE, 14000, seed, n_hat)
       for seed, n_hat in zip((1, 2, 3), (6200, 5400, 2800))]
    + [("ar1", AR07, 14000, seed, n_hat)
       for seed, n_hat in zip((1, 2, 3), ("exhausted", 10200, "exhausted"))]
    + [("ar1", AR09, 30000, 1, 19600)]
)


@pytest.mark.parametrize("kind, params, length, seed, n_hat", EXACT_SCAN_N_HAT)
def test_screened_scan_keeps_the_exact_n_hat(kind, params, length, seed, n_hat):
    m, eps1, eps2 = 200, 1e-4, 1e-6
    v = generate(SynthSpec(kind, params, length, seed)).v
    report = sufficiency_point(make_vel(v), m, eps1, eps2)
    assert report.n_hat == n_hat
    steps = [n for n, _ in report.kl_trajectory]
    assert steps == list(range(m, steps[-1] + 1, m))
    assert set(report.exact_steps) <= set(steps)

    exact_kl = functools.cache(lambda n: _prefix_kl(v, n, m))

    def exact_stop(n):
        return abs(exact_kl(n)) <= eps1 and abs(exact_kl(n + m) - exact_kl(n)) <= eps2

    # the exact KDE alone re-decides around the reported stopping point
    if report.exhausted:
        assert steps[-1] + 2 * m > length and not exact_stop(steps[-2])
    else:
        assert exact_stop(n_hat) and not exact_stop(n_hat - m)


@pytest.mark.parametrize("kind, params, length, seed, n_hat",
                         [case for case in EXACT_SCAN_N_HAT if case[-1] != "exhausted"])
def test_scan_reads_no_sample_past_its_stopping_pair(kind, params, length, seed, n_hat):
    m = 200
    v = generate(SynthSpec(kind, params, length, seed)).v
    full = sufficiency_point(make_vel(v), m, 1e-4, 1e-6)
    # a session cut just past the stopping pair's samples gives the same scan
    cut = sufficiency_point(make_vel(v[: n_hat + 2 * m]), m, 1e-4, 1e-6)
    assert (cut.n_hat, cut.kl_trajectory, cut.exact_steps) == (
        full.n_hat, full.kl_trajectory, full.exact_steps)
    # one sample shorter, the stopping pair is out of reach; the last step's
    # value may stay screened where the full scan judged it
    short = sufficiency_point(make_vel(v[: n_hat + 2 * m - 1]), m, 1e-4, 1e-6)
    assert short.exhausted
    steps = [n for n, _ in short.kl_trajectory]
    assert steps == [n for n, _ in full.kl_trajectory][: len(steps)]


@pytest.mark.parametrize("kind, params, length, seed", [
    ("gaussian_iid", IID, 14000, 1), ("sine_plus_noise", SINE, 14000, 1), ("ar1", AR07, 14000, 2),
])
def test_screened_steps_stay_within_screen_error(kind, params, length, seed):
    m = 200
    v = generate(SynthSpec(kind, params, length, seed)).v
    report = sufficiency_point(make_vel(v), m, 1e-4, 1e-6)
    covered = [(n, kl) for n, kl in report.kl_trajectory if n not in report.exact_steps]
    assert len(covered) > 10
    assert max(abs(kl - _prefix_kl(v, n, m)) for n, kl in covered) < SCREEN_ERROR


def test_far_outlier_step_goes_to_the_judge():
    v = generate(SynthSpec("gaussian_iid", IID, 3400, seed=1)).v.copy()
    v[2450] = 30.0  # 20 std above the mean; step n=2400 brings it in
    report = sufficiency_point(make_vel(v), 200, 1e-4, 1e-6)
    assert 2400 in report.exact_steps
    assert dict(report.kl_trajectory)[2400] == _prefix_kl(v, 2400, 200)


def test_sufficiency_validates_params():
    vel = make_vel(np.ones(1000))
    with pytest.raises(MouseAuthError, match="step_m must be >= 2"):
        sufficiency_point(vel, step_m=1)
    with pytest.raises(MouseAuthError, match="eps1 and eps2 must be positive"):
        sufficiency_point(vel, step_m=200, eps1=-1.0)


# a NaN gave a bare ValueError from the screen's binning, an infinity
# RuntimeWarnings and then a grid mismatch
@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
@pytest.mark.parametrize("at", [0, 500])
def test_sufficiency_rejects_non_finite_speeds(bad, at):
    v = np.abs(gaussian_samples(1000, mean=10, seed=2))
    v[at] = bad
    with pytest.raises(MouseAuthError, match=f"s: non-finite speed at sample {at}$"):
        sufficiency_point(make_vel(v), step_m=200)


# these gave a bare TypeError or ran the scan with a threshold every KL value meets
@pytest.mark.parametrize("settings, message", [
    ({"step_m": 250.5}, "step_m must be >= 2 and an integer"),
    ({"step_m": "200"}, "step_m must be >= 2 and an integer"),
    ({"eps1": "1"}, "eps1 and eps2 must be positive and finite"),
    ({"eps1": float("inf")}, "eps1 and eps2 must be positive and finite"),
    ({"eps2": 10**400}, "eps1 and eps2 must be positive and finite"),
])
def test_sufficiency_rejects_malformed_settings(settings, message):
    vel = make_vel(np.abs(gaussian_samples(1000, mean=10, seed=2)))
    with pytest.raises(MouseAuthError, match=message):
        sufficiency_point(vel, **settings)


# ---------------------------------------------------------------------------
# aggregation


def report_with(n_hat, total, sid="s"):
    return SufficiencyReport(
        session_id=sid, step_m=200, kl_trajectory=[], exact_steps=[], n_hat=n_hat,
        eps1=1e-4, eps2=1e-6, total_length=total,
    )


def test_aggregate_simple():
    reports = [report_with(n, 10000, f"s{n}") for n in (200, 400, 600)]
    total, flagged = aggregate_user_volume(reports)
    assert total == 1200 and flagged == []


def test_aggregate_exhausted_flagged():
    reports = [report_with("exhausted", 1000, "sx"), report_with(400, 5000, "sy")]
    total, flagged = aggregate_user_volume(reports)
    assert total == 1400 and flagged == ["sx"]


def test_aggregate_empty():
    with pytest.raises(MouseAuthError, match="no sufficiency reports to aggregate"):
        aggregate_user_volume([])


def test_report_serialization():
    r = report_with(400, 1000)
    r.kl_trajectory = [(200, 0.5), (400, 1e-5)]
    assert '"n_hat": 400' in r.to_json()
    assert r.trajectory_csv().splitlines()[0] == "n,kl"
