"""Independent exact references the benchmark checks the program against.

Each reference computes the quantity by a different route than the library
does, so an optimisation that changes a result shows up as a failed check:

- the sufficiency stopping rule, re-evaluated around the reported stopping
  point from the benchmark's own exact Gaussian KDE and trapezoid KL (they
  sum in the seed library's order, so today the two agree bit for bit);
- approximate entropy, with window distances from a doubling max instead of
  the library's moving-maximum filter;
- ROC AUC by counting every (legitimate, imposter) pair, and the EER by a
  plain threshold sweep.
"""

from __future__ import annotations

import math

import numpy as np

# the stopping rule's fixed settings, as in the seed's sufficiency module
GRID_POINTS, GRID_PAD_BANDWIDTHS = 1024, 5.0
BANDWIDTH_FLOOR, DENSITY_FLOOR, KL_ZERO_TOL = 1e-6, 1e-300, 1e-9
KDE_CHUNK = 4096  # samples per block; the summation order the library uses


def silverman(samples: np.ndarray) -> float:
    sigma = samples.std(ddof=1)
    if sigma < 1e-12:
        return BANDWIDTH_FLOOR
    return 1.06 * sigma * len(samples) ** (-0.2)


def kde(samples: np.ndarray, grid: np.ndarray, h: float) -> np.ndarray:
    """Exact Gaussian KDE: every sample's kernel at every grid point."""
    density = np.zeros_like(grid)
    for start in range(0, len(samples), KDE_CHUNK):
        z = (grid[None, :] - samples[start : start + KDE_CHUNK, None]) / h
        density += np.exp(-0.5 * z * z).sum(axis=0)
    return density * (1.0 / (math.sqrt(2.0 * math.pi) * h) / len(samples))


def kl(p: np.ndarray, q: np.ndarray, grid: np.ndarray) -> float:
    """KL(p || q) by the trapezoid rule, with floored densities."""
    fp, fq = np.maximum(p, DENSITY_FLOOR), np.maximum(q, DENSITY_FLOOR)
    f = fp * np.log(fp / fq)
    value = float((np.diff(grid) * (f[1:] + f[:-1]) / 2.0).sum())
    return 0.0 if -KL_ZERO_TOL < value < 0.0 else value


def prefix_kl(v: np.ndarray, n: int, m: int) -> float:
    """KL(prefix n+m || prefix n) with the exact KDE on a grid shared by both."""
    big, small = v[: n + m], v[:n]
    h_big, h_small = silverman(big), silverman(small)
    pad = GRID_PAD_BANDWIDTHS * max(h_big, h_small)
    grid = np.linspace(big.min() - pad, big.max() + pad, GRID_POINTS)
    return kl(kde(big, grid, h_big), kde(small, grid, h_small), grid)


def stops_at(kl_n: float, kl_next: float, eps1: float, eps2: float) -> bool:
    """The stopping rule at n, from KL(n+m||n) and KL(n+2m||n+m)."""
    return abs(kl_n) <= eps1 and abs(kl_next - kl_n) <= eps2


def check_sufficiency(report, v: np.ndarray) -> str | None:
    """None when ``report`` obeys the stopping rule on ``v``, else why not."""
    m, eps1, eps2 = report.step_m, report.eps1, report.eps2
    traj = dict(report.kl_trajectory)
    steps = sorted(traj)
    if steps != list(range(m, steps[-1] + 1, m)):
        return "trajectory has gaps"
    # the recorded trajectory must not stop earlier than reported
    last = report.total_length if report.exhausted else int(report.n_hat)
    for n in steps:
        if n >= last or n + m not in traj:
            break
        if stops_at(traj[n], traj[n + m], eps1, eps2):
            return f"rule already holds at n={n}"
    if report.exhausted:
        if steps[-1] + 2 * m <= len(v):
            return "exhausted before the end of the sequence"
        n = steps[-1] - m
        exact = [prefix_kl(v, n, m), prefix_kl(v, n + m, m)]
        if n >= m and stops_at(*exact, eps1, eps2):
            return f"exact KDE stops at n={n} but the report is exhausted"
        return None
    n_hat = int(report.n_hat)
    exact = {n: prefix_kl(v, n, m) for n in (n_hat - m, n_hat, n_hat + m) if n >= m}
    if not stops_at(exact[n_hat], exact[n_hat + m], eps1, eps2):
        return f"exact KDE does not stop at n_hat={n_hat}"
    if n_hat - m in exact and stops_at(exact[n_hat - m], exact[n_hat], eps1, eps2):
        return f"exact KDE already stops at n={n_hat - m}"
    return None


def windowed_max(a: np.ndarray, m: int) -> np.ndarray:
    """max(a[i:i+m]) for every i, by doubling the window width."""
    out, width = a, 1
    while 2 * width <= m:
        out = np.maximum(out[:-width], out[width:])
        width *= 2
    count = len(a) - m + 1
    return np.maximum(out[:count], out[m - width : m - width + count])


def apen(seq: np.ndarray, m: int, r: float) -> float:
    """Approximate entropy with self-matches, from per-diagonal distances."""
    n = len(seq)
    phi = []
    for mm in (m, m + 1):
        n_windows = n - mm + 1
        counts = np.ones(n_windows, dtype=np.int64)
        for d in range(1, n_windows):
            hits = windowed_max(np.abs(seq[: n - d] - seq[d:]), mm) <= r
            counts[: n_windows - d] += hits
            counts[d:] += hits
        phi.append(float(np.mean(np.log(counts / n_windows))))
    return phi[0] - phi[1]


def check_apen_profile(profile, seq: np.ndarray, threshold: float) -> str | None:
    """Slope rule on the profile, and ApEn at the selected length and the
    candidate before it against the reference, to 1e-12."""
    lengths, values = profile.candidate_lengths, profile.apen_values
    slopes = [
        (values[k + 1] - values[k]) / (lengths[k + 1] - lengths[k])
        for k in range(len(lengths) - 1)
    ]
    first = next((k for k, s in enumerate(slopes) if abs(s) <= threshold), None)
    expected = lengths[-1] if first is None else lengths[first + 1]
    if profile.selected_length != expected or profile.converged != (first is not None):
        return f"slope rule selects {expected}, profile says {profile.selected_length}"
    k = lengths.index(profile.selected_length)
    for j in (k - 1, k):
        want = apen(seq, lengths[j], profile.tolerance_r)
        if abs(values[j] - want) > 1e-12:
            return f"ApEn at m={lengths[j]}: {values[j]!r} != reference {want!r}"
    return None


def auc(scores: np.ndarray, labels: np.ndarray) -> float:
    pos, neg = scores[labels == 1], scores[labels == 0]
    wins = np.count_nonzero(pos[:, None] > neg[None, :])
    ties = np.count_nonzero(pos[:, None] == neg[None, :])
    return (wins + 0.5 * ties) / (len(pos) * len(neg))


def eer(scores: np.ndarray, labels: np.ndarray) -> tuple[float, float]:
    """EER and threshold; ties on |FAR - FRR| keep the lower threshold."""
    pos, neg = scores[labels == 1], scores[labels == 0]
    best = (math.inf, 0.0, 0.0)
    for t in sorted(set(scores.tolist()) | {0.0, 1.0}):
        far = np.count_nonzero(neg >= t) / len(neg)
        frr = np.count_nonzero(pos < t) / len(pos)
        if abs(far - frr) < best[0] - 1e-15:
            best = (abs(far - frr), (far + frr) / 2.0, t)
    return best[1], best[2]


def check_eval_report(report, scores: np.ndarray, labels: np.ndarray, unseen) -> str | None:
    """AUC, EER and DSR of ``report`` against the brute-force values."""
    want_auc = auc(scores, labels)
    want_eer, want_thr = eer(scores, labels)
    want_dsr = float(np.mean(scores[unseen] < 0.5))
    got = (report.auc, report.eer, report.eer_threshold, report.dsr)
    want = (want_auc, want_eer, want_thr, want_dsr)
    if any(abs(g - w) > 1e-12 for g, w in zip(got, want)):
        return f"eval (auc, eer, threshold, dsr) {got} != brute force {want}"
    return None


def check_roc_csv(text: str, scores: np.ndarray) -> str | None:
    rows = [tuple(map(float, line.split(","))) for line in text.strip().splitlines()[1:]]
    if len(rows) != len(set(scores.tolist()) | {0.0, 1.0}):
        return "ROC CSV has the wrong number of thresholds"
    far, tpr = np.array(rows).T
    if rows[-1] != (1.0, 1.0) or np.any(np.diff(far) < 0) or np.any(np.diff(tpr) < 0):
        return "ROC CSV is not a monotone curve ending at (1, 1)"
    return None
