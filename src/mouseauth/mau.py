"""Mouse Authentication Units: ApEn-driven length selection and segmentation.

Approximate entropy compares how often length-m windows of a speed sequence
stay within a Chebyshev tolerance r of each other against the same count at
length m+1; regular sequences score near zero, irregular ones higher. The
MAU length is the smallest candidate where the entropy-vs-length slope
flattens below a threshold.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass

import numpy as np

from .errors import MouseAuthError, is_integer, is_positive_finite
from .kinematics import VelocitySequence

SLOPE_THRESHOLD = 1e-4
DEFAULT_R_FACTOR = 0.2
DEFAULT_CAP = 5000
DEFAULT_CANDIDATES = tuple(range(10, 201, 10))


@dataclass(frozen=True)
class Mau:
    """One fixed-length classifier input window."""

    user_id: str
    session_id: str
    start_index: int
    values: np.ndarray


@dataclass
class ApEnProfile:
    candidate_lengths: list[int]
    apen_values: list[float]
    slopes: list[float]
    tolerance_r: float
    selected_length: int
    converged: bool

    def to_json(self) -> str:
        return json.dumps(asdict(self))

    def profile_csv(self) -> str:
        lines = ["length,apen"] + [
            f"{n},{a!r}" for n, a in zip(self.candidate_lengths, self.apen_values)
        ]
        return "\n".join(lines) + "\n"


# pairs of windows handled per block of diagonals in _match_counts_by_length,
# which bounds its working memory at any sequence length
_PAIRS_PER_BLOCK = 1 << 18


def _match_counts_by_length(seq: np.ndarray, max_len: int, r: float) -> np.ndarray:
    """Self-inclusive match counts of every window at every length, in one pass.

    Row k of the result holds the counts of the n - k + 1 windows of length
    k (k = 1..max_len) in its first n - k + 1 entries. For a fixed offset
    d = q - p, windows p and q of length k match in Chebyshev distance
    exactly when the run of consecutive t >= p with |v[t] - v[t+d]| <= r is
    at least k long (Pincus 1991; Manis 2008). Each diagonal's runs, clipped
    at max_len, are histogrammed per window on both sides of the pair; a
    reverse cumulative sum over run lengths then gives every length's counts.
    """
    n = len(seq)
    width = max_len + 1
    hist = np.zeros(width * n, dtype=np.int64)  # hist[j * n + p]: partners with run j
    block = max(1, _PAIRS_PER_BLOCK // n)
    # NaN past the end compares as "not close", which ends every diagonal
    padded = np.concatenate([seq, np.full(block, np.nan)])
    for d0 in range(1, n, block):
        offsets = np.arange(d0, min(d0 + block, n))
        span = n - d0  # diagonal d holds the n - d pairs (t, t + d), t < n - d
        t = np.arange(span)
        ahead = np.lib.stride_tricks.sliding_window_view(padded[d0:], span)[: len(offsets)]
        close = np.abs(seq[:span] - ahead) <= r
        # run length from t = distance to the first t' >= t that is not close
        stop = np.where(close, span, t)
        np.minimum.accumulate(stop[:, ::-1], axis=1, out=stop[:, ::-1])
        runs = np.minimum(stop - t, max_len)
        rows, cols = np.nonzero(runs)
        base = runs[rows, cols] * n + cols
        hist += np.bincount(base, minlength=width * n)
        hist += np.bincount(base + offsets[rows], minlength=width * n)
    counts = hist.reshape(width, n)[::-1].cumsum(axis=0)[::-1]
    counts += 1  # self-matches
    return counts


def _phi(counts: np.ndarray, n: int, m: int) -> float:
    """Pincus's phi(m): mean log match fraction of the length-m windows."""
    n_windows = n - m + 1
    # each count includes the self-match, so the log is always defined
    return float(np.mean(np.log(counts[m, :n_windows] / n_windows)))


def apen(seq: np.ndarray, m: int, r: float) -> float:
    """Approximate entropy with self-matches included (the standard form,
    which is exactly zero on constant sequences)."""
    seq = np.asarray(seq, dtype=float)
    n = len(seq)
    if not is_integer(m) or m < 1:
        raise MouseAuthError(f"m must be an integer >= 1, got {m!r}")
    if not is_positive_finite(r):
        raise MouseAuthError(f"r must be positive and finite, got {r!r}")
    if n < m + 2:
        raise MouseAuthError(f"apen needs length >= m + 2, got {n} with m={m}")
    counts = _match_counts_by_length(seq, m + 1, r)
    return _phi(counts, n, m) - _phi(counts, n, m + 1)


def check_profile_settings(
    candidates: list[int], r_factor: float, cap: int, slope_threshold: float
):
    """Raise MouseAuthError unless apen_profile can select a length with
    these settings: a list, tuple or 1-D array of two or more strictly
    increasing integer candidates >= 1 (a slope needs two), a positive finite
    tolerance factor and slope threshold, and an integer cap that keeps
    enough samples for the largest candidate."""
    if not (isinstance(candidates, (list, tuple)) or getattr(candidates, "ndim", 0) == 1):
        raise MouseAuthError(f"candidates must be a list of integers, got {candidates!r}")
    if len(candidates) < 2:
        raise MouseAuthError("need at least two candidate lengths")
    if not all(is_integer(c) for c in candidates):
        raise MouseAuthError(f"candidates must be integers, got {list(candidates)!r}")
    if any(c < 1 for c in candidates) or any(
        b <= a for a, b in zip(candidates, candidates[1:])
    ):
        raise MouseAuthError("candidates must be strictly increasing and >= 1")
    if not is_positive_finite(r_factor):
        raise MouseAuthError(f"r_factor must be positive and finite, got {r_factor!r}")
    if not is_positive_finite(slope_threshold):
        raise MouseAuthError(
            f"slope_threshold must be positive and finite, got {slope_threshold!r}")
    if not is_integer(cap):
        raise MouseAuthError(f"cap must be an integer, got {cap!r}")
    if cap < max(candidates) + 2:
        raise MouseAuthError(f"cap too small: {cap} < max candidate + 2")


def apen_profile(
    vel: VelocitySequence,
    candidates: tuple[int, ...] | list[int] = DEFAULT_CANDIDATES,
    r_factor: float = DEFAULT_R_FACTOR,
    cap: int = DEFAULT_CAP,
    slope_threshold: float = SLOPE_THRESHOLD,
) -> ApEnProfile:
    """ApEn over candidate MAU lengths plus slope-rule length selection.

    Works on at most `cap` leading samples (ApEn is quadratic in length) with
    tolerance r = r_factor * sample std. Selects the smallest candidate whose
    incoming slope magnitude is at or below the threshold; falls back to the
    largest candidate, flagged, when none qualifies.
    """
    check_profile_settings(candidates, r_factor, cap, slope_threshold)
    candidates = [int(c) for c in candidates]  # numpy integers do not serialize
    seq = np.asarray(vel.v, dtype=float)[:cap]
    if len(seq) < max(candidates) + 2:
        raise MouseAuthError(
            f"{vel.session_id}: capped length {len(seq)} < max candidate + 2"
        )
    # a NaN would make sigma NaN and compare as "not close" to every sample
    if not np.all(np.isfinite(seq)):
        raise MouseAuthError(
            f"{vel.session_id}: non-finite speed among the first {len(seq)} samples"
        )
    sigma = float(seq.std(ddof=1))
    r = r_factor * sigma if sigma > 0 else r_factor * 1e-12
    counts = _match_counts_by_length(seq, max(candidates) + 1, r)
    n = len(seq)
    values = [_phi(counts, n, c) - _phi(counts, n, c + 1) for c in candidates]
    slopes = [
        (values[k + 1] - values[k]) / (candidates[k + 1] - candidates[k])
        for k in range(len(candidates) - 1)
    ]
    selected = candidates[-1]
    converged = False
    for k, slope in enumerate(slopes):
        if abs(slope) <= slope_threshold:
            selected = candidates[k + 1]
            converged = True
            break
    return ApEnProfile(
        candidate_lengths=candidates,
        apen_values=values,
        slopes=slopes,
        tolerance_r=r,
        selected_length=selected,
        converged=converged,
    )


def segment(vel: VelocitySequence, length: int) -> list[Mau]:
    """Non-overlapping consecutive windows; the trailing remainder is dropped.

    Windows do not overlap so train/test splits built from them cannot leak
    shared samples.
    """
    if not is_integer(length) or length < 1:
        raise MouseAuthError(f"MAU length must be >= 1 and an integer, got {length!r}")
    v = np.asarray(vel.v, dtype=float)
    return [
        Mau(
            user_id=vel.user_id,
            session_id=vel.session_id,
            start_index=start,
            values=v[start : start + length].copy(),
        )
        for start in range(0, len(v) - length + 1, length)
    ]
