"""Mouse Authentication Units: ApEn-driven length selection and segmentation.

Approximate entropy compares how often length-m windows of a speed sequence
stay within a Chebyshev tolerance r of each other against the same count at
length m+1; regular sequences score near zero, irregular ones higher. The
MAU length is the smallest candidate where the entropy-vs-length slope
flattens below a threshold.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .errors import MouseAuthError, is_integer, is_positive_finite
from .kinematics import VelocitySequence

SLOPE_THRESHOLD = 1e-4
DEFAULT_R_FACTOR = 0.2
DEFAULT_CAP = 5000
DEFAULT_CANDIDATES = tuple(range(10, 201, 10))


# bench/workloads.py reads segment's windows as Mau objects
@dataclass(frozen=True, slots=True)
class Mau:
    """One fixed-length classifier input window, a read-only view of its
    session's speeds starting at sample start_index."""

    start_index: int
    values: np.ndarray


@dataclass(slots=True)
class ApEnProfile:
    candidate_lengths: tuple[int, ...]
    apen_values: list[float]
    tolerance_r: float
    selected_length: int
    converged: bool

    @property
    def slopes(self) -> list[float]:
        """ApEn's change per unit length from each candidate to the next."""
        return _slopes(self.candidate_lengths, self.apen_values)

    def to_json(self) -> str:
        return json.dumps({
            "candidate_lengths": self.candidate_lengths,
            "apen_values": self.apen_values,
            "slopes": self.slopes,
            "tolerance_r": self.tolerance_r,
            "selected_length": self.selected_length,
            "converged": self.converged,
        })

    def profile_csv(self) -> str:
        lines = ["length,apen"] + [
            f"{n},{a!r}" for n, a in zip(self.candidate_lengths, self.apen_values)
        ]
        return "\n".join(lines) + "\n"


# pairs of windows handled per block of diagonals in _match_counts, which
# bounds its working memory at any sequence length
_PAIRS_PER_BLOCK = 1 << 18


def _match_counts(seq: np.ndarray, lengths: list[int], r: float) -> np.ndarray:
    """Self-inclusive match counts of every window at each requested length.

    Row i of the result holds the counts of the n - k + 1 windows of length
    k = lengths[i] in its first n - k + 1 entries. For a fixed offset
    d = q - p, windows p and q of length k match in Chebyshev distance
    exactly when they lie inside one maximal run of consecutive t with
    |v[t] - v[t+d]| <= r (Pincus 1991; Manis 2008). A run [a, b) matches the
    windows p = a..b-k on one side of the pair and p + d on the other, so it
    adds +1 at a and -1 at b - k + 1 (and the same shifted by d) to length
    k's difference array; a cumulative sum then gives the counts. Runs are
    found from their ends, and binned by how many requested lengths they
    reach, so the work past the close-pair test grows with the runs, not with
    the lengths.
    """
    n = len(seq)
    ks = np.unique(lengths)
    width = n + 2
    # opens[c * width + x]: the runs that reach exactly the c shortest
    # lengths and open at x, on either side of the pair; shuts: the same runs
    # at one past their end
    opens = np.zeros((len(ks) + 1) * width, dtype=np.int64)
    shuts = np.zeros_like(opens)
    block = max(1, _PAIRS_PER_BLOCK // n)
    # NaN past the end compares as "not close": it ends every diagonal, and
    # the one NaN column past each diagonal keeps runs from joining rows
    padded = np.concatenate([seq, np.full(block, np.nan)])
    gaps = np.empty(min(block, n) * n)  # one block's |v[t] - v[t+d]|, reused
    close = np.zeros(len(gaps) + 1, dtype=bool)  # close[0] stays "not close"
    for d0 in range(1, n, block):
        # diagonal d holds the n - d pairs (t, t + d), t < n - d, then NaNs
        span = n - d0 + 1
        rows = min(block, n - d0)
        size = rows * span
        ahead = np.lib.stride_tricks.sliding_window_view(padded[d0:], span)[:rows]
        gap = gaps[:size].reshape(rows, span)
        np.abs(np.subtract(padded[:span], ahead, out=gap), out=gap)
        np.less_equal(gap, r, out=close[1 : size + 1].reshape(rows, span))
        # run starts and stops in turn, as flat indices into the block
        ends = np.flatnonzero(np.diff(close[: size + 1]))
        begin, stop = ends[0::2], ends[1::2]
        run = stop - begin
        keep = run >= ks[0]
        run = run[keep]
        row, a = np.divmod(begin[keep], span)
        d = row + d0
        c = np.searchsorted(ks, run, side="right") * width
        np.add.at(opens, np.concatenate([c + a, c + a + d]), 1)
        np.add.at(shuts, np.concatenate([c + a + run + 1, c + a + run + 1 + d]), 1)
    # row c of a reverse cumulative sum: the runs reaching ks[c - 1] or more
    opens = opens.reshape(-1, width)[::-1].cumsum(axis=0)[::-1]
    shuts = shuts.reshape(-1, width)[::-1].cumsum(axis=0)[::-1]
    # length k's difference array: +1 where a run opens, -1 at k before one
    # past its end
    diffs = opens[1:, : n + 1]
    for i, k in enumerate(ks):
        diffs[i, : n + 2 - k] -= shuts[i + 1, k:]
    counts = diffs.cumsum(axis=1)
    counts += 1  # self-matches
    return counts[np.searchsorted(ks, lengths)]


def _phi(counts: np.ndarray, n: int, m: int) -> float:
    """Pincus's phi(m) from the length-m windows' match counts: their mean
    log match fraction."""
    n_windows = n - m + 1
    # each count includes the self-match, so the log is always defined
    return float(np.mean(np.log(counts[:n_windows] / n_windows)))


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
    counts = _match_counts(seq, [m, m + 1], r)
    return _phi(counts[0], n, m) - _phi(counts[1], n, m + 1)


def _slopes(lengths: tuple[int, ...], values: list[float]) -> list[float]:
    return [
        (values[k + 1] - values[k]) / (lengths[k + 1] - lengths[k])
        for k in range(len(lengths) - 1)
    ]


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
    # profiles of one candidate tuple share it; numpy integers do not serialize
    candidates = tuple(candidates)
    if not all(type(c) is int for c in candidates):
        candidates = tuple(int(c) for c in candidates)
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
    counts = _match_counts(seq, [*candidates, *(c + 1 for c in candidates)], r)
    n, k = len(seq), len(candidates)
    values = [
        _phi(counts[i], n, c) - _phi(counts[k + i], n, c + 1)
        for i, c in enumerate(candidates)
    ]
    slopes = _slopes(candidates, values)
    first = next((k for k, s in enumerate(slopes) if abs(s) <= slope_threshold), None)
    return ApEnProfile(
        candidate_lengths=candidates,
        apen_values=values,
        tolerance_r=r,
        selected_length=candidates[-1] if first is None else candidates[first + 1],
        converged=first is not None,
    )


@dataclass(frozen=True, slots=True, eq=False)
class Windows:
    """A session's MAUs: the rows of one read-only (n_windows, L) view of its
    float64 speeds, each handed out as a Mau when iterated. Only the speeds
    and L are held; the view is built on access."""

    speeds: np.ndarray
    length: int

    @property
    def rows(self) -> np.ndarray:
        rows = self.speeds[: len(self) * self.length].reshape(-1, self.length)
        rows.flags.writeable = False
        return rows

    def __len__(self) -> int:
        return len(self.speeds) // self.length

    # bench/workloads.py iterates the windows
    def __iter__(self):
        starts = range(0, len(self) * self.length, self.length)
        return (Mau(start, row) for start, row in zip(starts, self.rows))


def segment(vel: VelocitySequence, length: int) -> Windows:
    """Non-overlapping consecutive windows; the trailing remainder is dropped.

    Windows do not overlap so train/test splits built from them cannot leak
    shared samples. They are the rows of one read-only view of the session's
    speeds (of a float64 copy, if vel.v is another dtype), so writing to a
    window's values raises ValueError and the windows keep that array alive.
    """
    if not is_integer(length) or length < 1:
        raise MouseAuthError(f"MAU length must be >= 1 and an integer, got {length!r}")
    return Windows(np.asarray(vel.v, dtype=float), int(length))
