import math
import tracemalloc

import numpy as np
import pytest

from mouseauth.errors import MouseAuthError
from mouseauth.kinematics import VelocitySequence
import mouseauth.mau as mau_mod
from mouseauth.mau import (
    _match_counts,
    apen,
    apen_profile,
    segment,
)
from mouseauth.synth import SplitMix64


def make_vel(v):
    return VelocitySequence("u", "s", 0.01, np.asarray(v, dtype=float))


def test_match_superset_property():
    # windows matching at length m+1 must also match at length m
    rng = np.random.default_rng(3)
    seq = rng.normal(size=60)
    m, r = 3, 0.8
    w = len(seq) - (m + 1) + 1
    for p in range(w):
        for q in range(w):
            if p == q:
                continue
            d_long = np.max(np.abs(seq[p : p + m + 1] - seq[q : q + m + 1]))
            d_short = np.max(np.abs(seq[p : p + m] - seq[q : q + m]))
            if d_long <= r:
                assert d_short <= r


# ---------------------------------------------------------------------------
# apen

def brute_force_apen(seq, m, r):
    """Independent double-loop oracle, self-matches included."""
    seq = np.asarray(seq, dtype=float)
    n = len(seq)

    def phi(mm):
        w = n - mm + 1
        total = 0.0
        for p in range(w):
            count = 0
            for q in range(w):
                d = max(abs(seq[p + s] - seq[q + s]) for s in range(mm))
                if d <= r:
                    count += 1
            total += math.log(count / w)
        return total / w

    return phi(m) - phi(m + 1)


def test_apen_constant_exactly_zero():
    assert apen(np.full(40, 7.0), 2, 0.5) == 0.0


def test_apen_noise_exceeds_sine():
    n = 300
    noise = SplitMix64(5).normals(n)
    sine = np.sin(2 * np.pi * np.arange(n) / 25)
    r_noise = 0.2 * noise.std(ddof=1)
    r_sine = 0.2 * sine.std(ddof=1)
    assert apen(noise, 2, r_noise) > apen(sine, 2, r_sine)


def test_apen_too_short():
    with pytest.raises(MouseAuthError, match=r"apen needs length >= m \+ 2"):
        apen(np.array([1.0, 2.0, 3.0]), 2, 0.5)


@pytest.mark.parametrize("n,m,seed", [(50, 2, 0), (120, 3, 1), (200, 2, 2), (80, 5, 3)])
def test_apen_matches_brute_force(n, m, seed):
    rng = np.random.default_rng(seed)
    seq = rng.normal(size=n)
    r = 0.2 * seq.std(ddof=1)
    assert apen(seq, m, r) == pytest.approx(brute_force_apen(seq, m, r), abs=1e-12)


# ---------------------------------------------------------------------------
# the match-count kernel

def histogram_match_counts(seq, max_len, r):
    """Reference: every window's self-inclusive match count at every length
    1..max_len (row k), from each pair's run length clipped at max_len and
    histogrammed, then a reverse cumulative sum over run lengths."""
    n = len(seq)
    hist = np.zeros((max_len + 1, n), dtype=np.int64)
    for d in range(1, n):
        close = np.abs(seq[: n - d] - seq[d:]) <= r
        run = 0
        for t in range(n - d - 1, -1, -1):  # run of close pairs from t on
            run = run + 1 if close[t] else 0
            hist[min(run, max_len), t] += 1
            hist[min(run, max_len), t + d] += 1
    return hist[::-1].cumsum(axis=0)[::-1] + 1


def _ar(phi, n, seed):
    noise = SplitMix64(seed).normals(n)
    x = np.zeros(n)
    for i in range(1, n):
        x[i] = phi * x[i - 1] + noise[i]
    return x


def _kernel_cases():
    return {
        "random": (SplitMix64(20).normals(150), 0.3),
        "constant": (np.full(90, 2.5), 0.1),
        # multiples of 0.5 with r = 0.5: many pairs lie exactly r apart
        "quantized": (np.round(2 * SplitMix64(21).normals(160)) / 2, 0.5),
        # r near 0.8 sd: runs of close pairs up to 265 long
        "ar099": (_ar(0.99, 400, 22), 3.0),
    }


@pytest.mark.parametrize("lengths", [
    [1, 2],
    [1, 2, 3, 5, 10, 11],
    [20, 21, 40, 41, 60, 61],
    [7, 3, 7, 1, 30, 3],  # unsorted and repeated
], ids=["1-2", "short", "long", "unsorted"])
@pytest.mark.parametrize("kind", sorted(_kernel_cases()))
def test_match_counts_equal_the_reference(kind, lengths):
    seq, r = _kernel_cases()[kind]
    n = len(seq)
    ref = histogram_match_counts(seq, max(lengths), r)
    counts = _match_counts(seq, lengths, r)
    assert counts.dtype == np.int64 and len(counts) == len(lengths)
    for row, k in zip(counts, lengths):
        assert np.array_equal(row[: n - k + 1], ref[k, : n - k + 1])


@pytest.mark.parametrize("pairs", [1, 5, 977])
def test_match_counts_do_not_depend_on_the_block_size(monkeypatch, pairs):
    # a few diagonals per block, so a session's runs spread over many blocks
    seq, r = _kernel_cases()["ar099"]
    lengths = [1, 10, 11, 50, 51, 200, 201]
    ref = histogram_match_counts(seq, max(lengths), r)
    monkeypatch.setattr(mau_mod, "_PAIRS_PER_BLOCK", pairs)
    counts = _match_counts(seq, lengths, r)
    for row, k in zip(counts, lengths):
        assert np.array_equal(row[: len(seq) - k + 1], ref[k, : len(seq) - k + 1])


# ---------------------------------------------------------------------------
# profile + segmentation

def test_apen_profile_flat_selects_first_qualifying():
    # constant sequence: ApEn is 0 at every length, slope 0 -> selects the
    # second candidate
    vel = make_vel(np.ones(100))
    profile = apen_profile(vel, candidates=[10, 20], r_factor=0.2)
    assert profile.apen_values == [0.0, 0.0]
    assert profile.slopes == [0.0]
    assert profile.selected_length == 20
    assert profile.converged


def test_apen_profile_fallback_flag():
    rng = np.random.default_rng(7)
    vel = make_vel(rng.normal(size=300))
    profile = apen_profile(vel, candidates=[2, 3], slope_threshold=1e-12)
    assert profile.selected_length == 3
    assert not profile.converged


def test_apen_profile_validation():
    vel = make_vel(np.ones(100))
    with pytest.raises(MouseAuthError, match="candidates must be strictly increasing"):
        apen_profile(vel, candidates=[10, 10])
    with pytest.raises(MouseAuthError, match="r_factor must be positive"):
        apen_profile(vel, candidates=[5, 10], r_factor=0.0)
    with pytest.raises(MouseAuthError, match="capped length 50 < max candidate"):
        apen_profile(make_vel(np.ones(50)), candidates=[10, 60])
    # a slope needs two candidates; these three were accepted
    with pytest.raises(MouseAuthError, match="need at least two candidate lengths"):
        apen_profile(vel, candidates=[10])
    with pytest.raises(MouseAuthError, match="slope_threshold must be positive"):
        apen_profile(vel, candidates=[5, 10], slope_threshold=0.0)
    with pytest.raises(MouseAuthError, match="cap too small"):
        apen_profile(vel, candidates=[5, 10], cap=11)


def test_apen_profile_cap(monkeypatch):
    import mouseauth.mau as mau_mod

    seen = {}
    real = mau_mod._match_counts

    def spy(seq, lengths, r):
        seen["n"] = len(seq)
        return real(seq, lengths, r)

    monkeypatch.setattr(mau_mod, "_match_counts", spy)
    vel = make_vel(np.random.default_rng(0).normal(size=500))
    mau_mod.apen_profile(vel, candidates=[5, 10], cap=200)
    assert seen["n"] == 200


def _profile_inputs():
    n = 70
    t = np.arange(n)
    iid = SplitMix64(8).normals(n)
    ar1 = np.zeros(n)
    for i in range(1, n):
        ar1[i] = 0.8 * ar1[i - 1] + iid[i]
    return {
        "sine": np.sin(2 * np.pi * t / 9) + 0.05 * SplitMix64(9).normals(n),
        "ar1": ar1,
        "iid": iid,
        "tied": np.round(SplitMix64(10).normals(n), 0),
        "shortest": SplitMix64(11).normals(12),  # n = max candidate + 2
    }


@pytest.mark.parametrize("kind", sorted(_profile_inputs()))
def test_apen_profile_matches_brute_force(kind):
    # one pass serves every length, m = 1 included
    seq = _profile_inputs()[kind]
    candidates = [1, 2, 3, 5, 10]
    profile = apen_profile(make_vel(seq), candidates=candidates)
    for m, value in zip(candidates, profile.apen_values):
        assert value == pytest.approx(
            brute_force_apen(seq, m, profile.tolerance_r), abs=1e-12
        )


def test_apen_profile_constant_exactly_zero():
    profile = apen_profile(make_vel(np.full(30, 3.5)), candidates=[1, 2, 3, 5, 10])
    assert profile.apen_values == [0.0] * 5


def test_apen_profile_serialization():
    vel = make_vel(np.ones(100))
    profile = apen_profile(vel, candidates=[10, 20])
    assert '"selected_length": 20' in profile.to_json()
    assert profile.profile_csv().splitlines()[0] == "length,apen"


def test_segment_basic():
    maus = list(segment(make_vel(np.arange(10.0)), 3))
    assert [m.start_index for m in maus] == [0, 3, 6]
    assert all(len(m.values) == 3 for m in maus)
    assert maus[1].values.tolist() == [3.0, 4.0, 5.0]


def test_segment_too_short_sequence():
    assert len(segment(make_vel(np.arange(5.0)), 10)) == 0


def test_segment_exact_fit():
    maus = segment(make_vel(np.arange(9.0)), 3)
    assert len(maus) == 3


def test_segment_disjoint_prefix_property():
    rng = np.random.default_rng(11)
    v = rng.normal(size=47)
    maus = segment(make_vel(v), 5)
    covered = []
    for m in maus:
        covered.extend(range(m.start_index, m.start_index + 5))
    assert covered == list(range(45))  # disjoint and a prefix


def test_segment_windows_are_read_only_views_of_the_session():
    v = np.arange(10.0)
    maus = list(segment(make_vel(v), 3))
    assert all(np.shares_memory(m.values, v) for m in maus)
    with pytest.raises(ValueError, match="read-only"):
        maus[0].values[0] = -1.0
    v[4] = 40.0  # the session stays writeable, and its windows see the write
    assert maus[1].values.tolist() == [3.0, 40.0, 5.0]


@pytest.mark.parametrize("v", [
    np.arange(23, dtype=np.float32) * 1.1,
    np.arange(46.0)[::2],
    np.arange(69.0)[::-3],
], ids=["float32", "strided", "reversed"])
def test_segment_windows_equal_the_slices_of_any_speed_array(v):
    vel = VelocitySequence("u", "s", 0.01, v)
    maus = segment(vel, 5)
    assert [m.start_index for m in maus] == [0, 5, 10, 15]
    for m in maus:
        assert type(m.start_index) is int
        assert m.values.dtype == np.float64
        assert np.array_equal(m.values, np.asarray(v[m.start_index : m.start_index + 5], float))


def test_windows_and_profiles_carry_no_instance_dict():
    vel = make_vel(SplitMix64(2).normals(60))
    assert not hasattr(next(iter(segment(vel, 10))), "__dict__")
    assert not hasattr(apen_profile(vel, candidates=[2, 4]), "__dict__")


def test_segment_memory_per_window_while_the_session_is_held():
    # a copied window behind an instance dict took about 500 B; a slotted
    # view about 220 B
    vels = [make_vel(SplitMix64(i).normals(20_000)) for i in range(10)]
    segment(vels[0], 30)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        windows = [segment(vel, 30) for vel in vels]
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    n = sum(map(len, windows))
    assert n == 10 * (20_000 // 30)
    assert retained / n < 300


def test_a_profile_and_its_windows_retain_little_while_the_session_is_held():
    # one window object per row, a stored slopes list and a candidate list
    # per profile took about 5.7 KB a request; windows built on access,
    # slopes computed on read and a shared candidate tuple about 1.3 KB
    vel = make_vel(SplitMix64(3).normals(400))
    segment(vel, apen_profile(vel).selected_length)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        held = []
        for _ in range(10):
            profile = apen_profile(vel)
            held.append((profile, segment(vel, profile.selected_length)))
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert retained / len(held) < 2500


def test_segment_invalid_length():
    with pytest.raises(MouseAuthError, match="MAU length must be >= 1"):
        segment(make_vel(np.arange(10.0)), 0)


# ---------------------------------------------------------------------------
# settings

@pytest.mark.parametrize("m, r, message", [
    (2, float("nan"), "r must be positive and finite"),  # gave -0.0102
    (2, float("inf"), "r must be positive and finite"),  # gave 0.0
    (True, 0.5, "m must be an integer >= 1"),  # ran at m = 1
    (2.0, 0.5, "m must be an integer >= 1"),  # a bare TypeError
    ("2", 0.5, "m must be an integer >= 1"),
])
def test_apen_rejects_bad_settings(m, r, message):
    with pytest.raises(MouseAuthError, match=message):
        apen(SplitMix64(4).normals(40), m, r)


@pytest.mark.parametrize("settings, message", [
    ({"candidates": [2.7, 4]}, "candidates must be integers"),  # ran at [2, 4]
    ({"candidates": [True, 4]}, "candidates must be integers"),  # ran at [1, 4]
    ({"cap": 50.5}, "cap must be an integer"),  # a bare TypeError
    ({"r_factor": float("inf")}, "r_factor must be positive and finite"),
    ({"slope_threshold": "1"}, "slope_threshold must be positive and finite"),  # a TypeError
    # selected on a threshold that every slope meets
    ({"slope_threshold": float("inf")}, "slope_threshold must be positive and finite"),
    ({"candidates": 5}, "candidates must be a list of integers"),  # a bare TypeError
    ({"candidates": {2: "a", 4: "b"}}, "candidates must be a list of integers"),
])
def test_apen_profile_rejects_bad_settings(settings, message):
    vel = make_vel(SplitMix64(6).normals(100))
    with pytest.raises(MouseAuthError, match=message):
        apen_profile(vel, **{"candidates": [2, 4], **settings})


@pytest.mark.parametrize("length", [True, 2.5, 3.0, "3"])
def test_segment_rejects_non_integer_length(length):
    # True cut length-1 windows; the others raised a bare TypeError
    with pytest.raises(MouseAuthError, match="MAU length must be >= 1 and an integer"):
        segment(make_vel(np.arange(10.0)), length)


def test_numpy_integer_settings_accepted():
    seq = SplitMix64(4).normals(60)
    assert apen(seq, np.int64(2), 0.3) == apen(seq, 2, 0.3)
    assert len(segment(make_vel(np.arange(10.0)), np.int32(3))) == 3
    profile = apen_profile(make_vel(seq), candidates=np.array([2, 4]), cap=np.int64(50))
    assert '"candidate_lengths": [2, 4]' in profile.to_json()


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_apen_profile_rejects_non_finite_speeds(bad):
    # the profile came back in full: sigma went NaN and r fell to its floor
    v = SplitMix64(12).normals(100)
    v[37] = bad
    with pytest.raises(MouseAuthError, match="s: non-finite speed among the first 100 samples"):
        apen_profile(make_vel(v), candidates=[2, 4])
    # samples past the cap are never read
    assert apen_profile(make_vel(v), candidates=[2, 4], cap=30).candidate_lengths == (2, 4)
