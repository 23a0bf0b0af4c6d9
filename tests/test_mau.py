import math

import numpy as np
import pytest

from mouseauth.errors import OutOfRange, TooShort
from mouseauth.kinematics import VelocitySequence
from mouseauth.mau import (
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
    with pytest.raises(TooShort):
        apen(np.array([1.0, 2.0, 3.0]), 2, 0.5)


@pytest.mark.parametrize("n,m,seed", [(50, 2, 0), (120, 3, 1), (200, 2, 2), (80, 5, 3)])
def test_apen_matches_brute_force(n, m, seed):
    rng = np.random.default_rng(seed)
    seq = rng.normal(size=n)
    r = 0.2 * seq.std(ddof=1)
    assert apen(seq, m, r) == pytest.approx(brute_force_apen(seq, m, r), abs=1e-12)


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
    with pytest.raises(OutOfRange):
        apen_profile(vel, candidates=[10, 10])
    with pytest.raises(OutOfRange):
        apen_profile(vel, candidates=[5, 10], r_factor=0.0)
    with pytest.raises(TooShort):
        apen_profile(make_vel(np.ones(50)), candidates=[10, 60])


def test_apen_profile_cap(monkeypatch):
    import mouseauth.mau as mau_mod

    seen = {}
    real = mau_mod._match_counts_by_length

    def spy(seq, max_len, r):
        seen["n"] = len(seq)
        return real(seq, max_len, r)

    monkeypatch.setattr(mau_mod, "_match_counts_by_length", spy)
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
    maus = segment(make_vel(np.arange(10.0)), 3)
    assert [m.start_index for m in maus] == [0, 3, 6]
    assert all(len(m.values) == 3 for m in maus)
    assert maus[1].values.tolist() == [3.0, 4.0, 5.0]


def test_segment_too_short_sequence():
    assert segment(make_vel(np.arange(5.0)), 10) == []


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


def test_segment_invalid_length():
    with pytest.raises(OutOfRange):
        segment(make_vel(np.arange(10.0)), 0)
