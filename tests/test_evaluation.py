import numpy as np
import pytest
from hypothesis import given, strategies as st

from mouseauth.errors import EmptySet, InsufficientUsers, SingleClass
from mouseauth.evaluation import (
    ScoredSet,
    blind_attack_eval,
    build_splits,
    dsr,
    eer,
    f1_score,
    roc_auc,
    roc_curve_csv,
)
from mouseauth.mau import Mau
from mouseauth.model import ModelConfig, init_params


def scored(scores, labels):
    return ScoredSet(np.array(scores, dtype=float), np.array(labels))


# ---------------------------------------------------------------------------
# oracles


def brute_force_auc(scores, labels):
    pos = [s for s, l in zip(scores, labels) if l == 1]
    neg = [s for s, l in zip(scores, labels) if l == 0]
    total = 0.0
    for p in pos:
        for n in neg:
            total += 1.0 if p > n else (0.5 if p == n else 0.0)
    return total / (len(pos) * len(neg))


def brute_force_eer(scores, labels):
    scores = np.asarray(scores, dtype=float)
    labels = np.asarray(labels)
    legit = scores[labels == 1]
    imp = scores[labels == 0]
    best = None
    for t in sorted(set(scores.tolist()) | {0.0, 1.0}):
        far = np.sum(imp >= t) / len(imp)
        frr = np.sum(legit < t) / len(legit)
        if best is None or abs(far - frr) < best[0] - 1e-15:
            best = (abs(far - frr), (far + frr) / 2, t)
    return best[1], best[2]


# ---------------------------------------------------------------------------
# f1


def test_f1_perfect():
    s = scored([1.0, 1.0, 0.0, 0.0], [1, 1, 0, 0])
    assert f1_score(s, 0.5) == 1.0


def test_f1_all_rejected():
    s = scored([0.1, 0.2, 0.0], [1, 1, 0])
    assert f1_score(s, 0.5) == 0.0


def test_f1_hand_confusion_matrix():
    # TP=2 FP=1 FN=1 -> P=R=2/3 -> F1=2/3
    s = scored([0.9, 0.8, 0.1, 0.7, 0.2], [1, 1, 1, 0, 0])
    assert f1_score(s, 0.5) == pytest.approx(2 / 3)


def test_f1_empty():
    with pytest.raises(EmptySet):
        f1_score(scored([], []), 0.5)


# ---------------------------------------------------------------------------
# auc


def test_auc_separated():
    assert roc_auc(scored([0.9, 0.8, 0.1, 0.2], [1, 1, 0, 0])) == 1.0


def test_auc_all_ties():
    assert roc_auc(scored([0.5] * 6, [1, 1, 1, 0, 0, 0])) == 0.5


def test_auc_half():
    assert roc_auc(scored([0.9, 0.4, 0.6], [1, 1, 0])) == 0.5


def test_auc_single_class():
    with pytest.raises(SingleClass):
        roc_auc(scored([0.5, 0.6], [1, 1]))


def test_auc_matches_brute_force():
    rng = np.random.default_rng(0)
    for trial in range(100):
        n = int(rng.integers(4, 200))
        scores = np.round(rng.random(n), 2)  # rounding forces ties
        labels = rng.integers(0, 2, n)
        if labels.min() == labels.max():
            labels[0] = 1 - labels[0]
        assert roc_auc(scored(scores, labels)) == pytest.approx(
            brute_force_auc(scores, labels), abs=1e-12
        )


@given(st.data())
def test_auc_monotone_transform_invariance(data):
    n = data.draw(st.integers(4, 30))
    scores = np.array(data.draw(st.lists(
        st.floats(0, 1, allow_nan=False), min_size=n, max_size=n)))
    labels = np.array([1, 0] + data.draw(st.lists(
        st.integers(0, 1), min_size=n - 2, max_size=n - 2)))
    a1 = roc_auc(scored(scores, labels))
    # scaling by a power of two is exact, so the map is strictly monotone
    # even for subnormal inputs
    a2 = roc_auc(scored(4.0 * scores, labels))
    assert a1 == pytest.approx(a2, abs=1e-12)


def test_auc_complement_property():
    rng = np.random.default_rng(4)
    scores = rng.permutation(np.linspace(0.01, 0.99, 30))  # no ties
    labels = rng.integers(0, 2, 30)
    labels[:2] = [0, 1]
    a = roc_auc(scored(scores, labels))
    b = roc_auc(scored(1 - scores, labels))
    assert a + b == pytest.approx(1.0, abs=1e-12)


# ---------------------------------------------------------------------------
# eer


def test_eer_separated():
    value, thr = eer(scored([0.9, 0.8, 0.1, 0.2], [1, 1, 0, 0]))
    assert value == 0.0
    assert 0.2 < thr <= 0.8


def test_eer_inverted():
    value, _ = eer(scored([0.1, 0.2, 0.9, 0.8], [1, 1, 0, 0]))
    assert value == 1.0


def test_eer_matches_brute_force():
    rng = np.random.default_rng(1)
    for trial in range(100):
        n = int(rng.integers(4, 200))
        scores = np.round(rng.random(n), 2)
        labels = rng.integers(0, 2, n)
        if labels.min() == labels.max():
            labels[0] = 1 - labels[0]
        got = eer(scored(scores, labels))
        want = brute_force_eer(scores, labels)
        assert got[0] == pytest.approx(want[0], abs=1e-12)
        assert got[1] == pytest.approx(want[1], abs=1e-12)


def test_eer_threshold_in_range():
    rng = np.random.default_rng(2)
    scores = rng.random(40)
    labels = rng.integers(0, 2, 40)
    labels[:2] = [0, 1]
    _, thr = eer(scored(scores, labels))
    assert 0.0 <= thr <= 1.0


# ---------------------------------------------------------------------------
# dsr


def test_dsr_all_rejected():
    assert dsr(np.zeros(5), 0.5) == 1.0


def test_dsr_none_rejected():
    assert dsr(np.ones(5), 0.5) == 0.0


def test_dsr_empty():
    with pytest.raises(EmptySet):
        dsr(np.array([]), 0.5)


# ---------------------------------------------------------------------------
# splits


def make_users(n_users=4, maus_per_user=40, length=5):
    users = {}
    for u in range(n_users):
        users[f"u{u}"] = [
            Mau(f"u{u}", "s0", i * length, np.full(length, float(u)))
            for i in range(maus_per_user)
        ]
    return users


def test_split_ratio():
    users = make_users()
    split = build_splits(users, "u0", ratio=5.0, unseen_count=1, seed=0)
    pos = sum(1 for l in split.train_labels if l == 1)
    neg = sum(1 for l in split.train_labels if l == 0)
    assert neg == max(1, round(pos / 5.0))


def test_split_ratio_8_to_1():
    users = make_users(maus_per_user=80)
    split = build_splits(users, "u0", ratio=8.0, unseen_count=1, seed=0)
    pos = sum(1 for l in split.train_labels if l == 1)
    neg = sum(1 for l in split.train_labels if l == 0)
    assert neg == max(1, round(pos / 8.0))


def test_split_disjoint_and_unseen():
    users = make_users()
    split = build_splits(users, "u0", ratio=5.0, unseen_count=1, seed=3)
    train_ids = {id(m) for m in split.train_maus}
    test_ids = {id(m) for m in split.test_maus}
    assert not train_ids & test_ids
    unseen = split.unseen_users[0]
    assert all(m.user_id != unseen for m in split.train_maus)
    unseen_maus = [m for m, mask in zip(split.test_maus, split.unseen_mask) if mask]
    assert unseen_maus and all(m.user_id == unseen for m in unseen_maus)


def test_split_deterministic():
    users = make_users()
    s1 = build_splits(users, "u0", seed=9)
    s2 = build_splits(users, "u0", seed=9)
    assert s1.unseen_users == s2.unseen_users
    assert [id(m) for m in s1.train_maus] == [id(m) for m in s2.train_maus]


def test_split_insufficient_users():
    users = make_users(n_users=2)
    with pytest.raises(InsufficientUsers):
        build_splits(users, "u0", unseen_count=1)


# ---------------------------------------------------------------------------
# blind attack


def test_blind_attack_zero_head_model():
    cfg = ModelConfig(input_length=5, conv_channels=2, kernel_size=3,
                      res_blocks=1, res_kernel=3, gru_hidden=2, seed=0)
    params = init_params(cfg)
    params["head_w"][:] = 0
    params["head_b"][:] = 0
    users = make_users(length=5)
    split = build_splits(users, "u0", seed=0)
    report = blind_attack_eval(params, split, cfg)
    assert report.auc == 0.5  # all scores 0.5: every pair ties
    assert report.dsr is not None and report.dsr_at_eer is not None


def brute_force_roc_csv(scores, labels):
    scores = np.asarray(scores, dtype=float)
    labels = np.asarray(labels)
    legit = scores[labels == 1]
    imp = scores[labels == 0]
    lines = ["far,tpr"]
    for t in sorted(set(scores.tolist()) | {0.0, 1.0}, reverse=True):
        far = float(np.sum(imp >= t)) / len(imp)
        tpr = float(np.sum(legit >= t)) / len(legit)
        lines.append(f"{far!r},{tpr!r}")
    return "\n".join(lines) + "\n"


def test_roc_curve_csv():
    s = scored([0.9, 0.1, 0.8, 0.3], [1, 0, 1, 0])
    assert roc_curve_csv(s) == brute_force_roc_csv(s.scores, s.labels)
    assert roc_curve_csv(s).splitlines()[:2] == ["far,tpr", "0.0,0.0"]
    rng = np.random.default_rng(5)
    for trial in range(100):
        n = int(rng.integers(4, 200))
        scores = rng.random(n)
        if trial % 2:
            scores = np.round(scores, 2)  # forces ties
        labels = rng.integers(0, 2, n)
        if labels.min() == labels.max():
            labels[0] = 1 - labels[0]
        assert roc_curve_csv(scored(scores, labels)) == brute_force_roc_csv(scores, labels)

