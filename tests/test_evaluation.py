import numpy as np
import pytest
from hypothesis import given, strategies as st

from mouseauth.errors import MouseAuthError
from mouseauth.evaluation import (
    ScoredSet,
    blind_attack_eval,
    build_splits,
    confusion_counts,
    dsr,
    eer,
    f1_score,
    report_scores,
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
# scored sets


@pytest.mark.parametrize("scores, labels, message", [
    ([0.9, np.nan, 0.2, 0.1], [1, 1, 0, 0], "scores must be finite"),
    ([0.9, np.inf, 0.2, 0.1], [1, 1, 0, 0], "scores must be finite"),
    ([0.9, 0.8, 0.2, 0.1], [1, 2, 0, 0], "labels must be 0 or 1"),
    ([0.9, 0.8, 0.2, 0.1], [1, 1, 0.5, 0], "labels must be 0 or 1"),
    ([0.9, 0.8, 0.2, 0.1], [1, 1, 0, -1], "labels must be 0 or 1"),
    ([0.9, 0.8, 0.2], [1, 1, 0, 0], "scores and labels must have equal length"),
])
def test_scored_set_rejects_non_finite_scores_and_other_labels(scores, labels, message):
    # a NaN score used to sort above every other one (roc_auc 1.0 on the
    # first case) and a label 0.5 to count as an imposter
    with pytest.raises(MouseAuthError, match=message):
        ScoredSet(np.array(scores), np.array(labels))


# ---------------------------------------------------------------------------
# f1


def test_f1_perfect():
    s = scored([1.0, 1.0, 0.0, 0.0], [1, 1, 0, 0])
    assert f1_score(s, 0.5) == 1.0


def test_f1_all_rejected():
    s = scored([0.1, 0.2, 0.0], [1, 1, 0])
    assert f1_score(s, 0.5) == 0.0


def test_f1_hand_confusion_matrix():
    # F1 = 2tp / (2tp + fp + fn), rounded once: TP=2 FP=1 FN=1 gives 2/3, and
    # TP=382 FP=503 FN=18 gives 764/1285, one ulp above the harmonic mean of
    # the rounded precision and recall
    for tp, fp, fn, want in [(2, 1, 1, 2 / 3), (382, 503, 18, 764 / 1285)]:
        s = scored([0.9] * tp + [0.1] * fn + [0.7] * fp + [0.2],
                   [1] * (tp + fn) + [0] * (fp + 1))
        assert confusion_counts(s, 0.5) == {"tp": tp, "fp": fp, "tn": 1, "fn": fn}
        assert f1_score(s, 0.5) == want


def test_f1_empty():
    for metric in (f1_score, roc_auc, eer):
        with pytest.raises(MouseAuthError, match="empty score set"):
            metric(scored([], []))


@pytest.mark.parametrize("threshold", [np.nan, np.inf, -np.inf])
def test_f1_and_confusion_counts_reject_non_finite_thresholds(threshold):
    # a NaN threshold used to count every sample as rejected, giving F1 0.0
    s = scored([0.9, 0.8, 0.1, 0.7, 0.2], [1, 1, 1, 0, 0])
    with pytest.raises(MouseAuthError, match="threshold must be finite"):
        f1_score(s, threshold)
    with pytest.raises(MouseAuthError, match="threshold must be finite"):
        confusion_counts(s, threshold)


# ---------------------------------------------------------------------------
# auc


def test_auc_separated():
    assert roc_auc(scored([0.9, 0.8, 0.1, 0.2], [1, 1, 0, 0])) == 1.0


def test_auc_all_ties():
    assert roc_auc(scored([0.5] * 6, [1, 1, 1, 0, 0, 0])) == 0.5


def test_auc_half():
    assert roc_auc(scored([0.9, 0.4, 0.6], [1, 1, 0])) == 0.5


def test_auc_single_class():
    with pytest.raises(MouseAuthError, match="need at least one legitimate and one imposter sample"):
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


def test_eer_tie_goes_to_the_lower_threshold():
    # at 0.6, FAR 3/6 and FRR 2/6; at 0.7, FAR 1/6 and FRR 2/6. Both gaps are
    # 1/6, but as floats the first is 0.16666666666666669 and the second
    # 0.16666666666666666, so a float argmin would pick 0.7
    s = scored([0.0, 0.7, 0.9, 0.9, 0.9, 0.2, 1.0, 0.6, 0.2, 0.1, 0.1, 0.6],
               [1] * 6 + [0] * 6)
    assert abs(3 / 6 - 2 / 6) > abs(1 / 6 - 2 / 6)
    assert eer(s) == ((3 / 6 + 2 / 6) / 2, 0.6)


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
    with pytest.raises(MouseAuthError, match="no attack scores"):
        dsr(np.array([]), 0.5)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_dsr_rejects_non_finite_scores(bad):
    # a NaN compares false against the threshold, so it would count as accepted
    with pytest.raises(MouseAuthError, match="attack scores must be finite"):
        dsr([bad, 0.1, 0.9])


@pytest.mark.parametrize("threshold", [np.nan, np.inf, -np.inf])
def test_dsr_rejects_non_finite_thresholds(threshold):
    # a NaN threshold used to count every attack as accepted, giving DSR 0.0
    with pytest.raises(MouseAuthError, match="threshold must be finite"):
        dsr([0.1, 0.2], threshold)


# ---------------------------------------------------------------------------
# splits


def user_rows(user, n, length):
    """n MAUs of one user as (n, length) rows; row i holds the user's number
    first and i after it, so each row names its MAU."""
    rows = np.empty((n, length))
    rows[:, 0] = user
    rows[:, 1:] = np.arange(n)[:, None]
    return rows


def as_maus(rows):
    return [Mau(i * rows.shape[1], row) for i, row in enumerate(rows)]


FORMS = ("rows", "maus")


def make_users(form, n_users=4, maus_per_user=40, length=5):
    """Users as the command line passes them, one (n, L) array each
    (form "rows"), or as lists of Mau, the form the benchmark passes
    ("maus"). Each split test runs on both."""
    users = {f"u{u}": user_rows(u, maus_per_user, length) for u in range(n_users)}
    if form == "maus":
        users = {u: as_maus(rows) for u, rows in users.items()}
    return users


def test_split_ratio():
    for form in FORMS:
        split = build_splits(make_users(form), "u0", ratio=5.0, unseen_count=1, seed=0)
        pos = sum(1 for l in split.train_labels if l == 1)
        neg = sum(1 for l in split.train_labels if l == 0)
        assert neg == max(1, round(pos / 5.0))


def test_split_ratio_8_to_1():
    for form in FORMS:
        users = make_users(form, maus_per_user=80)
        split = build_splits(users, "u0", ratio=8.0, unseen_count=1, seed=0)
        pos = sum(1 for l in split.train_labels if l == 1)
        neg = sum(1 for l in split.train_labels if l == 0)
        assert neg == max(1, round(pos / 8.0))


def named(rows):
    """The (user, index) of each row, as user_rows wrote them."""
    return [(int(row[0]), int(row[1])) for row in rows]


def test_split_disjoint_and_unseen():
    for form in FORMS:
        split = build_splits(make_users(form), "u0", ratio=5.0, unseen_count=1, seed=3)
        train, test = named(split.train_maus), named(split.test_maus)
        # every MAU lands on exactly one side, once
        assert sorted(train + test) == [(u, i) for u in range(4) for i in range(40)]
        assert not set(train) & set(test)
        assert [u == 0 for u, _ in train] == (split.train_labels == 1).tolist()
        assert [u == 0 for u, _ in test] == (split.test_labels == 1).tolist()
        unseen = int(split.unseen_users[0][1:])
        assert all(u != unseen for u, _ in train)
        assert split.unseen_mask.any()
        assert [u == unseen for u, _ in test] == split.unseen_mask.tolist()


def test_split_deterministic():
    for form in FORMS:
        users = make_users(form)
        s1 = build_splits(users, "u0", seed=9)
        s2 = build_splits(users, "u0", seed=9)
        assert s1.unseen_users == s2.unseen_users
        # the rows name their MAUs, so the same MAUs come in the same order
        assert named(s1.train_maus) == named(s2.train_maus)
        assert named(s1.test_maus) == named(s2.test_maus)
        assert named(build_splits(users, "u0", seed=10).train_maus) != named(s1.train_maus)


@pytest.mark.parametrize("seed", [0, 3, 9])
def test_split_is_the_same_from_rows_and_from_mau_lists(seed):
    a, b = (build_splits(make_users(form), "u0", seed=seed) for form in FORMS)
    assert a.unseen_users == b.unseen_users
    for field in ("train_maus", "train_labels", "test_maus", "test_labels", "unseen_mask"):
        assert getattr(a, field).dtype == getattr(b, field).dtype
        np.testing.assert_array_equal(getattr(a, field), getattr(b, field))


def test_split_insufficient_users():
    for form in FORMS:
        with pytest.raises(MouseAuthError, match="need >= 3 users, have 2"):
            build_splits(make_users(form, n_users=2), "u0", unseen_count=1)
        users = make_users(form, n_users=3)
        with pytest.raises(MouseAuthError, match="unknown legitimate user 'u9'"):
            build_splits(users, "u9")
        # one MAU cannot be split into a train and a test part
        with pytest.raises(MouseAuthError, match="u0: too few MAUs to split"):
            build_splits({**users, "u0": users["u0"][:1]}, "u0")


def without_maus(users, user):
    """users with no MAU left for user, in its own form."""
    return {**users, user: users[user][:0]}


def test_split_rejects_unseen_users_without_maus():
    # a session shorter than one MAU left the unseen side empty, and
    # blind_attack_eval reported dsr None without an error
    for form in FORMS:
        users = make_users(form, n_users=3)
        unseen = build_splits(users, "u0", seed=0).unseen_users[0]
        with pytest.raises(MouseAuthError, match=r"unseen users \['u\d'\] have no MAUs"):
            build_splits(without_maus(users, unseen), "u0", seed=0)


def test_split_rejects_known_imposters_without_maus():
    for form in FORMS:
        users = make_users(form, n_users=3)
        unseen = build_splits(users, "u0", seed=0).unseen_users[0]
        known, = set(users) - {"u0", unseen}
        with pytest.raises(MouseAuthError, match="not enough known-imposter MAUs"):
            build_splits(without_maus(users, known), "u0", seed=0)


def test_a_user_without_maus_adds_no_row():
    for form in FORMS:
        users = make_users(form, n_users=5)
        unseen = build_splits(users, "u0", unseen_count=2, seed=0).unseen_users
        split = build_splits(without_maus(users, unseen[0]), "u0", unseen_count=2, seed=0)
        assert [u for u, _ in named(split.test_maus[split.unseen_mask])] == \
            [int(unseen[1][1:])] * 40


@pytest.mark.parametrize("settings, message", [
    ({"ratio": 0}, "pos_neg_ratio must be positive"),  # was a ZeroDivisionError
    ({"ratio": -2.0}, "pos_neg_ratio must be positive"),
    ({"train_frac": 1.5}, r"train_frac must be in \(0, 1\)"),  # no legitimate test MAU
    ({"unseen_count": 0}, "unseen_count must be >= 1"),  # no unseen user, so no DSR
    # these were a bare TypeError, "need >= 3.5 users", or a split on one imposter MAU
    ({"unseen_count": True}, "unseen_count must be >= 1 and an integer"),
    ({"unseen_count": 1.5}, "unseen_count must be >= 1 and an integer"),
    ({"ratio": float("inf")}, "pos_neg_ratio must be positive and finite"),
    ({"ratio": "5"}, "pos_neg_ratio must be positive and finite"),
    ({"train_frac": "0.7"}, r"train_frac must be in \(0, 1\)"),
])
def test_split_rejects_settings_it_cannot_honour(settings, message):
    for form in FORMS:
        with pytest.raises(MouseAuthError, match=message):
            build_splits(make_users(form), "u0", **settings)


# ---------------------------------------------------------------------------
# blind attack


def test_blind_attack_zero_head_model():
    cfg = ModelConfig(input_length=5, conv_channels=2, kernel_size=3,
                      res_blocks=1, res_kernel=3, gru_hidden=2, seed=0)
    params = init_params(cfg)
    params["head_w"][:] = 0
    params["head_b"][:] = 0
    for form in FORMS:
        split = build_splits(make_users(form, length=5), "u0", seed=0)
        report = blind_attack_eval(params, split, cfg)
        assert report.auc == 0.5  # all scores 0.5: every pair ties
        assert report.dsr is not None and report.dsr_at_eer is not None


@pytest.mark.parametrize("mask", [[True, False, True], [False] * 5])
def test_report_scores_rejects_an_unseen_mask_of_another_length(mask):
    s = scored([0.9, 0.1, 0.8, 0.3], [1, 0, 1, 0])
    with pytest.raises(MouseAuthError, match=f"unseen_mask has {len(mask)} entries for 4 scores"):
        report_scores(s, mask)


def test_report_scores_rejects_a_mask_that_selects_no_score():
    s = scored([0.9, 0.1, 0.8, 0.3], [1, 0, 1, 0])
    with pytest.raises(MouseAuthError, match="no attack scores"):
        report_scores(s, [False] * 4)


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

