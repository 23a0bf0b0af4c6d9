"""Authentication metrics (F1/AUC/EER/DSR) and the blind-attack protocol.

Scores are probabilities of the legitimate class; a sample is accepted when
its score reaches the decision threshold. Labels use 1 = legitimate,
0 = imposter.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import MouseAuthError, are_labels, is_integer, is_positive_finite
from . import model as model_mod

LEGIT, IMPOSTER = 1, 0
# fixed decision threshold of F1, the confusion counts and DSR
DECISION_THRESHOLD = 0.5


def _require_finite(values, what: str):
    if not np.isfinite(values).all():
        raise MouseAuthError(f"{what} must be finite")


@dataclass
class ScoredSet:
    scores: np.ndarray
    labels: np.ndarray  # 1 = legitimate, 0 = imposter

    def __post_init__(self):
        self.scores = np.asarray(self.scores, dtype=float)
        labels = np.asarray(self.labels)
        if len(self.scores) != len(labels):
            raise MouseAuthError("scores and labels must have equal length")
        # a NaN score sorts after every other score, and a label such as 0.5
        # would truncate to 0: either gives metrics that look valid
        _require_finite(self.scores, "scores")
        if not are_labels(labels):
            raise MouseAuthError("labels must be 0 or 1")
        self.labels = labels.astype(int)


@dataclass
class EvalReport:
    f1: float
    auc: float
    eer: float
    eer_threshold: float
    counts: dict
    dsr: float | None = None
    dsr_at_eer: float | None = None


def confusion_counts(scored: ScoredSet, threshold: float) -> dict:
    # a NaN threshold would reject every sample, an infinite one decide all alike
    _require_finite(threshold, "threshold")
    accept = scored.scores >= threshold
    legit = scored.labels == LEGIT
    return {
        "tp": int(np.count_nonzero(accept & legit)),
        "fp": int(np.count_nonzero(accept & ~legit)),
        "tn": int(np.count_nonzero(~accept & ~legit)),
        "fn": int(np.count_nonzero(~accept & legit)),
    }


def f1_score(scored: ScoredSet, threshold: float = DECISION_THRESHOLD) -> float:
    """Harmonic mean of precision and recall, 2tp / (2tp + fp + fn) with one
    rounding; legitimate is the positive class, and no true positive gives 0."""
    if len(scored.scores) == 0:
        raise MouseAuthError("empty score set")
    c = confusion_counts(scored, threshold)
    return 2 * c["tp"] / (2 * c["tp"] + c["fp"] + c["fn"]) if c["tp"] else 0.0


def _sweep(scored: ScoredSet):
    """Ascending thresholds (all distinct scores plus {0, 1}) and, for each
    class, the samples accepted (score >= t) at each, as integers. The first
    threshold accepts every sample, so the first counts are the class sizes.

    Each class is sorted once and every threshold found in it by binary
    search (Fawcett 2006, Alg. 1): O((N + T) log N), not O(N * T).
    """
    legit = np.sort(scored.scores[scored.labels == LEGIT])
    imp = np.sort(scored.scores[scored.labels == IMPOSTER])
    if len(scored.scores) == 0:
        raise MouseAuthError("empty score set")
    if not (len(legit) and len(imp)):
        raise MouseAuthError("need at least one legitimate and one imposter sample")
    thresholds = np.unique(np.concatenate([scored.scores, [0.0, 1.0]]))
    legit_accepted = len(legit) - np.searchsorted(legit, thresholds, side="left")
    imp_accepted = len(imp) - np.searchsorted(imp, thresholds, side="left")
    return thresholds, legit_accepted, imp_accepted


def roc_auc(scored: ScoredSet) -> float:
    """Mann-Whitney AUC: fraction of (legit, imposter) pairs ranked correctly,
    ties counted half (Hanley & McNeil 1982)."""
    _, legit_accepted, imp_accepted = _sweep(scored)
    # every score is a threshold, so the next one counts the samples above
    legit_above, imp_above = np.append(legit_accepted[1:], 0), np.append(imp_accepted[1:], 0)
    twice_wins = (imp_accepted - imp_above) @ (legit_accepted + legit_above)
    return float(twice_wins / 2.0 / (legit_accepted[0] * imp_accepted[0]))


def eer(scored: ScoredSet) -> tuple[float, float]:
    """Equal error rate and its threshold.

    Sweeps all distinct scores plus {0, 1}; FAR is the imposter accept rate
    and FRR the legitimate reject rate at threshold t (accept iff score >= t).
    |FAR - FRR| is compared exactly, as n_legit * n_imp * |FAR - FRR| in
    integers, and a tie goes to the lowest threshold.
    """
    thresholds, legit_accepted, imp_accepted = _sweep(scored)
    n_legit, n_imp = legit_accepted[0], imp_accepted[0]
    legit_rejected = n_legit - legit_accepted
    best = np.argmin(np.abs(imp_accepted * n_legit - legit_rejected * n_imp))
    far, frr = imp_accepted[best] / n_imp, legit_rejected[best] / n_legit
    return float((far + frr) / 2.0), float(thresholds[best])


def dsr(attack_scores: np.ndarray, threshold: float = DECISION_THRESHOLD) -> float:
    """Fraction of attack samples rejected (score below threshold)."""
    attack_scores = np.asarray(attack_scores, dtype=float)
    if len(attack_scores) == 0:
        raise MouseAuthError("no attack scores")
    # a NaN compares false and would count as accepted: ScoredSet's rule
    _require_finite(attack_scores, "attack scores")
    _require_finite(threshold, "threshold")
    return float(np.count_nonzero(attack_scores < threshold)) / len(attack_scores)


# ---------------------------------------------------------------------------
# split construction

@dataclass
class Split:
    """A legitimate user's train and test MAUs as (n, L) rows, labels and unseen_mask aligned."""

    train_maus: np.ndarray
    train_labels: np.ndarray
    test_maus: np.ndarray
    test_labels: np.ndarray
    unseen_mask: np.ndarray
    unseen_users: list[str]

    def train_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        return self.train_maus, self.train_labels

    def test_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        return self.test_maus, self.test_labels


def check_split_settings(ratio: float, unseen_count: int, train_frac: float):
    """Raise MouseAuthError unless build_splits can honour these settings:
    a positive finite ratio, an integer count of at least one unseen user
    (DSR needs one) and a real train_frac in (0, 1)."""
    if not is_positive_finite(ratio):
        raise MouseAuthError(f"pos_neg_ratio must be positive and finite, got {ratio!r}")
    if not is_integer(unseen_count) or unseen_count < 1:
        raise MouseAuthError(f"unseen_count must be >= 1 and an integer, got {unseen_count!r}")
    if not (is_positive_finite(train_frac) and train_frac < 1):
        raise MouseAuthError(f"train_frac must be in (0, 1), got {train_frac!r}")


def _stack(groups: list) -> np.ndarray:
    """Users' MAUs as rows, user by user: (n, L) arrays, or lists of Mau."""
    if all(isinstance(g, np.ndarray) for g in groups):
        return np.concatenate(groups)
    # bench/workloads.py passes lists of Mau
    return model_mod.batch_from_maus([m for g in groups for m in g])


def build_splits(
    users: dict[str, np.ndarray | list],
    legit_user: str,
    ratio: float = 5.0,
    unseen_count: int = 1,
    seed: int = 0,
    train_frac: float = 0.7,
) -> Split:
    """Imbalanced train set plus a test set with held-out and unseen users.

    Train: train_frac of the legitimate user's MAUs as positives plus known
    imposters sampled so positives:negatives ~= ratio:1. Test: remaining
    legitimate MAUs, remaining known-imposter MAUs, and every MAU of
    unseen_count users excluded from training entirely.
    """
    check_split_settings(ratio, unseen_count, train_frac)
    if legit_user not in users:
        raise MouseAuthError(f"unknown legitimate user {legit_user!r}")
    others = sorted(u for u in users if u != legit_user)
    if len(others) < 1 + unseen_count:
        raise MouseAuthError(f"need >= {2 + unseen_count} users, have {len(users)}")
    rng = np.random.default_rng(seed)
    unseen_users = rng.choice(others, size=unseen_count, replace=False).tolist()
    unseen = _stack([users[u] for u in unseen_users])
    if not len(unseen):  # DSR would have no sample to score
        raise MouseAuthError(f"unseen users {unseen_users} have no MAUs")

    legit = _stack([users[legit_user]])
    n_train_pos = int(round(train_frac * len(legit)))
    if n_train_pos < 1 or n_train_pos == len(legit):
        raise MouseAuthError(f"{legit_user}: too few MAUs to split")
    train_pos, test_pos = np.split(rng.permutation(len(legit)), [n_train_pos])

    imposters = _stack([users[u] for u in others if u not in unseen_users])
    n_train_neg = max(1, int(round(n_train_pos / ratio)))
    if len(imposters) <= n_train_neg:
        raise MouseAuthError("not enough known-imposter MAUs for the ratio")
    train_neg, test_neg = np.split(rng.permutation(len(imposters)), [n_train_neg])

    return Split(
        train_maus=np.concatenate([legit[train_pos], imposters[train_neg]]),
        train_labels=np.repeat([LEGIT, IMPOSTER], [n_train_pos, n_train_neg]),
        test_maus=np.concatenate([legit[test_pos], imposters[test_neg], unseen]),
        test_labels=np.repeat([LEGIT, IMPOSTER], [len(test_pos), len(test_neg) + len(unseen)]),
        unseen_mask=np.repeat([False, True], [len(test_pos) + len(test_neg), len(unseen)]),
        unseen_users=unseen_users,
    )


# bench/workloads.py scores its test splits with this
def blind_attack_eval(
    params: dict[str, np.ndarray],
    split: Split,
    config: model_mod.ModelConfig,
) -> EvalReport:
    """Score the test split and bundle all metrics (see report_scores)."""
    X, y = split.test_arrays()
    scored = ScoredSet(scores=model_mod.predict_batch(params, X, config), labels=y)
    return report_scores(scored, split.unseen_mask)


def report_scores(scored: ScoredSet, unseen_mask: list[bool]) -> EvalReport:
    """All metrics of one scored test split.

    DSR is computed over the unseen-user samples (unseen_mask, aligned with
    the scores) only, at DECISION_THRESHOLD and again at the EER threshold;
    a mask that selects no sample raises MouseAuthError.
    """
    unseen_mask = np.asarray(unseen_mask, dtype=bool)
    if unseen_mask.shape != scored.scores.shape:
        raise MouseAuthError(
            f"unseen_mask has {len(unseen_mask)} entries for {len(scored.scores)} scores"
        )
    eer_value, eer_thr = eer(scored)
    unseen_scores = scored.scores[unseen_mask]
    return EvalReport(
        f1=f1_score(scored),
        auc=roc_auc(scored),
        eer=eer_value,
        eer_threshold=eer_thr,
        counts=confusion_counts(scored, DECISION_THRESHOLD),
        dsr=dsr(unseen_scores),
        dsr_at_eer=dsr(unseen_scores, eer_thr),
    )


def roc_curve_csv(scored: ScoredSet) -> str:
    """FAR/TPR pairs over the threshold sweep, as CSV for plotting."""
    _, legit_accepted, imp_accepted = _sweep(scored)
    far, tpr = imp_accepted[::-1] / imp_accepted[0], legit_accepted[::-1] / legit_accepted[0]
    rows = zip(far.tolist(), tpr.tolist())
    return "far,tpr\n" + "".join(f"{f!r},{t!r}\n" for f, t in rows)
