"""Authentication metrics (F1/AUC/EER/DSR) and the blind-attack protocol.

Scores are probabilities of the legitimate class; a sample is accepted when
its score reaches the decision threshold. Labels use 1 = legitimate,
0 = imposter.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import EmptySet, InsufficientData, InsufficientUsers, SingleClass
from .mau import Mau
from . import model as model_mod

LEGIT, IMPOSTER = 1, 0
# fixed decision threshold of F1, the confusion counts and DSR
DECISION_THRESHOLD = 0.5


@dataclass
class ScoredSet:
    scores: np.ndarray
    labels: np.ndarray  # 1 = legitimate, 0 = imposter

    def __post_init__(self):
        self.scores = np.asarray(self.scores, dtype=float)
        self.labels = np.asarray(self.labels, dtype=int)
        if len(self.scores) != len(self.labels):
            raise EmptySet("scores and labels must have equal length")


@dataclass
class EvalReport:
    f1: float
    auc: float
    eer: float
    eer_threshold: float
    counts: dict
    dsr: float | None = None
    dsr_at_eer: float | None = None


def _require_both_classes(scored: ScoredSet):
    if len(scored.scores) == 0:
        raise EmptySet("empty score set")
    if len(np.unique(scored.labels)) < 2:
        raise SingleClass("need at least one legitimate and one imposter sample")


def confusion_counts(scored: ScoredSet, threshold: float) -> dict:
    accept = scored.scores >= threshold
    legit = scored.labels == LEGIT
    return {
        "tp": int(np.count_nonzero(accept & legit)),
        "fp": int(np.count_nonzero(accept & ~legit)),
        "tn": int(np.count_nonzero(~accept & ~legit)),
        "fn": int(np.count_nonzero(~accept & legit)),
    }


def f1_score(scored: ScoredSet, threshold: float = DECISION_THRESHOLD) -> float:
    """Harmonic mean of precision and recall; legitimate is the positive class."""
    if len(scored.scores) == 0:
        raise EmptySet("empty score set")
    c = confusion_counts(scored, threshold)
    tp, fp, fn = c["tp"], c["fp"], c["fn"]
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    if precision + recall == 0.0:
        return 0.0
    return 2.0 * precision * recall / (precision + recall)


def roc_auc(scored: ScoredSet) -> float:
    """Mann-Whitney AUC: fraction of (legit, imposter) pairs ranked correctly,
    ties counted half."""
    _require_both_classes(scored)
    legit = scored.scores[scored.labels == LEGIT]
    imp = np.sort(scored.scores[scored.labels != LEGIT])
    # twice the count of imposters below each legit score, plus the ties
    twice_wins = np.searchsorted(imp, legit, "left") + np.searchsorted(imp, legit, "right")
    return float(twice_wins.sum() / 2.0 / (len(legit) * len(imp)))


def _sweep(scored: ScoredSet):
    """Ascending thresholds (all distinct scores plus {0, 1}) and the FAR,
    FRR and TPR at each, accepting iff score >= t.

    Each class is sorted once and every threshold found in it by binary
    search (Fawcett 2006, Alg. 1): O((N + T) log N), not O(N * T).
    """
    _require_both_classes(scored)
    legit = np.sort(scored.scores[scored.labels == LEGIT])
    imp = np.sort(scored.scores[scored.labels == IMPOSTER])
    thresholds = np.unique(np.concatenate([scored.scores, [0.0, 1.0]]))
    legit_rejected = np.searchsorted(legit, thresholds, side="left")
    imp_rejected = np.searchsorted(imp, thresholds, side="left")
    far = (len(imp) - imp_rejected) / len(imp)
    frr = legit_rejected / len(legit)
    tpr = (len(legit) - legit_rejected) / len(legit)
    return thresholds, far, frr, tpr


def eer(scored: ScoredSet) -> tuple[float, float]:
    """Equal error rate and its threshold.

    Sweeps all distinct scores plus {0, 1}; FAR is the imposter accept rate
    and FRR the legitimate reject rate at threshold t (accept iff score >= t).
    Ties on |FAR - FRR| break toward the lower threshold.
    """
    thresholds, far, frr, _ = _sweep(scored)
    gap = np.abs(far - frr).tolist()
    best = 0
    for i, g in enumerate(gap):
        if g < gap[best] - 1e-15:
            best = i
    return float((far[best] + frr[best]) / 2.0), float(thresholds[best])


def dsr(attack_scores: np.ndarray, threshold: float = DECISION_THRESHOLD) -> float:
    """Fraction of attack samples rejected (score below threshold)."""
    attack_scores = np.asarray(attack_scores, dtype=float)
    if len(attack_scores) == 0:
        raise EmptySet("no attack scores")
    return float(np.count_nonzero(attack_scores < threshold)) / len(attack_scores)


# ---------------------------------------------------------------------------
# split construction

@dataclass
class Split:
    """Train/test MAU collections for one legitimate user."""

    legit_user: str
    train_maus: list[Mau] = field(default_factory=list)
    train_labels: list[int] = field(default_factory=list)
    test_maus: list[Mau] = field(default_factory=list)
    test_labels: list[int] = field(default_factory=list)
    unseen_mask: list[bool] = field(default_factory=list)  # aligned with test
    unseen_users: list[str] = field(default_factory=list)

    def train_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        return model_mod.batch_from_maus(self.train_maus), np.array(self.train_labels)

    def test_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        return model_mod.batch_from_maus(self.test_maus), np.array(self.test_labels)


def build_splits(
    users: dict[str, list[Mau]],
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
    if legit_user not in users:
        raise InsufficientUsers(f"unknown legitimate user {legit_user!r}")
    others = sorted(u for u in users if u != legit_user)
    if len(others) < 1 + unseen_count:
        raise InsufficientUsers(
            f"need >= {2 + unseen_count} users, have {len(users)}"
        )
    rng = np.random.default_rng(seed)
    unseen_users = list(rng.choice(others, size=unseen_count, replace=False))
    known = [u for u in others if u not in unseen_users]

    legit_maus = users[legit_user]
    n_train_pos = int(round(train_frac * len(legit_maus)))
    if n_train_pos < 1 or n_train_pos == len(legit_maus):
        raise InsufficientData(f"{legit_user}: too few MAUs to split")
    order = rng.permutation(len(legit_maus))
    train_pos = [legit_maus[i] for i in order[:n_train_pos]]
    test_pos = [legit_maus[i] for i in order[n_train_pos:]]

    imposter_pool = [(u, m) for u in known for m in users[u]]
    n_train_neg = max(1, int(round(n_train_pos / ratio)))
    if len(imposter_pool) <= n_train_neg:
        raise InsufficientData("not enough known-imposter MAUs for the ratio")
    imp_order = rng.permutation(len(imposter_pool))
    train_neg = [imposter_pool[i][1] for i in imp_order[:n_train_neg]]
    test_neg = [imposter_pool[i][1] for i in imp_order[n_train_neg:]]
    unseen_maus = [m for u in unseen_users for m in users[u]]

    split = Split(legit_user=legit_user, unseen_users=unseen_users)
    split.train_maus = train_pos + train_neg
    split.train_labels = [LEGIT] * len(train_pos) + [IMPOSTER] * len(train_neg)
    split.test_maus = test_pos + test_neg + unseen_maus
    split.test_labels = (
        [LEGIT] * len(test_pos) + [IMPOSTER] * (len(test_neg) + len(unseen_maus))
    )
    split.unseen_mask = (
        [False] * (len(test_pos) + len(test_neg)) + [True] * len(unseen_maus)
    )
    return split


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
    the scores) only, at DECISION_THRESHOLD and again at the EER threshold.
    """
    eer_value, eer_thr = eer(scored)
    unseen_scores = scored.scores[np.asarray(unseen_mask, dtype=bool)]
    report = EvalReport(
        f1=f1_score(scored),
        auc=roc_auc(scored),
        eer=eer_value,
        eer_threshold=eer_thr,
        counts=confusion_counts(scored, DECISION_THRESHOLD),
    )
    if len(unseen_scores):
        report.dsr = dsr(unseen_scores)
        report.dsr_at_eer = dsr(unseen_scores, eer_thr)
    return report


def roc_curve_csv(scored: ScoredSet) -> str:
    """FAR/TPR pairs over the threshold sweep, as CSV for plotting."""
    _, far, _, tpr = _sweep(scored)
    rows = zip(far[::-1].tolist(), tpr[::-1].tolist())
    return "far,tpr\n" + "".join(f"{f!r},{t!r}\n" for f, t in rows)
