"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Criterion 8 (real-dataset reproduction) only runs when per-user session
directories are supplied via MOUSEAUTH_DATA (see README); it is skipped
otherwise.
"""

import os
import time
from pathlib import Path

import numpy as np
import pytest

from mouseauth import cli, evaluation, ingest, kinematics, mau, model, sufficiency, synth
from mouseauth.errors import MouseAuthError


def report(name, ok, detail=""):
    print(f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"{name} failed: {detail}"


def test_criterion_1_kde_normalization():
    start = time.time()
    samples = synth.generate(
        synth.SynthSpec("gaussian_iid", {"mean": 10, "std": 1}, 1000, seed=7)
    ).v
    h = sufficiency.silverman_bandwidth(samples)
    grid = np.linspace(samples.min() - 5 * h, samples.max() + 5 * h, 1024)
    est = sufficiency.kde(samples, grid, h)
    integral = float(np.trapezoid(est.density, grid))
    elapsed = time.time() - start
    report(
        "1 kde-normalization",
        abs(integral - 1.0) <= 1e-3 and elapsed < 1.0,
        f"integral={integral:.6f} elapsed={elapsed:.2f}s",
    )


def test_criterion_2_kl_oracle():
    start = time.time()
    a = synth.SplitMix64(11).normals(5000)
    b = 1.0 + synth.SplitMix64(12).normals(5000)
    ha = sufficiency.silverman_bandwidth(a)
    hb = sufficiency.silverman_bandwidth(b)
    h = max(ha, hb)
    grid = np.linspace(min(a.min(), b.min()) - 5 * h, max(a.max(), b.max()) + 5 * h, 1024)
    p = sufficiency.kde(a, grid, ha)
    q = sufficiency.kde(b, grid, hb)
    kl = sufficiency.kl_divergence(p, q)
    self_kl = sufficiency.kl_divergence(p, p)
    elapsed = time.time() - start
    report(
        "2 kl-oracle",
        abs(kl - 0.5) / 0.5 <= 0.25 and self_kl == 0.0 and elapsed < 5.0,
        f"kl={kl:.4f} (closed form 0.5) self={self_kl} elapsed={elapsed:.2f}s",
    )


def test_criterion_3_sufficiency_convergence():
    start = time.time()
    n_hats = []
    for seed in range(5, 10):
        vel = synth.generate(
            synth.SynthSpec("gaussian_iid", {"mean": 10, "std": 1}, 50000, seed=seed)
        )
        rep = sufficiency.sufficiency_point(vel, step_m=200, eps1=1e-4, eps2=1e-6)
        assert not rep.exhausted
        n_hats.append(rep.n_hat)
        # minimality on the step grid, re-checked from the recorded trajectory
        kl = dict(rep.kl_trajectory)
        for n in range(200, rep.n_hat, 200):
            assert not (
                abs(kl[n]) <= 1e-4 and abs(kl[n + 200] - kl[n]) <= 1e-6
            ), f"seed {seed}: earlier qualifying n={n}"
    elapsed = time.time() - start
    spread_ok = max(n_hats) <= 2 * min(n_hats)
    report(
        "3 sufficiency-convergence",
        spread_ok and elapsed < 30.0,
        f"n_hats={n_hats} elapsed={elapsed:.1f}s",
    )


def test_criterion_4_apen_oracles():
    from .test_mau import brute_force_apen

    start = time.time()
    const_ok = mau.apen(np.full(60, 3.3), 2, 0.5) == 0.0

    n = 300
    noise = synth.SplitMix64(21).normals(n)
    sine = np.sin(2 * np.pi * np.arange(n) / 25)
    order_ok = mau.apen(noise, 2, 0.2 * noise.std(ddof=1)) > mau.apen(
        sine, 2, 0.2 * sine.std(ddof=1)
    )

    brute_ok = True
    rng = np.random.default_rng(5)
    for n_small, m in ((80, 2), (150, 3), (200, 2)):
        seq = rng.normal(size=n_small)
        r = 0.2 * seq.std(ddof=1)
        if abs(mau.apen(seq, m, r) - brute_force_apen(seq, m, r)) > 1e-12:
            brute_ok = False
    elapsed = time.time() - start
    report(
        "4 apen-oracles",
        const_ok and order_ok and brute_ok and elapsed < 10.0,
        f"const={const_ok} order={order_ok} brute={brute_ok} elapsed={elapsed:.1f}s",
    )


def test_criterion_5_gradient_check():
    from .test_model import finite_difference_check

    start = time.time()
    cfg = model.ModelConfig(
        input_length=8, conv_channels=2, kernel_size=5, res_blocks=1,
        res_kernel=3, gru_hidden=3, seed=3,
    )
    batch = np.random.default_rng(7).normal(size=(4, 8))
    labels = np.array([0, 1, 1, 0])
    worst = finite_difference_check(cfg, batch, labels)
    elapsed = time.time() - start
    report(
        "5 gradient-check",
        worst < 1e-4 and elapsed < 30.0,
        f"max_rel_err={worst:.2e} elapsed={elapsed:.1f}s",
    )


def test_criterion_6_end_to_end():
    start = time.time()
    specs = {
        "u1": [synth.SynthSpec("ar1", {"phi": 0.9, "sigma": 1.0, "mean": 10.0},
                               30000, seed=101 + i) for i in range(2)],
        "u2": [synth.SynthSpec("ar1", {"phi": 0.5, "sigma": 2.0, "mean": 10.0},
                               30000, seed=201 + i) for i in range(2)],
        "u3": [synth.SynthSpec("ar1", {"phi": 0.2, "sigma": 4.0, "mean": 15.0},
                               30000, seed=301 + i) for i in range(2)],
    }
    pool = synth.generate_user_pool(specs)
    profile = mau.apen_profile(pool["u1"][0])
    assert profile.converged
    L = profile.selected_length

    users = {
        u: [m for vel in vels for m in mau.segment(vel, L)]
        for u, vels in pool.items()
    }
    split = evaluation.build_splits(users, "u1", ratio=5.0, unseen_count=1, seed=0)
    mcfg = model.ModelConfig(
        input_length=L, conv_channels=8, kernel_size=5, res_blocks=1,
        res_kernel=3, gru_hidden=16, seed=0,
    )
    tcfg = model.TrainConfig(epochs=20, batch_size=32, seed=0)
    params, _ = model.train(*split.train_arrays(), mcfg, tcfg)
    rep = evaluation.blind_attack_eval(params, split, mcfg)
    elapsed = time.time() - start
    report(
        "6 end-to-end",
        rep.auc >= 0.90 and rep.eer <= 0.15 and rep.dsr >= 0.80 and elapsed < 300.0,
        f"L={L} auc={rep.auc:.3f} eer={rep.eer:.3f} dsr={rep.dsr:.3f} "
        f"elapsed={elapsed:.0f}s",
    )


def test_criterion_7_metric_oracles():
    from .test_evaluation import brute_force_auc, brute_force_eer

    start = time.time()
    rng = np.random.default_rng(13)
    for _ in range(100):
        n = int(rng.integers(4, 200))
        scores = np.round(rng.random(n), 2)
        labels = rng.integers(0, 2, n)
        if labels.min() == labels.max():
            labels[0] = 1 - labels[0]
        scored = evaluation.ScoredSet(scores, labels)
        assert evaluation.roc_auc(scored) == pytest.approx(
            brute_force_auc(scores, labels), abs=1e-12
        )
        got = evaluation.eer(scored)
        want = brute_force_eer(scores, labels)
        assert got[0] == pytest.approx(want[0], abs=1e-12)
        assert got[1] == pytest.approx(want[1], abs=1e-12)
    elapsed = time.time() - start
    report("7 metric-oracles", elapsed < 5.0, f"100 sets exact, elapsed={elapsed:.1f}s")


def test_criterion_8_dataset_reproduction():
    root = os.environ.get("MOUSEAUTH_DATA")
    if not root:
        pytest.skip("set MOUSEAUTH_DATA to a directory of per-user session CSVs")
    root = Path(root)
    preset = os.environ.get("MOUSEAUTH_PRESET", "dfl")
    eps2 = cli.PRESETS[preset]["eps2"]
    schema = ingest.SchemaMap(**cli.PRESETS[preset]["schema"])
    reductions = []
    below = 0
    total_users = 0
    skipped = []  # each session the scan rejects, with its reason
    for user_dir in sorted(p for p in root.iterdir() if p.is_dir()):
        paths = sorted(user_dir.glob("*.csv"))
        if not paths:
            continue
        sessions, _ = ingest.load_user(paths, schema, user_dir.name)
        reports = []
        for s in sessions:
            vel = kinematics.velocity_sequence(s, dt=0.01)
            try:
                reports.append(
                    sufficiency.sufficiency_point(vel, 200, 1e-4, eps2)
                )
            except MouseAuthError as exc:  # any other exception is a defect
                skipped.append(f"{user_dir.name}/{s.session_id} ({exc})")
        if not reports:
            continue
        proper, _ = sufficiency.aggregate_user_volume(reports)
        total = sum(r.total_length for r in reports)
        total_users += 1
        if proper < total:
            below += 1
        reductions.append(total / proper if proper else float("inf"))
    ok = total_users > 0 and below / total_users >= 0.9
    if preset == "dfl":
        ok = ok and float(np.mean(reductions)) >= 2.0
    report(
        "8 dataset-reproduction",
        ok,
        f"users={total_users} proper<total for {below}, "
        f"mean reduction={np.mean(reductions):.2f}x, "
        f"{len(skipped)} sessions skipped: {skipped}",
    )
