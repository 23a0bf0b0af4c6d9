"""Tests of the benchmark itself, at smoke size: every workload, both trace
modes and every correctness check, in well under a minute.

Run from the repository root:  python3 -m pytest bench
"""

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

from mouseauth import evaluation, ingest, kinematics, mau, sufficiency, synth  # noqa: E402

import oracles  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "bench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_run_reports_every_metric(workload, trace):
    proc = run_bench("--workload", workload, "--seed", "3", "--seconds", "1",
                     "--trace", str(trace), "--size", "smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, proc.stderr
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in wanted} == {
        name: m["unit"] for name, m in result["metrics"].items()
    }
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_run_without_the_package_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("--workload", "volume", "--seed", "1", "--seconds", "1", "--trace", "0",
                     cwd=tmp_path)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


def test_malformed_rows_are_exactly_the_dropped_ones(tmp_path):
    vel = synth.generate(synth.SynthSpec("ar1", {"phi": 0.5}, 900, seed=4))
    bad = workloads.write_session_csv(vel, tmp_path / "s.csv", seed=9)
    session, report = ingest.parse_session((tmp_path / "s.csv").read_text(),
                                           workloads.SCHEMA, "u", "s")
    assert bad == 9 and report.dropped == bad and report.events == len(vel.v) + 1
    assert np.allclose(kinematics.velocity_sequence(session).v, vel.v, 1e-9, 1e-9)


def test_exact_kde_and_kl_match_the_library_bit_for_bit():
    for name in ("GRID_POINTS", "GRID_PAD_BANDWIDTHS", "BANDWIDTH_FLOOR", "DENSITY_FLOOR",
                 "KL_ZERO_TOL"):
        assert getattr(oracles, name) == getattr(sufficiency, name), name
    v = synth.generate(synth.SynthSpec("ar1", {"phi": 0.7}, 9000, seed=6)).v
    for n in (200, 4000, 8800):
        big, small = v[: n + 200], v[:n]
        h_big, h_small = oracles.silverman(big), oracles.silverman(small)
        assert (h_big, h_small) == (sufficiency.silverman_bandwidth(big),
                                    sufficiency.silverman_bandwidth(small))
        grid = np.linspace(big.min() - 1.0, big.max() + 1.0, oracles.GRID_POINTS)
        p, q = sufficiency.kde(big, grid, h_big), sufficiency.kde(small, grid, h_small)
        assert np.array_equal(oracles.kde(big, grid, h_big), p.density)
        assert oracles.kl(p.density, q.density, grid) == sufficiency.kl_divergence(p, q)


def test_sufficiency_check_rejects_a_wrong_stopping_point():
    vel = synth.generate(synth.SynthSpec(
        "sine_plus_noise", {"amplitude": 3.0, "period": 50.0, "noise_std": 1.0, "mean": 10.0},
        4000, seed=1))
    report = sufficiency.sufficiency_point(vel, 100, 1e-4, 1e-6)
    assert not report.exhausted
    assert oracles.check_sufficiency(report, vel.v) is None
    later = replace(report, n_hat=report.n_hat + 100)
    assert oracles.check_sufficiency(later, vel.v) is not None
    assert oracles.check_sufficiency(replace(report, n_hat="exhausted"), vel.v) is not None


def test_apen_reference_matches_library_and_rejects_wrong_values():
    seq = synth.SplitMix64(5).normals(260)
    r = 0.2 * seq.std(ddof=1)
    for m in (1, 2, 7, 16):
        assert abs(oracles.apen(seq, m, r) - mau.apen(seq, m, r)) <= 1e-12
    profile = mau.apen_profile(kinematics.VelocitySequence("u", "s", 0.01, seq))
    assert oracles.check_apen_profile(profile, seq, mau.SLOPE_THRESHOLD) is None
    k = profile.candidate_lengths.index(profile.selected_length)
    values = list(profile.apen_values)
    values[k] += 1e-9
    assert oracles.check_apen_profile(replace(profile, apen_values=values), seq,
                                      mau.SLOPE_THRESHOLD) is not None


def test_metric_references_match_library_and_reject_wrong_reports():
    rng = np.random.default_rng(2)
    scores = np.round(rng.random(300), 2)
    labels = rng.integers(0, 2, 300)
    unseen = rng.random(300) < 0.3
    scored = evaluation.ScoredSet(scores, labels)
    eer, thr = evaluation.eer(scored)
    report = evaluation.EvalReport(
        f1=0.0, auc=evaluation.roc_auc(scored), eer=eer, eer_threshold=thr, counts={},
        dsr=evaluation.dsr(scores[unseen]),
    )
    assert oracles.check_eval_report(report, scores, labels, unseen) is None
    assert oracles.check_eval_report(replace(report, auc=report.auc + 1e-9), scores, labels,
                                     unseen) is not None
    assert oracles.check_roc_csv(evaluation.roc_curve_csv(scored), scores) is None


def test_roc_csv_check_rejects_a_corrupted_row():
    scores = np.round(np.random.default_rng(3).random(200), 2)
    labels = (scores + np.random.default_rng(4).random(200) > 0.9).astype(int)
    text = evaluation.roc_curve_csv(evaluation.ScoredSet(scores, labels))
    assert oracles.check_roc_csv(text, scores) is None
    lines = text.strip().splitlines()
    far, tpr = lines[-2].split(",")
    bad = lines[:-2] + [f"{far},{float(tpr) + 2.0}", lines[-1]]
    assert oracles.check_roc_csv("\n".join(bad), scores) is not None
    assert oracles.check_roc_csv("\n".join(lines[:-1]), scores) is not None


def test_end_to_end_divides_times_by_the_host_slowdown():
    records = [workloads.Record(0, 100.0, 0.5, [2.0]), workloads.Record(1, 100.0, 1.5, [4.0])]
    metrics = run.end_to_end(records, [0.2, 0.4, 0.3], 1024, slowdown=2.0)
    assert metrics == {
        "setup_s": (0.15, "s"),
        "throughput_per_s": (200.0, "1/s"),
        "latency_ms": (1.5, "ms"),
        "peak_rss_mb": (1.0, "MB"),
    }


def run_smoke(name, tmp_path):
    workload = workloads.WORKLOADS[name](3, smoke=True)
    workload.setup(tmp_path)
    return workload, [workload.request(i) for i in range(workload.min_requests)]


def test_volume_check_rejects_a_wrong_dropped_count(tmp_path):
    workload, records = run_smoke("volume", tmp_path)
    workload.check(records)
    assert all(r.error is None for r in records)
    workload.injected[1] += 1
    workload.check(records)
    assert records[0].error is None and "dropped" in records[1].error


def test_authenticate_check_rejects_a_decision_off_predict_batch(tmp_path):
    workload, records = run_smoke("authenticate", tmp_path)
    workload.check(records)
    assert records[0].error is None
    records[0].out["decisions"][5] += 1e-9
    workload.check(records)
    assert "predict" in records[0].error


def test_cli_check_rejects_a_summary_or_dropped_count_off_the_library_path(tmp_path):
    workload, records = run_smoke("cli", tmp_path)
    workload.check(records)
    assert records[0].error is None
    summary = records[0].out["summary"]
    summary["auc"] += 1e-9
    workload.check(records)
    assert "library path" in records[0].error
    summary["auc"] -= 1e-9
    workload.injected[("u2", "s1")] += 1
    workload.check(records)
    assert "dropped" in records[0].error
