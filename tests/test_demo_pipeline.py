"""Demo 04's numbers, pinned: the command-line pipeline, run as the demo
runs it, must reproduce the record in demo04_record.json.

A change that moves a pinned number updates the record and says which
number moved and why. The tolerance is never widened to make a run pass.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import mouseauth

RECORD = Path(__file__).with_name("demo04_record.json")
DEMO = Path(__file__).resolve().parents[1] / "demos" / "04_cli_pipeline.sh"
# relative to each recorded value. AUC, EER and DSR are ratios of counts
# whose smallest step here (one legit/imposter pair of the AUC) is 1.05e-6
# of the AUC, so a changed decision moves a metric past it; the loss is a
# mean over 20 epochs of training, where a reordered sum moves it far less
TOLERANCE = 1e-6


@pytest.fixture(scope="module")
def demo(tmp_path_factory):
    """Runs demo 04 with `mouseauth` on PATH as a shim for this interpreter."""
    work = tmp_path_factory.mktemp("demo04")
    bin_dir = work / "bin"
    bin_dir.mkdir()
    shim = bin_dir / "mouseauth"
    shim.write_text(f'#!/bin/sh\nexec "{sys.executable}" -m mouseauth.cli "$@"\n')
    shim.chmod(0o755)
    package_root = str(Path(mouseauth.__file__).resolve().parents[1])
    env = {
        **os.environ,
        "PATH": f"{bin_dir}{os.pathsep}{os.environ.get('PATH', '')}",
        "PYTHONPATH": os.pathsep.join(filter(None, [package_root,
                                                    os.environ.get("PYTHONPATH")])),
        "PYTHONWARNINGS": "error::RuntimeWarning",
        "OPENBLAS_NUM_THREADS": "1",
        "OMP_NUM_THREADS": "1",
        "MKL_NUM_THREADS": "1",
    }
    run = work / "run"
    subprocess.run(["sh", str(DEMO), str(run)], env=env, check=True, capture_output=True)
    return run


def read_json(path: Path) -> dict:
    return json.loads(path.read_text())


def test_demo_04_reproduces_its_exact_record(demo):
    want = read_json(RECORD)["exact"]
    reports = demo / "reports"
    train = read_json(reports / "train_u1.json")
    got = {
        "synth_sha256": {
            f"{p.parent.name}/{p.name}": hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted((demo / "corpus").glob("*/*.csv"))
        },
        "n_hat": {s: read_json(reports / "u1" / f"sufficiency_{s}.json")["n_hat"]
                  for s in ("s0", "s1")},
        "selected_lengths": read_json(reports / "apen_u1.json")["selected_lengths"],
        "train_size": train["train_size"],
        "unseen_users": train["unseen_users"],
        "config_hash": train["config_hash"],
        "data_sha256": read_json(reports / "model_u1.json")["split"]["data_sha256"],
    }
    assert got == want
    # eval takes its config from the same file, so it stamps the same hash
    assert read_json(reports / "eval_u1.json")["config_hash"] == want["config_hash"]


def test_demo_04_reproduces_its_metrics(demo):
    want = read_json(RECORD)["approx"]
    train = read_json(demo / "reports" / "train_u1.json")
    report = read_json(demo / "reports" / "eval_u1.json")
    got = {"final_loss": train["final_loss"],
           **{key: report[key] for key in ("auc", "eer", "dsr")}}
    assert got == pytest.approx(want, rel=TOLERANCE)
