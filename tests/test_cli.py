import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from mouseauth.cli import PRESETS, PipelineConfig, build_parser, load_config, main
from mouseauth import model
from mouseauth.errors import ConfigError
from mouseauth.ingest import SchemaMap, load_user
from mouseauth.kinematics import velocity_sequence
from mouseauth.sufficiency import _prefix_kl
from mouseauth.synth import SynthSpec, generate, to_session_csv


def write_corpus(root: Path, users=("u1", "u2", "u3"), length=3000, sessions=2):
    params = {
        "u1": {"phi": 0.9, "sigma": 1.0, "mean": 10.0},
        "u2": {"phi": 0.5, "sigma": 2.0, "mean": 10.0},
        "u3": {"phi": 0.2, "sigma": 4.0, "mean": 15.0},
    }
    for k, user in enumerate(users):
        user_dir = root / user
        user_dir.mkdir(parents=True)
        for j in range(sessions):
            spec = SynthSpec("ar1", params[user], length, seed=100 * (k + 1) + j)
            vel = generate(spec, user_id=user, session_id=f"s{j}")
            (user_dir / f"s{j}.csv").write_text(to_session_csv(vel))
    return root


def test_preset_values():
    assert PRESETS["balabit"]["eps2"] == 1e-7
    assert PRESETS["balabit"]["pos_neg_ratio"] == 5.0
    assert PRESETS["dfl"]["eps2"] == 1e-6
    assert PRESETS["dfl"]["pos_neg_ratio"] == 8.0


def test_config_file_preset(tmp_path):
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps({"preset": "dfl", "seed": 3}))

    class Args:
        config = str(cfg_file)
        preset = None

    cfg = load_config(Args())
    assert cfg.seed == 3
    assert (cfg.eps1, cfg.eps2, cfg.step_m, cfg.pos_neg_ratio) == (1e-4, 1e-6, 200, 8.0)
    assert cfg.schema_map() == SchemaMap(
        timestamp_col="client timestamp", x_col="x", y_col="y", state_col="state"
    )


def test_load_config_rejects_bad_values(tmp_path):
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps({"dt": -1}))

    class Args:
        config = str(cfg_file)
        preset = None

    with pytest.raises(ConfigError):
        load_config(Args())


def test_load_config_rejects_unknown_keys(tmp_path):
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps({"nonsense": 1}))

    class Args:
        config = str(cfg_file)
        preset = None

    with pytest.raises(ConfigError):
        load_config(Args())


def test_sufficiency_report_names_the_exact_kl_values(tmp_path):
    vel = generate(SynthSpec("gaussian_iid", {"mean": 10, "std": 1}, 3400, seed=1))
    vel.v[2450] = 30.0  # a far outlier: step n=2400 goes to the exact KDE
    csv_path = tmp_path / "sess.csv"
    csv_path.write_text(to_session_csv(vel))
    out = tmp_path / "out"
    assert main(["sufficiency", "--user", "u9", "--out", str(out), str(csv_path)]) == 0
    report = json.loads((out / "sufficiency_sess.json").read_text())
    rows = (out / "kl_sess.csv").read_text().splitlines()[1:]
    kl = {int(n): float(value) for n, value in (row.split(",") for row in rows)}
    assert 2400 in report["exact_steps"] and set(report["exact_steps"]) <= set(kl)
    (session,), _ = load_user([csv_path], SchemaMap("t", "x", "y"), "u9")
    v = velocity_sequence(session, 0.01).v
    for n in report["exact_steps"]:
        assert kl[n] == _prefix_kl(v, n, 200)


def test_invalid_config_exit_code(tmp_path):
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps({"dt": -1}))
    code = main(["sufficiency", "--config", str(cfg_file), "--user", "u", "x.csv"])
    assert code == 2


@pytest.mark.parametrize("values", [
    {"dt": "0.01"},
    {"epochs": "3"},
    {"candidates": 5},
    {"mau_length": 30.5},
])
def test_wrongly_typed_config_exit_code(tmp_path, values):
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps(values))
    code = main(["sufficiency", "--config", str(cfg_file), "--user", "u", "x.csv"])
    assert code == 2


@pytest.mark.parametrize("schema", [
    {"ts": "t", "x_col": "x", "y_col": "y"},  # unknown key
    {"x_col": "x", "y_col": "y"},  # timestamp_col missing
    ["t", "x", "y"],  # not a mapping
    {"timestamp_col": "x", "x_col": "x", "y_col": "y"},  # columns not distinct
])
def test_bad_schema_exit_code(tmp_path, capsys, schema):
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps({"schema": schema}))
    code = main(["sufficiency", "--config", str(cfg_file), "--user", "u", "x.csv"])
    assert code == 2
    assert json.loads(capsys.readouterr().err.strip())["error"] == "ConfigError"


@pytest.mark.parametrize("schema", [
    {"timestamp_col": 5},
    {"has_header": "yes"},
    {"state_col": 3},
])
def test_wrongly_typed_schema_exit_code(tmp_path, capsys, schema):
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps({"schema": {**PipelineConfig().schema, **schema}}))
    code = main(["sufficiency", "--config", str(cfg_file), "--user", "u", "x.csv"])
    assert code == 2
    assert json.loads(capsys.readouterr().err.strip())["error"] == "ConfigError"


@pytest.mark.parametrize("values", [
    {"kernel_size": 4},  # even kernels cannot pad symmetrically
    {"conv_channels": 0},
    {"res_kernel": 2},
])
def test_invalid_model_config_exit_code(tmp_path, capsys, values):
    # a valid corpus, so that only the model settings can fail
    data_root = write_corpus(tmp_path / "data", length=300)
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps(values))
    code = main(["train", "--config", str(cfg_file), "--legit-user", "u1", str(data_root)])
    assert code == 2
    assert json.loads(capsys.readouterr().err.strip())["error"] == "ConfigError"


def test_eval_checkpoint_without_params_exit_code(tmp_path, capsys):
    ckpt = tmp_path / "model.json"
    ckpt.write_text(json.dumps({"version": model.CHECKPOINT_VERSION, "config": {}}))
    code = main(["eval", "--legit-user", "u1", "--out", str(tmp_path / "out"),
                 str(ckpt), str(tmp_path / "data")])
    assert code == 1
    assert json.loads(capsys.readouterr().err.strip())["error"] == "ShapeMismatch"


def test_missing_input_exit_code(tmp_path, capsys):
    code = main(["sufficiency", "--user", "u", "--out", str(tmp_path), "nope.csv"])
    assert code == 1
    record = json.loads(capsys.readouterr().err.strip())
    assert "error" in record


def test_sufficiency_command(tmp_path, capsys):
    vel = generate(SynthSpec("gaussian_iid", {"mean": 10, "std": 1}, 4000, seed=3))
    csv_path = tmp_path / "sess.csv"
    csv_path.write_text(to_session_csv(vel))
    out = tmp_path / "out"
    code = main([
        "sufficiency", "--user", "u9", "--out", str(out),
        "--step-m", "200", "--eps1", "1e-4", "--eps2", "1e-6", str(csv_path),
    ])
    assert code == 0
    summary = json.loads(capsys.readouterr().out.strip())
    assert summary["user"] == "u9"
    assert summary["proper_volume"] <= summary["total_volume"]
    assert (out / "sufficiency_u9.json").exists()
    assert (out / "kl_sess.csv").read_text().startswith("n,kl")


def test_apen_command(tmp_path, capsys):
    vel = generate(SynthSpec("ar1", {"phi": 0.6, "sigma": 1, "mean": 10}, 2000, seed=4))
    csv_path = tmp_path / "sess.csv"
    csv_path.write_text(to_session_csv(vel))
    out = tmp_path / "out"
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps({"candidates": [5, 10, 15, 20], "cap": 1500}))
    code = main([
        "apen", "--config", str(cfg_file), "--user", "u1", "--out", str(out),
        str(csv_path),
    ])
    assert code == 0
    summary = json.loads(capsys.readouterr().out.strip())
    assert len(summary["selected_lengths"]) == 1
    assert (out / "apen_sess.csv").read_text().startswith("length,apen")


def test_train_eval_round_trip(tmp_path, capsys):
    data_root = write_corpus(tmp_path / "data")
    out = tmp_path / "out"
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps({
        "mau_length": 20, "epochs": 2, "conv_channels": 2, "kernel_size": 3,
        "res_blocks": 1, "gru_hidden": 4, "batch_size": 32,
    }))
    code = main([
        "train", "--config", str(cfg_file), "--legit-user", "u1",
        "--out", str(out), "--seed", "0", str(data_root),
    ])
    assert code == 0
    summary = json.loads(capsys.readouterr().out.strip())
    checkpoint = summary["checkpoint"]
    assert Path(checkpoint).exists()
    assert (out / "loss_u1.csv").read_text().startswith("epoch,loss")

    code = main([
        "eval", "--config", str(cfg_file), "--legit-user", "u1",
        "--out", str(out), "--seed", "0", checkpoint, str(data_root),
    ])
    assert code == 0
    report = json.loads(capsys.readouterr().out.strip())
    for key in ("f1", "auc", "eer", "eer_threshold", "dsr"):
        assert key in report
    assert (out / "roc_u1.csv").read_text().startswith("far,tpr")


def test_train_eval_report_dropped_rows(tmp_path, capsys):
    data_root = write_corpus(tmp_path / "data")
    junk_file = data_root / "u2" / "s1.csv"
    lines = junk_file.read_text().splitlines()
    lines.insert(5, "0.04,junk,0")
    junk_file.write_text("\n".join(lines) + "\n")
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps({
        "mau_length": 20, "epochs": 1, "conv_channels": 2, "kernel_size": 3,
        "res_blocks": 1, "gru_hidden": 4,
    }))
    common = ["--config", str(cfg_file), "--legit-user", "u1", "--out", str(tmp_path / "out")]
    want = {
        user: [{"file": f"s{j}", "events": 3001, "dropped": int((user, j) == ("u2", 1))}
               for j in range(2)]
        for user in ("u1", "u2", "u3")
    }
    assert main(["train", *common, str(data_root)]) == 0
    assert json.loads(capsys.readouterr().out.strip())["parse_reports"] == want
    checkpoint = str(tmp_path / "out" / "model_u1.json")
    assert main(["eval", *common, checkpoint, str(data_root)]) == 0
    assert json.loads(capsys.readouterr().out.strip())["parse_reports"] == want


def test_eval_idempotent(tmp_path, capsys):
    data_root = write_corpus(tmp_path / "data", length=2000)
    out = tmp_path / "out"
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps({
        "mau_length": 20, "epochs": 1, "conv_channels": 2, "kernel_size": 3,
        "res_blocks": 1, "gru_hidden": 4,
    }))
    assert main(["train", "--config", str(cfg_file), "--legit-user", "u1",
                 "--out", str(out), str(data_root)]) == 0
    capsys.readouterr()
    ckpt = str(out / "model_u1.json")
    assert main(["eval", "--config", str(cfg_file), "--legit-user", "u1",
                 "--out", str(out), ckpt, str(data_root)]) == 0
    first = (out / "eval_u1.json").read_bytes()
    capsys.readouterr()
    assert main(["eval", "--config", str(cfg_file), "--legit-user", "u1",
                 "--out", str(out), ckpt, str(data_root)]) == 0
    assert (out / "eval_u1.json").read_bytes() == first


def test_eval_scores_the_test_set_once(tmp_path, capsys, monkeypatch):
    data_root = write_corpus(tmp_path / "data", length=2000)
    out = tmp_path / "out"
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps({
        "mau_length": 20, "epochs": 1, "conv_channels": 2, "kernel_size": 3,
        "res_blocks": 1, "gru_hidden": 4,
    }))
    assert main(["train", "--config", str(cfg_file), "--legit-user", "u1",
                 "--out", str(out), str(data_root)]) == 0
    calls = []
    predict_batch = model.predict_batch

    def counted(*args, **kwargs):
        calls.append(1)
        return predict_batch(*args, **kwargs)

    monkeypatch.setattr(model, "predict_batch", counted)
    assert main(["eval", "--config", str(cfg_file), "--legit-user", "u1",
                 "--out", str(out), str(out / "model_u1.json"), str(data_root)]) == 0
    assert len(calls) == 1


def test_synth_command_round_trip(tmp_path, capsys):
    spec_file = tmp_path / "specs.json"
    spec_file.write_text(json.dumps({
        "ua": [{"kind": "gaussian_iid", "params": {"mean": 10, "std": 1},
                "length": 700, "seed": 1}],
        "ub": [{"kind": "ar1", "params": {"phi": 0.5, "sigma": 1, "mean": 10},
                "length": 700, "seed": 2}],
    }))
    out = tmp_path / "corpus"
    code = main(["synth", "--out", str(out), str(spec_file)])
    assert code == 0
    files = json.loads(capsys.readouterr().out.strip())["files"]
    assert len(files) == 2
    # emitted files are ingest-compatible
    code = main(["sufficiency", "--user", "ua", "--out", str(tmp_path / "suf"),
                 "--step-m", "200", files[0]])
    assert code == 0


def test_parser_subcommands():
    parser = build_parser()
    args = parser.parse_args(["apen", "--user", "u", "file.csv"])
    assert args.command == "apen"


def test_config_hash_stable():
    assert PipelineConfig().config_hash() == PipelineConfig().config_hash()
    assert PipelineConfig().config_hash() != PipelineConfig(seed=1).config_hash()
    # the output directory is where a run writes, not what it computes
    assert PipelineConfig().config_hash() == PipelineConfig(out_dir="elsewhere").config_hash()


@pytest.mark.parametrize("command, flag, value, field", [
    ("sufficiency", "--seed", "7", "seed"),
    ("sufficiency", "--out", "o2", "out_dir"),
    ("sufficiency", "--step-m", "50", "step_m"),
    ("sufficiency", "--eps1", "0.5", "eps1"),
    ("sufficiency", "--eps2", "0.25", "eps2"),
    ("apen", "--slope-threshold", "0.125", "slope_threshold"),
    ("train", "--mau-length", "40", "mau_length"),
    ("train", "--epochs", "3", "epochs"),
    ("train", "--ratio", "2.5", "pos_neg_ratio"),
    ("eval", "--unseen-count", "2", "unseen_count"),
])
def test_override_flag_sets_its_field(command, flag, value, field):
    positional = {"sufficiency": ["--user", "u", "a.csv"], "apen": ["--user", "u", "a.csv"],
                  "train": ["--legit-user", "u1", "data"],
                  "eval": ["--legit-user", "u1", "model.json", "data"]}[command]
    cfg = load_config(build_parser().parse_args([command, flag, value, *positional]))
    default = getattr(PipelineConfig(), field)
    assert getattr(cfg, field) == type(default)(value) != default


def test_runtime_imports_no_scipy():
    # the runtime needs numpy only; scipy alone costs ~70 MB of RSS per import
    code = (
        "import importlib, pkgutil, sys, mouseauth\n"
        "for m in pkgutil.iter_modules(mouseauth.__path__):\n"
        "    importlib.import_module('mouseauth.' + m.name)\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    src = Path(__file__).resolve().parent.parent / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"
