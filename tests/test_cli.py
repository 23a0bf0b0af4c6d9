import argparse
import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from mouseauth.cli import PRESETS, PipelineConfig, build_parser, load_config, main
from mouseauth import evaluation, mau, model, sufficiency
from mouseauth.errors import ConfigError
from mouseauth.ingest import SchemaMap, load_user
from mouseauth.kinematics import velocity_sequence
from mouseauth.mau import segment
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
    cfg = load_config(str(cfg_file))
    assert cfg.seed == 3
    assert (cfg.eps1, cfg.eps2, cfg.step_m, cfg.pos_neg_ratio) == (1e-4, 1e-6, 200, 8.0)
    assert cfg.schema_map() == SchemaMap(timestamp_col="client timestamp", x_col="x", y_col="y")


def test_config_file_null_preset_means_none(tmp_path):
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps({"preset": None, "seed": 3}))
    assert load_config(str(cfg_file)) == PipelineConfig(seed=3)


def test_config_file_values_beat_its_preset(tmp_path):
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps({"preset": "dfl", "eps2": 1e-8, "pos_neg_ratio": 3.0}))
    cfg = load_config(str(cfg_file))
    assert (cfg.eps2, cfg.pos_neg_ratio, cfg.step_m) == (1e-8, 3.0, 200)
    cfg_file.write_text(json.dumps({"preset": "balabit", "eps2": 1e-8}))
    cfg = load_config(str(cfg_file))
    assert (cfg.eps2, cfg.pos_neg_ratio) == (1e-8, 5.0)
    assert cfg.schema_map() == SchemaMap(timestamp_col="client timestamp", x_col="x", y_col="y")


def test_load_config_rejects_bad_values(tmp_path):
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps({"dt": -1}))
    with pytest.raises(ConfigError):
        load_config(str(cfg_file))


def test_load_config_rejects_unknown_keys(tmp_path):
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps({"nonsense": 1}))
    with pytest.raises(ConfigError):
        load_config(str(cfg_file))


def test_sufficiency_report_names_the_exact_kl_values(tmp_path):
    vel = generate(SynthSpec("gaussian_iid", {"mean": 10, "std": 1}, 3400, seed=1))
    vel.v[2450] = 30.0  # a far outlier: step n=2400 goes to the exact KDE
    csv_path = tmp_path / "sess.csv"
    csv_path.write_text(to_session_csv(vel))
    out = tmp_path / "out"
    assert main(["sufficiency", "--user", "u9", "--out", str(out), str(csv_path)]) == 0
    report = json.loads((out / "u9" / "sufficiency_sess.json").read_text())
    rows = (out / "u9" / "kl_sess.csv").read_text().splitlines()[1:]
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
    with pytest.raises(ConfigError):  # a config checks itself when it is made
        PipelineConfig(**values)
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


@pytest.mark.parametrize("text", [
    "[1, 2]",  # not an object
    '"abc"',
    "{bad json",
    '{"preset": ["dfl"]}',  # a preset name must be a string
    # a falsy preset ran with none; only null means none
    '{"preset": false}',
    '{"preset": 0}',
    '{"preset": ""}',
    '{"preset": []}',
    '{"dt": 1e400}',  # parses as inf
    '{"eps1": Infinity}',
    '{"eps2": Infinity}',
])
def test_malformed_config_file_exit_code(tmp_path, capsys, text):
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(text)
    code = main(["sufficiency", "--config", str(cfg_file), "--user", "u", "x.csv"])
    assert code == 2
    assert json.loads(capsys.readouterr().err.strip())["error"] == "ConfigError"


@pytest.mark.parametrize("values", [
    {"kernel_size": 4},  # even kernels cannot pad symmetrically
    {"conv_channels": 0},
    {"res_kernel": 2},
    {"batch_size": 0},
    {"pos_neg_ratio": 0},
    {"train_frac": 1.5},
    {"unseen_count": 0},
    {"cap": 100},  # below the largest default candidate + 2; train ran on it
    {"seed": -1},  # failed in init_params after the corpus loaded
    {"seed": "x"},
    {"seed": True},
    {"eps2": float("inf")},  # read by sufficiency alone, checked by every command
])
def test_invalid_model_config_exit_code(tmp_path, capsys, values):
    with pytest.raises(ConfigError):  # a config checks itself when it is made
        PipelineConfig(**values)
    # a valid corpus, so that only the model settings can fail
    data_root = write_corpus(tmp_path / "data", length=300)
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps(values))
    code = main(["train", "--config", str(cfg_file), "--legit-user", "u1",
                 "--out", str(tmp_path / "out"), str(data_root)])
    assert code == 2
    assert json.loads(capsys.readouterr().err.strip())["error"] == "ConfigError"


@pytest.mark.parametrize("command", [
    ["sufficiency", "--user", "u", "missing.csv"],
    ["apen", "--user", "u", "missing.csv"],
    ["train", "--legit-user", "u1", "missing"],
    ["eval", "--legit-user", "u1", "missing.json", "missing"],
    ["synth", "missing.json"],
])
def test_cap_below_largest_candidate_is_a_config_error(tmp_path, capsys, command):
    # apen_profile's rule, checked at config load before any input is read
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps({"cap": 100}))
    code = main([command[0], "--config", str(cfg_file), "--out", str(tmp_path / "out"),
                 *command[1:]])
    assert code == 2
    record = json.loads(capsys.readouterr().err.strip())
    assert record["error"] == "ConfigError" and "cap too small" in record["message"]


def test_negative_seed_is_a_config_error(tmp_path, capsys):
    # checked before any input is read: the data root does not exist
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps({"seed": -1}))
    code = main(["train", "--config", str(cfg_file), "--legit-user", "u1",
                 "--out", str(tmp_path / "out"), str(tmp_path / "missing")])
    assert code == 2
    record = json.loads(capsys.readouterr().err.strip())
    assert record["error"] == "ConfigError" and "seed must be an integer >= 0" in record["message"]


def test_eval_checkpoint_without_params_exit_code(tmp_path, capsys):
    ckpt = tmp_path / "model.json"
    ckpt.write_text(json.dumps({"version": model.CHECKPOINT_VERSION, "config": {}}))
    code = main(["eval", "--legit-user", "u1", "--out", str(tmp_path / "out"),
                 str(ckpt), str(tmp_path / "data")])
    assert code == 1
    assert json.loads(capsys.readouterr().err.strip())["error"] == "MouseAuthError"


@pytest.mark.parametrize("text", ["[1]", "3", "null"])
def test_eval_checkpoint_not_an_object_exit_code(tmp_path, capsys, text):
    ckpt = tmp_path / "model.json"
    ckpt.write_text(text)
    code = main(["eval", "--legit-user", "u1", "--out", str(tmp_path / "out"),
                 str(ckpt), str(tmp_path / "data")])
    assert code == 1
    record = json.loads(capsys.readouterr().err.strip())
    assert record["error"] == "MouseAuthError" and "JSON object" in record["message"]


@pytest.mark.parametrize("edit", [{"kernel_size": "3"}, {"input_length": 30.0},
                                  {"standardize": "yes"}])
def test_eval_checkpoint_with_wrongly_typed_config_exit_code(tmp_path, capsys, edit):
    ckpt = tmp_path / "model.json"
    config = model.ModelConfig(input_length=30)
    model.save_checkpoint(ckpt, model.init_params(config), config)
    payload = json.loads(ckpt.read_text())
    payload["config"].update(edit)
    ckpt.write_text(json.dumps(payload))
    code = main(["eval", "--legit-user", "u1", "--out", str(tmp_path / "out"),
                 str(ckpt), str(tmp_path / "data")])
    assert code == 1
    record = json.loads(capsys.readouterr().err.strip())
    assert record["error"] == "MouseAuthError" and next(iter(edit)) in record["message"]


@pytest.mark.parametrize("value", ["null", "1e999", '{"a": 1}', '"0.1"', "true",
                                   pytest.param("1" + "0" * 400, id="int_past_float_range")])
def test_eval_checkpoint_with_a_bad_parameter_exit_code(tmp_path, capsys, value):
    # JSON null reads as NaN and 1e999 as inf, which would score every
    # window NaN; an object does not convert at all, float() would read a
    # numeric string or a bool as a number, and an integer past the float
    # range does not convert to a float
    ckpt = tmp_path / "model.json"
    config = model.ModelConfig(input_length=30)
    model.save_checkpoint(ckpt, model.init_params(config), config)
    payload = json.loads(ckpt.read_text())
    payload["params"]["stem_b"][0] = "BAD"
    ckpt.write_text(json.dumps(payload).replace('"BAD"', value))
    code = main(["eval", "--legit-user", "u1", "--out", str(tmp_path / "out"),
                 str(ckpt), str(tmp_path / "data")])
    assert code == 1
    record = json.loads(capsys.readouterr().err.strip())
    assert record["error"] == "MouseAuthError" and "stem_b" in record["message"]


TINY_TRAIN = {"mau_length": 20, "epochs": 1, "conv_channels": 2, "kernel_size": 3,
              "res_blocks": 1, "gru_hidden": 4}


@pytest.fixture
def trained(tmp_path, capsys):
    """A corpus, its train config and the checkpoint trained on them."""
    data_root = write_corpus(tmp_path / "data", length=1500)
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps(TINY_TRAIN))
    out = tmp_path / "out"
    assert main(["train", "--config", str(cfg_file), "--legit-user", "u1", "--out", str(out),
                 str(data_root)]) == 0
    capsys.readouterr()
    return data_root, cfg_file, out / "model_u1.json"


def eval_main(cfg_file, checkpoint, data_root, out):
    return main(["eval", "--config", str(cfg_file), "--legit-user", "u1", "--out", str(out),
                 str(checkpoint), str(data_root)])


def test_eval_on_the_training_split_matches_the_library(tmp_path, trained):
    data_root, cfg_file, checkpoint = trained
    out = tmp_path / "eval"
    assert eval_main(cfg_file, checkpoint, data_root, out) == 0
    # the split rebuilt from train's settings, scored through the library
    params, mcfg = model.load_checkpoint(checkpoint)
    cfg = PipelineConfig(**TINY_TRAIN)
    users, parse_reports = {}, {}
    for user in ("u1", "u2", "u3"):
        paths = sorted((data_root / user).glob("*.csv"))
        sessions, reports = load_user(paths, cfg.schema_map(), user)
        users[user] = [m for s in sessions for m in segment(velocity_sequence(s, cfg.dt), 20)]
        parse_reports[user] = [dataclasses.asdict(r) for r in reports]
    split = evaluation.build_splits(users, "u1", ratio=cfg.pos_neg_ratio,
                                    unseen_count=cfg.unseen_count, seed=cfg.seed,
                                    train_frac=cfg.train_frac)
    report = evaluation.blind_attack_eval(params, split, mcfg)
    want = {"legit_user": "u1", **dataclasses.asdict(report), "parse_reports": parse_reports,
            "config_hash": cfg.config_hash(), "seed": 0}
    assert (out / "eval_u1.json").read_text() == json.dumps(want, indent=2)


def test_eval_stamps_the_config_of_the_model_it_scored(tmp_path, capsys, trained):
    # the window length and the architecture are the checkpoint's, so a file
    # that names another architecture scores the same model and stamps the
    # same config as train did
    data_root, cfg_file, checkpoint = trained
    other = tmp_path / "other.json"
    other.write_text(json.dumps({"epochs": 1}))
    assert eval_main(other, checkpoint, data_root, tmp_path / "other") == 0
    assert eval_main(cfg_file, checkpoint, data_root, tmp_path / "same") == 0
    got, want = (json.loads((tmp_path / name / "eval_u1.json").read_text())
                 for name in ("other", "same"))
    train = json.loads((checkpoint.parent / "train_u1.json").read_text())
    assert got == want
    assert got["config_hash"] == train["config_hash"] == PipelineConfig(**TINY_TRAIN).config_hash()


def test_train_and_eval_build_no_mau(tmp_path, monkeypatch, capsys):
    # a user's MAUs are the rows of one array from the loader to the model
    data_root = write_corpus(tmp_path / "data", length=1500)
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps(TINY_TRAIN))

    def train_then_eval(out):
        assert main(["train", "--config", str(cfg_file), "--legit-user", "u1", "--out",
                     str(out), str(data_root)]) == 0
        assert eval_main(cfg_file, out / "model_u1.json", data_root, out) == 0
        return (out / "eval_u1.json").read_text()

    want = train_then_eval(tmp_path / "plain")

    class NoMau:
        def __init__(self, *args, **kwargs):
            raise AssertionError("a Mau was built")

    monkeypatch.setattr(mau, "Mau", NoMau)
    assert train_then_eval(tmp_path / "patched") == want


@pytest.mark.parametrize("change, message", [("seed", "['seed'] differ"),
                                             ("file removed", "['data_sha256'] differ"),
                                             ("value moved", "['data_sha256'] differ"),
                                             ("no record", "records no split"),
                                             ("record without digest", "['data_sha256'] differ")])
def test_eval_on_another_split_is_a_config_error(tmp_path, capsys, trained, change, message):
    # on another split, some test windows are the model's own training
    # windows and the unseen attacker may have been a training imposter
    data_root, cfg_file, checkpoint = trained
    if change == "seed":
        cfg_file.write_text(json.dumps({**TINY_TRAIN, "seed": 1}))
    elif change == "file removed":
        (data_root / "u3" / "s1.csv").unlink()
    elif change == "value moved":  # every row still parses: only the digest sees it
        path = data_root / "u2" / "s0.csv"
        lines = path.read_text().splitlines()
        t, x, y = lines[10].split(",")
        lines[10] = f"{t},{float(x) + 500},{y}"
        path.write_text("\n".join(lines) + "\n")
    else:  # no record, or one as earlier versions wrote it
        payload = json.loads(checkpoint.read_text())
        if change == "no record":
            del payload["split"]
        else:
            del payload["split"]["data_sha256"]
        checkpoint.write_text(json.dumps(payload))
    assert eval_main(cfg_file, checkpoint, data_root, tmp_path / "eval") == 2
    record = json.loads(capsys.readouterr().err.strip())
    assert record["error"] == "ConfigError" and message in record["message"]
    assert not (tmp_path / "eval" / "eval_u1.json").exists()


def test_train_on_an_unknown_legit_user_is_a_config_error(tmp_path, capsys):
    data_root = write_corpus(tmp_path / "data", length=1500)
    (data_root / "u4").mkdir()  # a directory without session CSVs holds no user
    for user in ("u9", "u4"):
        assert main(["train", "--legit-user", user, "--out", str(tmp_path / "out"),
                     str(data_root)]) == 2
        record = json.loads(capsys.readouterr().err.strip())
        assert record["error"] == "ConfigError" and repr(user) in record["message"]
        assert not (tmp_path / "out" / f"train_{user}.json").exists()
    # a data root whose one user directory holds no session CSV holds no user
    (tmp_path / "empty" / "u1").mkdir(parents=True)
    assert main(["train", "--legit-user", "u1", "--out", str(tmp_path / "out"),
                 str(tmp_path / "empty")]) == 2
    record = json.loads(capsys.readouterr().err.strip())
    assert record["error"] == "ConfigError"
    assert "no per-user subdirectories with CSVs" in record["message"]


@pytest.mark.parametrize("legit_user, settings, key", [
    ("u9", {}, "legit_user"),  # a user the corpus does not hold
    ("u1", {"unseen_count": 5}, "unseen_count"),  # more than the two other users
])
def test_eval_checks_the_record_before_it_splits(tmp_path, capsys, trained, legit_user,
                                                  settings, key):
    # building either split fails (exit 1); the record check comes first and names
    # the setting that differs from training
    data_root, cfg_file, checkpoint = trained
    cfg_file.write_text(json.dumps({**TINY_TRAIN, **settings}))
    assert main(["eval", "--config", str(cfg_file), "--legit-user", legit_user,
                 "--out", str(tmp_path / "eval"), str(checkpoint), str(data_root)]) == 2
    record = json.loads(capsys.readouterr().err.strip())
    assert record["error"] == "ConfigError" and f"['{key}'] differ" in record["message"]


def test_missing_input_exit_code(tmp_path, capsys):
    code = main(["sufficiency", "--user", "u", "--out", str(tmp_path), "nope.csv"])
    assert code == 1
    record = json.loads(capsys.readouterr().err.strip())
    assert "error" in record


def test_missing_input_beside_a_good_one_exit_code(tmp_path, capsys):
    (tmp_path / "good.csv").write_text("t,x,y\n0,0,0\n1,1,1\n")
    code = main(["sufficiency", "--user", "u", "--out", str(tmp_path / "out"),
                 str(tmp_path / "good.csv"), str(tmp_path / "missing.csv")])
    assert code == 1
    assert json.loads(capsys.readouterr().err.strip())["error"] == "FileNotFoundError"


def test_repeated_session_id_exit_code(tmp_path, capsys):
    vel = generate(SynthSpec("gaussian_iid", {"mean": 10, "std": 1}, 700, seed=3))
    paths = []
    for name in ("a", "b"):
        (tmp_path / name).mkdir()
        paths.append(tmp_path / name / "s0.csv")
        paths[-1].write_text(to_session_csv(vel))
    out = tmp_path / "out"
    code = main(["sufficiency", "--user", "u1", "--out", str(out), *map(str, paths)])
    assert code == 1
    assert "session s0" in json.loads(capsys.readouterr().err.strip())["message"]
    assert not out.exists()


def test_sufficiency_command(tmp_path, capsys):
    vel = generate(SynthSpec("gaussian_iid", {"mean": 10, "std": 1}, 4000, seed=3))
    csv_path = tmp_path / "sess.csv"
    csv_path.write_text(to_session_csv(vel))
    out = tmp_path / "out"
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps({"step_m": 200, "eps1": 1e-4, "eps2": 1e-6}))
    code = main([
        "sufficiency", "--config", str(cfg_file), "--user", "u9", "--out", str(out),
        str(csv_path),
    ])
    assert code == 0
    summary = json.loads(capsys.readouterr().out.strip())
    assert summary["user"] == "u9"
    assert summary["proper_volume"] <= summary["total_volume"]
    assert (out / "sufficiency_u9.json").exists()
    assert (out / "u9" / "kl_sess.csv").read_text().startswith("n,kl")


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
    assert (out / "u1" / "apen_sess.csv").read_text().startswith("length,apen")


def test_per_session_files_of_two_users_share_an_out_dir(tmp_path, capsys):
    # every synth corpus names its sessions s0, s1, ... for every user
    corpus = write_corpus(tmp_path / "data", users=("u1", "u2"), length=2000, sessions=1)
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps({"candidates": [5, 10, 15, 20], "cap": 1500}))
    out = tmp_path / "out"
    for user in ("u1", "u2"):
        for command in ("sufficiency", "apen"):
            assert main([command, "--config", str(cfg_file), "--user", user, "--out", str(out),
                         str(corpus / user / "s0.csv")]) == 0
    capsys.readouterr()
    written = {}
    for user in ("u1", "u2"):
        (session,), _ = load_user([corpus / user / "s0.csv"], SchemaMap("t", "x", "y"), user)
        vel = velocity_sequence(session, 0.01)
        report = sufficiency.sufficiency_point(vel)
        profile = mau.apen_profile(vel, candidates=[5, 10, 15, 20], cap=1500)
        written[user] = [(out / user / name).read_text() for name in (
            "sufficiency_s0.json", "kl_s0.csv", "apen_s0.json", "apen_s0.csv")]
        assert written[user] == [report.to_json(), report.trajectory_csv(),
                                 profile.to_json(), profile.profile_csv()]
    assert all(a != b for a, b in zip(written["u1"], written["u2"]))


def test_train_eval_round_trip(tmp_path, capsys):
    data_root = write_corpus(tmp_path / "data")
    out = tmp_path / "out"
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps({
        "mau_length": 20, "epochs": 2, "conv_channels": 2, "kernel_size": 3,
        "res_blocks": 1, "gru_hidden": 4, "batch_size": 32, "seed": 0,
    }))
    code = main([
        "train", "--config", str(cfg_file), "--legit-user", "u1",
        "--out", str(out), str(data_root),
    ])
    assert code == 0
    summary = json.loads(capsys.readouterr().out.strip())
    checkpoint = summary["checkpoint"]
    assert Path(checkpoint).exists()
    assert (out / "loss_u1.csv").read_text().startswith("epoch,loss")

    code = main([
        "eval", "--config", str(cfg_file), "--legit-user", "u1",
        "--out", str(out), checkpoint, str(data_root),
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


def test_train_eval_with_a_one_event_session(tmp_path, capsys):
    data_root = write_corpus(tmp_path / "data", length=2000)
    (data_root / "u2" / "s9.csv").write_text("t,x,y\n0,0,0\n")
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps({
        "mau_length": 20, "epochs": 1, "conv_channels": 2, "kernel_size": 3,
        "res_blocks": 1, "gru_hidden": 4,
    }))
    common = ["--config", str(cfg_file), "--legit-user", "u1", "--out", str(tmp_path / "out")]
    assert main(["train", *common, str(data_root)]) == 0
    reports = json.loads(capsys.readouterr().out.strip())["parse_reports"]
    assert reports["u2"][-1] == {"file": "s9", "events": 1, "dropped": 0}
    checkpoint = str(tmp_path / "out" / "model_u1.json")
    assert main(["eval", *common, checkpoint, str(data_root)]) == 0


MALFORMED_ROWS = "t,x,y\nbad,0,0\nnan,1,0\n-1,2,0\n"


def test_train_eval_count_the_rows_of_files_without_a_valid_row(tmp_path, capsys):
    # such files are sessions with no events: their rows are counted, and
    # they add no MAU, so the model and its metrics are the corpus's without them
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps(TINY_TRAIN))
    metrics = {}
    for name in ("plain", "with"):
        data_root = write_corpus(tmp_path / name / "data", length=1500)
        if name == "with":
            (data_root / "u2" / "bad.csv").write_text(MALFORMED_ROWS)
            (data_root / "u2" / "empty.csv").write_bytes(b"")
        common = ["--config", str(cfg_file), "--legit-user", "u1", "--out",
                  str(tmp_path / name / "out")]
        summaries = []
        assert main(["train", *common, str(data_root)]) == 0
        summaries.append(json.loads(capsys.readouterr().out.strip()))
        checkpoint = str(tmp_path / name / "out" / "model_u1.json")
        assert main(["eval", *common, checkpoint, str(data_root)]) == 0
        summaries.append(json.loads(capsys.readouterr().out.strip()))
        if name == "with":
            for summary in summaries:
                rows = {r["file"]: r["events"] + r["dropped"] for r in summary["parse_reports"]["u2"]}
                assert (rows["bad"], rows["empty"]) == (3, 0)
        metrics[name] = json.loads((tmp_path / name / "out" / "eval_u1.json").read_text())
        del metrics[name]["parse_reports"]
    assert metrics["with"] == metrics["plain"]


def test_sufficiency_names_a_file_without_a_valid_row(tmp_path, capsys):
    data_root = write_corpus(tmp_path / "data", users=("u1",), length=1500, sessions=1)
    (data_root / "u1" / "bad.csv").write_text(MALFORMED_ROWS)
    code = main(["sufficiency", "--user", "u1", "--out", str(tmp_path / "out"),
                 str(data_root / "u1" / "s0.csv"), str(data_root / "u1" / "bad.csv")])
    assert code == 1
    assert json.loads(capsys.readouterr().err.strip())["message"].startswith("bad: need >= 600")
    # s0's kl_s0.csv and sufficiency_s0.json were written before bad failed
    assert list((tmp_path / "out").rglob("*")) == []


def test_apen_names_a_file_without_a_valid_row(tmp_path, capsys):
    data_root = write_corpus(tmp_path / "data", users=("u1",), length=1500, sessions=1)
    (data_root / "u1" / "bad.csv").write_text(MALFORMED_ROWS)
    code = main(["apen", "--user", "u1", "--out", str(tmp_path / "out"),
                 str(data_root / "u1" / "s0.csv"), str(data_root / "u1" / "bad.csv")])
    assert code == 1
    assert json.loads(capsys.readouterr().err.strip())["message"].startswith("bad: capped length 0")
    # s0's apen_s0.json and apen_s0.csv were written before bad failed
    assert list((tmp_path / "out").rglob("*")) == []


def snapshot(root: Path) -> dict:
    return {path: path.read_bytes() for path in root.rglob("*") if path.is_file()}


@pytest.mark.parametrize("command", ["sufficiency", "train"])
def test_reports_never_land_where_the_loader_reads(tmp_path, capsys, command):
    corpus = write_corpus(tmp_path / "corpus", users=("u1", "u2"), length=1500, sessions=1)
    before = snapshot(corpus)
    argv = (["sufficiency", "--user", "u1", "--out", str(corpus), str(corpus / "u1" / "s0.csv")]
            if command == "sufficiency" else
            ["train", "--legit-user", "u1", "--out", str(corpus / "u2"), str(corpus)])
    assert main(argv) == 2
    record = json.loads(capsys.readouterr().err.strip())
    assert record["error"] == "ConfigError"
    assert str(corpus / ("u1" if command == "sufficiency" else "u2")) in record["message"]
    assert snapshot(corpus) == before


@pytest.mark.parametrize("command", ["sufficiency", "apen"])
def test_reports_never_land_in_the_corpus_root_of_an_input(tmp_path, capsys, command):
    # u1's reports of u2's session went to corpus/u1/, and train then read
    # kl_s0.csv there as a session and exited 1
    corpus = write_corpus(tmp_path / "corpus", users=("u1", "u2"), length=1500, sessions=1)
    before = snapshot(corpus)
    argv = [command, "--user", "u1", "--out", str(corpus), str(corpus / "u2" / "s0.csv")]
    assert main(argv) == 2
    record = json.loads(capsys.readouterr().err.strip())
    assert record["error"] == "ConfigError"
    assert f"{corpus} is the corpus root of an input" in record["message"]
    assert snapshot(corpus) == before
    assert main([command, "--user", "u1", "--out", str(tmp_path / "reports"),
                 str(corpus / "u2" / "s0.csv")]) == 0


@pytest.mark.parametrize("command", ["sufficiency", "apen", "synth"])
@pytest.mark.parametrize("user", ["", ".", "..", "../esc", "a/b", "a\0b"])
def test_a_user_name_is_one_path_component(tmp_path, capsys, command, user):
    (tmp_path / "s0.csv").write_text(to_session_csv(
        generate(SynthSpec("gaussian_iid", {"mean": 10, "std": 1}, 700, seed=3))))
    spec_file = tmp_path / "specs.json"
    spec_file.write_text(json.dumps({user: [{"kind": "gaussian_iid", "length": 700}]}))
    out = tmp_path / "w" / "out"
    out.mkdir(parents=True)
    argv = ([command, "--out", str(out), str(spec_file)] if command == "synth" else
            [command, "--user", user, "--out", str(out), str(tmp_path / "s0.csv")])
    assert main(argv) == 2
    assert json.loads(capsys.readouterr().err.strip())["error"] == "ConfigError"
    assert [p for p in (tmp_path / "w").rglob("*") if p != out] == []


def test_a_rejected_train_out_is_not_made(tmp_path, capsys):
    corpus = write_corpus(tmp_path / "corpus", users=("u1", "u2"), length=1500, sessions=1)
    out = corpus / "u9"
    assert main(["train", "--legit-user", "u1", "--out", str(out), str(corpus)]) == 2
    assert json.loads(capsys.readouterr().err.strip())["error"] == "ConfigError"
    assert not out.exists()


def test_a_rejected_synth_out_is_not_made(tmp_path, capsys):
    spec_file = tmp_path / "spec.json"
    spec_file.write_text(json.dumps({"..": [{"kind": "gaussian_iid", "length": 700}]}))
    out = tmp_path / "fresh" / "out"
    assert main(["synth", "--out", str(out), str(spec_file)]) == 2
    assert json.loads(capsys.readouterr().err.strip())["error"] == "ConfigError"
    assert not (tmp_path / "fresh").exists()


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
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps({"step_m": 200}))
    code = main(["sufficiency", "--config", str(cfg_file), "--user", "ua",
                 "--out", str(tmp_path / "suf"), files[0]])
    assert code == 0


def test_every_command_writes_the_summary_it_prints(tmp_path, capsys):
    spec_file = tmp_path / "specs.json"
    spec_file.write_text(json.dumps({
        user: [{"kind": "ar1", "params": {"phi": phi, "sigma": 1, "mean": 10},
                "length": 600, "seed": 10 * k + j} for j in range(2)]
        for k, (user, phi) in enumerate([("u1", 0.9), ("u2", 0.5), ("u3", 0.1)])
    }))
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps({
        "step_m": 50, "candidates": [5, 10], "mau_length": 20, "epochs": 1,
        "conv_channels": 2, "kernel_size": 3, "res_blocks": 1, "gru_hidden": 4,
    }))
    corpus, out = tmp_path / "corpus", tmp_path / "out"
    sessions = [str(corpus / "u1" / f"{s}.csv") for s in ("s0", "s1")]
    runs = [
        (["synth", "--out", str(corpus), str(spec_file)], corpus / "synth.json"),
        (["sufficiency", "--user", "u1", "--out", str(out), *sessions],
         out / "sufficiency_u1.json"),
        (["apen", "--user", "u1", "--out", str(out), *sessions], out / "apen_u1.json"),
        (["train", "--legit-user", "u1", "--out", str(out), str(corpus)],
         out / "train_u1.json"),
        (["eval", "--legit-user", "u1", "--out", str(out), str(out / "model_u1.json"),
          str(corpus)], out / "eval_u1.json"),
    ]
    for argv, summary_file in runs:
        assert main([argv[0], "--config", str(cfg_file), *argv[1:]]) == 0
        printed = json.loads(capsys.readouterr().out.strip())
        assert json.loads(summary_file.read_text()) == printed
        assert set(printed) >= {"config_hash", "seed"}


@pytest.mark.parametrize("text", [
    "[1]",  # not an object
    "{}",  # no user
    "{bad json",
    '{"u": {"kind": "ar1"}}',  # a user's specs must be a list
    '{"u": [1]}',
    '{"u": [{"kind": "ar1", "bogus": 1}]}',
    '{"u": [{"kind": "ar1", "length": "50"}]}',
    '{"u": [{"kind": "nope"}]}',
    '{"u": [{"kind": "ar1", "params": {"phi": 1.2}}]}',
])
def test_malformed_spec_file_exit_code(tmp_path, capsys, text):
    spec_file = tmp_path / "specs.json"
    spec_file.write_text(text)
    code = main(["synth", "--out", str(tmp_path / "corpus"), str(spec_file)])
    assert code == 2
    assert json.loads(capsys.readouterr().err.strip())["error"] == "ConfigError"


def test_parser_subcommands():
    parser = build_parser()
    args = parser.parse_args(["apen", "--user", "u", "file.csv"])
    assert args.command == "apen"


def test_config_hash_stable():
    assert PipelineConfig().config_hash() == PipelineConfig().config_hash()
    assert PipelineConfig().config_hash() != PipelineConfig(seed=1).config_hash()


def test_the_output_directory_is_not_in_the_config_hash(tmp_path, capsys):
    # --out is where a run writes, not what it computes
    csv_path = tmp_path / "sess.csv"
    csv_path.write_text(to_session_csv(generate(SynthSpec("gaussian_iid", {}, 800, seed=5))))
    hashes = []
    for out in ("a", "b"):
        assert main(["sufficiency", "--user", "u", "--out", str(tmp_path / out),
                     str(csv_path)]) == 0
        hashes.append(json.loads(capsys.readouterr().out.strip())["config_hash"])
    assert hashes[0] == hashes[1] == PipelineConfig().config_hash()


def test_a_config_file_naming_out_dir_exit_code(tmp_path, capsys):
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps({"out_dir": "elsewhere"}))
    assert main(["sufficiency", "--config", str(cfg_file), "--user", "u", "x.csv"]) == 2
    record = json.loads(capsys.readouterr().err.strip())
    assert record["error"] == "ConfigError" and "out_dir" in record["message"]


REMOVED_SETTING_FLAGS = ["--preset", "--seed", "--step-m", "--eps1", "--eps2",
                         "--slope-threshold", "--mau-length", "--epochs", "--ratio"]
POSITIONAL = {"sufficiency": ["--user", "u", "a.csv"], "apen": ["--user", "u", "a.csv"],
              "train": ["--legit-user", "u1", "data"],
              "eval": ["--legit-user", "u1", "m.json", "data"], "synth": ["specs.json"]}


def test_no_setting_comes_from_the_command_line():
    # the config file alone sets what a run computes, so its hash covers it
    parser = build_parser()
    subparsers, = (a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    assert set(subparsers.choices) == set(POSITIONAL)
    fields = {f.name for f in dataclasses.fields(PipelineConfig)}
    for command, sub in subparsers.choices.items():
        assert not {action.dest for action in sub._actions} & fields, command
        parser.parse_args([command, *POSITIONAL[command]])
        for flag in REMOVED_SETTING_FLAGS:
            value = "balabit" if flag == "--preset" else "1"
            with pytest.raises(SystemExit) as exc:
                parser.parse_args([command, flag, value, *POSITIONAL[command]])
            assert exc.value.code == 2, (command, flag)


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
