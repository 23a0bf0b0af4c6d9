"""Command-line entry point: one subcommand per pipeline stage.

Outputs are JSON reports (machine) plus CSV files (plot data), written to
the --out directory, which is not part of the config or its hash.
Per-session files go under <out>/<user>/, as session ids repeat from user
to user; a user name is one path component, and no command writes into a
directory it reads sessions from. Each command's summary is stamped with the config hash and the
seed so reruns are reproducible, printed, and written to the output
directory. Exit codes: 0 success, 1 failure, 2 invalid config.
"""

from __future__ import annotations

import argparse
import copy
import dataclasses
import hashlib
import json
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import evaluation, ingest, kinematics, mau, model, sufficiency, synth
from .errors import ConfigError, MouseAuthError


@dataclass
class PipelineConfig:
    schema: dict = field(
        default_factory=lambda: {"timestamp_col": "t", "x_col": "x", "y_col": "y"}
    )
    dt: float = 0.01
    # sufficiency
    step_m: int = 200
    eps1: float = 1e-4
    eps2: float = 1e-6
    # MAU selection
    candidates: list[int] = field(default_factory=lambda: list(mau.DEFAULT_CANDIDATES))
    r_factor: float = mau.DEFAULT_R_FACTOR
    slope_threshold: float = mau.SLOPE_THRESHOLD
    cap: int = mau.DEFAULT_CAP
    # model / training
    mau_length: int = 100
    conv_channels: int = 16
    kernel_size: int = 5
    res_blocks: int = 2
    res_kernel: int = 3
    gru_hidden: int = 32
    standardize: bool = True
    learning_rate: float = 1e-3
    batch_size: int = 32
    epochs: int = 20
    # split
    pos_neg_ratio: float = 5.0
    unseen_count: int = 1
    train_frac: float = 0.7
    seed: int = 0

    def __post_init__(self):
        # checked when made, as ModelConfig is: the stage that reads a field checks it
        try:
            self.schema_map()
        except (TypeError, MouseAuthError) as exc:  # a missing or unknown key, a bad value
            raise ConfigError(f"bad schema {self.schema!r}: {exc}") from exc
        try:
            kinematics.check_dt(self.dt)
            sufficiency.check_settings(self.step_m, self.eps1, self.eps2)
            mau.check_profile_settings(self.candidates, self.r_factor, self.cap,
                                       self.slope_threshold)
            self.model_config()
            self.train_config()
            evaluation.check_split_settings(self.pos_neg_ratio, self.unseen_count,
                                            self.train_frac)
        except MouseAuthError as exc:
            raise ConfigError(str(exc)) from exc

    def schema_map(self) -> ingest.SchemaMap:
        return ingest.SchemaMap(**self.schema)

    def config_hash(self) -> str:
        blob = json.dumps(dataclasses.asdict(self), sort_keys=True)
        return hashlib.sha256(blob.encode()).hexdigest()[:16]

    def model_config(self) -> model.ModelConfig:
        return model.ModelConfig(
            input_length=self.mau_length,
            conv_channels=self.conv_channels,
            kernel_size=self.kernel_size,
            res_blocks=self.res_blocks,
            res_kernel=self.res_kernel,
            gru_hidden=self.gru_hidden,
            seed=self.seed,
            standardize=self.standardize,
        )

    def train_config(self) -> model.TrainConfig:
        return model.TrainConfig(
            learning_rate=self.learning_rate,
            batch_size=self.batch_size,
            epochs=self.epochs,
            seed=self.seed,
        )


# Balabit and DFL files share one column layout. Balabit carries both a
# record and a client timestamp; the client one is used.
_CLIENT_TIMESTAMP_SCHEMA = {"timestamp_col": "client timestamp", "x_col": "x", "y_col": "y"}

PRESETS = {
    # conservative eps2, 5:1 imbalance
    "balabit": {"eps2": 1e-7, "pos_neg_ratio": 5.0, "schema": _CLIENT_TIMESTAMP_SCHEMA},
    # more aggressive eps2, 8:1 imbalance
    "dfl": {"eps2": 1e-6, "pos_neg_ratio": 8.0, "schema": _CLIENT_TIMESTAMP_SCHEMA},
}


def _load_json_object(path: str) -> dict:
    try:
        values = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path} is not JSON: {exc}") from exc
    if not isinstance(values, dict):
        raise ConfigError(f"{path} must hold a JSON object, got {values!r}")
    return values


def load_config(path) -> PipelineConfig:
    """The run's config: the defaults, then the file's preset, then the
    file's own values. No setting comes from the command line."""
    values = _load_json_object(path) if path else {}
    # a preset is not a config field: it only fills in the fields it names
    # that the file leaves unset; a null preset means none
    preset = values.pop("preset", None)
    unknown = set(values) - {f.name for f in dataclasses.fields(PipelineConfig)}
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    if preset is not None:
        if not isinstance(preset, str) or preset not in PRESETS:
            raise ConfigError(f"unknown preset {preset!r}")
        values = {**copy.deepcopy(PRESETS[preset]), **values}
    return PipelineConfig(**values)


def _sessions_to_velocities(cfg: PipelineConfig, paths, user_id):
    sessions, reports = ingest.load_user(paths, cfg.schema_map(), user_id)
    vels = [kinematics.velocity_sequence(s, dt=cfg.dt) for s in sessions]
    return vels, reports


def _user_dirs(out: Path, users, inputs=()) -> list[Path]:
    """Make out and <out>/<user> for each user once every user is checked:
    its name must be one path component, and its directory must hold none of
    the inputs, as the loader would read the reports written there as
    sessions. Nor may <out> hold an input's directory: it is then that
    input's corpus root, whose user directories the loader reads."""
    dirs = [out / user for user in users]
    input_dirs = {Path(path).resolve().parent for path in inputs}
    for user, path in zip(users, dirs):
        if user in ("", ".", "..") or "/" in user or "\0" in user:
            raise ConfigError(f"user name {user!r} is not one path component")
        if path.resolve() in input_dirs:
            raise ConfigError(f"{path} holds an input, so its reports would be read "
                              "as sessions; choose another --out")
    if out.resolve() in {path.parent for path in input_dirs}:
        raise ConfigError(f"{out} is the corpus root of an input, so its reports would be "
                          "read as sessions; choose another --out")
    out.mkdir(parents=True, exist_ok=True)
    for path in dirs:
        path.mkdir(exist_ok=True)
    return dirs


def _load_corpus(cfg: PipelineConfig, root: Path, legit_user: str, out: Path):
    """Each subdirectory of root is one user holding session CSV files.

    Returns each user's MAUs of cfg.mau_length as the rows of one array,
    the parse report of each file, and the split record: what the split
    depends on besides the MAU length, which the checkpoint's config
    carries. Train records it and eval checks it; its digest covers every
    speed the MAUs are cut from. Raises ConfigError if out is a user
    directory of root, and makes out otherwise.
    """
    if out.resolve().parent == root.resolve():
        raise ConfigError(f"{out} is a user directory of {root}, so its reports would be "
                          "read as sessions; choose another --out")
    out.mkdir(parents=True, exist_ok=True)
    users, parse_reports, digest = {}, {}, hashlib.sha256()
    for user_dir in sorted(p for p in root.iterdir() if p.is_dir()):
        paths = sorted(user_dir.glob("*.csv"))
        if not paths:
            continue
        vels, reports = _sessions_to_velocities(cfg, paths, user_dir.name)
        users[user_dir.name] = np.concatenate([mau.segment(v, cfg.mau_length).rows for v in vels])
        parse_reports[user_dir.name] = [dataclasses.asdict(r) for r in reports]
        for vel in vels:
            # no path holds a NUL and the count fixes where each array ends,
            # so no two corpora feed the digest the same bytes
            digest.update(f"{user_dir.name}\0{vel.session_id}\0{len(vel.v)}\0".encode())
            digest.update(vel.v.astype("<f8").tobytes())
    if not users:
        raise ConfigError(f"no per-user subdirectories with CSVs under {root}")
    record = {"legit_user": legit_user, "seed": cfg.seed, "pos_neg_ratio": cfg.pos_neg_ratio,
              "unseen_count": cfg.unseen_count, "train_frac": cfg.train_frac,
              "data_sha256": digest.hexdigest()}
    return users, parse_reports, record


def _build_split(cfg: PipelineConfig, users, legit_user: str) -> evaluation.Split:
    if legit_user not in users:
        raise ConfigError(f"unknown legitimate user {legit_user!r}: no CSVs for it in the data root")
    return evaluation.build_splits(users, legit_user, ratio=cfg.pos_neg_ratio,
                                   unseen_count=cfg.unseen_count, seed=cfg.seed,
                                   train_frac=cfg.train_frac)


# Each command runs its stage, writes its artifacts to out and returns the
# config it ran, its summary's name and payload; main stamps, writes and
# prints the summary.

def cmd_sufficiency(cfg: PipelineConfig, out: Path, args) -> tuple[PipelineConfig, str, dict]:
    vels, parse_reports = _sessions_to_velocities(cfg, args.inputs, args.user)
    # every session is screened before any file is written, so a session that
    # fails leaves no other session's files behind
    reports = [
        sufficiency.sufficiency_point(vel, step_m=cfg.step_m, eps1=cfg.eps1, eps2=cfg.eps2)
        for vel in vels
    ]
    user_out, = _user_dirs(out, [args.user], args.inputs)  # session ids repeat across users
    for report in reports:
        (user_out / f"sufficiency_{report.session_id}.json").write_text(report.to_json())
        (user_out / f"kl_{report.session_id}.csv").write_text(report.trajectory_csv())
    total, flagged = sufficiency.aggregate_user_volume(reports)
    return cfg, f"sufficiency_{args.user}", {
        "user": args.user,
        "parse_reports": [dataclasses.asdict(r) for r in parse_reports],
        "proper_volume": total,
        "total_volume": int(sum(r.total_length for r in reports)),
        "exhausted_sessions": flagged,
    }


def cmd_apen(cfg: PipelineConfig, out: Path, args) -> tuple[PipelineConfig, str, dict]:
    vels, _ = _sessions_to_velocities(cfg, args.inputs, args.user)
    profiles = [
        mau.apen_profile(vel, candidates=cfg.candidates, r_factor=cfg.r_factor,
                         cap=cfg.cap, slope_threshold=cfg.slope_threshold)
        for vel in vels
    ]
    user_out, = _user_dirs(out, [args.user], args.inputs)
    for vel, profile in zip(vels, profiles):
        (user_out / f"apen_{vel.session_id}.json").write_text(profile.to_json())
        (user_out / f"apen_{vel.session_id}.csv").write_text(profile.profile_csv())
    return cfg, f"apen_{args.user}", {
        "user": args.user, "selected_lengths": [p.selected_length for p in profiles]}


def cmd_train(cfg: PipelineConfig, out: Path, args) -> tuple[PipelineConfig, str, dict]:
    users, parse_reports, record = _load_corpus(cfg, Path(args.data_root), args.legit_user, out)
    split = _build_split(cfg, users, args.legit_user)
    params, history = model.train(*split.train_arrays(), cfg.model_config(), cfg.train_config())
    checkpoint = out / f"model_{args.legit_user}.json"
    model.save_checkpoint(checkpoint, params, cfg.model_config(), split=record)
    (out / f"loss_{args.legit_user}.csv").write_text(
        "epoch,loss\n" + "".join(f"{i},{l!r}\n" for i, l in enumerate(history))
    )
    return cfg, f"train_{args.legit_user}", {
        "legit_user": args.legit_user,
        "checkpoint": str(checkpoint),
        "train_size": len(split.train_labels),
        "final_loss": history[-1],
        "unseen_users": split.unseen_users,
        "parse_reports": parse_reports,
    }


def cmd_eval(cfg: PipelineConfig, out: Path, args) -> tuple[PipelineConfig, str, dict]:
    params, mcfg, record = model.read_checkpoint(args.checkpoint)
    if not isinstance(record, dict):
        raise ConfigError(f"{args.checkpoint} records no split to check; train it again")
    # the window length and the architecture are the checkpoint's, so the
    # stamped config describes the model scored; the split's settings stay
    # the file's, which the record checks
    cfg = dataclasses.replace(
        cfg, mau_length=mcfg.input_length, conv_channels=mcfg.conv_channels,
        kernel_size=mcfg.kernel_size, res_blocks=mcfg.res_blocks, res_kernel=mcfg.res_kernel,
        gru_hidden=mcfg.gru_hidden, standardize=mcfg.standardize)
    users, parse_reports, want = _load_corpus(cfg, Path(args.data_root), args.legit_user, out)
    # any other split could test the model on its own training windows;
    # checked before the split, which may fail on settings that differ
    differ = sorted(key for key in want if record.get(key) != want[key])
    if differ:
        raise ConfigError(f"{args.checkpoint} was trained on another split: {differ} differ")
    split = _build_split(cfg, users, args.legit_user)
    X, y = split.test_arrays()
    scored = evaluation.ScoredSet(model.predict_batch(params, X, mcfg), y)
    report = evaluation.report_scores(scored, split.unseen_mask)
    (out / f"roc_{args.legit_user}.csv").write_text(evaluation.roc_curve_csv(scored))
    return cfg, f"eval_{args.legit_user}", {
        "legit_user": args.legit_user, **dataclasses.asdict(report),
        "parse_reports": parse_reports,
    }


def load_specs(path: str) -> dict[str, list[synth.SynthSpec]]:
    """The synth spec file: a JSON object mapping each user to a list of
    SynthSpec fields. A malformed file is a ConfigError, as a malformed
    config file is."""
    doc = _load_json_object(path)
    if not doc or not all(isinstance(entries, list) for entries in doc.values()):
        raise ConfigError(f"{path} must map one or more users to lists of specs")
    try:
        return {
            user: [synth.SynthSpec(**entry) for entry in entries]
            for user, entries in doc.items()
        }
    except (TypeError, MouseAuthError) as exc:  # an entry that is not SynthSpec fields
        raise ConfigError(f"bad spec in {path}: {exc}") from exc


def cmd_synth(cfg: PipelineConfig, out: Path, args) -> tuple[PipelineConfig, str, dict]:
    pool = synth.generate_user_pool(load_specs(args.spec), dt=cfg.dt)
    users = sorted(pool)
    written = []
    for user, user_dir in zip(users, _user_dirs(out, users)):
        for vel in pool[user]:
            path = user_dir / f"{vel.session_id}.csv"
            path.write_text(synth.to_session_csv(vel))
            written.append(str(path))
    return cfg, "synth", {"files": written}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mouseauth",
        description="Mouse-dynamics authentication pipeline",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # the command line names what a run reads and where it writes; every
    # setting is in the config file, which the stamped hash covers
    def common(p):
        p.add_argument("--config", help="JSON config file")
        p.add_argument("--out", default="out", help="output directory")

    p = sub.add_parser("sufficiency", help="KDE/KL proper-volume estimation")
    common(p)
    p.add_argument("--user", required=True)
    p.add_argument("inputs", nargs="+", help="session CSV files")
    p.set_defaults(func=cmd_sufficiency)

    p = sub.add_parser("apen", help="ApEn profile and MAU length selection")
    common(p)
    p.add_argument("--user", required=True)
    p.add_argument("inputs", nargs="+", help="session CSV files")
    p.set_defaults(func=cmd_apen)

    p = sub.add_parser("train", help="train the classifier for one user")
    common(p)
    p.add_argument("--legit-user", required=True, dest="legit_user")
    p.add_argument("data_root", help="directory of per-user session subdirectories")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="blind-attack evaluation of a checkpoint")
    common(p)
    p.add_argument("--legit-user", required=True, dest="legit_user")
    p.add_argument("checkpoint")
    p.add_argument("data_root")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("synth", help="emit synthetic ingest-compatible corpora")
    common(p)
    p.add_argument("spec", help="JSON map of user -> list of synth specs")
    p.set_defaults(func=cmd_synth)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config)
        # each command makes out once its guard accepts it
        out = Path(args.out)
        cfg, name, summary = args.func(cfg, out, args)
        summary["config_hash"] = cfg.config_hash()
        summary["seed"] = cfg.seed
        (out / f"{name}.json").write_text(json.dumps(summary, indent=2))
        print(json.dumps(summary))
        return 0
    except (MouseAuthError, OSError, ValueError) as exc:
        print(json.dumps({"error": type(exc).__name__, "message": str(exc)}),
              file=sys.stderr)
        return 2 if isinstance(exc, ConfigError) else 1


if __name__ == "__main__":
    sys.exit(main())
