"""Command-line entry point: one subcommand per pipeline stage.

Outputs are JSON reports (machine) plus CSV files (plot data), all stamped
with a config hash and the seeds so reruns are reproducible. Exit codes:
0 success, 1 failure, 2 invalid config.
"""

from __future__ import annotations

import argparse
import copy
import dataclasses
import hashlib
import json
import sys
import typing
from dataclasses import dataclass, field
from pathlib import Path


from . import evaluation, ingest, kinematics, mau, model, sufficiency, synth
from .errors import ConfigError, MouseAuthError, SchemaError, ShapeMismatch


def _has_type_of(value, default) -> bool:
    """Whether a config value has its default's type. An int stands for a
    float, a bool is never a number, and a list holds ints."""
    if isinstance(default, list):
        return isinstance(value, list) and all(_has_type_of(v, 0) for v in value)
    if isinstance(value, bool) or isinstance(default, bool):
        return type(value) is type(default)
    if isinstance(default, float):
        return isinstance(value, (int, float))
    return isinstance(value, type(default))


@dataclass
class PipelineConfig:
    schema: dict = field(
        default_factory=lambda: {
            "timestamp_col": "t",
            "x_col": "x",
            "y_col": "y",
            "state_col": None,
            "delimiter": ",",
            "has_header": True,
        }
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
    out_dir: str = "out"

    def validate(self):
        defaults = PipelineConfig()
        for f in dataclasses.fields(self):
            value, default = getattr(self, f.name), getattr(defaults, f.name)
            if not _has_type_of(value, default):
                kind = "list of int" if isinstance(default, list) else type(default).__name__
                raise ConfigError(f"{f.name} must be of type {kind}, got {value!r}")
        checks = [
            (self.dt > 0, "dt must be positive"),
            (self.step_m >= 2, "step_m must be >= 2"),
            (self.eps1 > 0 and self.eps2 > 0, "eps thresholds must be positive"),
            (self.r_factor > 0, "r_factor must be positive"),
            (self.slope_threshold > 0, "slope_threshold must be positive"),
            (self.cap >= 3, "cap too small"),
            (len(self.candidates) >= 2, "need at least two candidate lengths"),
            (all(c >= 1 for c in self.candidates), "candidates must be >= 1"),
            (
                all(b > a for a, b in zip(self.candidates, self.candidates[1:])),
                "candidates must be strictly increasing",
            ),
            (self.batch_size >= 1 and self.epochs >= 1, "batch_size/epochs must be >= 1"),
            (self.pos_neg_ratio > 0, "pos_neg_ratio must be positive"),
            (self.unseen_count >= 1, "unseen_count must be >= 1"),
            (0 < self.train_frac < 1, "train_frac must be in (0, 1)"),
        ]
        for ok, message in checks:
            if not ok:
                raise ConfigError(message)
        try:
            schema = self.schema_map()
        except (TypeError, SchemaError) as exc:  # a missing or unknown key, a bad value
            raise ConfigError(f"bad schema {self.schema!r}: {exc}") from exc
        for name, kind in typing.get_type_hints(ingest.SchemaMap).items():
            value = getattr(schema, name)
            if not isinstance(value, kind):
                kind = getattr(kind, "__name__", kind)
                raise ConfigError(f"schema {name} must be of type {kind}, got {value!r}")
        try:
            self.model_config()
            self.train_config()
        except (ShapeMismatch, ValueError) as exc:
            raise ConfigError(str(exc)) from exc

    def schema_map(self) -> ingest.SchemaMap:
        return ingest.SchemaMap(**self.schema)

    def config_hash(self) -> str:
        # where a run writes does not change what it computes
        values = dataclasses.asdict(self)
        del values["out_dir"]
        blob = json.dumps(values, sort_keys=True)
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
_CLIENT_TIMESTAMP_SCHEMA = {
    "timestamp_col": "client timestamp", "x_col": "x", "y_col": "y", "state_col": "state",
}

PRESETS = {
    # conservative eps2, 5:1 imbalance
    "balabit": {"eps1": 1e-4, "eps2": 1e-7, "step_m": 200, "pos_neg_ratio": 5.0,
                "schema": _CLIENT_TIMESTAMP_SCHEMA},
    # more aggressive eps2, 8:1 imbalance
    "dfl": {"eps1": 1e-4, "eps2": 1e-6, "step_m": 200, "pos_neg_ratio": 8.0,
            "schema": _CLIENT_TIMESTAMP_SCHEMA},
}


def load_config(args) -> PipelineConfig:
    values: dict = {}
    if args.config:
        values.update(json.loads(Path(args.config).read_text()))
    # a preset is not a config field: it only fills in the fields it names
    preset = getattr(args, "preset", None) or values.get("preset")
    values.pop("preset", None)
    if preset:
        if preset not in PRESETS:
            raise ConfigError(f"unknown preset {preset!r}")
        values.update(copy.deepcopy(PRESETS[preset]))
    # each override flag's argparse dest is the config field it sets
    known = {f.name for f in dataclasses.fields(PipelineConfig)}
    for name in known:
        value = getattr(args, name, None)
        if value is not None:
            values[name] = value
    unknown = set(values) - known
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    cfg = PipelineConfig(**values)
    cfg.validate()
    return cfg


def _out_dir(cfg: PipelineConfig) -> Path:
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _stamp(cfg: PipelineConfig, payload: dict) -> dict:
    payload["config_hash"] = cfg.config_hash()
    payload["seed"] = cfg.seed
    return payload


def _sessions_to_velocities(cfg: PipelineConfig, paths, user_id):
    sessions, reports = ingest.load_user(paths, cfg.schema_map(), user_id)
    vels = [kinematics.velocity_sequence(s, dt=cfg.dt) for s in sessions]
    return vels, reports


def _load_user_pool(
    cfg: PipelineConfig, root: Path
) -> tuple[dict[str, list], dict[str, list]]:
    """Each subdirectory of root is one user holding session CSV files.

    Returns each user's velocity sequences and the parse report of each file.
    """
    pool, parse_reports = {}, {}
    for user_dir in sorted(p for p in root.iterdir() if p.is_dir()):
        paths = sorted(user_dir.glob("*.csv"))
        if not paths:
            continue
        vels, reports = _sessions_to_velocities(cfg, paths, user_dir.name)
        pool[user_dir.name] = vels
        parse_reports[user_dir.name] = [dataclasses.asdict(r) for r in reports]
    if not pool:
        raise ConfigError(f"no per-user subdirectories with CSVs under {root}")
    return pool, parse_reports


def cmd_sufficiency(args) -> int:
    cfg = load_config(args)
    out = _out_dir(cfg)
    vels, parse_reports = _sessions_to_velocities(cfg, args.inputs, args.user)
    reports = []
    for vel in vels:
        report = sufficiency.sufficiency_point(
            vel, step_m=cfg.step_m, eps1=cfg.eps1, eps2=cfg.eps2
        )
        reports.append(report)
        (out / f"sufficiency_{report.session_id}.json").write_text(report.to_json())
        (out / f"kl_{report.session_id}.csv").write_text(report.trajectory_csv())
    total, flagged = sufficiency.aggregate_user_volume(reports)
    summary = _stamp(
        cfg,
        {
            "user": args.user,
            "parse_reports": [dataclasses.asdict(r) for r in parse_reports],
            "proper_volume": total,
            "total_volume": int(sum(r.total_length for r in reports)),
            "exhausted_sessions": flagged,
        },
    )
    (out / f"sufficiency_{args.user}.json").write_text(json.dumps(summary, indent=2))
    print(json.dumps(summary))
    return 0


def cmd_apen(args) -> int:
    cfg = load_config(args)
    out = _out_dir(cfg)
    vels, _ = _sessions_to_velocities(cfg, args.inputs, args.user)
    selections = []
    for vel in vels:
        profile = mau.apen_profile(
            vel,
            candidates=cfg.candidates,
            r_factor=cfg.r_factor,
            cap=cfg.cap,
            slope_threshold=cfg.slope_threshold,
        )
        selections.append(profile.selected_length)
        (out / f"apen_{vel.session_id}.json").write_text(profile.to_json())
        (out / f"apen_{vel.session_id}.csv").write_text(profile.profile_csv())
    summary = _stamp(
        cfg, {"user": args.user, "selected_lengths": selections}
    )
    (out / f"apen_{args.user}.json").write_text(json.dumps(summary, indent=2))
    print(json.dumps(summary))
    return 0


def _split_from_pool(cfg: PipelineConfig, pool, legit_user):
    users = {
        user: [m for vel in vels for m in mau.segment(vel, cfg.mau_length)]
        for user, vels in pool.items()
    }
    return evaluation.build_splits(
        users,
        legit_user,
        ratio=cfg.pos_neg_ratio,
        unseen_count=cfg.unseen_count,
        seed=cfg.seed,
        train_frac=cfg.train_frac,
    )


def cmd_train(args) -> int:
    cfg = load_config(args)
    out = _out_dir(cfg)
    pool, parse_reports = _load_user_pool(cfg, Path(args.data_root))
    split = _split_from_pool(cfg, pool, args.legit_user)
    X, y = split.train_arrays()
    params, history = model.train(X, y, cfg.model_config(), cfg.train_config())
    checkpoint = out / f"model_{args.legit_user}.json"
    model.save_checkpoint(checkpoint, params, cfg.model_config())
    (out / f"loss_{args.legit_user}.csv").write_text(
        "epoch,loss\n" + "".join(f"{i},{l!r}\n" for i, l in enumerate(history))
    )
    summary = _stamp(
        cfg,
        {
            "legit_user": args.legit_user,
            "checkpoint": str(checkpoint),
            "train_size": len(y),
            "final_loss": history[-1],
            "unseen_users": split.unseen_users,
            "parse_reports": parse_reports,
        },
    )
    print(json.dumps(summary))
    return 0


def cmd_eval(args) -> int:
    cfg = load_config(args)
    out = _out_dir(cfg)
    params, mcfg = model.load_checkpoint(args.checkpoint)
    cfg.mau_length = mcfg.input_length
    pool, parse_reports = _load_user_pool(cfg, Path(args.data_root))
    split = _split_from_pool(cfg, pool, args.legit_user)
    X, y = split.test_arrays()
    scored = evaluation.ScoredSet(model.predict_batch(params, X, mcfg), y)
    report = evaluation.report_scores(scored, split.unseen_mask)
    (out / f"roc_{args.legit_user}.csv").write_text(evaluation.roc_curve_csv(scored))
    summary = _stamp(
        cfg,
        {"legit_user": args.legit_user, **dataclasses.asdict(report),
         "parse_reports": parse_reports},
    )
    (out / f"eval_{args.legit_user}.json").write_text(json.dumps(summary, indent=2))
    print(json.dumps(summary))
    return 0


def cmd_synth(args) -> int:
    cfg = load_config(args)
    out = _out_dir(cfg)
    spec_doc = json.loads(Path(args.spec).read_text())
    specs = {
        user: [synth.SynthSpec(**entry) for entry in entries]
        for user, entries in spec_doc.items()
    }
    pool = synth.generate_user_pool(specs, dt=cfg.dt)
    written = []
    for user, vels in sorted(pool.items()):
        user_dir = out / user
        user_dir.mkdir(parents=True, exist_ok=True)
        for vel in vels:
            path = user_dir / f"{vel.session_id}.csv"
            path.write_text(synth.to_session_csv(vel))
            written.append(str(path))
    summary = _stamp(cfg, {"files": written})
    print(json.dumps(summary))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mouseauth",
        description="Mouse-dynamics authentication pipeline",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="JSON config file")
        p.add_argument("--preset", choices=sorted(PRESETS))
        p.add_argument("--out", dest="out_dir", help="output directory")
        p.add_argument("--seed", type=int)

    p = sub.add_parser("sufficiency", help="KDE/KL proper-volume estimation")
    common(p)
    p.add_argument("--user", required=True)
    p.add_argument("--step-m", type=int, dest="step_m")
    p.add_argument("--eps1", type=float)
    p.add_argument("--eps2", type=float)
    p.add_argument("inputs", nargs="+", help="session CSV files")
    p.set_defaults(func=cmd_sufficiency)

    p = sub.add_parser("apen", help="ApEn profile and MAU length selection")
    common(p)
    p.add_argument("--user", required=True)
    p.add_argument("--slope-threshold", type=float, dest="slope_threshold")
    p.add_argument("inputs", nargs="+", help="session CSV files")
    p.set_defaults(func=cmd_apen)

    p = sub.add_parser("train", help="train the classifier for one user")
    common(p)
    p.add_argument("--legit-user", required=True, dest="legit_user")
    p.add_argument("--mau-length", type=int, dest="mau_length")
    p.add_argument("--epochs", type=int)
    p.add_argument("--ratio", type=float, dest="pos_neg_ratio",
                   help="positive:negative ratio")
    p.add_argument("data_root", help="directory of per-user session subdirectories")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="blind-attack evaluation of a checkpoint")
    common(p)
    p.add_argument("--legit-user", required=True, dest="legit_user")
    p.add_argument("--unseen-count", type=int, dest="unseen_count")
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
        return args.func(args)
    except ConfigError as exc:
        print(json.dumps({"error": type(exc).__name__, "message": str(exc)}),
              file=sys.stderr)
        return 2
    except (MouseAuthError, OSError, json.JSONDecodeError, ValueError) as exc:
        print(json.dumps({"error": type(exc).__name__, "message": str(exc)}),
              file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
