"""The benchmark's workloads: seeded inputs, measured requests, checks.

Every workload is driven by one caller in a closed loop: the next request
starts when the previous one returns. Inputs come from the benchmark seed
through ``mouseauth.synth`` (SplitMix64); generating them and writing the CSV
files is set-up, so the program only ever sees the finished files and arrays.

A request returns a ``Record``. Its ``key`` names the distinct input it ran
on; its ``items`` and ``busy`` seconds feed ``throughput_per_s``, and its
``latencies_ms`` feed ``latency_ms``, both taken per key (see run.py).
What a request, an item and a latency sample are differs by workload; see
each class. Checks run after the measured loop, off the clock.

Times are the process's CPU time. The program runs single-threaded (one
caller, one BLAS thread), so on a dedicated machine this equals wall time;
on a shared virtual machine it leaves out the time the host gives the CPU
to others, which otherwise varies by several percent from run to run. run.py
scales the end-to-end figures by the host's speed during the run.
"""

from __future__ import annotations

import contextlib
import io
import json
from time import process_time as clock
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from mouseauth import cli, evaluation, ingest, kinematics, mau, model, sufficiency, synth

import oracles

SCHEMA = ingest.SchemaMap(timestamp_col="t", x_col="x", y_col="y")
MALFORMED_RATE = 0.01


@dataclass
class Record:
    key: int  # which distinct input the request ran on
    items: float = 0.0
    busy: float = 0.0
    latencies_ms: list[float] = field(default_factory=list)
    out: dict = field(default_factory=dict)
    error: str | None = None


def _seeds(seed: int, count: int) -> list[int]:
    rng = synth.SplitMix64(seed)
    return [rng.next_u64() >> 1 for _ in range(count)]


def write_session_csv(vel, path: Path, seed: int) -> int:
    """Write ``vel`` as an ingest CSV with about 1 % malformed rows mixed in.

    The bad rows are inserted between good ones, so the parser must drop
    exactly these and the good rows still round-trip to ``vel``. Returns the
    number of bad rows written.
    """
    lines = synth.to_session_csv(vel).splitlines()
    rng = synth.SplitMix64(seed)
    n_bad = max(1, round(MALFORMED_RATE * (len(lines) - 1)))
    at = sorted(2 + int(rng.uniform() * (len(lines) - 2)) for _ in range(n_bad))
    bad = []
    for i, pos in enumerate(at):
        t_prev = float(lines[pos - 1].split(",")[0])
        bad.append((pos, (
            f"{t_prev - vel.dt / 2!r},0,0",  # out of order
            "t?,1.0,0",  # unparseable timestamp
            "nan,1.0,0",  # non-finite
            f"{t_prev!r},1.0",  # missing column
        )[i % 4]))
    for pos, row in reversed(bad):
        lines.insert(pos, row)
    path.write_text("\n".join(lines) + "\n")
    return n_bad


class Workload:
    name = ""
    min_requests = 1  # the measured loop runs at least this many requests

    def __init__(self, seed: int, smoke: bool):
        self.seed = seed
        self.smoke = smoke

    def setup(self, work: Path) -> None:
        raise NotImplementedError

    def request(self, index: int) -> Record:
        raise NotImplementedError

    def check(self, records: list[Record]) -> None:
        """Set ``error`` on every record whose output is wrong."""
        raise NotImplementedError

    def info(self, records: list[Record]) -> dict[str, tuple[float, str]]:
        """Workload-specific figures, printed as ``#`` lines only."""
        return {}


class Volume(Workload):
    """Proper data volume of a CSV corpus: ingest -> kinematics -> sufficiency.

    A request is one session file, and a run covers at least one pass over
    the corpus; ``aggregate_user_volume`` runs after each whole pass. An item is one
    speed sample read by the KDE/KL scan (both prefixes of every step), so
    the throughput does not depend on where the seed's data happens to stop.
    A latency sample is one session's time per 1,000 such samples, so each
    kind of session, from early to late stopper, gives its own figure.
    """

    name = "volume"
    STEP_M, EPS1, EPS2 = 200, 1e-4, 1e-6
    # (kind, params, length): one session too short to converge, then an
    # early, a middle and a late stopper. AR(1) phi=0.9 stops near 16k
    # samples and alone takes ~20 s at the seed, so phi=0.7 is the late one.
    KINDS = (
        ("gaussian_iid", {"mean": 10.0, "std": 1.0}, 800),
        ("sine_plus_noise", {"amplitude": 3.0, "period": 50.0, "noise_std": 1.0, "mean": 10.0},
         14000),
        ("gaussian_iid", {"mean": 10.0, "std": 1.0}, 14000),
        ("ar1", {"phi": 0.7, "sigma": 1.0, "mean": 10.0}, 14000),
    )
    SMOKE_LENGTHS = (700, 4000)

    def setup(self, work):
        kinds = self.KINDS[:2] if self.smoke else self.KINDS
        seeds = _seeds(self.seed, 2 * len(kinds))
        self.paths, self.truth, self.injected = [], [], []
        for i, (kind, params, length) in enumerate(kinds):
            if self.smoke:
                length = self.SMOKE_LENGTHS[i]
            vel = synth.generate(
                synth.SynthSpec(kind, params, length, seed=seeds[2 * i]), "u1", f"s{i}"
            )
            path = work / f"s{i}.csv"
            self.injected.append(write_session_csv(vel, path, seeds[2 * i + 1]))
            self.paths.append(path)
            self.truth.append(vel.v)
        self.step_m = 100 if self.smoke else self.STEP_M
        self.min_requests = len(self.paths)
        # warm-up on the short session, outside the pass a run may be in
        sessions, _ = ingest.load_user(self.paths[:1], SCHEMA, "u1")
        vel = kinematics.velocity_sequence(sessions[0])
        sufficiency.sufficiency_point(vel, self.step_m, self.EPS1, self.EPS2)

    def request(self, index):
        key = index % len(self.paths)
        if key == 0:
            self.pass_reports = []
        start = clock()
        sessions, parse_reports = ingest.load_user([self.paths[key]], SCHEMA, "u1")
        vel = kinematics.velocity_sequence(sessions[0])
        report = sufficiency.sufficiency_point(vel, self.step_m, self.EPS1, self.EPS2)
        self.pass_reports.append(report)
        out = {"parse": parse_reports[0], "v": vel.v, "report": report}
        if key == len(self.paths) - 1:
            out["aggregate"] = (sufficiency.aggregate_user_volume(self.pass_reports),
                                list(self.pass_reports))
        elapsed = clock() - start
        scanned = sum(2 * n + report.step_m for n, _ in report.kl_trajectory)
        return Record(key, scanned, elapsed, [1e6 * elapsed / scanned], out)

    def check(self, records):
        verdicts = {}
        for rec in records:
            out = rec.out
            parse, truth = out["parse"], self.truth[rec.key]
            if parse.dropped != self.injected[rec.key] or parse.events != len(truth) + 1:
                rec.error = f"ingest kept {parse.events}, dropped {parse.dropped}"
            elif len(out["v"]) != len(truth) or not np.allclose(out["v"], truth, 1e-9, 1e-9):
                rec.error = "velocities do not round-trip the generated sequence"
            else:
                n_hat = out["report"].n_hat
                if rec.key not in verdicts:
                    verdicts[rec.key] = (n_hat, oracles.check_sufficiency(out["report"], truth))
                first_n_hat, verdict = verdicts[rec.key]
                rec.error = verdict if n_hat == first_n_hat else "n_hat differs between runs"
            if rec.error is None and "aggregate" in out:
                (total, flagged), reports = out["aggregate"]
                want = sum(r.total_length if r.exhausted else r.n_hat for r in reports)
                if total != want or flagged != [r.session_id for r in reports if r.exhausted]:
                    rec.error = "aggregate_user_volume disagrees with its reports"

    def info(self, records):
        busy = sum(r.busy for r in records)
        reports = [r.out["report"] for r in records]
        return {
            "volume_samples_per_s": (sum(r.total_length for r in reports) / busy, "1/s"),
            "exhausted_sessions": (sum(r.exhausted for r in reports), "count"),
        }


class MauSelect(Workload):
    """MAU length selection: ``apen_profile`` (20 candidates, cap 5000) and
    ``segment`` at the selected length. A request, item and latency sample
    are all one session; a run covers at least one round of the three kinds,
    whose costs differ, and each kind gives its own latency figure."""

    name = "mau-select"
    min_requests = 3
    KINDS = (
        ("sine_plus_noise", {"amplitude": 3.0, "period": 50.0, "noise_std": 1.0, "mean": 10.0}),
        ("ar1", {"phi": 0.9, "sigma": 1.0, "mean": 10.0}),
        ("gaussian_iid", {"mean": 10.0, "std": 1.0}),
    )
    LENGTH, SMOKE_LENGTH = 400, 300

    def setup(self, work):
        length = self.SMOKE_LENGTH if self.smoke else self.LENGTH
        seeds = _seeds(self.seed, len(self.KINDS))
        self.vels = [
            synth.generate(synth.SynthSpec(kind, params, length, seed=s), "u1", f"s{i}")
            for i, ((kind, params), s) in enumerate(zip(self.KINDS, seeds))
        ]
        warm = self.vels[0]
        mau.apen_profile(kinematics.VelocitySequence("u1", "warm", warm.dt, warm.v[:250]))

    def request(self, index):
        key = index % len(self.vels)
        vel = self.vels[key]
        start = clock()
        profile = mau.apen_profile(vel)
        windows = mau.segment(vel, profile.selected_length)
        elapsed = clock() - start
        return Record(key, 1, elapsed, [1e3 * elapsed], {"profile": profile, "windows": windows})

    def check(self, records):
        verdicts = {}
        for rec in records:
            profile, windows = rec.out["profile"], rec.out["windows"]
            v = self.vels[rec.key].v
            if rec.key not in verdicts:
                seq = v[: mau.DEFAULT_CAP]
                verdicts[rec.key] = (profile.apen_values, oracles.check_apen_profile(
                    profile, seq, mau.SLOPE_THRESHOLD))
            values, rec.error = verdicts[rec.key]
            L = profile.selected_length
            if rec.error is None and profile.apen_values != values:
                rec.error = "ApEn values differ between runs"
            elif rec.error is None and (
                len(windows) != len(v) // L
                or any(not np.array_equal(w.values, v[w.start_index : w.start_index + L])
                       or w.start_index != i * L for i, w in enumerate(windows))
            ):
                rec.error = "segment windows are not consecutive slices of the session"

    def info(self, records):
        return {"mau_sessions_per_s": (len(records) / sum(r.busy for r in records), "1/s")}


class Authenticate(Workload):
    """Three-user in-memory MAU pool (L=30) as in acceptance criterion 6.

    A request builds the split, trains, runs the blind-attack evaluation and
    the ROC CSV (the batched path: an item is one window through the model,
    counted once per epoch in training), then replays every fourth test MAU,
    from an offset that turns with the request, through ``model.predict`` one
    at a time (a latency sample is one decision). Four requests in a row thus
    decide every test MAU once.
    """

    name = "authenticate"
    L = 30
    USERS = (
        ("u1", {"phi": 0.9, "sigma": 1.0, "mean": 10.0}),
        ("u2", {"phi": 0.5, "sigma": 2.0, "mean": 10.0}),
        ("u3", {"phi": 0.2, "sigma": 4.0, "mean": 15.0}),
    )
    SESSIONS, LENGTH, EPOCHS = 2, 5000, 2
    SMOKE_LENGTH, SMOKE_EPOCHS = 1200, 1
    DECIDE_STRIDE = 4

    def setup(self, work):
        length = self.SMOKE_LENGTH if self.smoke else self.LENGTH
        seeds = iter(_seeds(self.seed, len(self.USERS) * self.SESSIONS))
        specs = {
            user: [synth.SynthSpec("ar1", params, length, seed=next(seeds))
                   for _ in range(self.SESSIONS)]
            for user, params in self.USERS
        }
        pool = synth.generate_user_pool(specs)
        self.users = {u: [m for v in vels for m in mau.segment(v, self.L)]
                      for u, vels in pool.items()}
        self.mcfg = model.ModelConfig(
            input_length=self.L, conv_channels=8, kernel_size=5, res_blocks=1,
            res_kernel=3, gru_hidden=16, seed=0,
        )
        self.tcfg = model.TrainConfig(
            epochs=self.SMOKE_EPOCHS if self.smoke else self.EPOCHS, batch_size=32, seed=0
        )
        warm = self.users["u1"][:64]  # warm-up: one short epoch and a decision
        params, _ = model.train(model.batch_from_maus(warm), np.arange(64) % 2, self.mcfg,
                                model.TrainConfig(epochs=1, seed=0))
        model.predict(params, warm[0], self.mcfg)

    def request(self, index):
        t0 = clock()
        split = evaluation.build_splits(self.users, "u1", ratio=5.0, unseen_count=1, seed=0)
        X, y = split.train_arrays()
        t1 = clock()
        params, _ = model.train(X, y, self.mcfg, self.tcfg)
        t2 = clock()
        report = evaluation.blind_attack_eval(params, split, self.mcfg)
        Xt, yt = split.test_arrays()
        scores = model.predict_batch(params, Xt, self.mcfg)
        roc = evaluation.roc_curve_csv(evaluation.ScoredSet(scores, yt))
        t3 = clock()
        decided = slice(index % self.DECIDE_STRIDE, None, self.DECIDE_STRIDE)
        decisions, latencies = [], []
        for mau_ in split.test_maus[decided]:
            start = clock()
            decisions.append(model.predict(params, mau_, self.mcfg))
            latencies.append(1e3 * (clock() - start))
        windows = self.tcfg.epochs * len(y) + 2 * len(yt)
        out = {
            "report": report, "scores": scores, "labels": yt, "roc": roc,
            "unseen": np.asarray(split.unseen_mask, dtype=bool),
            "decided": decided, "decisions": np.array(decisions), "train_s": t2 - t1,
            "train_windows": self.tcfg.epochs * len(y), "eval_s": t3 - t2,
        }
        return Record(0, windows, t3 - t0, latencies, out)

    def check(self, records):
        first = records[0].out
        verdict = (
            oracles.check_eval_report(first["report"], first["scores"], first["labels"],
                                      first["unseen"])
            or oracles.check_roc_csv(first["roc"], first["scores"])
        )
        for rec in records:
            out = rec.out
            diff = out["decisions"] - out["scores"][out["decided"]]
            if np.max(np.abs(diff), initial=0.0) > 1e-12:
                rec.error = "predict and predict_batch scores differ"
            elif not np.array_equal(out["scores"], first["scores"]):
                rec.error = "scores differ between identical requests"
            else:
                rec.error = verdict

    def info(self, records):
        lat = np.concatenate([r.latencies_ms for r in records])
        rep = records[0].out["report"]
        n_test = len(records[0].out["labels"])
        return {
            "train_windows_per_s": (
                sum(r.out["train_windows"] for r in records)
                / sum(r.out["train_s"] for r in records), "1/s"),
            "eval_windows_per_s": (
                n_test * len(records) / sum(r.out["eval_s"] for r in records), "1/s"),
            "decide_mean_ms": (float(np.mean(lat)), "ms"),
            "decide_p50_ms": (float(np.percentile(lat, 50)), "ms"),
            "decide_p95_ms": (float(np.percentile(lat, 95)), "ms"),
            "decide_p99_ms": (float(np.percentile(lat, 99)), "ms"),
            "decisions": (len(lat), "count"),
            "auc": (rep.auc, "ratio"),
            "eer": (rep.eer, "ratio"),
            "dsr": (rep.dsr, "ratio"),
        }


class Cli(Workload):
    """``mouseauth train`` then ``mouseauth eval`` in-process on a CSV
    corpus, as in the train/eval half of demos/04_cli_pipeline.sh. A request
    is one train+eval cycle and one latency sample; an item is one CSV row
    read (each cycle loads the corpus twice)."""

    name = "cli"
    USERS = Authenticate.USERS
    SESSIONS, LENGTH, EPOCHS = 2, 2000, 1
    SMOKE_LENGTH, SMOKE_EPOCHS = 1200, 1

    def setup(self, work):
        length = self.SMOKE_LENGTH if self.smoke else self.LENGTH
        seeds = iter(_seeds(self.seed, 2 * len(self.USERS) * self.SESSIONS))
        self.corpus = work / "corpus"
        self.rows, self.injected = 0, {}
        for user, params in self.USERS:
            (self.corpus / user).mkdir(parents=True)
            for s in range(self.SESSIONS):
                vel = synth.generate(synth.SynthSpec("ar1", params, length, seed=next(seeds)))
                bad = write_session_csv(vel, self.corpus / user / f"s{s}.csv", next(seeds))
                self.injected[(user, f"s{s}")] = bad
                self.rows += length + 1 + bad
        self.config = work / "train.json"
        self.config.write_text(json.dumps({
            "mau_length": 30, "conv_channels": 8, "gru_hidden": 16,
            "epochs": self.SMOKE_EPOCHS if self.smoke else self.EPOCHS,
        }))
        self.out_dir = work / "reports"
        ingest.load_user(sorted((self.corpus / "u1").glob("*.csv")), SCHEMA, "u1")  # warm-up

    def _main(self, argv) -> tuple[int, str]:
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            code = cli.main(argv)
        return code, stdout.getvalue()

    def request(self, index):
        common = ["--config", str(self.config), "--legit-user", "u1", "--out", str(self.out_dir)]
        t0 = clock()
        train_code, train_out = self._main(["train", *common, str(self.corpus)])
        t1 = clock()
        checkpoint = str(self.out_dir / "model_u1.json")
        eval_code, eval_out = self._main(["eval", *common, checkpoint, str(self.corpus)])
        t2 = clock()
        out = {"codes": (train_code, eval_code), "eval": eval_out, "train_s": t1 - t0,
               "eval_s": t2 - t1}
        if eval_code == 0:
            out["summary"] = json.loads(eval_out)
            out["model"] = model.load_checkpoint(checkpoint)
        return Record(0, 2 * self.rows, t2 - t0, [1e3 * (t2 - t0)], out)

    def _library_path(self, params, mcfg):
        """The CLI's eval, redone through the library with the same config."""
        cfg = cli.PipelineConfig(mau_length=mcfg.input_length)
        users, dropped = {}, {}
        for user_dir in sorted(p for p in self.corpus.iterdir() if p.is_dir()):
            sessions, reports = ingest.load_user(sorted(user_dir.glob("*.csv")), SCHEMA,
                                                 user_dir.name)
            dropped.update({(user_dir.name, r.file): r.dropped for r in reports})
            users[user_dir.name] = [
                m for s in sessions
                for m in mau.segment(kinematics.velocity_sequence(s, dt=cfg.dt), cfg.mau_length)
            ]
        split = evaluation.build_splits(users, "u1", ratio=cfg.pos_neg_ratio,
                                        unseen_count=cfg.unseen_count, seed=cfg.seed,
                                        train_frac=cfg.train_frac)
        report = evaluation.blind_attack_eval(params, split, mcfg)
        X, y = split.test_arrays()
        scores = model.predict_batch(params, X, mcfg)
        verdict = oracles.check_eval_report(report, scores, y,
                                            np.asarray(split.unseen_mask, dtype=bool))
        if dropped != self.injected:
            verdict = f"ingest dropped {dropped}, injected {self.injected}"
        return report, verdict

    def check(self, records):
        library = None
        for rec in records:
            out = rec.out
            if out["codes"] != (0, 0):
                rec.error = f"CLI exit codes {out['codes']}"
                continue
            if library is None:
                library = self._library_path(*out["model"])
            report, rec.error = library
            summary = out["summary"]
            got = [summary[k] for k in ("auc", "eer", "eer_threshold", "dsr", "f1")]
            want = [report.auc, report.eer, report.eer_threshold, report.dsr, report.f1]
            if rec.error is None and got != want:
                rec.error = f"CLI eval {got} != library path {want}"

    def info(self, records):
        summary = records[0].out.get("summary", {})
        return {
            "cli_train_s": (float(np.median([r.out["train_s"] for r in records])), "s"),
            "cli_eval_s": (float(np.median([r.out["eval_s"] for r in records])), "s"),
            "auc": (summary.get("auc", float("nan")), "ratio"),
            "eer": (summary.get("eer", float("nan")), "ratio"),
            "dsr": (summary.get("dsr", float("nan")), "ratio"),
        }


WORKLOADS = {w.name: w for w in (Volume, MauSelect, Authenticate, Cli)}
