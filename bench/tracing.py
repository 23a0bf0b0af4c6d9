"""In-memory span recorder for the benchmark's traced run.

The tracer replaces public functions of the mouseauth modules with wrappers
that record one span per call: name, start, end, parent span, operation id
and a few counters read from the call's arguments and result. Calls made
inside a wrapped function (``train -> forward``) go through the module
attribute too, so they become child spans. Spans stay in memory and are
written as JSON lines when the run ends.

Span record (schema ``mouseauth-trace/1``)::

    {"id": 7, "name": "sufficiency.kde", "layer": "sufficiency",
     "start": 1.2034, "end": 1.2101, "parent": 6, "op": 3,
     "attrs": {"samples": 4200, "grid": 1024}}

Times are seconds of process CPU time since the tracer was created, the
clock the end-to-end metrics use; ``parent`` is the id of the
enclosing span or null; ``op`` is the benchmark request the span belongs to.
"""

from __future__ import annotations

import functools
import json
from time import process_time as clock
from dataclasses import asdict, dataclass, field
from pathlib import Path

SCHEMA = "mouseauth-trace/1"

LAYERS = (
    "ingest", "kinematics", "sufficiency", "mau", "model", "evaluation", "synth", "cli",
)


# counters recorded per wrapped function: attrs(args, kwargs, result) -> dict
def _parse_attrs(a, k, res):
    report = res[1]
    return {"rows": report.events + report.dropped, "dropped": report.dropped}


def _velocity_attrs(a, k, res):
    parts = res if isinstance(res, list) else [res]
    return {"samples": sum(len(p.v) for p in parts)}


def _kde_attrs(a, k, res):
    return {"samples": len(a[0]), "grid": len(a[1])}


def _sufficiency_attrs(a, k, res):
    return {"exhausted": int(res.exhausted), "steps": len(res.kl_trajectory)}


def _apen_attrs(a, k, res):
    n, m = len(a[0]), int(a[1])
    # every window pair is compared once per length, at m and at m + 1
    pairs = sum((n - mm + 1) * (n - mm) // 2 for mm in (m, m + 1))
    return {"n": n, "m": m, "window_pairs": pairs}


def _segment_attrs(a, k, res):
    vel, length = a[0], int(a[1])
    return {"windows": len(res), "tail_dropped": len(vel.v) - len(res) * length}


def _batch_attrs(a, k, res):
    return {"batch": len(a[1])}


def _scored_attrs(a, k, res):
    return {"scores": len(a[0].scores)}


WRAPPED = {
    "ingest": {"load_user": None, "parse_session": _parse_attrs},
    "kinematics": {"velocity_sequence": _velocity_attrs},
    "sufficiency": {
        "sufficiency_point": _sufficiency_attrs,
        "aggregate_user_volume": None,
        "kde": _kde_attrs,
        "kl_divergence": None,
    },
    "mau": {"apen_profile": None, "apen": _apen_attrs, "segment": _segment_attrs},
    "model": {
        "train": None,
        "forward": _batch_attrs,
        "backward": _batch_attrs,
        "adam_step": None,
        "predict": None,
        "predict_batch": _batch_attrs,
    },
    "evaluation": {
        "build_splits": None,
        "blind_attack_eval": None,
        "roc_curve_csv": _scored_attrs,
        "eer": _scored_attrs,
        "roc_auc": _scored_attrs,
    },
    "synth": {"generate": None, "generate_user_pool": None, "to_session_csv": None},
    "cli": {"main": None},
}


@dataclass
class Span:
    id: int
    name: str
    layer: str
    start: float
    end: float
    parent: int | None
    op: int | None
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans while installed; ``uninstall`` restores the originals."""

    def __init__(self, package):
        self.package = package
        self.origin = clock()
        self.spans: list[Span] = []
        self.op: int | None = None
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def now(self) -> float:
        return clock() - self.origin

    def install(self) -> None:
        for layer, functions in WRAPPED.items():
            module = getattr(self.package, layer)
            for fname, attrs in functions.items():
                original = getattr(module, fname)
                setattr(module, fname, self._wrap(original, layer, f"{layer}.{fname}", attrs))
                self._patched.append((module, fname, original))

    def uninstall(self) -> None:
        for module, fname, original in reversed(self._patched):
            setattr(module, fname, original)
        self._patched.clear()

    def _wrap(self, fn, layer, name, attrs):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(
                id=len(self.spans),
                name=name,
                layer=layer,
                start=self.now(),
                end=float("nan"),
                parent=self._stack[-1] if self._stack else None,
                op=self.op,
            )
            self.spans.append(span)
            self._stack.append(span.id)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = self.now()
                self._stack.pop()
            if attrs is not None:
                span.attrs = attrs(args, kwargs, result)
            return result

        return traced

    def write_jsonl(self, path: Path, header: dict) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            fh.write(json.dumps({"schema": SCHEMA, **header}) + "\n")
            for span in self.spans:
                fh.write(json.dumps(asdict(span)) + "\n")


def layer_metrics(spans: list[Span], traced: float, setup_spans: list[Span]):
    """Per-layer metrics from the spans of ``traced`` seconds of requests.

    A layer's busy time counts each of its outermost spans once, so a
    nested call of the same layer (``train -> forward``) is not counted
    twice. ``synth`` runs only during set-up, so its busy time comes from
    ``setup_spans``.
    """
    by_id = {s.id: s for s in spans + setup_spans}

    def outermost(span: Span) -> bool:
        parent = by_id.get(span.parent)
        while parent is not None:
            if parent.layer == span.layer:
                return False
            parent = by_id.get(parent.parent)
        return True

    busy = {layer: 0.0 for layer in LAYERS}
    for s in spans:
        if outermost(s):
            busy[s.layer] += s.duration
    busy["synth"] = sum(s.duration for s in setup_spans if s.layer == "synth" and outermost(s))

    def named(name):
        return [s for s in spans if s.name == name]

    def total(name, key=None):
        chosen = named(name)
        if key is None:
            return sum(s.duration for s in chosen)
        return sum(s.attrs.get(key, 0) for s in chosen)

    child_time: dict[int, float] = {}
    for s in spans:
        if s.parent is not None:
            child_time[s.parent] = child_time.get(s.parent, 0.0) + s.duration
    cli_self = sum(s.duration - child_time.get(s.id, 0.0) for s in named("cli.main"))

    kde = named("sufficiency.kde")
    ingest_rows = total("ingest.parse_session", "rows")
    root = sum(s.duration for s in spans if s.parent is None)
    return {
        "sufficiency.busy_s": (busy["sufficiency"], "s"),
        "sufficiency.kl_steps": (len(named("sufficiency.kl_divergence")), "count"),
        "sufficiency.kde_calls": (len(kde), "count"),
        "sufficiency.kde_s": (total("sufficiency.kde"), "s"),
        "sufficiency.kernel_evals": (
            sum(s.attrs["samples"] * s.attrs["grid"] for s in kde), "count"),
        "sufficiency.exhausted": (total("sufficiency.sufficiency_point", "exhausted"), "count"),
        "mau.busy_s": (busy["mau"], "s"),
        "mau.apen_calls": (len(named("mau.apen")), "count"),
        "mau.apen_s": (total("mau.apen"), "s"),
        "mau.window_pairs": (total("mau.apen", "window_pairs"), "count"),
        "mau.segment_s": (total("mau.segment"), "s"),
        "mau.windows": (total("mau.segment", "windows"), "count"),
        "mau.tail_dropped": (total("mau.segment", "tail_dropped"), "count"),
        "model.busy_s": (busy["model"], "s"),
        "model.batches": (len(named("model.forward")), "count"),
        "model.forward_s": (total("model.forward"), "s"),
        "model.backward_s": (total("model.backward"), "s"),
        "model.adam_s": (total("model.adam_step"), "s"),
        "model.predict_calls": (len(named("model.predict")), "count"),
        "evaluation.busy_s": (busy["evaluation"], "s"),
        "evaluation.split_s": (total("evaluation.build_splits"), "s"),
        "evaluation.scores": (total("evaluation.eer", "scores"), "count"),
        "evaluation.metric_s": (
            total("evaluation.eer") + total("evaluation.roc_auc")
            + total("evaluation.roc_curve_csv"), "s"),
        "ingest.busy_s": (busy["ingest"], "s"),
        "ingest.rows": (ingest_rows, "count"),
        "ingest.dropped": (total("ingest.parse_session", "dropped"), "count"),
        "ingest.rows_per_s": (ingest_rows / busy["ingest"] if busy["ingest"] else 0.0, "1/s"),
        "kinematics.busy_s": (busy["kinematics"], "s"),
        "kinematics.samples": (total("kinematics.velocity_sequence", "samples"), "count"),
        "cli.busy_s": (busy["cli"], "s"),
        "cli.self_s": (cli_self, "s"),
        "synth.busy_s": (busy["synth"], "s"),
        "trace.traced_s": (traced, "s"),
        "trace.root_coverage": (root / traced if traced else 0.0, "ratio"),
    }
