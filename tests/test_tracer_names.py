"""The benchmark calls mouseauth by name: the tracer wraps functions that
must exist, or traced benchmark runs fail when they start, and the workloads
call the library and check what it returns."""

import importlib
import importlib.util
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1] / "bench"


def load_bench_module(monkeypatch, name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their defining module up in sys.modules
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_tracer_wraps_existing_functions(monkeypatch):
    tracing = load_bench_module(monkeypatch, "tracing")
    missing = [
        f"{layer}.{name}"
        for layer, functions in tracing.WRAPPED.items()
        for name in functions
        if not callable(getattr(importlib.import_module(f"mouseauth.{layer}"), name, None))
    ]
    assert tracing.WRAPPED and missing == []


def test_every_workload_runs_and_checks_at_smoke_size(monkeypatch, tmp_path):
    monkeypatch.syspath_prepend(str(BENCH))  # workloads imports bench's oracles
    workloads = load_bench_module(monkeypatch, "workloads")
    for name, cls in workloads.WORKLOADS.items():
        w = cls(1, True)
        (tmp_path / name).mkdir()
        w.setup(tmp_path / name)
        records = [w.request(i) for i in range(max(1, w.min_requests))]
        w.check(records)
        assert [r.error for r in records] == [None] * len(records), name
