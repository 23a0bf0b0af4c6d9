"""The benchmark's tracer wraps mouseauth functions by name: each must exist,
or traced benchmark runs fail when they start."""

import importlib
import importlib.util
import sys
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def test_tracer_wraps_existing_functions(monkeypatch):
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    # dataclasses look their defining module up in sys.modules
    monkeypatch.setitem(sys.modules, spec.name, tracing)
    spec.loader.exec_module(tracing)
    missing = [
        f"{layer}.{name}"
        for layer, functions in tracing.WRAPPED.items()
        for name in functions
        if not callable(getattr(importlib.import_module(f"mouseauth.{layer}"), name, None))
    ]
    assert tracing.WRAPPED and missing == []
