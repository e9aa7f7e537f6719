"""The benchmark's tracer wraps package functions by name; each must exist."""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def test_every_traced_name_resolves():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    for layer, names in tracing.TRACED.items():
        module = importlib.import_module(f"qgvertex.{layer}")
        for qualname in names:
            owner = module
            for part in qualname.split("."):
                owner = getattr(owner, part)
            assert callable(owner), f"qgvertex.{layer}.{qualname}"
