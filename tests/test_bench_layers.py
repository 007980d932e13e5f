"""The traced benchmark wraps program functions by name; each name must resolve."""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def test_every_wrapped_function_exists():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = [
        f"distsem.{module}.{name}"
        for module, name in tracing.LAYER_FUNCTIONS
        if not callable(getattr(importlib.import_module(f"distsem.{module}"), name, None))
    ]
    assert tracing.LAYER_FUNCTIONS and not missing
