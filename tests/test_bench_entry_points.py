"""The benchmark's tracer wraps tiltbench functions by name; every name it
lists must still exist, or a traced run stops with AttributeError."""

import importlib
import importlib.util
import os

BENCH_TRACING = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench", "tracing.py")


def test_every_traced_entry_point_resolves():
    spec = importlib.util.spec_from_file_location("bench_tracing", BENCH_TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing.ENTRY_POINTS
    for module_name, attr, _, kind in tracing.ENTRY_POINTS:
        obj = importlib.import_module(f"tiltbench.{module_name}")
        for part in attr.split("."):
            obj = getattr(obj, part)
        assert callable(obj), f"{module_name}.{attr}"
        assert kind in ("span", "count")
