"""The benchmark's tracer wraps tiltbench functions by name; every name it
lists must still exist, or a traced run stops with AttributeError."""

import importlib
import importlib.util
import json
import os
import subprocess
import sys

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


COUNTER_SCRIPT = """
import importlib.util, json, sys

spec = importlib.util.spec_from_file_location("bench_tracing", sys.argv[1])
tracing = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tracing)
tracer = tracing.Tracer()
tracer.install()
tracer.enabled = True

from tiltbench import corpus
from tiltbench.complex_decomp import ChainEndData
from tiltbench.decompose import decompose
from tiltbench.reps import regular_module
from tiltbench.tilting import TiltingContext

names = ["decompose.EndAlgebra.mul", "complex_decomp.ChainEndData.mul"]


def counted(step):
    tracer.calls.clear()
    step()
    return [tracer.calls.get(name, 0) for name in names]


a = corpus.fig1_algebra()
t = corpus.fig1_tilting_complex(a)
data = ChainEndData(t)
end = TiltingContext(a, t).end_data().abstract
print(json.dumps({
    "module": counted(lambda: decompose(regular_module(a))),
    "chain": counted(lambda: data.mul(data.one, data.one)),
    "end_t": counted(lambda: end.mul(end.one, end.one)),
}))
"""


def test_mul_counters_count_their_own_algebra_only():
    # the tracer patches EndAlgebra.mul and ChainEndData.mul on their classes,
    # so each counter keeps its meaning only while each is its own subclass of
    # the algebra End(T) is a plain instance of; a subprocess keeps the
    # patched classes out of the other tests
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    out = subprocess.run(
        [sys.executable, "-c", COUNTER_SCRIPT, BENCH_TRACING], env=env, capture_output=True, text=True, check=True
    ).stdout
    counts = json.loads(out)
    assert counts["module"][0] > 0 and counts["module"][1] == 0
    assert counts["chain"] == [0, 1]
    assert counts["end_t"] == [0, 0]
