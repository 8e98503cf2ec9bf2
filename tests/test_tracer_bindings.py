"""The benchmark tracer (bench/tracer.py) binds library functions by name.

A renamed or deleted function leaves its binding unresolved, and the
benchmark then prints null for every per-layer metric that needs it. This
test runs one small switch scan under the tracer and asserts that every
binding resolved and every metric has a value.
"""

import importlib.util
from pathlib import Path

import numpy as np

import reachkit as rk

TRACER_PATH = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_binding_resolves_and_no_metric_is_null():
    tracer = load_tracer()
    sys = rk.LtiSystem([[0.4, -0.3], [0.5, 1.7]], [[1.0], [0.0]])
    c = np.array([1.0, -1.0])
    with tracer.Tracer() as t:
        rk.bang_bang_control(sys, rk.ControlBounds.symmetric(1.0), c, 1.0)
        rk.switch_count(sys, c, 1.0, 1001)
    assert t.missing == {}
    nulls = {name: entry.get("reason") for name, entry in t.metrics().items()
             if entry["value"] is None}
    assert nulls == {}
    assert t.calls["boundary.bang_bang_control"] == 1
    assert t.calls["boundary.switch_count"] == 1
