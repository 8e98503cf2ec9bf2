"""The benchmark tracer (bench/tracer.py) binds library functions by name.

A renamed or deleted function leaves its binding unresolved, and the
benchmark then prints null for every per-layer metric that needs it. These
tests run one small switch scan, and one small job of every CLI task, under
the tracer and assert that every binding resolved and every metric has a
value.
"""

import importlib.util
import json
from pathlib import Path

import numpy as np

import reachkit as rk
from reachkit import cli

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


DEMO = {"A": [[0.4, -0.3], [0.5, 1.7]], "B": [[1.0], [0.0]]}
SWEEP = {"T": 1.0, "p": 6, "budget": 1.0, "nodes": 201,
         "grid": {"magnitudes": [0.1, 0.3, 1.0], "directions_per_shell": 16}}
CLI_JOBS = {
    "boundary": {"system": DEMO, "task": {"T": 1.0, "bounds": {"lower": -1.0, "upper": 1.0},
                                      "n_eta": 50}},
    "gramian": {"system": DEMO, "task": {"T": 1.0}},
    "lp-sample": {"system": DEMO, "task": SWEEP},
    "inner-approx": {"system": DEMO, "task": SWEEP},
    "volume": {"system": DEMO, "task": SWEEP},
    "optimize": {"system": {"model": "longitudinal", "design": {"b": 9.144, "c_bar": 3.45}},
                 "task": {"constraint": {"type": "gramian_trace", "factor": 1.1}}},
}


def test_every_cli_task_under_the_tracer(tmp_path):
    tracer = load_tracer()
    with tracer.Tracer() as t:
        for task, config in CLI_JOBS.items():
            path = tmp_path / f"{task}.json"
            path.write_text(json.dumps({**config, "task": {"name": task, **config["task"]}}))
            out = tmp_path / task
            assert cli.main([task, "--config", str(path), "--out", str(out)]) == 0, task
    assert t.missing == {}
    metrics = t.metrics()
    nulls = {name: entry.get("reason") for name, entry in metrics.items()
             if entry["value"] is None}
    assert nulls == {}
    assert t.calls["cli.main"] == len(CLI_JOBS)
    # lp-sample and volume sweep through sample_reach; inner_approx is not bound
    rows = len(rk.costate_grid(2, SWEEP["grid"]["magnitudes"], SWEEP["grid"]["directions_per_shell"]))
    assert metrics["lpreach.costates"]["value"] == 2 * rows
    assert metrics["lpreach.costate_nodes"]["value"] == 2 * rows * SWEEP["nodes"]
