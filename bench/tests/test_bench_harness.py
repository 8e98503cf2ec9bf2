"""Tests of the benchmark itself: tiny workload runs, oracle rejection of
perturbed outputs, metric names against BENCHMARK.json, and deterministic
input generation."""

import argparse
import copy
import json
import subprocess
import sys
from pathlib import Path

import numpy as np

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import oracle  # noqa: E402
import reachkit as rk  # noqa: E402
import reachkit.cli  # noqa: E402,F401
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

CONFIG = json.loads((BENCH / "config.json").read_text())
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def tiny(name):
    cfg = copy.deepcopy(CONFIG["workloads"][name])
    if name == "switch-scan":
        cfg.update(scan_grid_points=20001, oracle_grid_points=20001, directions_per_system=2)
    elif name == "cli-mix":
        for task in cfg["lp"].values():
            task.update(directions=8, nodes=201)
    return cfg


def make(name, tmp_path, seed=3):
    return workloads.WORKLOADS[name](seed, tiny(name), CONFIG["tolerances"], tmp_path)


def test_switch_scan_ops_pass_oracle_on_qualifying_classes(tmp_path):
    wl = make("switch-scan", tmp_path)
    checked = 0
    for i in range(8):
        spec = wl.spec(i)
        problems = wl.check(rk, spec, wl.run(rk, spec))
        if spec["cls"] in ("real-distinct", "oscillatory"):
            assert problems == [], (spec["cls"], problems)
            checked += 1
    assert checked >= 4


def test_cli_mix_runs_every_task(tmp_path):
    wl = make("cli-mix", tmp_path)
    seen = {}
    for task in sorted(CONFIG["workloads"]["cli-mix"]["mix"]):
        for i in range(8):
            spec = wl.spec(i, task=task)
            if spec["cls"] in ("real-distinct", "oscillatory", "longitudinal"):
                break
        code = wl.run(rk, spec)
        seen[task] = wl.check(rk, spec, code)
        assert not spec["dir"].exists(), "check removes the job directory"
    assert seen == {task: [] for task in seen}
    assert len(seen) == 6


def test_design_opt_solve_converges_and_is_feasible(tmp_path):
    wl = make("design-opt", tmp_path)
    spec = wl.spec(0)
    assert wl.check(rk, spec, wl.run(rk, spec)) == []


def test_oracle_rejects_perturbed_switch_time(tmp_path):
    wl = make("switch-scan", tmp_path)
    spec = next(s for s in map(wl.spec, range(40))
                if s["cls"] == "oscillatory" and len(wl.run(rk, s)[0]) > 0)
    times, values, count = wl.run(rk, spec)
    times = times.copy()
    times[0] += 1e-6
    assert wl.check(rk, spec, (times, values, count))[0][0] == "mismatch"
    assert wl.check(rk, spec, (times[1:], values[1:], count - 1))[0][0] == "mismatch"


def _rewrite(out, name, data):
    (out / name).write_bytes(data)


def test_oracle_rejects_perturbed_cli_artifact(tmp_path):
    wl = make("cli-mix", tmp_path)
    spec = wl.spec(0, task="gramian")
    assert wl.run(rk, spec) == 0
    out = spec["dir"] / "out"
    payload = json.loads((out / "gramian.json").read_text())
    payload["W"][0][0] *= 1.0 + 1e-6
    _rewrite(out, "gramian.json", (json.dumps(payload) + "\n").encode())
    messages = [m for _, m in wl.check(rk, spec, 0)]
    assert any("Gramian off" in m for m in messages)
    assert any("sha256" in m for m in messages)


def test_oracle_rejects_nonzero_exit(tmp_path):
    wl = make("cli-mix", tmp_path)
    spec = wl.spec(0, task="boundary")
    assert wl.check(rk, spec, 3) == [("error", "exit code 3")]


def test_oracle_expm_is_direct():
    A = np.array([[20.0, 1.0], [0.0, -20.0]])
    times = np.linspace(1.0, 0.0, 7)
    from scipy.linalg import expm

    want = np.stack([expm(A * t) for t in times])
    got = oracle.expm_nodes(A, times)
    assert np.max(np.abs(got - want) / np.maximum(np.abs(want), 1.0)) < 1e-12


def test_generator_is_deterministic(tmp_path):
    for name in ("switch-scan", "cli-mix", "design-opt"):
        a, b, c = make(name, tmp_path), make(name, tmp_path), make(name, tmp_path, seed=4)
        for i in range(6):
            sa, sb, sc = a.spec(i), b.spec(i), c.spec(i)
            key = "A" if "A" in sa else ("trim" if "trim" in sa else None)
            if "config" in sa:
                assert sa["config"] == sb["config"]
            assert str(sa.get(key)) == str(sb.get(key))
            if i == 0 and key:
                assert str(sa.get(key)) != str(sc.get(key))


def test_tracer_restores_bindings_and_reports_every_per_layer_metric():
    before = (rk.lti.expm_grid, rk.boundary.expm_grid, rk.design.LpVolumeConstraint.residual)
    with tracer.Tracer() as t:
        assert rk.boundary.expm_grid is not before[1]
        rk.bang_bang_control(rk.LtiSystem([[0.4, -0.3], [0.5, 1.7]], [[1.0], [0.0]]),
                             rk.ControlBounds.symmetric(1.0), np.array([1.0, -1.0]), 1.0,
                             scan_resolution=1e-3)
    assert (rk.lti.expm_grid, rk.boundary.expm_grid,
            rk.design.LpVolumeConstraint.residual) == before
    metrics = t.metrics()
    assert metrics["lti.expm_grid.calls"]["value"] == 1
    assert metrics["lti.expm_grid.nodes"]["value"] == 1001
    names = set(metrics) | {"trace.overhead_frac", "trace.ops"}
    assert names == {m["name"] for m in SPEC["per_layer"]}


def test_missing_binding_gives_null_with_reason(monkeypatch):
    monkeypatch.setattr(tracer, "TARGETS", tracer.TARGETS[1:] + (
        ("lti.expm_grid", "reachkit.lti", "no_such_function"),))
    with tracer.Tracer() as t:
        pass
    entry = t.metrics()["lti.expm_grid.distinct_frac"]
    assert entry["value"] is None and "no_such_function" in entry["reason"]


def test_run_prints_benchmark_metric_names():
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "switch-scan", "--seed", "5",
         "--seconds", "0.2", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    for m in SPEC["end_to_end"]:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert result["metrics"][m["name"]]["value"] > 0
    assert result["attempted"] == 1 and result["correct"] is True


def test_op_count_is_fixed_by_seconds_in_whole_cycles():
    for name, wcfg in CONFIG["workloads"].items():
        cycle = workloads.WORKLOADS[name].cycle(wcfg)
        full = run._ops(argparse.Namespace(workload=name, seconds=30), wcfg)
        assert full % cycle == 0, name
        assert abs(full - 30 * wcfg["ops_per_second"]) <= cycle / 2, name
        assert run._ops(argparse.Namespace(workload=name, seconds=0.01), wcfg) == 1
