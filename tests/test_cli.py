import copy
import json
import tempfile
from dataclasses import asdict
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from reachkit import cli
from reachkit.cli import EXIT_CONFIG, EXIT_NUMERIC, EXIT_OK, main
from reachkit.design import BASELINE_DERIVATIVES

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"

SHIPPED = {
    "boundary.json": "boundary",
    "gramian.json": "gramian",
    "lp_sample.json": "lp-sample",
    "inner_approx.json": "inner-approx",
    "volume.json": "volume",
    "optimize_trace.json": "optimize",
}


def run_cli(task, config, out):
    return main([task, "--config", str(config), "--out", str(out)])


def data_files(out_dir: Path):
    return sorted(p for p in out_dir.iterdir() if p.name != "manifest.json")


class TestShippedConfigs:
    @pytest.mark.parametrize("name,task", sorted(SHIPPED.items()))
    def test_validates_and_runs(self, tmp_path, name, task):
        out = tmp_path / "out"
        assert run_cli(task, CONFIG_DIR / name, out) == EXIT_OK
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["task"] == task
        listed = {entry["name"] for entry in manifest["files"]}
        assert listed == {p.name for p in data_files(out)}
        for entry in manifest["files"]:
            assert len(entry["sha256"]) == 64
            assert entry["bytes"] == (out / entry["name"]).stat().st_size

    @pytest.mark.parametrize("name,task", sorted(SHIPPED.items()))
    def test_reruns_byte_identical(self, tmp_path, name, task):
        out1 = tmp_path / "first"
        out2 = tmp_path / "second"
        assert run_cli(task, CONFIG_DIR / name, out1) == EXIT_OK
        assert run_cli(task, CONFIG_DIR / name, out2) == EXIT_OK
        files1 = data_files(out1)
        assert files1, "task produced no data files"
        assert [p.name for p in files1] == [p.name for p in data_files(out2)]
        for p in files1:
            assert p.read_bytes() == (out2 / p.name).read_bytes()


class TestArtifacts:
    def test_boundary_outputs(self, tmp_path):
        out = tmp_path / "out"
        run_cli("boundary", CONFIG_DIR / "boundary.json", out)
        lines = (out / "boundary.csv").read_text().strip().splitlines()
        assert lines[0] == "eta,x1_g1,x2_g1,x1_g2,x2_g2"
        assert len(lines) == 401
        hull = json.loads((out / "hull.json").read_text())
        assert hull["dim"] == 2 and hull["volume"] > 0
        assert hull["exact"] is True

    def test_lp_sample_row_count(self, tmp_path):
        out = tmp_path / "out"
        run_cli("lp-sample", CONFIG_DIR / "lp_sample.json", out)
        lines = (out / "cloud.csv").read_text().strip().splitlines()
        assert len(lines) - 1 == 1525
        header = lines[0].split(",")
        assert header == [
            "lambda0_1", "lambda0_2", "xf_1", "xf_2",
            "cost_p", "reachable", "within_prop2_bound",
        ]

    def test_gramian_payload(self, tmp_path):
        out = tmp_path / "out"
        run_cli("gramian", CONFIG_DIR / "gramian.json", out)
        payload = json.loads((out / "gramian.json").read_text())
        assert set(payload) >= {"T", "c", "axes", "trace", "eigenvalues", "W"}
        assert payload["trace"] > 0

    def test_inner_approx_all_certified(self, tmp_path):
        out = tmp_path / "out"
        run_cli("inner-approx", CONFIG_DIR / "inner_approx.json", out)
        lines = (out / "cloud.csv").read_text().strip().splitlines()[1:]
        assert lines
        for line in lines:
            fields = line.split(",")
            assert fields[-1] == "true"  # certified
            assert fields[-2] == "true"  # and reachable

    def test_optimize_payload(self, tmp_path):
        out = tmp_path / "out"
        run_cli("optimize", CONFIG_DIR / "optimize_trace.json", out)
        payload = json.loads((out / "optresult.json").read_text())
        assert payload["converged"] is True
        assert set(payload["optimum"]) == {"b", "c_bar"}
        assert len(payload["history"]) == payload["iterations"] + 1


class TestValidation:
    def test_unknown_task_rejected(self, tmp_path):
        config = tmp_path / "bad.json"
        config.write_text(json.dumps({
            "system": {"A": [[0.0]], "B": [[1.0]]},
            "task": {"name": "explode"},
        }))
        out = tmp_path / "out"
        with pytest.raises(SystemExit):
            main(["explode", "--config", str(config), "--out", str(out)])
        assert not out.exists()

    def test_task_name_mismatch(self, tmp_path):
        out = tmp_path / "out"
        code = main(["gramian", "--config", str(CONFIG_DIR / "boundary.json"), "--out", str(out)])
        assert code == EXIT_CONFIG
        assert not out.exists()

    def test_missing_parameter(self, tmp_path):
        config = tmp_path / "missing.json"
        config.write_text(json.dumps({
            "system": {"A": [[0.0, 0.0], [0.0, 0.0]], "B": [[1.0], [0.0]]},
            "task": {"name": "boundary", "bounds": 1.0},
        }))
        code = main(["boundary", "--config", str(config), "--out", str(tmp_path / "out")])
        assert code == EXIT_CONFIG

    def test_config_file_missing(self, tmp_path):
        code = main(["boundary", "--config", str(tmp_path / "nope.json")])
        assert code == EXIT_CONFIG

    def test_invalid_json(self, tmp_path):
        config = tmp_path / "broken.json"
        config.write_text("{not json")
        assert main(["boundary", "--config", str(config)]) == EXIT_CONFIG

    def test_value_domain_checks(self, tmp_path):
        base = {"system": {"A": [[0.0, 0.0], [0.0, 0.0]], "B": [[1.0], [0.0]]}}
        bad_tasks = [
            ("lp-sample", {"name": "lp-sample", "T": 1.0, "p": 5}),
            ("lp-sample", {"name": "lp-sample", "T": -1.0, "p": 6}),
            ("boundary", {"name": "boundary", "T": 1.0, "bounds": 1.0, "n_eta": 1}),
            ("lp-sample", {"name": "lp-sample", "T": 1.0, "p": 6,
                           "grid": {"magnitudes": [5.0, 1.0]}}),
        ]
        for i, (task, section) in enumerate(bad_tasks):
            config = tmp_path / f"bad{i}.json"
            config.write_text(json.dumps({**base, "task": section}))
            assert main([task, "--config", str(config)]) == EXIT_CONFIG

    def test_unknown_optimizer_options(self, tmp_path):
        raw = json.loads((CONFIG_DIR / "optimize_trace.json").read_text())
        for options in ({"not_a_real_option": 5}, {"mu0": 10.0}, {"kkt_tol": 1e-6}):
            raw["task"]["options"] = options
            config = tmp_path / "badopt.json"
            config.write_text(json.dumps(raw))
            assert main(["optimize", "--config", str(config)]) == EXIT_CONFIG

    def test_bad_system_matrix(self, tmp_path):
        config = tmp_path / "bad_system.json"
        config.write_text(json.dumps({
            "system": {"A": [[0.0, 1.0]], "B": [[1.0]]},
            "task": {"name": "gramian", "T": 1.0},
        }))
        assert main(["gramian", "--config", str(config)]) == EXIT_CONFIG

    def test_numeric_failure_exit_code(self, tmp_path, capsys):
        # no budget-feasible endpoints: the volume task cannot build a hull
        config = tmp_path / "starved.json"
        config.write_text(json.dumps({
            "system": {"A": [[0.4, -0.3], [0.5, 1.7]], "B": [[1.0], [0.0]]},
            "task": {
                "name": "volume", "T": 1.0, "p": 6, "budget": 1e-6,
                "grid": {"magnitudes": [50.0, 100.0], "directions_per_shell": 16},
                "nodes": 101,
            },
        }))
        out = tmp_path / "out"
        code = main(["volume", "--config", str(config), "--out", str(out)])
        assert code == EXIT_NUMERIC
        assert not out.exists()
        assert capsys.readouterr().err.startswith("reachkit: numeric failure:")

    def test_seed_recorded(self, tmp_path):
        out = tmp_path / "out"
        code = main([
            "gramian", "--config", str(CONFIG_DIR / "gramian.json"),
            "--out", str(out), "--seed", "1234",
        ])
        assert code == EXIT_OK
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["seed"] == 1234


def shipped(name):
    return json.loads((CONFIG_DIR / name).read_text())


def edited(name, edit):
    raw = shipped(name)
    edit(raw)
    return raw


LONGITUDINAL = {"model": "longitudinal", "design": {"b": 9.144, "c_bar": 3.45}}
# an inline copy of the default table; its reference is the configured design
INLINE_DERIVATIVES = asdict(BASELINE_DERIVATIVES)


def longitudinal_config(name, derivatives=INLINE_DERIVATIVES, b=9.144, c_bar=3.45):
    """A shipped config whose system is the longitudinal model at (b, c_bar)."""
    system = {"model": "longitudinal", "design": {"b": b, "c_bar": c_bar},
              "derivatives": derivatives}
    return edited(name, lambda c: c.update(system=system))


def lp_volume_constraint(**extra):
    return {"type": "lp_volume", "factor": 1.1, "horizon": 1.0, **extra}


# (case id, task, config) rows that must end in exit 2 with nothing written
MALFORMED = [
    ("budget-string", "gramian",
     edited("gramian.json", lambda c: c["task"].update(budget="x"))),
    ("grid-magnitudes-string", "lp-sample",
     edited("lp_sample.json", lambda c: c["task"]["grid"].update(magnitudes="ab"))),
    ("seed-string", "gramian", edited("gramian.json", lambda c: c.update(seed="abc"))),
    ("n-eta-string", "boundary",
     edited("boundary.json", lambda c: c["task"].update(n_eta="abc"))),
    ("bounds-without-upper", "boundary",
     edited("boundary.json", lambda c: c["task"]["bounds"].pop("upper"))),
    ("boundary-negative-scalar-bound", "boundary",
     edited("boundary.json", lambda c: c["task"].update(bounds=-1.0))),
    ("even-nodes", "lp-sample", edited("lp_sample.json", lambda c: c["task"].update(nodes=2000))),
    ("zero-directions", "volume",
     edited("volume.json", lambda c: c["task"]["grid"].update(directions_per_shell=0))),
    # the lp_volume grid is built at parse time, so a malformed one is a config error
    ("lp-volume-descending-magnitudes", "optimize",
     edited("optimize_trace.json", lambda c: c["task"].update(
         constraint=lp_volume_constraint(grid={"magnitudes": [0.1, 0.05]})))),
    ("lp-volume-zero-directions", "optimize",
     edited("optimize_trace.json", lambda c: c["task"].update(
         constraint=lp_volume_constraint(grid={"directions_per_shell": 0})))),
    ("max-iters-string", "optimize",
     edited("optimize_trace.json", lambda c: c["task"].update(options={"max_iters": "x"}))),
    ("one-box-factor", "optimize",
     edited("optimize_trace.json", lambda c: c["task"].update(box_factors=[0.5]))),
    ("trim-without-v0", "optimize",
     edited("optimize_trace.json", lambda c: c["system"].update(trim={"alpha0": 0.2}))),
    ("lp-volume-odd-p", "optimize",
     edited("optimize_trace.json",
            lambda c: c["task"].update(constraint=lp_volume_constraint(p=3)))),
    ("lp-volume-magnitudes-string", "optimize",
     edited("optimize_trace.json", lambda c: c["task"].update(
         constraint=lp_volume_constraint(grid={"magnitudes": "ab"})))),
    ("negative-wingspan", "gramian",
     edited("gramian.json", lambda c: c.update(
         system={"model": "longitudinal", "design": {"b": -1.0, "c_bar": 3.45}}))),
    ("horizon-true", "gramian", edited("gramian.json", lambda c: c["task"].update(T=True))),
    ("two-input-boundary", "boundary",
     edited("boundary.json", lambda c: c["system"].update(B=[[1.0, 0.0], [0.0, 1.0]]))),
    ("negative-trace-horizon", "optimize",
     edited("optimize_trace.json", lambda c: c["task"]["constraint"].update(horizon=-1.0))),
    ("zero-fd-step", "optimize",
     edited("optimize_trace.json", lambda c: c["task"].update(options={"fd_step": 0.0}))),
    ("negative-feas-tol", "optimize",
     edited("optimize_trace.json", lambda c: c["task"].update(options={"feas_tol": -1.0}))),
    ("projection-out-of-range", "optimize",
     edited("optimize_trace.json",
            lambda c: c["task"].update(constraint=lp_volume_constraint(projection=[0, 9])))),
    ("projection-repeated", "optimize",
     edited("optimize_trace.json",
            lambda c: c["task"].update(constraint=lp_volume_constraint(projection=[1, 1])))),
    ("empty-magnitudes", "lp-sample",
     edited("lp_sample.json", lambda c: c["task"]["grid"].update(magnitudes=[]))),
    ("string-matrix-entry", "gramian",
     edited("gramian.json", lambda c: c["system"].update(A=[["0.4", -0.3], [0.5, 1.7]]))),
    # an inline table scales from the configured design, which must be a positive wing
    ("inline-table-negative-wingspan", "gramian", longitudinal_config("gramian.json", b=-5.0)),
    ("inline-table-overflowing-area", "gramian",
     longitudinal_config("gramian.json", b=1e200, c_bar=1e200)),
    ("derivative-string", "gramian",
     edited("gramian.json", lambda c: c.update(system={**LONGITUDINAL, "derivatives": {
         **asdict(BASELINE_DERIVATIVES), "X_V": "x"}}))),
    ("out-dir-number", "gramian", edited("gramian.json", lambda c: c.update(out_dir=3))),
    # optimize solves from the table's reference design, so the default table
    # accepts no other design
    ("optimize-other-design", "optimize",
     edited("optimize_trace.json", lambda c: c["system"]["design"].update(b=12.0, c_bar=4.5))),
    ("optimize-design-outside-box", "optimize",
     edited("optimize_trace.json", lambda c: c["system"]["design"].update(b=100.0))),
    # every section rejects a key that its parse does not read
    ("unknown-key-root", "gramian", edited("gramian.json", lambda c: c.update(sede=1))),
    ("unknown-key-system", "gramian",
     edited("gramian.json", lambda c: c["system"].update(C=[[1.0, 0.0]]))),
    ("unknown-key-design", "gramian", edited("gramian.json", lambda c: c.update(
        system={**LONGITUDINAL, "design": {"b": 9.144, "c_bar": 3.45, "span": 9.0}}))),
    ("unknown-key-trim", "optimize", edited("optimize_trace.json", lambda c: c["system"].update(
        trim={"airspeed_knots": 150.0, "gama_deg": 0.5}))),
    # a trim is given in flight units only
    ("trim-si-keys", "optimize", edited("optimize_trace.json", lambda c: c["system"].update(
        trim={"airspeed_knots": 150.0, "alpha0": 0.2, "V0": 60.0, "h0": 100.0, "gamma0": 0.0}))),
    # the model reads no trim pitch rate, so q0 is not a trim key
    ("trim-q0", "optimize", edited("optimize_trace.json", lambda c: c["system"].update(
        trim={"alpha_deg": 12.0, "airspeed_knots": 150.0, "q0": 0.3}))),
    ("trim-q0-si", "optimize",
     edited("optimize_trace.json", lambda c: c["system"].update(trim={"V0": 60.0, "q0": 0.3}))),
    ("unknown-key-derivatives", "gramian",
     edited("gramian.json", lambda c: c.update(system={**LONGITUDINAL, "derivatives": {
         **asdict(BASELINE_DERIVATIVES), "X_W": 0.1}}))),
    ("unknown-key-task", "gramian",
     edited("gramian.json", lambda c: c["task"].update(horizon=1.0))),
    ("unknown-key-bounds", "boundary",
     edited("boundary.json", lambda c: c["task"]["bounds"].update(uper=1.0))),
    ("unknown-key-grid", "lp-sample",
     edited("lp_sample.json", lambda c: c["task"]["grid"].update(direction_per_shell=8))),
    ("unknown-key-constraint", "optimize",
     edited("optimize_trace.json", lambda c: c["task"]["constraint"].update(facter=1.2))),
    ("unknown-key-options", "optimize",
     edited("optimize_trace.json", lambda c: c["task"].update(options={"max_iter": 5}))),
]

# the part of the config error message that names the cause, per MALFORMED row
MESSAGES = {
    "lp-volume-descending-magnitudes": "magnitudes must be",
    "lp-volume-zero-directions": "directions_per_shell must be >= 1",
    # optimize's only option is max_iters
    "zero-fd-step": "unknown keys in config.task.options: ['fd_step']",
    "negative-feas-tol": "unknown keys in config.task.options: ['feas_tol']",
    "unknown-key-trim": "unknown keys in config.system.trim: ['gama_deg']",
    "trim-si-keys": "unknown keys in config.system.trim: ['V0', 'alpha0', 'gamma0', 'h0']",
    # an SI trim has no airspeed in knots
    "trim-without-v0": "config.system.trim needs 'airspeed_knots'",
    "trim-q0-si": "config.system.trim needs 'airspeed_knots'",
}

# costate shells far outside the default wing's budget: no endpoint is affordable
UNAFFORDABLE_GRID = {"magnitudes": [5.0, 20.0, 50.0, 100.0]}

# (case id, task, config) rows that parse but must end in exit 3 with nothing written
NUMERIC = [
    # an empty baseline hull has volume 0, and no factor of it constrains anything
    ("lp-volume-empty-baseline", "optimize",
     edited("optimize_trace.json", lambda c: c["task"].update(
         constraint=lp_volume_constraint(grid=UNAFFORDABLE_GRID)))),
    ("lp-volume-empty-projected-baseline", "optimize",
     edited("optimize_trace.json", lambda c: c["task"].update(
         constraint=lp_volume_constraint(grid=UNAFFORDABLE_GRID, projection=[0, 1])))),
]


class TestExitCodes:
    @pytest.mark.parametrize("case,task,raw", MALFORMED, ids=[row[0] for row in MALFORMED])
    def test_malformed_config_exits_2(self, tmp_path, capsys, case, task, raw):
        config = tmp_path / "config.json"
        config.write_text(json.dumps(raw))
        out = tmp_path / "out"
        assert main([task, "--config", str(config), "--out", str(out)]) == EXIT_CONFIG
        assert not out.exists()
        err = capsys.readouterr().err
        assert err.startswith("reachkit: config error:")
        assert MESSAGES.get(case, "") in err

    def test_zero_scalar_bound_runs(self, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps(edited("boundary.json",
                                            lambda c: c["task"].update(bounds=0.0))))
        out = tmp_path / "out"
        assert main(["boundary", "--config", str(config), "--out", str(out)]) == EXIT_OK

    @pytest.mark.parametrize("task,raw", [row[1:] for row in NUMERIC],
                             ids=[row[0] for row in NUMERIC])
    def test_numeric_failure_exits_3(self, tmp_path, capsys, task, raw):
        config = tmp_path / "config.json"
        config.write_text(json.dumps(raw))
        out = tmp_path / "out"
        assert main([task, "--config", str(config), "--out", str(out)]) == EXIT_NUMERIC
        assert not out.exists()
        assert capsys.readouterr().err.startswith("reachkit: numeric failure:")

    @pytest.mark.parametrize("below", [False, True], ids=["file", "under-file"])
    def test_out_naming_a_file_exits_2(self, tmp_path, capsys, below):
        blocker = tmp_path / "taken"
        blocker.write_text("keep")
        out = blocker / "out" if below else blocker
        assert run_cli("gramian", CONFIG_DIR / "gramian.json", out) == EXIT_CONFIG
        assert capsys.readouterr().err.startswith("reachkit: config error:")
        assert blocker.read_text() == "keep"
        assert [p.name for p in tmp_path.iterdir()] == ["taken"]

    @pytest.mark.parametrize("task,name,artifact", [
        ("boundary", "boundary.json", "hull.json"),
        ("gramian", "gramian.json", "gramian.json"),
    ])
    def test_unwritable_artifact_exits_2_and_removes_the_rest(self, tmp_path, capsys, task,
                                                               name, artifact):
        out = tmp_path / "out"
        (out / artifact).mkdir(parents=True)
        assert run_cli(task, CONFIG_DIR / name, out) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("reachkit: config error: cannot write output:")
        assert "Traceback" not in err
        assert [p.name for p in out.iterdir()] == [artifact]
        assert not any((out / artifact).iterdir())

    def test_failed_write_removes_the_directory_it_made(self, tmp_path, capsys, monkeypatch):
        def full_disk_open(path, mode="r", *args):
            if Path(path).name == "manifest.json":
                raise OSError(28, "No space left on device", str(path))
            return open(path, mode, *args)

        monkeypatch.setattr(cli, "open", full_disk_open, raising=False)
        out = tmp_path / "new" / "out"
        assert run_cli("boundary", CONFIG_DIR / "boundary.json", out) == EXIT_CONFIG
        assert capsys.readouterr().err.startswith("reachkit: config error: cannot write output:")
        assert list(tmp_path.iterdir()) == []

    def test_default_lp_volume_grid_converges(self, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps(edited("optimize_trace.json", lambda c: c["task"].update(
            constraint={"type": "lp_volume"}))))
        out = tmp_path / "out"
        assert run_cli("optimize", config, out) == EXIT_OK
        payload = json.loads((out / "optresult.json").read_text())
        assert payload["converged"] is True


class TestInlineDerivativeTable:
    @pytest.mark.parametrize("task,name,artifact", [
        ("gramian", "gramian.json", "gramian.json"),
        ("optimize", "optimize_trace.json", "optresult.json"),
    ])
    def test_default_copy_gives_identical_artifacts(self, tmp_path, task, name, artifact):
        # at the configured design the table's ratios are x / x = 1, so the
        # model is the inline table to the bit
        results = []
        for derivatives in (INLINE_DERIVATIVES, "default"):
            config = tmp_path / "config.json"
            config.write_text(json.dumps(longitudinal_config(name, derivatives)))
            out = tmp_path / f"out-{len(results)}"
            assert run_cli(task, config, out) == EXIT_OK
            results.append((out / artifact).read_bytes())
        assert results[0] == results[1]

    def test_optimize_starts_from_the_configured_design(self, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps(
            longitudinal_config("optimize_trace.json", b=12.0, c_bar=4.5)))
        out = tmp_path / "out"
        assert run_cli("optimize", config, out) == EXIT_OK
        payload = json.loads((out / "optresult.json").read_text())
        assert payload["converged"] is True
        assert payload["history"][0]["variables"] == {"b": 12.0, "c_bar": 4.5}


DEMO = {"A": [[0.4, -0.3], [0.5, 1.7]], "B": [[1.0], [0.0]]}
SWEEP = {"T": 1.0, "p": 6, "budget": 1.0, "nodes": 101,
         "grid": {"magnitudes": [0.5, 1.0], "directions_per_shell": 8}}
TINY = {
    "boundary": {"system": DEMO, "task": {"name": "boundary", "T": 1.0, "n_eta": 20,
                                          "bounds": {"lower": -1.0, "upper": 1.0}}},
    "gramian": {"system": DEMO, "task": {"name": "gramian", "T": 1.0, "budget": 1.0}},
    "lp-sample": {"system": DEMO, "task": {"name": "lp-sample", **SWEEP}},
    "inner-approx": {"system": DEMO, "task": {"name": "inner-approx", **SWEEP}},
    "volume": {"system": DEMO, "task": {"name": "volume", **SWEEP}},
    "optimize": {
        "system": {**LONGITUDINAL, "trim": "default", "derivatives": "default"},
        "task": {"name": "optimize", "box_factors": [0.5, 1.5], "options": {"max_iters": 2},
                 "constraint": {"type": "gramian_trace", "factor": 1.1, "horizon": 1.0}},
    },
}
# the same solve on an inline table, so its derivative keys and design get changed too
TINY["optimize-inline"] = copy.deepcopy(TINY["optimize"])
TINY["optimize-inline"]["system"]["derivatives"] = INLINE_DERIVATIVES
for name in TINY:
    TINY[name]["seed"] = 0


def task_of(base):
    """The CLI task of a TINY base, which its own config names."""
    return TINY[base]["task"]["name"]


@pytest.mark.parametrize("base", sorted(TINY))
def test_tiny_base_configs_run(tmp_path, base):
    # the property below changes one key of these; each must run as given
    config = tmp_path / "config.json"
    config.write_text(json.dumps(TINY[base]))
    out = tmp_path / "out"
    assert main([task_of(base), "--config", str(config), "--out", str(out)]) == EXIT_OK


def key_paths(obj, prefix=()):
    """Paths to every value held under an object key, depth first."""
    for key, value in obj.items():
        yield prefix + (key,)
        if isinstance(value, dict):
            yield from key_paths(value, prefix + (key,))


SCALARS = st.none() | st.booleans() | st.integers(-3, 3) | st.text(max_size=3)
JSON_VALUES = st.recursive(
    SCALARS,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner,
                                                                max_size=3),
    max_leaves=6,
)
CASES = [(base, path) for base in TINY for path in key_paths(TINY[base])]


@settings(max_examples=200, deadline=None, database=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(case=st.sampled_from(CASES), value=JSON_VALUES)
def test_any_one_key_changed_gives_a_documented_exit(case, value):
    base, path = case
    raw = copy.deepcopy(TINY[base])
    holder = raw
    for key in path[:-1]:
        holder = holder[key]
    holder[path[-1]] = value
    with tempfile.TemporaryDirectory() as tmp:
        config = Path(tmp) / "config.json"
        config.write_text(json.dumps(raw))
        out = Path(tmp) / "out"
        code = main([task_of(base), "--config", str(config), "--out", str(out)])
        assert code in (EXIT_OK, EXIT_CONFIG, EXIT_NUMERIC)
        assert (out / "manifest.json").exists() if code == EXIT_OK else not out.exists()
