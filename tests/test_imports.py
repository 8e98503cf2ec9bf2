import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

import reachkit

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"

# scipy packages that some reachkit functions import on first use, scipy.linalg,
# which scipy.spatial imports, and scipy.stats, which nothing imports;
# any_scipy() says whether any scipy module at all is loaded
PRELUDE = """import json, sys
def loaded():
    return sorted({'.'.join(m.split('.')[:2]) for m in sys.modules}
                  & {'scipy.linalg', 'scipy.optimize', 'scipy.spatial', 'scipy.special',
                     'scipy.stats'})
def any_scipy():
    return any(m == 'scipy' or m.startswith('scipy.') for m in sys.modules)
def any_orjson():
    return any(m == 'orjson' or m.startswith('orjson.') for m in sys.modules)
"""


def run_python(code: str):
    """The JSON that code prints, run in a fresh interpreter with reachkit importable."""
    src = str(Path(reachkit.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run([sys.executable, "-c", PRELUDE + code], env=env, capture_output=True,
                         text=True, check=True, timeout=120)
    return json.loads(out.stdout)


def test_cli_import_loads_no_deferred_scipy_package():
    # any scipy module would add to the start of every CLI run, whatever its task
    assert run_python("import reachkit, reachkit.cli\nprint(json.dumps(any_scipy()))") is False


def test_switching_functions_load_no_scipy():
    # the exponentials and the root polish of the switch scan are numpy's own
    code = """
import numpy as np
import reachkit as rk
demo = rk.LtiSystem([[0.4, -0.3], [0.5, 1.7]], [[1.0], [0.0]])
c = np.array([1.0, -1.0])
u = rk.bang_bang_control(demo, rk.ControlBounds.symmetric(1.0), c, 1.0)
report = rk.switch_count(demo, c, 1.0, 1_000_001)
print(json.dumps({"scipy": any_scipy(), "switches": u.switch_times.tolist(),
                  "count": report.sign_changes.tolist()}))
"""
    got = run_python(code)
    demo = reachkit.LtiSystem([[0.4, -0.3], [0.5, 1.7]], [[1.0], [0.0]])
    c = np.array([1.0, -1.0])
    want = reachkit.bang_bang_control(demo, reachkit.ControlBounds.symmetric(1.0), c, 1.0)
    assert got == {"scipy": False, "switches": want.switch_times.tolist(), "count": [1]}


def test_first_use_loads_each_package_and_works():
    code = """
import numpy as np
import reachkit as rk
from reachkit.design import DesignProblem, DesignVariables, FunctionConstraint
steps = {"import": loaded()}
grid = rk.costate_grid(3, [0.5, 1.0], 8)
steps["costate_grid"] = loaded()
hull = rk.convex_hull([[0, 0], [1, 0], [0, 1], [1, 1], [0.5, 0.5]])
steps["convex_hull"] = loaded()
demo = rk.LtiSystem([[0.4, -0.3], [0.5, 1.7]], [[1.0], [0.0]])
u = rk.bang_bang_control(demo, rk.ControlBounds.symmetric(1.0), np.array([1.0, -1.0]), 1.0)
steps["bang_bang_control"] = loaded()
res = rk.optimize(DesignProblem(
    objective=lambda dv: dv["x1"] + dv["x2"], box={"x1": (0.0, 2.0), "x2": (0.0, 2.0)},
    baseline=DesignVariables({"x1": 1.5, "x2": 1.5}),
    constraints=(FunctionConstraint(lambda dv: dv["x1"] * dv["x2"] - 1.0, name="hyperbola"),)))
steps["optimize"] = loaded()
print(json.dumps({"steps": steps, "grid": grid.tobytes().hex(), "volume": hull.volume,
                  "switches": u.switch_times.tolist(), "converged": res.converged,
                  "optimum": res.optimum.as_array(["x1", "x2"]).tolist()}))
"""
    got = run_python(code)
    # scipy.spatial imports scipy.linalg and scipy.special, and scipy.optimize
    # imports all three; bang_bang_control imports nothing
    assert got["steps"] == {
        "import": [],
        "costate_grid": ["scipy.special"],
        "convex_hull": ["scipy.linalg", "scipy.spatial", "scipy.special"],
        "bang_bang_control": ["scipy.linalg", "scipy.spatial", "scipy.special"],
        "optimize": ["scipy.linalg", "scipy.optimize", "scipy.spatial", "scipy.special"],
    }
    assert got["grid"] == reachkit.costate_grid(3, [0.5, 1.0], 8).tobytes().hex()
    assert got["volume"] == 1.0
    demo = reachkit.LtiSystem([[0.4, -0.3], [0.5, 1.7]], [[1.0], [0.0]])
    want = reachkit.bang_bang_control(demo, reachkit.ControlBounds.symmetric(1.0),
                                      np.array([1.0, -1.0]), 1.0)
    assert len(got["switches"]) == 1 and got["switches"] == want.switch_times.tolist()
    assert got["converged"]
    assert np.allclose(got["optimum"], [1.0, 1.0], atol=1e-4)


def test_gramian_cli_run_skips_optimize_and_spatial(tmp_path):
    # and every other scipy module
    code = f"""
from reachkit import cli
raw = json.loads(open({str(CONFIG_DIR / "gramian.json")!r}).read())
code = cli.run(raw, out_dir={str(tmp_path / "out")!r})
print(json.dumps({{"code": code, "scipy": any_scipy()}}))
"""
    assert run_python(code) == {"code": 0, "scipy": False}


def test_orjson_loads_on_the_first_render(tmp_path):
    # the artifact renderers import orjson; importing reachkit and the
    # switch scan, which render nothing, leave it unloaded
    code = f"""
import numpy as np
import reachkit as rk
steps = {{"import reachkit": any_orjson()}}
demo = rk.LtiSystem([[0.4, -0.3], [0.5, 1.7]], [[1.0], [0.0]])
rk.bang_bang_control(demo, rk.ControlBounds.symmetric(1.0), np.array([1.0, -1.0]), 1.0)
rk.switch_count(demo, np.array([1.0, -1.0]), 1.0, 1001)
steps["switch scan"] = any_orjson()
from reachkit import cli
steps["import reachkit.cli"] = any_orjson()
raw = json.loads(open({str(CONFIG_DIR / "gramian.json")!r}).read())
steps["gramian exit"] = cli.run(raw, out_dir={str(tmp_path / "out")!r})
steps["gramian"] = any_orjson()
print(json.dumps(steps))
"""
    assert run_python(code) == {"import reachkit": False, "switch scan": False,
                                "import reachkit.cli": False, "gramian exit": 0,
                                "gramian": True}
