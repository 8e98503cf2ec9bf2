"""Command-line surface: one reachability task per invocation, JSON config
in, deterministic CSV/JSON artifacts plus a hashed manifest out.

TASKS maps each task name to its parse function. A parse function reads
every config key it uses once, checks its JSON type, and builds the
library objects that hold the domain checks; it returns the compute step.
The keys it reads are the schema, so any other key is a config error.
A parse or write error is a config error (exit 2), a compute error a
numeric failure (exit 3); none leaves output. Only run writes files.
"""

import argparse
import datetime
import hashlib
import json
import math
import shutil
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np

from .boundary import ControlBounds, boundary_curve, boundary_curve_to_csv, reach_hull_planar
from .csvout import json_text
from .design import (
    LP_VOLUME_DIRECTIONS,
    LP_VOLUME_MAGNITUDES,
    LP_VOLUME_NODES,
    LP_VOLUME_P,
    MAX_ITERS,
    DesignVariables,
    GramianTraceConstraint,
    LpVolumeConstraint,
    ScalableDerivativeTable,
    StabilityDerivatives,
    TrimPoint,
    default_derivative_table,
    default_trim_point,
    longitudinal_model,
    optimize,
    surrogate_wing_problem,
)
from .errors import ConfigError
from .geometry import polytope_to_json
from .gramian import ellipsoid_to_json, gramian_trace, reachability_gramian
from .lpreach import (DEFAULT_NODES, LpSpec, cloud_to_csv, costate_grid, inner_approx,
                      sample_reach, simpson_weights)
from .lti import LtiSystem

__all__ = ["TASKS", "run", "main"]

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3

_REQUIRED = object()

# the most work a config may ask for, checked before anything is allocated:
# boundary samples, quadrature nodes and costate directions per shell
MAX_N_ETA = 100_000
MAX_NODES = 100_001
MAX_DIRECTIONS_PER_SHELL = 10_000


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool) and math.isfinite(value)


def _is_numeric(value) -> bool:
    if isinstance(value, list):
        return all(_is_numeric(v) for v in value)
    return _is_number(value)


class _Section:
    """One JSON object of a config; each getter checks the JSON type it reads.

    The keys the getters read are the section's schema. Every section
    opened from one root joins the root's `opened` list, so the parse can
    reject any key that no getter read.
    """

    def __init__(self, raw, path: str, opened: list | None = None):
        if not isinstance(raw, dict):
            raise ConfigError(f"{path} must be an object")
        self.raw = raw
        self.path = path
        self.read = set()
        self.opened = [] if opened is None else opened
        self.opened.append(self)

    def value(self, key, default=_REQUIRED):
        self.read.add(key)
        if key in self.raw:
            return self.raw[key]
        if default is _REQUIRED:
            raise ConfigError(f"{self.path} needs {key!r}")
        return default

    def number(self, key, default=_REQUIRED, positive=False) -> float:
        value = self.value(key, default)
        if not _is_number(value) or (positive and value <= 0):
            kind = "a positive" if positive else "a finite"
            raise ConfigError(f"{self.path}.{key} must be {kind} number, got {value!r}")
        return float(value)

    def integer(self, key, default=_REQUIRED, low=None, high=None) -> int:
        value = self.value(key, default)
        if (type(value) is not int or (low is not None and value < low)
                or (high is not None and value > high)):
            limits = [f" >= {low}"] if low is not None else []
            limits += [f" <= {high}"] if high is not None else []
            raise ConfigError(f"{self.path}.{key} must be an integer{' and'.join(limits)}, "
                              f"got {value!r}")
        return value

    def array(self, key, default=_REQUIRED) -> np.ndarray:
        value = self.value(key, default)
        if not _is_numeric(value):
            raise ConfigError(f"{self.path}.{key} must be a number or lists of numbers")
        return np.array(value, dtype=float)

    def section(self, key, default=_REQUIRED) -> "_Section":
        return _Section(self.value(key, default), f"{self.path}.{key}", self.opened)


def _parse_trim(system: _Section) -> TrimPoint:
    if system.value("trim", None) in (None, "default"):
        return default_trim_point()
    trim = system.section("trim")
    return TrimPoint.from_flight_units(
        alpha_deg=trim.number("alpha_deg", 0.0),
        airspeed_knots=trim.number("airspeed_knots"),
        altitude_feet=trim.number("altitude_feet", 0.0),
        gamma_deg=trim.number("gamma_deg", 0.0),
    )


def _parse_derivatives(system: _Section, dv: DesignVariables) -> ScalableDerivativeTable:
    """The default table, or an inline one whose reference is the configured design."""
    if system.value("derivatives", None) in (None, "default"):
        return default_derivative_table()
    table = system.section("derivatives")
    names = [f.name for f in fields(StabilityDerivatives)]
    base = StabilityDerivatives(**{name: table.number(name) for name in names})
    return ScalableDerivativeTable(base=base, b_ref=dv["b"], c_bar_ref=dv["c_bar"])


def _parse_longitudinal(system: _Section):
    """The configured design, trim and derivative table of the longitudinal model."""
    model = system.value("model", None)
    if model != "longitudinal":
        raise ConfigError(f"system needs inline A and B or model 'longitudinal', got {model!r}")
    design = system.section("design")
    dv = DesignVariables({"b": design.number("b"), "c_bar": design.number("c_bar")})
    trim = _parse_trim(system)
    table = _parse_derivatives(system, dv)
    return dv, trim, table


def _parse_system(system: _Section) -> LtiSystem:
    if "A" in system.raw or "B" in system.raw:
        return LtiSystem(system.array("A"), system.array("B"))
    return longitudinal_model(*_parse_longitudinal(system))


def _parse_sweep(section: _Section, T: float, p=_REQUIRED, nodes=DEFAULT_NODES,
                 magnitudes=(5.0, 10.0, 20.0, 50.0, 100.0), directions=302):
    """LpSpec, shell radii, directions per shell and node count of a costate sweep."""
    spec = LpSpec(p=section.integer("p", p), T=T, budget=section.number("budget", 1.0))
    grid = section.section("grid", {})
    radii = grid.array("magnitudes", list(magnitudes))
    directions = grid.integer("directions_per_shell", directions, high=MAX_DIRECTIONS_PER_SHELL)
    nodes = section.integer("nodes", nodes, high=MAX_NODES)
    simpson_weights(nodes, T)  # rejects even and too-small node counts
    return spec, radii, directions, nodes


def _json_bytes(obj) -> bytes:
    return json_text(obj).encode()


def _parse_boundary(system: _Section, task: _Section):
    sys_ = _parse_system(system)
    if sys_.m != 1:
        raise ConfigError(f"boundary needs a single-input system, got m={sys_.m}")
    section = task.section("bounds")
    bounds = ControlBounds(lower=section.array("lower"), upper=section.array("upper"))
    if bounds.m != 1:
        raise ConfigError("task.bounds must be scalar for a single-input system")
    T = task.number("T", positive=True)
    n_eta = task.integer("n_eta", 400, low=2, high=MAX_N_ETA)

    def compute():
        curve = boundary_curve(sys_, bounds, T=T, n_eta=n_eta)
        artifacts = {"boundary.csv": boundary_curve_to_csv(curve).encode()}
        if curve.n == 2:
            payload = polytope_to_json(reach_hull_planar(curve))
            payload["exact"] = curve.exact
            artifacts["hull.json"] = _json_bytes(payload)
        return artifacts

    return compute


def _parse_gramian(system: _Section, task: _Section):
    sys_ = _parse_system(system)
    T = task.number("T", positive=True)
    budget = task.number("budget", 1.0, positive=True)

    def compute():
        g = reachability_gramian(sys_, T)
        payload = ellipsoid_to_json(g, budget)
        payload["trace"] = gramian_trace(g)
        payload["eigenvalues"] = g.eigenvalues.tolist()
        payload["W"] = g.W.tolist()
        return {"gramian.json": _json_bytes(payload)}

    return compute


def _lp_task(system: _Section, task: _Section, sweep, artifacts, needs_hull=False):
    """A costate sweep of the configured system, rendered by artifacts; a
    task that needs the endpoints' hull needs 2 to 4 states."""
    sys_ = _parse_system(system)
    if needs_hull and not 2 <= sys_.n <= 4:
        raise ConfigError(f"volume needs a system with 2 to 4 states, got n={sys_.n}")
    spec, radii, directions, nodes = _parse_sweep(task, task.number("T"))
    grid = costate_grid(sys_.n, radii, directions)
    return lambda: artifacts(sweep(sys_, spec, grid, nodes))


def _cloud_artifacts(cloud) -> dict:
    artifacts = {"cloud.csv": cloud_to_csv(cloud).encode()}
    if cloud.hull is not None:
        artifacts["hull.json"] = _json_bytes(polytope_to_json(cloud.hull))
    return artifacts


def _volume_artifacts(cloud) -> dict:
    if cloud.hull is None:
        raise ValueError("no reachable endpoints: volume undefined")
    return {"hull.json": _json_bytes(polytope_to_json(cloud.hull))}


def _parse_constraint(constraint: _Section, n: int):
    kind = constraint.value("type", None)
    if kind not in ("gramian_trace", "lp_volume"):
        raise ConfigError("optimize constraint must set type to 'gramian_trace' or 'lp_volume'")
    factor = constraint.number("factor", 1.1)
    horizon = constraint.number("horizon", 1.0)
    if kind == "gramian_trace":
        return GramianTraceConstraint(factor=factor, horizon=horizon)
    spec, radii, directions, nodes = _parse_sweep(
        constraint, horizon, p=LP_VOLUME_P, nodes=LP_VOLUME_NODES,
        magnitudes=LP_VOLUME_MAGNITUDES, directions=LP_VOLUME_DIRECTIONS,
    )
    lp_volume = LpVolumeConstraint(spec, factor, radii, directions, nodes)
    lp_volume.grid_for(n)  # rejects a malformed grid or state count at parse time
    return lp_volume


def _opt_result_json(result) -> dict:
    return {
        "converged": result.converged,
        "iterations": result.iterations,
        "objective_value": result.objective_value,
        "optimum": result.optimum.as_dict(),
        "constraint_residuals": result.constraint_residuals.tolist(),
        "history": [
            {"variables": dv.as_dict(), "objective": obj, "residuals": np.asarray(res).tolist()}
            for dv, obj, res in result.history
        ],
    }


def _parse_optimize(system: _Section, task: _Section):
    if "A" in system.raw or "B" in system.raw:
        raise ConfigError("optimize currently supports the longitudinal model only")
    dv, trim, table = _parse_longitudinal(system)
    n = longitudinal_model(dv, trim, table).n
    constraint = _parse_constraint(task.section("constraint"), n)
    box_factors = task.array("box_factors", [0.5, 1.5])
    if box_factors.shape != (2,):
        raise ConfigError("task.box_factors must hold two numbers")
    problem = surrogate_wing_problem(
        constraint, trim=trim, table=table, box_factors=tuple(box_factors.tolist())
    )
    if dv.as_dict() != problem.baseline.as_dict():
        raise ConfigError(f"optimize starts from the table's reference design, so system.design "
                          f"must be {problem.baseline.as_dict()}, got {dv.as_dict()}")
    max_iters = task.section("options", {}).integer("max_iters", MAX_ITERS, low=0)
    return lambda: {"optresult.json": _json_bytes(_opt_result_json(optimize(problem, max_iters)))}


TASKS = {
    "boundary": _parse_boundary,
    "gramian": _parse_gramian,
    # a row looks its sweep up at parse time, so a rebound cli.sample_reach runs
    "lp-sample": lambda s, t: _lp_task(s, t, sample_reach, _cloud_artifacts),
    "inner-approx": lambda s, t: _lp_task(s, t, inner_approx, _cloud_artifacts),
    "volume": lambda s, t: _lp_task(s, t, sample_reach, _volume_artifacts, needs_hull=True),
    "optimize": _parse_optimize,
}


def _parse(raw, task_override: str | None):
    """Task name, compute step, output directory and seed of a config; a
    key that no getter read, in any section, is an unknown key."""
    root = _Section(raw, "config")
    task = root.section("task")
    name = task.value("name", task_override)
    if task_override not in (None, name):
        raise ConfigError(f"config task name {name!r} does not match requested task "
                          f"{task_override!r}")
    if not isinstance(name, str) or name not in TASKS:
        raise ConfigError(f"unknown task {name!r}; expected one of {', '.join(TASKS)}")
    out_dir = root.value("out_dir", "reachkit-out")
    if not isinstance(out_dir, str):
        raise ConfigError(f"config.out_dir must be a string, got {out_dir!r}")
    seed = root.integer("seed", 0)
    compute = TASKS[name](root.section("system"), task)
    for section in root.opened:
        unknown = sorted(set(section.raw) - section.read)
        if unknown:
            raise ConfigError(f"unknown keys in {section.path}: {unknown}")
    return name, compute, out_dir, seed


def run(raw, task: str | None = None, out_dir: str | None = None, seed: int | None = None) -> int:
    """Parse a config, compute its task, and write the artifacts plus
    manifest.json; out_dir and seed override the config's values.

    Any error while parsing returns 2 and any error while computing 3.
    Nothing is written until every byte is rendered; then an output
    directory that is or lies under a file, or refuses a write, returns 2,
    and the failed write removes what the run wrote (a file of an earlier
    run that it overwrote stays lost).
    Data files are byte-identical across reruns of the same config and
    seed at a fixed BLAS thread count (lp-sample and optimize outputs
    differ between 1 and 2 OpenBLAS threads); only the manifest is dated.
    """
    try:
        name, compute, config_out, config_seed = _parse(raw, task)
    except Exception as exc:
        print(f"reachkit: config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        artifacts = compute()
    except Exception as exc:
        print(f"reachkit: numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC

    artifacts["manifest.json"] = _json_bytes({
        "task": name,
        "seed": config_seed if seed is None else seed,
        "created_utc": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "files": [{"name": file_name, "sha256": hashlib.sha256(data).hexdigest(),
                   "bytes": len(data)} for file_name, data in sorted(artifacts.items())],
    })
    out = Path(config_out if out_dir is None else out_dir)
    made = [part for part in (out, *out.parents) if not part.exists()]
    written = []
    try:
        out.mkdir(parents=True, exist_ok=True)
        for file_name, data in artifacts.items():
            with open(out / file_name, "wb") as fh:
                written.append(out / file_name)
                fh.write(data)
    except OSError as exc:
        for path in written:
            path.unlink()
        if made:
            shutil.rmtree(made[-1], ignore_errors=True)
        print(f"reachkit: config error: cannot write output: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    return EXIT_OK


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="reachkit", description="Reachable-set computations for LTI systems."
    )
    parser.add_argument("task", choices=list(TASKS))
    parser.add_argument("--config", required=True, help="path to a JSON run config")
    parser.add_argument("--out", default=None, help="output directory (overrides config)")
    parser.add_argument("--seed", type=int, default=None, help="seed recorded in the manifest")
    args = parser.parse_args(argv)

    try:
        raw = json.loads(Path(args.config).read_text())
    except (OSError, ValueError) as exc:
        print(f"reachkit: cannot read config {args.config}: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    return run(raw, args.task, args.out, args.seed)


if __name__ == "__main__":
    sys.exit(main())
