"""Command-line surface: one reachability task per invocation, JSON config
in, deterministic CSV/JSON artifacts plus a hashed manifest out.
"""

import argparse
import datetime
import hashlib
import io
import json
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .boundary import ControlBounds, boundary_curve, boundary_curve_to_csv, reach_hull_planar
from .design import (
    DesignVariables,
    GramianTraceConstraint,
    LpVolumeConstraint,
    OptimizeOptions,
    OptResult,
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
from .lpreach import LpSpec, cloud_to_csv, costate_grid, inner_approx, sample_reach
from .lti import LtiSystem

__all__ = ["RunConfig", "run", "main"]

TASKS = ("boundary", "gramian", "lp-sample", "inner-approx", "volume", "optimize")

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3

DEFAULT_GRID = {"magnitudes": [5.0, 10.0, 20.0, 50.0, 100.0], "directions_per_shell": 302}


@dataclass
class RunConfig:
    """Validated run request: one task, one system source, one output dir."""

    task: str
    system: dict
    params: dict
    out_dir: str = "reachkit-out"
    seed: int = 0

    @classmethod
    def from_dict(cls, raw: dict, task_override: str | None = None) -> "RunConfig":
        if not isinstance(raw, dict):
            raise ConfigError("config root must be a JSON object")
        task_section = raw.get("task")
        if not isinstance(task_section, dict):
            raise ConfigError("config needs a 'task' object")
        params = dict(task_section)
        name = params.pop("name", None)
        if task_override is not None:
            if name is not None and name != task_override:
                raise ConfigError(
                    f"config task name {name!r} does not match requested task {task_override!r}"
                )
            name = task_override
        if name not in TASKS:
            raise ConfigError(f"unknown task {name!r}; expected one of {TASKS}")
        system = raw.get("system")
        if not isinstance(system, dict):
            raise ConfigError("config needs a 'system' object")
        _validate_system_section(system)
        _validate_task_params(name, params)
        out_dir = raw.get("out_dir", "reachkit-out")
        seed = int(raw.get("seed", 0))
        return cls(task=name, system=system, params=params, out_dir=out_dir, seed=seed)


def _validate_system_section(system: dict) -> None:
    if "A" in system or "B" in system:
        if "A" not in system or "B" not in system:
            raise ConfigError("inline system needs both 'A' and 'B'")
        try:
            LtiSystem(system["A"], system["B"])
        except Exception as exc:
            raise ConfigError(f"invalid inline system: {exc}") from exc
    elif system.get("model") == "longitudinal":
        design = system.get("design")
        if not isinstance(design, dict) or "b" not in design or "c_bar" not in design:
            raise ConfigError("longitudinal model needs design.b and design.c_bar")
    else:
        raise ConfigError("system must give inline A/B or model: 'longitudinal'")


_REQUIRED_PARAMS = {
    "boundary": ("T", "bounds"),
    "gramian": ("T",),
    "lp-sample": ("T", "p"),
    "inner-approx": ("T", "p"),
    "volume": ("T", "p"),
    "optimize": ("constraint",),
}


def _validate_task_params(name: str, params: dict) -> None:
    for key in _REQUIRED_PARAMS[name]:
        if key not in params:
            raise ConfigError(f"task {name!r} requires parameter {key!r}")
    if "T" in params and not (isinstance(params["T"], (int, float)) and params["T"] > 0):
        raise ConfigError("T must be a positive number")
    if "budget" in params and not params["budget"] > 0:
        raise ConfigError("budget must be positive")
    if "p" in params:
        p = params["p"]
        if not (isinstance(p, int) and p >= 2 and p % 2 == 0):
            raise ConfigError(f"p must be an even integer >= 2, got {p!r}")
    if "n_eta" in params and int(params["n_eta"]) < 2:
        raise ConfigError("n_eta must be >= 2")
    if "grid" in params:
        grid = params["grid"]
        if not isinstance(grid, dict):
            raise ConfigError("grid must be an object")
        mags = grid.get("magnitudes", DEFAULT_GRID["magnitudes"])
        if any(m <= 0 for m in mags) or any(b < a for a, b in zip(mags, mags[1:])):
            raise ConfigError("grid magnitudes must be positive and ascending")
    if name == "optimize":
        constraint = params["constraint"]
        if not isinstance(constraint, dict) or constraint.get("type") not in (
            "gramian_trace",
            "lp_volume",
        ):
            raise ConfigError(
                "optimize constraint must set type to 'gramian_trace' or 'lp_volume'"
            )
        options = params.get("options", {})
        known = set(OptimizeOptions.__dataclass_fields__)
        unknown = set(options) - known
        if unknown:
            raise ConfigError(f"unknown optimizer options: {sorted(unknown)}")


def _build_trim(section) -> TrimPoint:
    if section in (None, "default"):
        return default_trim_point()
    if not isinstance(section, dict):
        raise ConfigError("trim must be 'default' or an object")
    if "airspeed_knots" in section:
        return TrimPoint.from_flight_units(
            alpha_deg=section.get("alpha_deg", 0.0),
            airspeed_knots=section["airspeed_knots"],
            altitude_feet=section.get("altitude_feet", 0.0),
            q0=section.get("q0", 0.0),
            gamma_deg=section.get("gamma_deg", 0.0),
        )
    return TrimPoint(
        alpha0=section.get("alpha0", 0.0),
        V0=section["V0"],
        h0=section.get("h0", 0.0),
        q0=section.get("q0", 0.0),
        gamma0=section.get("gamma0", 0.0),
    )


def _build_derivatives(section):
    if section in (None, "default"):
        return default_derivative_table()
    if not isinstance(section, dict):
        raise ConfigError("derivatives must be 'default' or an object")
    try:
        return StabilityDerivatives(**section)
    except TypeError as exc:
        raise ConfigError(f"bad derivative table: {exc}") from exc


def _build_system(section: dict) -> LtiSystem:
    if "A" in section:
        return LtiSystem(section["A"], section["B"])
    dv = DesignVariables(section["design"])
    trim = _build_trim(section.get("trim"))
    table = _build_derivatives(section.get("derivatives"))
    return longitudinal_model(dv, trim, table)


def _json_bytes(obj) -> bytes:
    return (json.dumps(obj, indent=2, sort_keys=True) + "\n").encode()


def _bounds_from(params) -> ControlBounds:
    section = params["bounds"]
    if isinstance(section, (int, float)):
        return ControlBounds.symmetric(section)
    return ControlBounds(lower=section["lower"], upper=section["upper"])


def _grid_from(params, n: int) -> np.ndarray:
    section = params.get("grid", DEFAULT_GRID)
    return costate_grid(
        n,
        section.get("magnitudes", DEFAULT_GRID["magnitudes"]),
        int(section.get("directions_per_shell", DEFAULT_GRID["directions_per_shell"])),
    )


def _lp_cloud(config: RunConfig, inner: bool):
    sys_ = _build_system(config.system)
    params = config.params
    spec = LpSpec(p=int(params["p"]), T=float(params["T"]), budget=float(params.get("budget", 1.0)))
    grid = _grid_from(params, sys_.n)
    nodes = int(params.get("nodes", 2001))
    fn = inner_approx if inner else sample_reach
    return fn(sys_, spec, grid, nodes=nodes)


def _task_boundary(config: RunConfig) -> dict:
    sys_ = _build_system(config.system)
    params = config.params
    curve = boundary_curve(
        sys_,
        _bounds_from(params),
        T=float(params["T"]),
        n_eta=int(params.get("n_eta", 400)),
    )
    buf = io.StringIO()
    boundary_curve_to_csv(curve, buf)
    artifacts = {"boundary.csv": buf.getvalue().encode()}
    if curve.n == 2:
        hull = reach_hull_planar(curve)
        payload = polytope_to_json(hull)
        payload["exact"] = curve.exact
        artifacts["hull.json"] = _json_bytes(payload)
    return artifacts


def _task_gramian(config: RunConfig) -> dict:
    sys_ = _build_system(config.system)
    params = config.params
    g = reachability_gramian(sys_, float(params["T"]))
    budget = float(params.get("budget", 1.0))
    payload = ellipsoid_to_json(g, budget)
    payload["trace"] = gramian_trace(g)
    payload["eigenvalues"] = g.eigenvalues.tolist()
    payload["W"] = g.W.tolist()
    return {"gramian.json": _json_bytes(payload)}


def _task_lp_sample(config: RunConfig, inner: bool) -> dict:
    cloud = _lp_cloud(config, inner)
    buf = io.StringIO()
    cloud_to_csv(cloud, buf)
    artifacts = {"cloud.csv": buf.getvalue().encode()}
    if cloud.hull is not None:
        artifacts["hull.json"] = _json_bytes(polytope_to_json(cloud.hull))
    return artifacts


def _task_volume(config: RunConfig) -> dict:
    cloud = _lp_cloud(config, inner=False)
    if cloud.hull is None:
        raise ValueError("no reachable endpoints: volume undefined")
    return {"hull.json": _json_bytes(polytope_to_json(cloud.hull))}


def _opt_result_json(result: OptResult) -> dict:
    return {
        "converged": result.converged,
        "iterations": result.iterations,
        "objective_value": result.objective_value,
        "optimum": result.optimum.as_dict(),
        "constraint_residuals": result.constraint_residuals.tolist(),
        "history": [
            {
                "variables": dv.as_dict(),
                "objective": obj,
                "residuals": np.asarray(res).tolist(),
            }
            for dv, obj, res in result.history
        ],
    }


def _task_optimize(config: RunConfig) -> dict:
    system = config.system
    if system.get("model") != "longitudinal":
        raise ConfigError("optimize currently supports the longitudinal model only")
    params = config.params
    spec_c = params["constraint"]
    if spec_c["type"] == "gramian_trace":
        constraint = GramianTraceConstraint(
            factor=float(spec_c.get("factor", 1.1)),
            horizon=float(spec_c.get("horizon", 1.0)),
        )
    else:
        lp = LpSpec(
            p=int(spec_c.get("p", 6)),
            T=float(spec_c.get("horizon", 1.0)),
            budget=float(spec_c.get("budget", 1.0)),
        )
        grid_cfg = spec_c.get("grid", {})
        constraint = LpVolumeConstraint(
            spec=lp,
            factor=float(spec_c.get("factor", 1.1)),
            magnitudes=grid_cfg.get("magnitudes", (5.0, 20.0, 50.0, 100.0)),
            directions_per_shell=int(grid_cfg.get("directions_per_shell", 128)),
            nodes=int(spec_c.get("nodes", 501)),
            projection=spec_c.get("projection"),
        )
    trim = _build_trim(system.get("trim"))
    table = _build_derivatives(system.get("derivatives"))
    box_factors = tuple(params.get("box_factors", (0.5, 1.5)))
    problem = surrogate_wing_problem(
        constraint, trim=trim, table=table, box_factors=box_factors
    )
    opt_cfg = params.get("options", {})
    options = OptimizeOptions(**opt_cfg) if opt_cfg else None
    result = optimize(problem, options)
    return {"optresult.json": _json_bytes(_opt_result_json(result))}


def _execute(config: RunConfig) -> dict:
    if config.task == "boundary":
        return _task_boundary(config)
    if config.task == "gramian":
        return _task_gramian(config)
    if config.task == "lp-sample":
        return _task_lp_sample(config, inner=False)
    if config.task == "inner-approx":
        return _task_lp_sample(config, inner=True)
    if config.task == "volume":
        return _task_volume(config)
    return _task_optimize(config)


def run(config: RunConfig) -> int:
    """Execute one task and write its artifacts plus manifest.json.

    All artifact bytes are rendered before anything touches disk, so a
    numeric failure (exit 3) leaves no partial output. Data files are
    byte-identical across reruns of the same config and seed; only the
    manifest carries a timestamp.
    """
    try:
        artifacts = _execute(config)
    except ConfigError as exc:
        print(f"reachkit: config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except Exception as exc:
        print(f"reachkit: numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC

    out = Path(config.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    entries = []
    for name in sorted(artifacts):
        data = artifacts[name]
        (out / name).write_bytes(data)
        entries.append(
            {"name": name, "sha256": hashlib.sha256(data).hexdigest(), "bytes": len(data)}
        )
    manifest = {
        "task": config.task,
        "seed": config.seed,
        "created_utc": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "files": entries,
    }
    (out / "manifest.json").write_bytes(_json_bytes(manifest))
    return EXIT_OK


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="reachkit",
        description="Reachable-set computations for LTI systems.",
    )
    parser.add_argument("task", choices=TASKS)
    parser.add_argument("--config", required=True, help="path to a JSON run config")
    parser.add_argument("--out", default=None, help="output directory (overrides config)")
    parser.add_argument("--seed", type=int, default=None, help="seed recorded in the manifest")
    args = parser.parse_args(argv)

    try:
        raw = json.loads(Path(args.config).read_text())
    except FileNotFoundError:
        print(f"reachkit: config file not found: {args.config}", file=sys.stderr)
        return EXIT_CONFIG
    except json.JSONDecodeError as exc:
        print(f"reachkit: config is not valid JSON: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    try:
        config = RunConfig.from_dict(raw, task_override=args.task)
    except ConfigError as exc:
        print(f"reachkit: config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    if args.out is not None:
        config.out_dir = args.out
    if args.seed is not None:
        config.seed = args.seed
    return run(config)


if __name__ == "__main__":
    sys.exit(main())
