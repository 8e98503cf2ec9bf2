"""Reachability-constrained design optimization.

Couples parametric model builders (design variables -> LTI system) with
reachability metrics (Gramian trace, Lp reach-set volume) as inequality
constraints, solved by one SLSQP call over the design box with
finite-difference gradients that never leave the box. A solve has
converged when SLSQP reports success and no scaled residual is below
-FEAS_TOL. A point where the model fails to build or evaluate (ValueError,
ArithmeticError, LinAlgError) gets a large penalty; any other exception
propagates. Solves are deterministic.
"""

import logging
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import minimize as _scipy_minimize

from .gramian import gramian_trace, reachability_gramian
from .geometry import convex_hull
from .lpreach import LpSpec, costate_grid, sample_reach
from .lti import LtiSystem

__all__ = [
    "DesignVariables",
    "TrimPoint",
    "StabilityDerivatives",
    "ScalableDerivativeTable",
    "DesignProblem",
    "OptResult",
    "GramianTraceConstraint",
    "LpVolumeConstraint",
    "FunctionConstraint",
    "longitudinal_model",
    "default_trim_point",
    "default_derivative_table",
    "surrogate_wing_problem",
    "central_difference",
    "optimize",
]

logger = logging.getLogger(__name__)

KNOT = 0.5144444444444445  # m/s
FOOT = 0.3048  # m
STANDARD_GRAVITY = 9.80665  # m/s^2

# objective value substituted when the model fails to build at a point
EVALUATION_PENALTY = 1e12

# SLSQP's stopping tolerance on the objective. With central-difference
# gradients, 1e-9 and 1e-10 both let every tested problem converge; at
# 1e-11 the analytic test problem ends in a failed line search ("Positive
# directional derivative for linesearch").
SLSQP_FTOL = 1e-10

# central_difference's relative step, and optimize's feasibility tolerance
# on the scaled residuals and default SLSQP iteration cap
FD_STEP = 1e-6
FEAS_TOL = 1e-6
MAX_ITERS = 200

# defaults of an Lp reach-volume constraint, also the CLI's lp_volume schema;
# the shells straddle the default wing's affordable costate radius, about 0.01
LP_VOLUME_P = 6
LP_VOLUME_MAGNITUDES = (0.01, 0.02, 0.05, 0.1)
LP_VOLUME_DIRECTIONS = 128
LP_VOLUME_NODES = 501


class DesignVariables:
    """Named design scalars; ordering is supplied by the problem's box."""

    def __init__(self, values: dict):
        self._values = {str(k): float(v) for k, v in values.items()}

    def __getitem__(self, name: str) -> float:
        return self._values[name]

    def as_dict(self) -> dict:
        return dict(self._values)

    def as_array(self, names) -> np.ndarray:
        return np.array([self._values[n] for n in names])

    @classmethod
    def from_array(cls, names, x) -> "DesignVariables":
        return cls(dict(zip(names, np.asarray(x, dtype=float))))

    def __repr__(self):
        inner = ", ".join(f"{k}={v:.6g}" for k, v in self._values.items())
        return f"DesignVariables({inner})"


@dataclass
class TrimPoint:
    """Trimmed flight condition, SI units throughout."""

    alpha0: float  # rad
    V0: float  # m/s
    h0: float  # m
    gamma0: float = 0.0  # rad
    g: float = STANDARD_GRAVITY  # m/s^2

    def __post_init__(self):
        if self.V0 <= 0:
            raise ValueError(f"airspeed must be positive, got V0={self.V0}")
        if abs(self.alpha0) >= math.pi / 2:
            raise ValueError(f"|alpha0| must be below pi/2, got {self.alpha0}")

    @classmethod
    def from_flight_units(
        cls,
        alpha_deg: float,
        airspeed_knots: float,
        altitude_feet: float,
        *,
        gamma_deg: float = 0.0,
    ) -> "TrimPoint":
        """Build from degrees / knots / feet, converting to SI on ingestion."""
        return cls(
            alpha0=math.radians(alpha_deg),
            V0=airspeed_knots * KNOT,
            h0=altitude_feet * FOOT,
            gamma0=math.radians(gamma_deg),
        )


def default_trim_point() -> TrimPoint:
    """Low-altitude steady flight: 12 deg alpha, 150 kn, 5000 ft, level."""
    return TrimPoint.from_flight_units(12.0, 150.0, 5000.0)


@dataclass
class StabilityDerivatives:
    """Dimensional longitudinal stability and control derivatives."""

    X_V: float
    X_alpha: float
    Z_V: float
    Z_alpha: float
    Z_q: float
    M_V: float
    M_alpha: float
    M_q: float
    X_delta_th: float
    X_delta_e: float
    Z_delta_e: float
    M_delta_th: float
    M_delta_e: float

    _FORCE_FIELDS = ("X_V", "X_alpha", "Z_V", "Z_alpha", "Z_q",
                     "X_delta_th", "X_delta_e", "Z_delta_e")
    _MOMENT_FIELDS = ("M_V", "M_alpha", "M_q", "M_delta_th", "M_delta_e")


@dataclass
class ScalableDerivativeTable:
    """Synthetic wing-scaling law for stability derivatives.

    Force derivatives scale with the wing planform area S = b * c_bar
    relative to the reference planform; pitch-moment derivatives pick up
    an extra chord ratio. This is a smooth, monotone surrogate intended to
    exercise the design-optimization pipeline; it is not a fitted
    aerodynamic database and should not be read as physics.
    """

    base: StabilityDerivatives
    b_ref: float
    c_bar_ref: float

    def at(self, b: float, c_bar: float) -> StabilityDerivatives:
        if b <= 0 or c_bar <= 0:
            raise ValueError("wingspan and chord must be positive")
        area_ratio = (b * c_bar) / (self.b_ref * self.c_bar_ref)
        chord_ratio = c_bar / self.c_bar_ref
        values = {}
        for name in StabilityDerivatives._FORCE_FIELDS:
            values[name] = getattr(self.base, name) * area_ratio
        for name in StabilityDerivatives._MOMENT_FIELDS:
            values[name] = getattr(self.base, name) * area_ratio * chord_ratio
        return StabilityDerivatives(**values)


BASELINE_WINGSPAN = 9.144  # m
BASELINE_CHORD = 3.45  # m

# Reference derivative set for the surrogate table: a stable, statically
# conventional low-speed longitudinal model (short period complex and
# damped at the reference geometry).
BASELINE_DERIVATIVES = StabilityDerivatives(
    X_V=-0.02,
    X_alpha=3.0,
    Z_V=-0.25,
    Z_alpha=-350.0,
    Z_q=-6.0,
    M_V=0.0005,
    M_alpha=-8.0,
    M_q=-1.2,
    X_delta_th=6.0,
    X_delta_e=0.2,
    Z_delta_e=-40.0,
    M_delta_th=0.05,
    M_delta_e=-12.0,
)


def default_derivative_table() -> ScalableDerivativeTable:
    return ScalableDerivativeTable(
        base=BASELINE_DERIVATIVES, b_ref=BASELINE_WINGSPAN, c_bar_ref=BASELINE_CHORD
    )


def longitudinal_model(dv, trim: TrimPoint, table: ScalableDerivativeTable) -> LtiSystem:
    """Linear longitudinal flight model with states (v_T, alpha, q, theta)
    and inputs (throttle, elevator), from the table at the design's wingspan
    and chord."""
    d = table.at(dv["b"], dv["c_bar"])
    g, V0 = trim.g, trim.V0
    sin_g0, cos_g0 = math.sin(trim.gamma0), math.cos(trim.gamma0)
    sin_a0, cos_a0 = math.sin(trim.alpha0), math.cos(trim.alpha0)
    A = np.array(
        [
            [d.X_V, d.X_alpha, 0.0, -g * cos_g0],
            [d.Z_V / V0, d.Z_alpha / V0, 1.0 + d.Z_q / V0, -g * sin_g0 / V0],
            [d.M_V, d.M_alpha, d.M_q, 0.0],
            [0.0, 0.0, 1.0, 0.0],
        ]
    )
    B = np.array(
        [
            [d.X_delta_th * cos_a0, d.X_delta_e],
            [-d.X_delta_th * sin_a0, d.Z_delta_e / V0],
            [d.M_delta_th, d.M_delta_e],
            [0.0, 0.0],
        ]
    )
    return LtiSystem(A, B)


class GramianTraceConstraint:
    """trace(W(dv)) >= factor * trace(W(baseline)) over a fixed horizon."""

    name = "gramian_trace"

    def __init__(self, factor: float = 1.1, horizon: float = 1.0):
        if factor <= 0:
            raise ValueError(f"factor must be positive, got {factor}")
        if horizon <= 0:
            raise ValueError(f"horizon must be positive, got {horizon}")
        self.factor = factor
        self.horizon = horizon

    def baseline_trace(self, problem) -> float:
        return problem.baseline_value(self, lambda: gramian_trace(
            reachability_gramian(problem.build_system(problem.baseline), self.horizon)
        ))

    def residual(self, problem, dv) -> float:
        sys_dv = problem.build_system(dv)
        tr = gramian_trace(reachability_gramian(sys_dv, self.horizon))
        return tr - self.factor * self.baseline_trace(problem)

    def scale(self, problem) -> float:
        return self.baseline_trace(problem)


class LpVolumeConstraint:
    """vol(reachable Lp endpoints at dv) >= factor * vol at baseline.

    The costate grid is built from magnitudes and directions_per_shell on
    first use for each state dimension and shared by every evaluation, so
    the volume varies smoothly with the design instead of jumping with the
    sampling. A degenerate or empty hull counts as volume zero, except at
    the baseline: no factor scales a zero volume, so there it is a ValueError.
    """

    name = "lp_volume"

    def __init__(
        self,
        spec: LpSpec,
        factor: float = 1.1,
        magnitudes=LP_VOLUME_MAGNITUDES,
        directions_per_shell: int = LP_VOLUME_DIRECTIONS,
        nodes: int = LP_VOLUME_NODES,
        projection=None,
    ):
        if factor <= 0:
            raise ValueError(f"factor must be positive, got {factor}")
        self.spec = spec
        self.factor = factor
        self.magnitudes = tuple(np.atleast_1d(magnitudes))
        self.directions_per_shell = directions_per_shell
        self.nodes = nodes
        self.projection = None if projection is None else tuple(projection)
        self.degenerate_evaluations = 0
        self._grids = {}  # state dimension -> the grid built for it

    def grid_for(self, n: int) -> np.ndarray:
        if n not in self._grids:
            self._grids[n] = costate_grid(n, self.magnitudes, self.directions_per_shell)
        return self._grids[n]

    def _volume_at(self, problem, dv) -> float:
        sys_dv = problem.build_system(dv)
        cloud = sample_reach(sys_dv, self.spec, self.grid_for(sys_dv.n), nodes=self.nodes)
        axes = list(self.projection or range(sys_dv.n))
        pts = cloud.samples.endpoint[cloud.samples.reachable][:, axes]
        hull = convex_hull(pts, dim=len(axes)) if len(pts) else None
        if hull is None or hull.degenerate:
            self.degenerate_evaluations += 1
            logger.warning("degenerate reach-set hull at %r; volume treated as 0", dv)
            return 0.0
        return hull.volume

    def baseline_volume(self, problem) -> float:
        vol = problem.baseline_value(self, lambda: self._volume_at(problem, problem.baseline))
        if vol == 0.0:
            raise ValueError("baseline reach-set hull is empty or degenerate")
        return vol

    def residual(self, problem, dv) -> float:
        return self._volume_at(problem, dv) - self.factor * self.baseline_volume(problem)

    def scale(self, problem) -> float:
        return self.baseline_volume(problem)


class FunctionConstraint:
    """Plain callable residual, for synthetic and analytic problems."""

    def __init__(self, fn, name: str = "custom"):
        self._fn = fn
        self.name = name

    def residual(self, problem, dv) -> float:
        return float(self._fn(dv))

    def scale(self, problem) -> float:
        return 1.0


@dataclass
class DesignProblem:
    """Objective + box + reachability constraints over a model builder.

    model is a plain callable dv -> LtiSystem; whatever else it needs (a
    trim point, a derivative table) it closes over. Problems whose
    constraints never build a system may leave it None. Each constraint
    has residual(problem, dv), feasible when >= 0, and scale(problem), whose
    magnitude (floored at 1e-12) normalises the residual inside optimize.
    """

    objective: object
    box: dict
    baseline: DesignVariables
    constraints: tuple
    model: object = None
    # constraint -> its value at the baseline; held here so it dies with the problem
    _baselines: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        self.constraints = tuple(self.constraints)
        for name, (lo, hi) in self.box.items():
            val = self.baseline[name]
            if not lo <= val <= hi:
                raise ValueError(f"baseline {name}={val} outside box [{lo}, {hi}]")

    @property
    def names(self):
        return tuple(self.box.keys())

    def baseline_value(self, constraint, compute):
        """compute() on the first call for constraint, the stored value after."""
        if constraint not in self._baselines:
            self._baselines[constraint] = compute()
        return self._baselines[constraint]

    def build_system(self, dv) -> LtiSystem:
        return self.model(dv)


def surrogate_wing_problem(
    constraint,
    trim: TrimPoint | None = None,
    table: ScalableDerivativeTable | None = None,
    box_factors=(0.5, 1.5),
) -> DesignProblem:
    """Wing-sizing problem: minimize b + c_bar subject to a reachability
    constraint, with both variables boxed to fractions of the baseline.
    """
    trim = trim or default_trim_point()
    table = table or default_derivative_table()
    lo, hi = box_factors
    return DesignProblem(
        objective=lambda dv: dv["b"] + dv["c_bar"],
        box={
            "b": (lo * table.b_ref, hi * table.b_ref),
            "c_bar": (lo * table.c_bar_ref, hi * table.c_bar_ref),
        },
        baseline=DesignVariables({"b": table.b_ref, "c_bar": table.c_bar_ref}),
        constraints=(constraint,),
        model=lambda dv: longitudinal_model(dv, trim, table),
    )


@dataclass
class OptResult:
    """history holds (design, objective, residuals) for the start point, each
    iterate SLSQP reports, and the final point if it went unreported;
    iterations is len(history) - 1. An unconverged solve returns the best
    point of its history: the feasible one with the lowest objective, else
    the least infeasible one."""

    optimum: DesignVariables
    objective_value: float
    constraint_residuals: np.ndarray
    iterations: int
    history: list = field(default_factory=list)
    converged: bool = False


def central_difference(fn, x: np.ndarray, lb=-np.inf, ub=np.inf) -> np.ndarray:
    """Finite differences that never probe fn outside the box [lb, ub].

    The step is h = (x_i + FD_STEP * max(1, |x_i|)) - x_i, rounded so that
    x_i + h is exact. Where x_i - h and x_i + h both lie in the box this is
    the central rule. Otherwise it is the second-order one-sided rule
    (-3 f(x) + 4 f(x + sh) - f(x + 2sh)) / (2sh) on the side s with more
    room. A scalar fn gives its gradient, shape (len(x),); a fn returning
    k values gives its Jacobian, shape (k, len(x)).
    """
    x = np.asarray(x, dtype=float)
    lb, ub = np.broadcast_to(lb, x.shape), np.broadcast_to(ub, x.shape)
    columns = []
    for j in range(len(x)):
        e = np.zeros_like(x)
        h = e[j] = (x[j] + FD_STEP * max(1.0, abs(x[j]))) - x[j]
        if lb[j] <= x[j] - h and x[j] + h <= ub[j]:
            columns.append(np.subtract(fn(x + e), fn(x - e)) / (2.0 * h))
        else:
            if ub[j] - x[j] < x[j] - lb[j]:
                e, h = -e, -h
            columns.append((-3.0 * fn(x) + 4.0 * fn(x + e) - fn(x + 2.0 * e)) / (2.0 * h))
    return np.stack(columns, axis=-1)


def optimize(problem: DesignProblem, max_iters: int = MAX_ITERS) -> OptResult:
    """SLSQP solve of the constrained design problem.

    One scipy SLSQP call over the box, with the residuals divided by their
    constraint scales as one vector inequality, and finite differences
    inside the box (central_difference) for the objective gradient and the
    constraint Jacobian, so the model is only ever built inside the box.
    Converged means SLSQP reported success and no scaled residual is below
    -FEAS_TOL; an unconverged solve returns the best point it saw (see
    OptResult). Model-build failures (ValueError, ArithmeticError,
    LinAlgError) are logged and penalised; any other exception propagates.
    Deterministic: a rerun reproduces the iterate history exactly.
    """
    if max_iters < 0:
        raise ValueError(f"max_iters must be >= 0, got {max_iters}")
    names = problem.names
    lb, ub = np.array([problem.box[n] for n in names], dtype=float).T
    ncons = len(problem.constraints)
    scales = np.array([max(abs(c.scale(problem)), 1e-12) for c in problem.constraints])

    memo = {}

    def raw_eval(x):
        key = x.tobytes()
        if key not in memo:
            dv = DesignVariables.from_array(names, x)
            try:
                f = float(problem.objective(dv))
                g = np.array([c.residual(problem, dv) for c in problem.constraints])
            except (ValueError, ArithmeticError, np.linalg.LinAlgError) as exc:
                # the model failed to build or evaluate here: reject with a penalty
                logger.warning("evaluation failed at %r: %s", dv, exc)
                f = EVALUATION_PENALTY
                g = -EVALUATION_PENALTY * np.ones(ncons)
            memo[key] = (f, g)
        return memo[key]

    def objective(x):
        return raw_eval(x)[0]

    def scaled_residuals(x):
        return raw_eval(x)[1] / scales

    def record(x):
        f, g = raw_eval(x)
        history.append((DesignVariables.from_array(names, x), f, g.copy()))

    def rank(entry):  # feasible points compete on objective, infeasible ones on violation
        viol = float(-np.min(entry[2] / scales, initial=0.0))
        return (0, entry[1]) if viol <= FEAS_TOL else (1, viol)

    history = []
    x0 = problem.baseline.as_array(names)
    record(x0)
    constraints = [{"type": "ineq", "fun": scaled_residuals,
                    "jac": lambda x: central_difference(scaled_residuals, x, lb, ub)}]
    res = _scipy_minimize(
        objective, x0, jac=lambda x: central_difference(objective, x, lb, ub),
        method="SLSQP", bounds=list(zip(lb, ub)), constraints=constraints if ncons else [],
        callback=record, options={"maxiter": max_iters, "ftol": SLSQP_FTOL},
    )
    x = np.clip(res.x, lb, ub)
    if not np.array_equal(x, history[-1][0].as_array(names)):
        record(x)  # SLSQP's last iteration often gets no callback
    converged = bool(res.success) and rank(history[-1])[0] == 0
    optimum, f, g = history[-1] if converged else min(history, key=rank)
    return OptResult(
        optimum=optimum,
        objective_value=f,
        constraint_residuals=g,
        iterations=len(history) - 1,
        history=history,
        converged=converged,
    )
