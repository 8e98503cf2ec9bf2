"""Reachability-constrained design optimization.

Couples parametric model builders (design variables -> LTI system) with
reachability metrics (Gramian trace, Lp reach-set volume) as inequality
constraints, solved by one SLSQP call over the design box with central
finite-difference gradients. A solve has converged when SLSQP reports
success and no scaled residual is below -feas_tol. A point where the model
fails to build or evaluate (ValueError, ArithmeticError, LinAlgError) gets
a large penalty; any other exception propagates. Solves are deterministic.
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
    "OptimizeOptions",
    "OptResult",
    "GramianTraceConstraint",
    "LpVolumeConstraint",
    "EccentricityConstraint",
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


class DesignVariables:
    """Named design scalars; ordering is supplied by the problem's box."""

    def __init__(self, values: dict):
        self._values = {str(k): float(v) for k, v in values.items()}

    def __getitem__(self, name: str) -> float:
        return self._values[name]

    @property
    def b(self) -> float:
        return self._values["b"]

    @property
    def c_bar(self) -> float:
        return self._values["c_bar"]

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
    q0: float = 0.0  # rad/s
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
        q0: float = 0.0,
        gamma_deg: float = 0.0,
    ) -> "TrimPoint":
        """Build from degrees / knots / feet, converting to SI on ingestion."""
        return cls(
            alpha0=math.radians(alpha_deg),
            V0=airspeed_knots * KNOT,
            h0=altitude_feet * FOOT,
            q0=q0,
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


def longitudinal_model(dv, trim: TrimPoint, derivatives) -> LtiSystem:
    """Linear longitudinal flight model with states (v_T, alpha, q, theta)
    and inputs (throttle, elevator).

    derivatives may be a plain StabilityDerivatives table (used as-is) or
    a ScalableDerivativeTable, which is evaluated at the design's wingspan
    and chord first.
    """
    if isinstance(derivatives, ScalableDerivativeTable):
        d = derivatives.at(dv.b, dv.c_bar)
    else:
        d = derivatives
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


class Constraint:
    """Inequality constraint residual(problem, dv) >= 0 means feasible."""

    name = "constraint"

    def residual(self, problem, dv) -> float:
        raise NotImplementedError

    def scale(self, problem) -> float:
        """Positive magnitude used to normalize the residual internally."""
        return 1.0


class GramianTraceConstraint(Constraint):
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
        return max(abs(self.baseline_trace(problem)), 1e-12)


class LpVolumeConstraint(Constraint):
    """vol(reachable Lp endpoints at dv) >= factor * vol at baseline.

    The costate grid is frozen at construction (or on first use, from the
    problem's state dimension) and shared by every evaluation, so the
    volume varies smoothly with the design instead of jumping with the
    sampling. A degenerate or empty hull counts as volume zero, except at
    the baseline: no factor scales a zero volume, so there it is a ValueError.
    """

    name = "lp_volume"

    def __init__(
        self,
        spec: LpSpec,
        factor: float = 1.1,
        grid=None,
        magnitudes=(5.0, 20.0, 50.0, 100.0),
        directions_per_shell: int = 128,
        nodes: int = 501,
        projection=None,
    ):
        if factor <= 0:
            raise ValueError(f"factor must be positive, got {factor}")
        self.spec = spec
        self.factor = factor
        self.magnitudes = tuple(magnitudes)
        self.directions_per_shell = directions_per_shell
        self.nodes = nodes
        self.projection = None if projection is None else tuple(projection)
        self.degenerate_evaluations = 0
        self._grid = None if grid is None else np.atleast_2d(np.asarray(grid, dtype=float))

    def grid_for(self, n: int) -> np.ndarray:
        if self._grid is None:
            self._grid = costate_grid(n, self.magnitudes, self.directions_per_shell)
        return self._grid

    def _volume_at(self, problem, dv) -> float:
        sys_dv = problem.build_system(dv)
        cloud = sample_reach(sys_dv, self.spec, self.grid_for(sys_dv.n), nodes=self.nodes)
        if self.projection is not None:
            pts = cloud.samples.endpoint[cloud.samples.reachable][:, list(self.projection)]
            hull = convex_hull(pts, dim=len(self.projection)) if len(pts) else None
        else:
            hull = cloud.hull
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
        return max(abs(self.baseline_volume(problem)), 1e-12)


class EccentricityConstraint(Constraint):
    """Cap on the Gramian eigenvalue spread lambda_max / lambda_min.

    Optional hook for keeping reach sets from becoming lopsided; not part
    of the default constraint set.
    """

    name = "eccentricity"

    def __init__(self, max_ratio: float, horizon: float = 1.0):
        if max_ratio < 1.0:
            raise ValueError("max_ratio must be >= 1")
        self.max_ratio = max_ratio
        self.horizon = horizon

    def residual(self, problem, dv) -> float:
        g = reachability_gramian(problem.build_system(dv), self.horizon)
        lam_max = float(g.eigenvalues[0])
        lam_min = float(g.eigenvalues[-1])
        floor = 1e-300 if lam_max <= 0 else 1e-15 * lam_max
        return self.max_ratio - lam_max / max(lam_min, floor)

    def scale(self, problem) -> float:
        return max(self.max_ratio, 1.0)


class FunctionConstraint(Constraint):
    """Plain callable residual, for synthetic and analytic problems."""

    def __init__(self, fn, name: str = "custom", scale: float = 1.0):
        self._fn = fn
        self.name = name
        self._scale = scale

    def residual(self, problem, dv) -> float:
        return float(self._fn(dv))

    def scale(self, problem) -> float:
        return self._scale


@dataclass
class DesignProblem:
    """Objective + box + reachability constraints over a model builder."""

    objective: object
    box: dict
    baseline: DesignVariables
    constraints: tuple
    model: object = None
    trim: TrimPoint | None = None
    # constraint -> its value at the baseline; held here so it dies with the problem
    _baselines: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        self.constraints = tuple(self.constraints)
        for name, (lo, hi) in self.box.items():
            val = self.baseline[name]
            if not lo <= val <= hi:
                raise ValueError(
                    f"baseline {name}={val} outside box [{lo}, {hi}]"
                )

    @property
    def names(self):
        return tuple(self.box.keys())

    def baseline_value(self, constraint, compute):
        """compute() on the first call for constraint, the stored value after."""
        if constraint not in self._baselines:
            self._baselines[constraint] = compute()
        return self._baselines[constraint]

    def build_system(self, dv) -> LtiSystem:
        if self.model is None:
            raise ValueError("problem has no model builder")
        return self.model(dv, self.trim)


def surrogate_wing_problem(
    constraint: Constraint,
    trim: TrimPoint | None = None,
    table: ScalableDerivativeTable | None = None,
    box_factors=(0.5, 1.5),
) -> DesignProblem:
    """Wing-sizing problem: minimize b + c_bar subject to a reachability
    constraint, with both variables boxed to fractions of the baseline.
    """
    trim = trim or default_trim_point()
    table = table or default_derivative_table()
    baseline = DesignVariables({"b": table.b_ref, "c_bar": table.c_bar_ref})
    lo, hi = box_factors

    def model(dv, trim_point):
        return longitudinal_model(dv, trim_point, table)

    return DesignProblem(
        objective=lambda dv: dv.b + dv.c_bar,
        box={
            "b": (lo * table.b_ref, hi * table.b_ref),
            "c_bar": (lo * table.c_bar_ref, hi * table.c_bar_ref),
        },
        baseline=baseline,
        constraints=(constraint,),
        model=model,
        trim=trim,
    )


@dataclass
class OptimizeOptions:
    max_iters: int = 200
    feas_tol: float = 1e-6
    fd_step: float = 1e-6

    def __post_init__(self):
        if self.max_iters < 0:
            raise ValueError("max_iters must be >= 0")
        if not (self.feas_tol >= 0 and self.fd_step > 0):
            raise ValueError("need feas_tol >= 0 and fd_step > 0")


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


def central_difference(fn, x: np.ndarray, step: float = 1e-6) -> np.ndarray:
    """Central finite differences with step = step * max(1, |x_i|).

    A scalar fn gives its gradient, shape (len(x),); a fn returning k
    values gives its Jacobian, shape (k, len(x)).
    """
    x = np.asarray(x, dtype=float)
    columns = []
    for j in range(len(x)):
        h = step * max(1.0, abs(x[j]))
        xp = x.copy()
        xm = x.copy()
        xp[j] += h
        xm[j] -= h
        columns.append(np.subtract(fn(xp), fn(xm)) / (2.0 * h))
    return np.stack(columns, axis=-1)


def optimize(problem: DesignProblem, options: OptimizeOptions | None = None) -> OptResult:
    """SLSQP solve of the constrained design problem.

    One scipy SLSQP call over the box, with the residuals divided by their
    constraint scales as one vector inequality, and central finite
    differences for the objective gradient and the constraint Jacobian.
    Converged means SLSQP reported success and no scaled residual is below
    -feas_tol; an unconverged solve returns the best point it saw (see
    OptResult). Model-build failures (ValueError, ArithmeticError,
    LinAlgError) are logged and penalised; any other exception propagates.
    Deterministic: a rerun reproduces the iterate history exactly.
    """
    opts = options or OptimizeOptions()
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
        return (0, entry[1]) if viol <= opts.feas_tol else (1, viol)

    history = []
    x0 = np.clip(problem.baseline.as_array(names), lb, ub)
    record(x0)
    constraints = [{"type": "ineq", "fun": scaled_residuals,
                    "jac": lambda x: central_difference(scaled_residuals, x, opts.fd_step)}]
    res = _scipy_minimize(
        objective, x0, jac=lambda x: central_difference(objective, x, opts.fd_step),
        method="SLSQP", bounds=list(zip(lb, ub)), constraints=constraints if ncons else [],
        callback=record, options={"maxiter": opts.max_iters, "ftol": SLSQP_FTOL},
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
