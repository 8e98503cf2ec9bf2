"""Reachability-constrained design optimization.

Couples parametric model builders (design variables -> LTI system) with
reachability metrics (Gramian trace, Lp reach-set volume) as inequality
constraints, solved by an augmented-Lagrangian method with quasi-Newton
inner solves and central finite-difference gradients.
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
    sampling. A degenerate or empty hull counts as volume zero.
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
        return problem.baseline_value(self, lambda: self._volume_at(problem, problem.baseline))

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
    kkt_tol: float = 1e-6
    feas_tol: float = 1e-6
    progress_tol: float = 1e-10
    stall_iters: int = 3
    fd_step: float = 1e-6
    inner_maxiter: int = 200
    mu0: float = 10.0
    mu_growth: float = 10.0
    mu_max: float = 1e10

    def __post_init__(self):
        if min(self.max_iters, self.stall_iters, self.inner_maxiter) < 0:
            raise ValueError("iteration counts must be >= 0")
        if not (self.fd_step > 0 and self.mu0 > 0 and 1 <= self.mu_growth
                and self.mu0 <= self.mu_max):
            raise ValueError("need fd_step > 0, mu0 > 0, mu_growth >= 1 and mu_max >= mu0")


@dataclass
class OptResult:
    optimum: DesignVariables
    objective_value: float
    constraint_residuals: np.ndarray
    iterations: int
    history: list = field(default_factory=list)
    converged: bool = False


def central_difference(fn, x: np.ndarray, step: float = 1e-6) -> np.ndarray:
    """Central finite-difference gradient with step = step * max(1, |x_i|)."""
    x = np.asarray(x, dtype=float)
    grad = np.empty_like(x)
    for j in range(len(x)):
        h = step * max(1.0, abs(x[j]))
        xp = x.copy()
        xm = x.copy()
        xp[j] += h
        xm[j] -= h
        grad[j] = (fn(xp) - fn(xm)) / (2.0 * h)
    return grad


def _projected_grad_norm(grad, x, lb, ub):
    pg = grad.copy()
    at_lb = x <= lb + 1e-12 * np.maximum(1.0, np.abs(lb))
    at_ub = x >= ub - 1e-12 * np.maximum(1.0, np.abs(ub))
    pg[at_lb] = np.minimum(pg[at_lb], 0.0)
    pg[at_ub] = np.maximum(pg[at_ub], 0.0)
    return float(np.max(np.abs(pg))) if len(pg) else 0.0


def optimize(problem: DesignProblem, options: OptimizeOptions | None = None) -> OptResult:
    """Augmented-Lagrangian solve of the constrained design problem.

    Inequalities are normalized by their constraint scales and folded into
    an augmented Lagrangian minimized over the box with L-BFGS-B; central
    finite differences supply every gradient. Stops when the constraint
    violation is within feas_tol and either the projected KKT residual is
    within kkt_tol or the objective has stalled for stall_iters outer
    iterations. Model-build failures at a point (ValueError,
    ArithmeticError, LinAlgError) are logged and replaced by a large
    penalty; any other exception propagates. Fully deterministic:
    rerunning reproduces the iterate history exactly.
    """
    opts = options or OptimizeOptions()
    names = problem.names
    lb = np.array([problem.box[n][0] for n in names])
    ub = np.array([problem.box[n][1] for n in names])
    ncons = len(problem.constraints)
    scales = np.array(
        [max(abs(c.scale(problem)), 1e-12) for c in problem.constraints]
    ) if ncons else np.zeros(0)

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
            if len(memo) > 50000:
                memo.clear()
            memo[key] = (f, g)
        return memo[key]

    def normalized(x):
        f, g = raw_eval(x)
        return f, (g / scales if ncons else g)

    lam = np.zeros(ncons)
    mu = opts.mu0

    def merit(x):
        f, gn = normalized(x)
        if ncons == 0:
            return f
        shifted = np.maximum(0.0, lam / mu - gn)
        return f + float(np.sum(0.5 * mu * shifted**2 - lam**2 / (2.0 * mu)))

    def merit_grad(x):
        return central_difference(merit, x, opts.fd_step)

    def rank_key(feasible, viol, f):
        # feasible points compete on objective, infeasible ones on violation
        return (0, f) if feasible else (1, viol)

    def consider(feasible, viol, f, x, g_raw):
        nonlocal best
        cand = rank_key(feasible, viol, f)
        if best is None or cand < rank_key(best[0], best[1], best[2]):
            best = (feasible, viol, f, x.copy(), g_raw.copy())

    x = np.clip(problem.baseline.as_array(names), lb, ub)
    history = []
    best = None  # (feasible, viol, f, x, g_raw)
    f0, g0_raw = raw_eval(x)
    gn0 = g0_raw / scales if ncons else g0_raw
    viol0 = float(max(0.0, -np.min(gn0))) if ncons else 0.0
    history.append((DesignVariables.from_array(names, x), f0, g0_raw.copy()))
    consider(viol0 <= opts.feas_tol, viol0, f0, x, g0_raw)
    prev_viol = np.inf
    f_prev = None
    stall = 0
    converged = False
    iterations = 0

    for _ in range(opts.max_iters):
        iterations += 1
        res = _scipy_minimize(
            merit,
            x,
            jac=merit_grad,
            method="L-BFGS-B",
            bounds=list(zip(lb, ub)),
            options={"maxiter": opts.inner_maxiter, "ftol": 1e-14, "gtol": 1e-10},
        )
        x = np.clip(res.x, lb, ub)
        f, g_raw = raw_eval(x)
        gn = g_raw / scales if ncons else g_raw
        viol = float(max(0.0, -np.min(gn))) if ncons else 0.0
        history.append((DesignVariables.from_array(names, x), f, g_raw.copy()))

        feasible = viol <= opts.feas_tol
        consider(feasible, viol, f, x, g_raw)

        # multiplier update before measuring stationarity
        if ncons:
            lam = np.maximum(0.0, lam - mu * gn)

        def lagrangian(y):
            fy, gy = normalized(y)
            return fy - float(lam @ gy) if ncons else fy

        stationarity = _projected_grad_norm(
            central_difference(lagrangian, x, opts.fd_step), x, lb, ub
        )
        # stationarity alone is ~0 by the multiplier-update identity, so the
        # KKT residual must also carry complementarity and feasibility
        complementarity = float(np.max(np.abs(lam * gn))) if ncons else 0.0
        kkt = max(stationarity, complementarity, viol)

        if f_prev is not None and abs(f_prev - f) <= opts.progress_tol:
            stall += 1
        else:
            stall = 0
        f_prev = f

        if kkt <= opts.kkt_tol or (feasible and stall >= opts.stall_iters):
            converged = True
            break

        if ncons and viol > 0.25 * prev_viol:
            mu = min(mu * opts.mu_growth, opts.mu_max)
        prev_viol = viol if viol > 0 else prev_viol

    # the best feasible point seen, which is normally the converged iterate
    # but may be an earlier one (e.g. an exactly-feasible baseline)
    _, _, f_fin, x_fin, g_fin = best
    return OptResult(
        optimum=DesignVariables.from_array(names, x_fin),
        objective_value=float(f_fin),
        constraint_residuals=np.asarray(g_fin, dtype=float),
        iterations=iterations,
        history=history,
        converged=converged,
    )
