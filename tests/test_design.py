from dataclasses import fields

import numpy as np
import pytest

import reachkit.design
import reachkit.lpreach
from reachkit import (LpSpec, LtiSystem, costate_grid, gramian_trace, reachability_gramian,
                      sample_reach)
from reachkit.design import (
    BASELINE_CHORD,
    BASELINE_DERIVATIVES,
    BASELINE_WINGSPAN,
    DesignProblem,
    DesignVariables,
    FunctionConstraint,
    GramianTraceConstraint,
    LpVolumeConstraint,
    ScalableDerivativeTable,
    StabilityDerivatives,
    TrimPoint,
    central_difference,
    default_derivative_table,
    default_trim_point,
    longitudinal_model,
    optimize,
    surrogate_wing_problem,
)
from reachkit.errors import UnsupportedDimensionError
from reachkit.geometry import convex_hull

DEMO_A = np.array([[0.4, -0.3], [0.5, 1.7]])


def zero_derivatives():
    return StabilityDerivatives(**{f: 0.0 for f in (
        "X_V", "X_alpha", "Z_V", "Z_alpha", "Z_q", "M_V", "M_alpha", "M_q",
        "X_delta_th", "X_delta_e", "Z_delta_e", "M_delta_th", "M_delta_e")})


def analytic_problem(baseline=(1.5, 1.5)):
    return DesignProblem(
        objective=lambda dv: dv["x1"] + dv["x2"],
        box={"x1": (0.0, 2.0), "x2": (0.0, 2.0)},
        baseline=DesignVariables({"x1": baseline[0], "x2": baseline[1]}),
        constraints=(
            FunctionConstraint(lambda dv: dv["x1"] * dv["x2"] - 1.0, name="hyperbola"),
        ),
    )


def scaled_input_problem(constraint, theta=1.0, box=(0.25, 4.0)):
    def model(dv):
        return LtiSystem(DEMO_A, np.array([[1.0], [0.0]]) * dv["theta"])

    return DesignProblem(
        objective=lambda dv: dv["theta"],
        box={"theta": box},
        baseline=DesignVariables({"theta": theta}),
        constraints=(constraint,),
        model=model,
    )


class TestTrimPoint:
    def test_flight_unit_conversion(self):
        trim = TrimPoint.from_flight_units(12.0, 150.0, 5000.0)
        assert abs(trim.V0 - 77.17) <= 0.01
        assert abs(trim.h0 - 1524.0) <= 1e-9
        assert abs(trim.alpha0 - np.radians(12.0)) <= 1e-12

    def test_gamma_is_keyword_only(self):
        # gamma_deg is keyword-only, so a stray fourth positional argument cannot land in it
        with pytest.raises(TypeError):
            TrimPoint.from_flight_units(12.0, 150.0, 5000.0, 0.3)
        trim = TrimPoint.from_flight_units(12.0, 150.0, 5000.0, gamma_deg=3.0)
        assert trim.gamma0 == np.radians(3.0)

    def test_invariants(self):
        with pytest.raises(ValueError):
            TrimPoint(alpha0=0.1, V0=0.0, h0=0.0)
        with pytest.raises(ValueError):
            TrimPoint(alpha0=2.0, V0=50.0, h0=0.0)

    @pytest.mark.parametrize("value", [np.nan, np.inf], ids=["nan", "inf"])
    @pytest.mark.parametrize("field", ["alpha0", "V0", "h0", "gamma0", "g"])
    def test_non_finite_values_rejected(self, field, value):
        # V0 = inf used to build a finite model with every /V0 term zero, and
        # a nan angle failed only later, inside LtiSystem
        values = {"alpha0": 0.1, "V0": 60.0, "h0": 0.0, field: value}
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            TrimPoint(**values)


class TestLongitudinalModel:
    def test_zero_derivative_structure(self):
        trim = TrimPoint(alpha0=0.0, V0=70.0, h0=0.0, gamma0=0.0)
        dv = DesignVariables({"b": 1.0, "c_bar": 1.0})
        table = ScalableDerivativeTable(base=zero_derivatives(), b_ref=1.0, c_bar_ref=1.0)
        sys = longitudinal_model(dv, trim, table)
        expected_A = np.zeros((4, 4))
        expected_A[0, 3] = -trim.g
        expected_A[1, 2] = 1.0  # 1 + Z_q / V0 with Z_q = 0
        expected_A[3, 2] = 1.0
        assert np.allclose(sys.A, expected_A, atol=1e-14)
        assert np.allclose(sys.B, 0.0, atol=1e-15)

    def test_level_flight_kills_sine_term(self):
        trim = TrimPoint(alpha0=0.2, V0=70.0, h0=0.0, gamma0=0.0)
        dv = DesignVariables({"b": 1.0, "c_bar": 1.0})
        table = default_derivative_table()
        sys = longitudinal_model(dv, trim, table)
        assert sys.A[1, 3] == 0.0
        assert np.isclose(sys.A[0, 3], -trim.g)

    def test_baseline_short_period_stable(self):
        dv = DesignVariables({"b": BASELINE_WINGSPAN, "c_bar": BASELINE_CHORD})
        sys = longitudinal_model(dv, default_trim_point(), default_derivative_table())
        eig = np.linalg.eigvals(sys.A)
        fast = eig[np.argsort(-np.abs(eig))][:2]
        assert np.all(np.real(fast) < 0.0)
        assert np.all(np.abs(np.imag(fast)) > 0.0)

    def test_surrogate_scaling_monotone(self):
        table = default_derivative_table()
        base = table.at(BASELINE_WINGSPAN, BASELINE_CHORD)
        grown = table.at(1.2 * BASELINE_WINGSPAN, BASELINE_CHORD)
        assert abs(grown.Z_alpha) > abs(base.Z_alpha)
        assert abs(grown.M_alpha) > abs(base.M_alpha)
        # chord growth compounds on moments
        chord = table.at(BASELINE_WINGSPAN, 1.2 * BASELINE_CHORD)
        assert abs(chord.M_alpha / base.M_alpha) > abs(chord.Z_alpha / base.Z_alpha)


NON_FINITE_OR_NON_POSITIVE = [np.nan, np.inf, -np.inf, 0.0, -1.0]


class TestGramianTraceConstraint:
    @pytest.mark.parametrize("value", NON_FINITE_OR_NON_POSITIVE)
    def test_factor_and_horizon_must_be_positive_and_finite(self, value):
        # a nan factor used to give a nan residual and an unconverged solve
        with pytest.raises(ValueError, match="factor must be positive and finite"):
            GramianTraceConstraint(factor=value)
        with pytest.raises(ValueError, match="horizon must be positive and finite"):
            GramianTraceConstraint(horizon=value)

    def test_baseline_residual_zero_at_factor_one(self):
        constraint = GramianTraceConstraint(factor=1.0)
        problem = scaled_input_problem(constraint)
        assert abs(constraint.residual(problem, problem.baseline)) <= 1e-12

    def test_baseline_residual_at_paper_factor(self):
        constraint = GramianTraceConstraint(factor=1.1)
        problem = scaled_input_problem(constraint)
        base_trace = constraint.baseline_trace(problem)
        residual = constraint.residual(problem, problem.baseline)
        assert np.isclose(residual, -0.1 * base_trace, rtol=1e-12)

    def test_baseline_belongs_to_its_problem(self):
        # each problem is dropped before the next one is made, so the second
        # usually gets the first one's id; the baseline must still be its own
        def model(dv):
            return LtiSystem(DEMO_A, [[dv["theta"]], [0.0]])

        constraint = GramianTraceConstraint(factor=1.0)
        baselines = [DesignVariables({"theta": theta}) for theta in (1.0, 2.0)]
        box = {"theta": (0.5, 4.0)}
        for baseline in baselines:
            problem = DesignProblem(objective=sum, box=box, baseline=baseline,
                                    constraints=(constraint,), model=model)
            expected = gramian_trace(reachability_gramian(model(baseline), 1.0))
            assert constraint.baseline_trace(problem) == expected
            del problem

    def test_residual_increasing_in_input_scale(self):
        # closed form for A = diag(-1, -2), B = [theta, theta]:
        # trace = theta^2 * ((1 - e^-2)/2 + (1 - e^-4)/4)
        def model(dv):
            return LtiSystem(np.diag([-1.0, -2.0]), [[dv["theta"]], [dv["theta"]]])

        constraint = GramianTraceConstraint(factor=1.0)
        problem = DesignProblem(
            objective=lambda dv: dv["theta"],
            box={"theta": (0.1, 4.0)},
            baseline=DesignVariables({"theta": 1.0}),
            constraints=(constraint,),
            model=model,
        )
        coeff = (1 - np.exp(-2.0)) / 2 + (1 - np.exp(-4.0)) / 4
        residuals = []
        for theta in (0.5, 1.0, 1.5, 2.0):
            dv = DesignVariables({"theta": theta})
            r = constraint.residual(problem, dv)
            assert np.isclose(r, coeff * (theta**2 - 1.0), rtol=1e-10)
            residuals.append(r)
        assert np.all(np.diff(residuals) > 0)


class TestLpVolumeConstraint:
    def make_constraint(self, factor=1.0):
        return LpVolumeConstraint(
            LpSpec(p=6, T=1.0),
            factor=factor,
            magnitudes=np.geomspace(0.5, 40.0, 10),
            directions_per_shell=48,
            nodes=301,
        )

    @pytest.mark.parametrize("factor", NON_FINITE_OR_NON_POSITIVE)
    def test_factor_must_be_positive_and_finite(self, factor):
        with pytest.raises(ValueError, match="factor must be positive and finite"):
            LpVolumeConstraint(LpSpec(6, 1.0), factor=factor)

    @pytest.mark.parametrize("n", [1, 5])
    def test_volume_needs_2_to_4_states(self, n):
        constraint = LpVolumeConstraint(LpSpec(6, 1.0))
        with pytest.raises(UnsupportedDimensionError, match="2 to 4 states, got n="):
            constraint.grid_for(n)
        problem = DesignProblem(
            objective=lambda dv: dv["theta"], box={"theta": (0.5, 2.0)},
            baseline=DesignVariables({"theta": 1.0}), constraints=(constraint,),
            model=lambda dv: LtiSystem(-np.eye(n), dv["theta"] * np.ones((n, 1))),
        )
        with pytest.raises(UnsupportedDimensionError):
            optimize(problem)

    def test_baseline_residual_zero_at_factor_one(self):
        constraint = self.make_constraint(1.0)
        problem = scaled_input_problem(constraint)
        assert abs(constraint.residual(problem, problem.baseline)) <= 1e-12

    def test_scaling_b_increases_residual(self):
        constraint = self.make_constraint(1.0)
        problem = scaled_input_problem(constraint)
        v_base = constraint.baseline_volume(problem)
        dv = DesignVariables({"theta": 1.3})
        residual = constraint.residual(problem, dv)
        assert residual > 0.0
        # reachable-set volume grows like theta^n for the sampled hull
        assert abs((residual + v_base) / v_base - 1.3**2) <= 0.05 * 1.3**2

    def test_scalar_magnitude_is_one_shell(self):
        # a config's grid.magnitudes may be one number, as costate_grid accepts
        constraint = LpVolumeConstraint(LpSpec(p=6, T=1.0), magnitudes=0.05,
                                        directions_per_shell=8)
        assert np.array_equal(constraint.grid_for(2), costate_grid(2, [0.05], 8))

    def test_grid_built_per_state_dimension(self):
        def make():
            return LpVolumeConstraint(LpSpec(p=6, T=1.0), magnitudes=[0.01, 0.02, 0.05, 0.1],
                                      directions_per_shell=8, nodes=301)

        fresh = make()
        want = fresh.baseline_volume(scaled_input_problem(fresh))
        reused = make()
        assert reused.baseline_volume(surrogate_wing_problem(reused)) > 0.0  # n = 4 first
        assert reused.baseline_volume(scaled_input_problem(reused)) == want  # then n = 2
        assert reused.grid_for(4).shape[1] == 4 and reused.grid_for(2).shape[1] == 2
        assert reused.grid_for(4) is reused.grid_for(4)  # built once, not per call

    def test_volume_is_the_cloud_hull_built_once(self, monkeypatch):
        constraint = LpVolumeConstraint(LpSpec(p=6, T=1.0), magnitudes=[0.01, 0.02, 0.05, 0.1],
                                        directions_per_shell=8, nodes=301)
        problem = surrogate_wing_problem(constraint)
        clouds, hulls = [], []

        def sampled(*args, **kwargs):
            clouds.append(sample_reach(*args, **kwargs))
            return clouds[-1]

        def counted(*args, **kwargs):
            hulls.append(convex_hull(*args, **kwargs))
            return hulls[-1]

        monkeypatch.setattr(reachkit.design, "sample_reach", sampled)
        monkeypatch.setattr(reachkit.lpreach, "convex_hull", counted)
        volume = constraint._volume_at(problem, problem.baseline)
        assert len(clouds) == 1 and len(hulls) == 1
        assert clouds[0].hull is hulls[0]
        assert volume == hulls[0].volume > 0.0
        # the cloud's hull is the only one: design builds none of its own
        assert "convex_hull" not in vars(reachkit.design)

    def test_continuity_under_small_perturbations(self):
        # two design variables scale the two input-matrix rows independently
        def model(dv):
            return LtiSystem(DEMO_A, [[dv["u1"]], [0.3 * dv["u2"]]])

        constraint = self.make_constraint(1.0)
        problem = DesignProblem(
            objective=lambda dv: dv["u1"] + dv["u2"],
            box={"u1": (0.25, 4.0), "u2": (0.25, 4.0)},
            baseline=DesignVariables({"u1": 1.0, "u2": 1.0}),
            constraints=(constraint,),
            model=model,
        )
        base_point = DesignVariables({"u1": 1.1, "u2": 0.9})
        base = constraint.residual(problem, base_point)
        for du1, du2 in ((1e-3, 0.0), (0.0, 1e-3), (-1e-3, 1e-3)):
            shifted = constraint.residual(
                problem, DesignVariables({"u1": 1.1 + du1, "u2": 0.9 + du2})
            )
            assert abs(shifted - base) <= 2e-2 * max(abs(base), 1e-3) + 5e-3


class TestOptimize:
    def test_analytic_kkt_point(self):
        result = optimize(analytic_problem())
        assert result.converged
        assert abs(result.optimum["x1"] - 1.0) <= 1e-5
        assert abs(result.optimum["x2"] - 1.0) <= 1e-5
        assert abs(result.objective_value - 2.0) <= 2e-5
        assert result.constraint_residuals[0] >= -1e-6

    def test_feasible_baseline_factor_one(self):
        problem = scaled_input_problem(GramianTraceConstraint(factor=1.0))
        result = optimize(problem)
        assert result.converged
        assert result.objective_value <= problem.objective(problem.baseline) + 1e-9

    def test_trace_surrogate_constraint_active(self):
        constraint = GramianTraceConstraint(factor=1.1, horizon=1.0)
        problem = surrogate_wing_problem(constraint)
        result = optimize(problem)
        base_trace = constraint.baseline_trace(problem)
        assert result.converged
        residual = result.constraint_residuals[0]
        assert -1e-6 * base_trace <= residual <= 1e-4 * base_trace

    def test_volume_constraint_active(self):
        constraint = LpVolumeConstraint(
            LpSpec(p=6, T=1.0),
            factor=1.1,
            magnitudes=np.geomspace(0.5, 40.0, 10),
            directions_per_shell=48,
            nodes=301,
        )
        problem = scaled_input_problem(constraint)
        result = optimize(problem)
        v_base = constraint.baseline_volume(problem)
        assert result.converged
        assert -1e-6 * v_base <= result.constraint_residuals[0] <= 1e-4 * v_base

    def test_history_within_box(self):
        problem = analytic_problem()
        result = optimize(problem)
        for dv, _, _ in result.history:
            for name, (lo, hi) in problem.box.items():
                assert lo - 1e-12 <= dv[name] <= hi + 1e-12

    def test_deterministic_history(self):
        a = optimize(analytic_problem())
        b = optimize(analytic_problem())
        assert len(a.history) == len(b.history)
        for (dva, fa, ra), (dvb, fb, rb) in zip(a.history, b.history):
            assert dva.as_dict() == dvb.as_dict()
            assert fa == fb
            assert np.array_equal(ra, rb)

    @pytest.mark.parametrize("theta", [1.0, 2.0])
    def test_model_never_built_below_its_box(self, theta):
        # the model is undefined below theta = 1, where the optimum sits; a
        # penalised probe at 1 - h would stop the solve short of the bound
        seen = []

        def model(dv):
            seen.append(dv["theta"])
            if dv["theta"] < 1.0:
                raise ValueError("undefined below the box")
            return LtiSystem(DEMO_A, np.array([[1.0], [0.0]]) * dv["theta"])

        problem = scaled_input_problem(GramianTraceConstraint(factor=0.2), theta, (1.0, 4.0))
        problem.model = model
        result = optimize(problem)
        assert min(seen) >= 1.0
        assert result.converged
        assert abs(result.optimum["theta"] - 1.0) <= 1e-12

    def test_wing_trace_solve_builds_inside_the_box(self):
        problem = surrogate_wing_problem(GramianTraceConstraint(factor=1.1))
        wing = problem.model
        seen = []

        def model(dv):
            seen.append(dv.as_dict())
            return wing(dv)

        problem.model = model
        result = optimize(problem)
        assert result.converged
        # the chord ends on its upper bound, so the differences probe it
        top = problem.box["c_bar"][1]
        assert abs(result.optimum["c_bar"] - top) <= 1e-12 * top
        for dv in seen:
            for name, (lo, hi) in problem.box.items():
                assert lo <= dv[name] <= hi

    def test_model_failure_penalized_not_fatal(self, caplog):
        def fragile_model(dv):
            if dv["theta"] > 1.4:
                raise ValueError("model blew up")
            return LtiSystem(DEMO_A, np.array([[1.0], [0.0]]) * dv["theta"])

        problem = DesignProblem(
            objective=lambda dv: dv["theta"],
            box={"theta": (0.25, 4.0)},
            baseline=DesignVariables({"theta": 1.0}),
            constraints=(GramianTraceConstraint(factor=1.0),),
            model=fragile_model,
        )
        result = optimize(problem, max_iters=20)
        assert result.optimum["theta"] <= 1.4
        assert np.isfinite(result.objective_value)

    def test_coding_error_propagates(self):
        # only model-build failures earn the penalty; a TypeError is a bug
        def broken(dv):
            return dv["x1"] + "1"

        problem = DesignProblem(
            objective=lambda dv: dv["x1"],
            box={"x1": (0.0, 1.0)},
            baseline=DesignVariables({"x1": 0.5}),
            constraints=(FunctionConstraint(broken, name="broken"),),
        )
        with pytest.raises(TypeError):
            optimize(problem, max_iters=2)

    def test_options_domain(self):
        with pytest.raises(ValueError, match="max_iters"):
            optimize(analytic_problem(), max_iters=-1)

    def test_infeasible_box_returns_best_found(self):
        # constraint unreachable inside the box
        problem = DesignProblem(
            objective=lambda dv: dv["x1"],
            box={"x1": (0.0, 1.0)},
            baseline=DesignVariables({"x1": 0.5}),
            constraints=(FunctionConstraint(lambda dv: dv["x1"] - 5.0, name="impossible"),),
        )
        result = optimize(problem, max_iters=8)
        assert not result.converged
        assert 0.0 <= result.optimum["x1"] <= 1.0
        # with no feasible point in the box, the least infeasible one seen wins
        assert result.constraint_residuals[0] == max(r[0] for _, _, r in result.history)

    def test_unconverged_solve_returns_best_point_seen(self):
        # SLSQP's first step from x1 = 0.5 overshoots the unit disc; stopped
        # there, the feasible start point beats the infeasible last iterate
        problem = DesignProblem(
            objective=lambda dv: -dv["x1"],
            box={"x1": (0.0, 3.0)},
            baseline=DesignVariables({"x1": 0.5}),
            constraints=(FunctionConstraint(lambda dv: 1.0 - dv["x1"] ** 2, name="disc"),),
        )
        result = optimize(problem, max_iters=1)
        assert not result.converged
        assert result.history[-1][2][0] < 0.0
        assert result.optimum["x1"] == 0.5
        assert result.constraint_residuals[0] == 0.75


class TestHardVolumeSolve:
    def test_scaled_table_volume_solve_converges_in_few_sweeps(self, monkeypatch):
        # a seeded wing problem with a 6-norm reach-volume constraint over a
        # coarse costate grid; the volume is piecewise smooth in the design,
        # and an augmented-Lagrangian loop spent 16486 sweeps on it without
        # converging. The draws follow the order trim, 13 scales, factor.
        rng = np.random.default_rng([1, 20, 5])
        rng.random(3)  # the trim point, which this variant leaves at its default
        scales = rng.uniform(0.9, 1.1, 13)
        factor = float(rng.uniform(1.05, 1.2))
        base = BASELINE_DERIVATIVES
        table = ScalableDerivativeTable(
            base=StabilityDerivatives(**{f.name: getattr(base, f.name) * s
                                         for f, s in zip(fields(base), scales)}),
            b_ref=BASELINE_WINGSPAN, c_bar_ref=BASELINE_CHORD,
        )
        constraint = LpVolumeConstraint(LpSpec(6, 1.0), factor=factor,
                                        magnitudes=[0.01, 0.02, 0.05, 0.1],
                                        directions_per_shell=4, nodes=501)
        problem = surrogate_wing_problem(constraint, table=table)
        sweeps = []
        sample_reach = reachkit.design.sample_reach

        def counted(*args, **kwargs):
            sweeps.append(1)
            return sample_reach(*args, **kwargs)

        monkeypatch.setattr(reachkit.design, "sample_reach", counted)
        result = optimize(problem)
        assert result.converged
        assert result.constraint_residuals[0] >= -1e-6 * constraint.baseline_volume(problem)
        assert len(sweeps) <= 200


class TestFiniteDifferenceGradient:
    def test_one_sided_at_the_bounds(self):
        def fn(x):
            probes.append(x.copy())
            return np.array([x[0] ** 3 + np.sin(x[1]), x[0] * np.exp(x[1])])

        def exact(x):
            return np.array([[3 * x[0] ** 2, np.cos(x[1])],
                             [np.exp(x[1]), x[0] * np.exp(x[1])]])

        lb, ub = np.array([0.5, -2.0]), np.array([1.5, 0.3])
        for x in ([0.5, 0.3], [1.5, -2.0], [0.5 + 1e-7, 0.3 - 1e-7]):
            probes = []
            x = np.array(x)
            jac = central_difference(fn, x, lb=lb, ub=ub)
            assert np.max(np.abs(jac - exact(x))) <= 1e-8 * np.max(np.abs(exact(x)))
            assert all(np.all((lb <= p) & (p <= ub)) for p in probes)

    @pytest.mark.parametrize("width", [0.0, 1e-7, 1.0])
    def test_probes_stay_in_boxes_narrower_than_two_steps(self, width):
        def fn(x):
            probes.append(x.copy())
            return np.array([x[0] ** 3 + np.sin(x[1]), x[0] * np.exp(x[1])])

        lb, ub = np.array([0.5, -2.0]), np.array([0.5 + width, 0.3])
        for x in ([lb[0], 0.3], [ub[0], -2.0], [0.5 * (lb[0] + ub[0]), 0.1]):
            probes = []
            x = np.array(x)
            jac = central_difference(fn, x, lb=lb, ub=ub)
            assert all(np.all((lb <= p) & (p <= ub)) for p in probes)
            want = 0.0 if width == 0.0 else 3 * x[0] ** 2
            assert jac[0, 0] == pytest.approx(want, rel=1e-5)
            assert jac[1, 1] == pytest.approx(x[0] * np.exp(x[1]), rel=1e-8)

    def test_every_width_zero_gives_zero_columns(self):
        jac = central_difference(lambda x: np.array([1.0, x[0], x[1]]), np.array([1.0, 2.0]),
                                 lb=[1.0, 2.0], ub=[1.0, 2.0])
        assert np.array_equal(jac, np.zeros((3, 2)))

    def test_interior_points_keep_the_central_rule(self):
        def fn(x):
            return np.array([x[0] ** 2 * x[1], np.exp(x[0] - x[1])])

        x = np.array([0.7, -1.3])
        jac = central_difference(fn, x, lb=[0.0, -2.0], ub=[1.0, 0.0])
        assert np.array_equal(jac, central_difference(fn, x))

    def test_vector_function_gives_the_jacobian(self):
        def fn(x):
            return np.array([x[0] ** 2 * x[1], np.sin(x[1]) + x[2], np.exp(x[0] - x[2])])

        x = np.array([0.7, -1.3, 2.1])
        jac = central_difference(fn, x)
        assert jac.shape == (3, len(x))
        for k in range(3):
            row = central_difference(lambda y: fn(y)[k], x)
            assert row.shape == (len(x),)
            assert np.array_equal(jac[k], row)

    def test_trace_constraint_gradient_vs_higher_order(self):
        constraint = GramianTraceConstraint(factor=1.1)
        problem = surrogate_wing_problem(constraint)
        names = problem.names
        rng = np.random.default_rng(50)

        def residual_of(x):
            return constraint.residual(problem, DesignVariables.from_array(names, x))

        lo = np.array([problem.box[n][0] for n in names])
        hi = np.array([problem.box[n][1] for n in names])
        for _ in range(10):
            x = lo + (hi - lo) * rng.uniform(0.2, 0.8, len(names))
            grad2 = central_difference(residual_of, x)
            grad4 = np.empty_like(x)
            for j in range(len(x)):
                h = 1e-4 * max(1.0, abs(x[j]))
                probes = [x.copy() for _ in range(4)]
                probes[0][j] += 2 * h
                probes[1][j] += h
                probes[2][j] -= h
                probes[3][j] -= 2 * h
                f = [residual_of(p) for p in probes]
                grad4[j] = (-f[0] + 8 * f[1] - 8 * f[2] + f[3]) / (12 * h)
            assert np.max(np.abs(grad2 - grad4)) <= 1e-4 * max(1.0, np.max(np.abs(grad4)))
