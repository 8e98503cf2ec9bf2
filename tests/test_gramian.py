import numpy as np
import pytest

from reachkit import (
    LtiSystem,
    ellipsoid_axes,
    ellipsoid_to_json,
    gramian_trace,
    matrix_exponential,
    min_energy_control,
    reachability_gramian,
    simulate,
)
from reachkit.errors import NumericRangeError, UnreachableTargetError
from reachkit.lpreach import simpson_weights

from helpers import demo_system, gramian_oracle, modal_gramian, random_stable_system


def control_cost_simpson(control, T, nodes=2001):
    times = np.linspace(0.0, T, nodes)
    vals = np.stack([np.atleast_1d(control(t)) for t in times])
    return float(simpson_weights(nodes, T) @ np.sum(vals**2, axis=1))


class TestReachabilityGramian:
    def test_identity_input(self):
        sys = LtiSystem(np.zeros((2, 2)), np.eye(2))
        g = reachability_gramian(sys, 1.0)
        assert np.allclose(g.W, np.eye(2), atol=1e-13)

    def test_rank_one(self):
        sys = LtiSystem(np.zeros((2, 2)), [[1.0], [0.0]])
        g = reachability_gramian(sys, 2.0)
        assert np.allclose(g.W, [[2.0, 0.0], [0.0, 0.0]], atol=1e-13)
        assert g.eigenvalues[-1] <= 1e-12

    def test_demo_vs_quadrature_oracle(self):
        sys = demo_system()
        g = reachability_gramian(sys, 1.0)
        oracle = gramian_oracle(sys, 1.0)
        assert np.max(np.abs(g.W - oracle)) <= 1e-8 * np.max(np.abs(oracle))

    def test_random_systems_vs_oracle(self):
        rng = np.random.default_rng(31)
        for _ in range(5):
            sys = random_stable_system(rng, 3, 2)
            g = reachability_gramian(sys, 1.0)
            oracle = gramian_oracle(sys, 1.0, nodes=20001)
            assert np.max(np.abs(g.W - oracle)) <= 1e-6 * max(np.max(np.abs(oracle)), 1e-12)

    def test_symmetry_and_psd(self):
        rng = np.random.default_rng(32)
        for _ in range(10):
            sys = random_stable_system(rng, 4, 2)
            g = reachability_gramian(sys, 1.5)
            assert np.max(np.abs(g.W - g.W.T)) <= 1e-10 * max(1.0, np.max(np.abs(g.W)))
            assert g.eigenvalues[-1] >= -1e-10 * max(1.0, g.eigenvalues[0])

    def test_eigenvectors_orthonormal(self):
        g = reachability_gramian(demo_system(), 1.0)
        gram = g.eigenvectors.T @ g.eigenvectors
        assert np.max(np.abs(gram - np.eye(2))) <= 1e-10

    def test_semigroup_split(self):
        rng = np.random.default_rng(33)
        for _ in range(5):
            sys = random_stable_system(rng, 3, 1)
            T, delta = 1.2, 0.4
            full = reachability_gramian(sys, T).W
            head = reachability_gramian(sys, delta).W
            tail = reachability_gramian(sys, T - delta).W
            E = matrix_exponential(sys.A, delta)
            recomposed = E @ tail @ E.T + head
            assert np.max(np.abs(full - recomposed)) <= 1e-8 * max(1.0, np.max(np.abs(full)))

    def test_controllable_nonsingular_and_b_zero(self):
        rng = np.random.default_rng(34)
        sys = random_stable_system(rng, 3, 1)
        g = reachability_gramian(sys, 1.0)
        assert g.eigenvalues[-1] > 1e-10 * g.eigenvalues[0]
        zero = LtiSystem(sys.A, np.zeros((3, 1)))
        assert np.allclose(reachability_gramian(zero, 1.0).W, 0.0, atol=1e-15)

    def test_nonpositive_horizon(self):
        with pytest.raises(ValueError):
            reachability_gramian(demo_system(), 0.0)

    def test_stiff_spectrum_vs_modal_oracle(self):
        # e^{-AT} reaches e^{60} here: the full-horizon block exponential
        # loses every digit of W to it
        V = np.array([[1.0, 1.0], [0.3, 1.0]])
        A = V @ np.diag([-30.0, -1.0]) @ np.linalg.inv(V)
        B = np.array([[1.0], [0.5]])
        W = reachability_gramian(LtiSystem(A, B), 2.0).W
        oracle = modal_gramian(A, B, 2.0)
        assert np.max(np.abs(W - oracle)) <= 1e-12 * np.max(np.abs(oracle))

    def test_stiff_and_unstable_spectra_vs_modal_oracle(self):
        rng = np.random.default_rng(35)
        checked = 0
        while checked < 40:
            n = int(rng.integers(2, 5))
            rates = np.concatenate([[-rng.uniform(12.0, 40.0)], rng.uniform(-3.0, 2.0, n - 1)])
            V = rng.standard_normal((n, n))
            if np.linalg.cond(V) > 20.0:
                continue
            A = V @ np.diag(rates) @ np.linalg.inv(V)
            B = rng.standard_normal((n, int(rng.integers(1, 3))))
            T = float(rng.uniform(0.5, 2.0))
            W = reachability_gramian(LtiSystem(A, B), T).W
            oracle = modal_gramian(A, B, T)
            assert np.max(np.abs(W - oracle)) <= 1e-10 * np.max(np.abs(oracle))
            checked += 1

    def test_overflow_raises(self):
        with pytest.raises(NumericRangeError):
            reachability_gramian(LtiSystem([[400.0]], [[1.0]]), 2.0)


class TestEllipsoidAxes:
    def test_identity(self):
        g = reachability_gramian(LtiSystem(np.zeros((2, 2)), np.eye(2)), 1.0)
        axes = ellipsoid_axes(g, 1.0)
        assert np.allclose([a[0] for a in axes], 1.0, atol=1e-12)

    def test_diagonal_lengths(self):
        sys = LtiSystem(np.zeros((2, 2)), np.diag([2.0, 1.0]))
        g = reachability_gramian(sys, 1.0)  # W = diag(4, 1)
        axes = ellipsoid_axes(g, 1.0)
        assert np.allclose(g.W, np.diag([4.0, 1.0]), atol=1e-13)
        assert np.isclose(axes[0][0], 2.0, atol=1e-12)
        assert np.isclose(axes[1][0], 1.0, atol=1e-12)
        assert abs(axes[0][1] @ [0.0, 1.0]) <= 1e-12

    def test_budget_positive(self):
        g = reachability_gramian(demo_system(), 1.0)
        with pytest.raises(ValueError):
            ellipsoid_axes(g, 0.0)

    @pytest.mark.parametrize("c", [np.nan, np.inf])
    def test_budget_finite(self, c):
        # a non-finite budget used to give nan or inf axis lengths
        g = reachability_gramian(demo_system(), 1.0)
        with pytest.raises(ValueError, match="budget must be positive and finite"):
            ellipsoid_axes(g, c)
        with pytest.raises(ValueError, match="budget must be positive and finite"):
            ellipsoid_to_json(g, c)

    def test_axis_tips_reached_at_unit_cost(self):
        sys = demo_system()
        g = reachability_gramian(sys, 1.0)
        for length, direction in ellipsoid_axes(g, 1.0):
            tip = length * direction
            control = min_energy_control(sys, 1.0, tip)
            assert abs(control.cost - 1.0) <= 1e-8

    def test_json_export(self):
        g = reachability_gramian(demo_system(), 1.0)
        payload = ellipsoid_to_json(g, 2.0)
        assert payload["T"] == 1.0 and payload["c"] == 2.0
        assert len(payload["axes"]) == 2
        assert payload["axes"][0]["length"] >= payload["axes"][1]["length"]


class TestMinEnergyControl:
    def test_zero_target(self):
        control = min_energy_control(demo_system(), 1.0, [0.0, 0.0])
        assert control.cost == 0.0
        assert np.allclose(control(0.3), [0.0])

    def test_integrator_constant_control(self):
        sys = LtiSystem(np.zeros((2, 2)), [[1.0], [0.0]])
        control = min_energy_control(sys, 1.0, [1.0, 0.0])
        assert control.used_pseudoinverse  # rank-deficient Gramian
        for t in (0.0, 0.4, 1.0):
            assert np.allclose(control(t), [1.0], atol=1e-10)
        assert abs(control.cost - 1.0) <= 1e-10

    def test_unreachable_target(self):
        sys = LtiSystem(np.zeros((2, 2)), [[1.0], [0.0]])
        with pytest.raises(UnreachableTargetError):
            min_energy_control(sys, 1.0, [0.0, 1.0])

    def test_reaches_target_and_cost_identity(self):
        rng = np.random.default_rng(35)
        for _ in range(5):
            sys = random_stable_system(rng, 3, 2)
            xf = rng.standard_normal(3)
            control = min_energy_control(sys, 1.0, xf)
            endpoint = simulate(sys, control, 1.0, 600).endpoint
            assert np.linalg.norm(endpoint - xf) <= 1e-6 * max(np.linalg.norm(xf), 1.0)
            quad_cost = control_cost_simpson(control, 1.0)
            assert abs(quad_cost - control.cost) <= 1e-8 * max(abs(control.cost), 1e-12)

    def test_on_grid_matches_pointwise(self):
        sys = demo_system()
        control = min_energy_control(sys, 1.0, [0.4, -0.1])
        times, values = control.on_grid(41)
        for k in (0, 7, 40):
            assert np.allclose(values[k], control(times[k]), atol=1e-12)

    def test_optimality_against_corrected_controls(self):
        # any admissible control steered onto the target costs at least as much
        sys = demo_system()
        T = 1.0
        xf = np.array([0.5, -0.3])
        optimal = min_energy_control(sys, T, xf)
        rng = np.random.default_rng(36)
        nodes = 1001
        times = np.linspace(0.0, T, nodes)
        weights = simpson_weights(nodes, T)
        from reachkit import convolution_integral

        for _ in range(100):
            coeffs = rng.standard_normal(3)

            def perturb(t):
                return np.array(
                    [coeffs[0] + coeffs[1] * np.sin(2 * np.pi * t) + coeffs[2] * t]
                )

            endpoint = simulate(sys, perturb, T, 400).endpoint
            correction = min_energy_control(sys, T, xf - endpoint)
            combined = np.stack(
                [perturb(t) + correction(t) for t in times]
            )
            cost = float(weights @ np.sum(combined**2, axis=1))
            assert cost >= optimal.cost - 1e-6


class TestGramianTrace:
    def test_identity_trace(self):
        g = reachability_gramian(LtiSystem(np.zeros((2, 2)), np.eye(2)), 1.0)
        assert np.isclose(gramian_trace(g), 2.0, atol=1e-13)

    def test_diag_trace(self):
        sys = LtiSystem(np.zeros((2, 2)), np.diag([2.0, 1.0]))
        assert np.isclose(gramian_trace(reachability_gramian(sys, 1.0)), 5.0, atol=1e-12)

    def test_equals_eigenvalue_sum(self):
        g = reachability_gramian(demo_system(), 1.0)
        assert abs(gramian_trace(g) - g.eigenvalues.sum()) <= 1e-10
