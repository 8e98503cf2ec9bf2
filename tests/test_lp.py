import csv
import io
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import ndtri
from scipy.stats import norm, qmc

from reachkit import (
    ControlBounds,
    LpSpec,
    LtiSystem,
    boundary_curve,
    cloud_to_csv,
    costate_grid,
    inner_approx,
    lp_optimal_control,
    min_energy_control,
    prop2_bound,
    reach_hull_planar,
    reachability_gramian,
    sample_reach,
)
from reachkit.lpreach import (_directions, _halton, _quadrature_kernels, _sphere_directions,
                              simpson_weights)

from helpers import (
    demo_system,
    eig_expm_grid,
    frontier_adapted_grid,
    random_stable_system,
    simpson_reach_oracle,
)

SPEC6 = LpSpec(p=6, T=1.0)


def endpoint_cost_oracle(sys, spec, lambda0, nodes=40001):
    """Trapezoid endpoint/cost recomputation through the eigen oracle."""
    times = np.linspace(0.0, spec.T, nodes)
    decay = eig_expm_grid(-sys.A.T, times)
    z = -np.einsum("knj,j->kn", decay, lambda0) @ sys.B
    u = np.sign(z) * np.abs(z) ** (1.0 / (spec.p - 1))
    flow = eig_expm_grid(sys.A, spec.T - times)
    integrand = np.einsum("knj,jm,km->kn", flow, sys.B, u)
    endpoint = np.trapezoid(integrand, times, axis=0)
    cost = float(np.trapezoid(np.sum(np.abs(u) ** spec.p, axis=1), times))
    return endpoint, cost


class TestLpSpec:
    def test_odd_p_rejected(self):
        with pytest.raises(ValueError):
            LpSpec(p=3, T=1.0)

    def test_conjugate_exponent(self):
        assert np.isclose(LpSpec(p=6, T=1.0).q, 1.2)
        assert np.isclose(LpSpec(p=2, T=1.0).q, 2.0)

    def test_domain_checks(self):
        with pytest.raises(ValueError):
            LpSpec(p=6, T=0.0)
        with pytest.raises(ValueError):
            LpSpec(p=6, T=1.0, budget=-1.0)

    @pytest.mark.parametrize("T,budget", [(np.nan, 1.0), (np.inf, 1.0), (1.0, np.nan),
                                          (1.0, np.inf)],
                             ids=["nan-horizon", "inf-horizon", "nan-budget", "inf-budget"])
    def test_non_finite_horizon_or_budget_rejected(self, T, budget):
        with pytest.raises(ValueError, match="positive and finite"):
            LpSpec(p=6, T=T, budget=budget)


class TestLpOptimalControl:
    def test_zero_costate(self):
        control = lp_optimal_control(demo_system(), [0.0, 0.0], SPEC6)
        assert np.allclose(control.values, 0.0)
        assert np.allclose(control(0.3), [0.0])

    @pytest.mark.parametrize("lambda0", [[np.nan, 1.0], [np.inf, 0.0]], ids=["nan", "inf"])
    def test_non_finite_costate_rejected(self, lambda0):
        # a non-finite costate used to give nan control values
        with pytest.raises(ValueError, match="lambda0 entries must be finite"):
            lp_optimal_control(demo_system(), lambda0, SPEC6)

    def test_scalar_integrator_p2(self):
        sys = LtiSystem([[0.0]], [[1.0]])
        control = lp_optimal_control(sys, [-1.0], LpSpec(p=2, T=1.0))
        assert np.allclose(control.values, 1.0, atol=1e-14)

    def test_fractional_node_count_rejected(self):
        with pytest.raises(TypeError, match="num_points must be an integer, got 5.0"):
            lp_optimal_control(demo_system(), [1.0, 0.0], SPEC6, num_points=5.0)
        assert lp_optimal_control(demo_system(), [1.0, 0.0], SPEC6,
                                  num_points=np.int64(5)).times.size == 5

    def test_grid_matches_closed_form(self):
        sys = demo_system()
        control = lp_optimal_control(sys, [3.0, -2.0], SPEC6, num_points=101)
        for k in (0, 13, 100):
            assert np.allclose(control.values[k], control(control.times[k]), atol=1e-12)

    def test_p2_reduction_to_min_energy(self):
        sys = demo_system()
        xf = np.array([0.4, -0.25])
        g = reachability_gramian(sys, 1.0)
        me = min_energy_control(sys, 1.0, xf)
        lam0 = -eig_expm_grid(sys.A.T, np.array([1.0]))[0] @ np.linalg.solve(g.W, xf)
        control = lp_optimal_control(sys, lam0, LpSpec(p=2, T=1.0))
        for t in np.linspace(0.0, 1.0, 11):
            assert np.max(np.abs(control(t) - me(t))) <= 1e-8
        cloud = sample_reach(sys, LpSpec(p=2, T=1.0), lam0[None, :])
        sample = cloud.samples[0]
        assert np.linalg.norm(sample.endpoint - xf) <= 1e-6 * np.linalg.norm(xf)
        # for p = 2 the signal cost is the quadratic-form energy
        assert abs(sample.cost_p - me.cost) <= 1e-6 * me.cost


class TestCostateGrid:
    def test_axis_corners_present(self):
        grid = costate_grid(2, [1.0], 4)
        rows = {tuple(r) for r in grid}
        for corner in ([1, 0], [-1, 0], [0, 1], [0, -1]):
            assert tuple(np.array(corner, dtype=float)) in rows

    def test_reference_scale_count(self):
        grid = costate_grid(2, [5.0, 10.0, 20.0, 50.0, 100.0], 302)
        assert len(grid) == 1525

    def test_deterministic(self):
        a = costate_grid(3, [1.0, 2.0], 50)
        b = costate_grid(3, [1.0, 2.0], 50)
        assert np.array_equal(a, b)

    def test_three_dimensional_shells(self):
        grid = costate_grid(3, [2.0], 64)
        norms = np.linalg.norm(grid, axis=1)
        assert np.allclose(norms, 2.0, atol=1e-12)
        assert len(grid) >= 64

    @pytest.mark.parametrize("n", [2, 3, 4])
    @pytest.mark.parametrize("magnitudes", [[0.5, 2.0, 7.0], [0.5, 1.0, 1.0, 3.0, 3.0]])
    def test_matches_first_occurrence_loop(self, n, magnitudes):
        # the reference keeps each row whose bytes were not seen before
        dirs = _sphere_directions(n, 24)
        corners = np.vstack([np.eye(n), -np.eye(n)])
        points, seen = [], set()
        for r in magnitudes:
            for row in np.vstack([r * corners, r * dirs]):
                if row.tobytes() not in seen:
                    seen.add(row.tobytes())
                    points.append(row)
        grid = costate_grid(n, magnitudes, 24)
        assert grid.tobytes() == np.array(points).tobytes()
        shell = 2 * n + 24 - (n == 2)  # for n = 2, dirs[0] is e_1
        assert len(grid) == shell * len(set(magnitudes))

    def test_validation(self):
        with pytest.raises(ValueError):
            costate_grid(2, [2.0, 1.0], 8)
        with pytest.raises(ValueError):
            costate_grid(2, [-1.0], 8)

    def test_two_dimensional_magnitudes_rejected(self):
        # [[1, 2]] would scale each component by its own radius: one ellipse, not two shells
        with pytest.raises(ValueError, match="magnitudes must be a scalar or 1-D"):
            costate_grid(2, [[1.0, 2.0]], 4)

    @pytest.mark.parametrize("n", [2, 3])
    def test_fractional_direction_count_rejected(self, n):
        # 4.5 used to space the n = 2 angles by 2 pi / 4.5, leaving a 40 degree
        # gap, and n = 3 failed inside numpy with a message naming no parameter
        with pytest.raises(TypeError, match="directions_per_shell must be an integer, got 4.5"):
            costate_grid(n, [1.0], 4.5)
        assert costate_grid(n, [1.0], np.int64(4)).tobytes() == costate_grid(n, [1.0], 4).tobytes()

    def test_fractional_state_count_rejected(self):
        with pytest.raises(TypeError, match="n must be an integer, got 2.5"):
            costate_grid(2.5, [1.0], 4)
        assert costate_grid(np.int64(2), [1.0], 4).tobytes() == costate_grid(2, [1.0], 4).tobytes()

    @pytest.mark.parametrize("n", [0, -1])
    def test_state_count_below_one_rejected(self, n):
        # n = 0 used to fail inside numpy's reshape, n = -1 on negative dimensions
        with pytest.raises(ValueError, match=f"got n={n}"):
            costate_grid(n, [1.0], 4)

    @pytest.mark.parametrize("magnitudes", [[1.0, np.inf], [np.nan], [1.0, np.nan]],
                             ids=["inf", "nan", "nan-after-finite"])
    def test_non_finite_magnitudes_rejected(self, magnitudes):
        # a nan shell used to give nan costates, and sample_reach nan endpoints
        with pytest.raises(ValueError, match="finite"):
            costate_grid(2, magnitudes, 4)


def scipy_stats_costate_grid(n, magnitudes, directions_per_shell):
    """The shell grid built from scipy.stats' Halton sampler and Gaussian
    quantile, keeping each row whose bytes were not seen before."""
    raw = qmc.Halton(d=n, scramble=False).random(directions_per_shell + 16)
    raw = raw[np.all((raw > 1e-9) & (raw < 1.0 - 1e-9), axis=1)]
    gauss = norm.ppf(raw)
    gauss = gauss[np.linalg.norm(gauss, axis=1) > 1e-12]
    dirs = (gauss / np.linalg.norm(gauss, axis=1, keepdims=True))[:directions_per_shell]
    shell = np.vstack([np.eye(n), -np.eye(n), dirs])
    points, seen = [], set()
    for row in (np.asarray(magnitudes, dtype=float)[:, None, None] * shell).reshape(-1, n):
        if row.tobytes() not in seen:
            seen.add(row.tobytes())
            points.append(row)
    return np.array(points)


class TestDirectionSampler:
    @pytest.mark.parametrize("d", [3, 4])
    @pytest.mark.parametrize("count", [1, 2, 17, 318, 1000])
    def test_halton_and_quantile_match_scipy_stats(self, d, count):
        points = _halton(d, count)
        assert points.tobytes() == qmc.Halton(d=d, scramble=False).random(count).tobytes()
        inner = points[np.all((points > 1e-9) & (points < 1.0 - 1e-9), axis=1)]
        assert ndtri(inner).tobytes() == norm.ppf(inner).tobytes()

    def test_halton_bases_beyond_four_dimensions(self):
        # the (d > 4)-th bases are the next primes, 11 and 13
        assert _halton(6, 500).tobytes() == qmc.Halton(d=6, scramble=False).random(500).tobytes()

    @pytest.mark.parametrize("n", [3, 4, 5])
    @pytest.mark.parametrize("directions", [1, 24, 302, 1000])
    def test_costate_grid_matches_scipy_stats_rebuild(self, n, directions):
        magnitudes = [0.05, 0.5, 5.0, 100.0]
        grid = costate_grid(n, magnitudes, directions)
        assert grid.tobytes() == scipy_stats_costate_grid(n, magnitudes, directions).tobytes()


class TestSampleReach:
    @pytest.mark.parametrize("sweep", [sample_reach, inner_approx])
    @pytest.mark.parametrize("row", [[np.nan, 1.0], [np.inf, 0.0], [0.0, -np.inf]],
                             ids=["nan", "inf", "-inf"])
    def test_non_finite_grid_rejected(self, sweep, row):
        # a nan row used to sweep silently to the endpoint [nan, nan]
        grid = [row, [1.0, 0.0], [0.0, 1.0], [-1.0, 0.0]]
        with pytest.raises(ValueError, match="finite"):
            sweep(demo_system(), LpSpec(6, 1.0), grid, nodes=101)

    def test_origin_sample(self):
        cloud = sample_reach(demo_system(), SPEC6, np.zeros((1, 2)))
        s = cloud.samples[0]
        assert s.cost_p == 0.0
        assert s.reachable
        assert np.allclose(s.endpoint, 0.0, atol=1e-15)

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError):
            sample_reach(demo_system(), SPEC6, np.zeros((0, 2)))

    def test_against_independent_quadrature(self):
        sys = demo_system()
        rng = np.random.default_rng(41)
        grid = rng.standard_normal((5, 2)) * 3.0
        cloud = sample_reach(sys, SPEC6, grid)
        for s in cloud.samples:
            endpoint, cost = endpoint_cost_oracle(sys, SPEC6, s.lambda0)
            assert np.linalg.norm(s.endpoint - endpoint) <= 1e-6 * max(
                np.linalg.norm(endpoint), 1e-9
            )
            assert abs(s.cost_p - cost) <= 1e-6 * max(cost, 1e-9)

    @pytest.mark.parametrize("p", [2, 4])
    def test_saddle_against_direct_expm_simpson(self, p):
        # the pushforward grid runs from T down to 0; anchoring it at e^{AT}
        # once put this sweep 119% off for p = 2
        sys = LtiSystem([[20.0, 1.0], [0.0, -20.0]], [[1.0], [1.0]])
        grid = costate_grid(2, [0.5, 2.0], 16)
        cloud = sample_reach(sys, LpSpec(p=p, T=1.0), grid)
        endpoints, costs = simpson_reach_oracle(sys, p, 1.0, grid)
        got = np.stack([s.endpoint for s in cloud.samples])
        assert np.max(np.abs(got - endpoints)) <= 1e-10 * np.max(np.abs(endpoints))
        got_costs = np.array([s.cost_p for s in cloud.samples])
        assert np.max(np.abs(got_costs - costs) / costs) <= 1e-10

    def test_homogeneity_scaling(self):
        sys = demo_system()
        rng = np.random.default_rng(42)
        grid = rng.standard_normal((20, 2)) * 2.0
        base = sample_reach(sys, SPEC6, grid)
        p = SPEC6.p
        for alpha in (0.5, 2.0, 10.0):
            scaled = sample_reach(sys, SPEC6, alpha ** (p - 1) * grid)
            for s0, s1 in zip(base.samples, scaled.samples):
                assert np.linalg.norm(s1.endpoint - alpha * s0.endpoint) <= 1e-8 * max(
                    np.linalg.norm(alpha * s0.endpoint), 1e-12
                )
                assert abs(s1.cost_p - alpha**p * s0.cost_p) <= 1e-8 * max(
                    alpha**p * s0.cost_p, 1e-12
                )

    @pytest.mark.parametrize("budget", [0.01, 0.001])
    def test_budget_scaling_keeps_labels_and_scales_volume(self, budget):
        # costate homogeneity: b^(p-1) G at budget b has b times the
        # endpoints and b^p times the costs of G at budget 1, so the labels
        # agree and the hull grows by b^n
        sys = demo_system()
        p = SPEC6.p
        grid = costate_grid(2, np.geomspace(0.05, 2.0, 40), 64)
        base = sample_reach(sys, SPEC6, grid, nodes=1001)
        spec = LpSpec(p=p, T=SPEC6.T, budget=budget)
        scaled = sample_reach(sys, spec, budget ** (p - 1) * grid, nodes=1001)
        assert np.array_equal(scaled.samples.reachable, base.samples.reachable)
        assert scaled.hull.volume == pytest.approx(budget**2 * base.hull.volume, rel=1e-12)

    def test_hull_over_reachable_only(self):
        sys = demo_system()
        grid = costate_grid(2, [0.5, 1.0, 5.0, 20.0], 64)
        cloud = sample_reach(sys, SPEC6, grid)
        reachable = cloud.samples.endpoint[cloud.samples.reachable]
        assert cloud.hull is not None
        hull_rows = {tuple(v) for v in cloud.hull.vertices}
        reachable_rows = {tuple(r) for r in reachable}
        assert hull_rows <= reachable_rows

    def test_reference_grid_partitions_cloud(self):
        # large-magnitude shells split into affordable and unaffordable
        # endpoints, and the affordable ones form the hulled region
        sys = demo_system()
        cloud = sample_reach(sys, SPEC6, costate_grid(2, [5.0, 10.0, 20.0, 50.0, 100.0], 302))
        n_reach = sum(s.reachable for s in cloud.samples)
        assert 50 <= n_reach <= len(cloud.samples) - 50
        for s in cloud.samples:
            if s.reachable:
                assert cloud.hull.facet_violation(s.endpoint) <= 1e-9

    def test_reach_region_contains_magnitude_hull(self):
        # outer-approximation picture: the budget-feasible endpoint hull
        # covers the switching-parameterized exact set
        sys = demo_system()
        grid = frontier_adapted_grid(sys, SPEC6)
        cloud = sample_reach(sys, SPEC6, grid)
        linf = reach_hull_planar(boundary_curve(sys, ControlBounds.symmetric(1.0), 1.0, 800))
        worst = max(cloud.hull.facet_violation(v) for v in linf.vertices)
        assert worst <= 1e-3

    def test_hamiltonian_stationarity(self):
        # the pointwise control minimizes 1/p ||u||_p^p + lambda^T B u
        sys = demo_system()
        spec = SPEC6
        lam0 = np.array([2.0, -1.0])
        control = lp_optimal_control(sys, lam0, spec)
        rng = np.random.default_rng(43)
        for t in rng.uniform(0.0, 1.0, 5):
            lam_t = eig_expm_grid(-sys.A.T, np.array([t]))[0] @ lam0
            u_star = control(t)

            def hamiltonian_control_part(u):
                return np.sum(np.abs(u) ** spec.p) / spec.p + lam_t @ sys.B @ u

            base = hamiltonian_control_part(u_star)
            for _ in range(100):
                delta = rng.standard_normal(sys.m)
                delta *= rng.uniform(0.0, 0.1) / max(np.linalg.norm(delta), 1e-12)
                assert hamiltonian_control_part(u_star + delta) >= base - 1e-12


def einsum_sweep(sys, spec, grid, nodes):
    """Endpoints and costs by the three-operand einsums of the earlier sweep."""
    pullback, pushforward, weights = _quadrature_kernels(sys, spec.T, nodes)
    z = np.einsum("jmn,ln->ljm", pullback, grid)
    u = np.sign(z) * np.abs(z) ** (1.0 / (spec.p - 1))
    endpoints = np.einsum("j,jnm,ljm->ln", weights, pushforward, u)
    return endpoints, np.einsum("j,ljm->l", weights, np.abs(u) ** spec.p)


def sweep_arrays(cloud):
    return (np.stack([s.endpoint for s in cloud.samples]),
            np.array([s.cost_p for s in cloud.samples]))


SADDLE = LtiSystem([[20.0, 1.0], [0.0, -20.0]], [[1.0, 0.0], [1.0, 0.5]])
STIFF = LtiSystem([[-40.0, 3.0], [0.0, -1.0]], [[1.0, 0.0], [1.0, 0.5]])


class TestSweepKernel:
    @pytest.mark.parametrize("p", [2, 4, 6])
    @pytest.mark.parametrize("m", [1, 2])
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_gemm_sweep_matches_einsum(self, n, m, p):
        rng = np.random.default_rng(100 * n + 10 * m + p)
        B = rng.standard_normal((n, m))
        B[-1] = 0.0  # e_n is then orthogonal to range(B)
        sys = LtiSystem(rng.standard_normal((n, n)), B)
        grid = np.vstack([costate_grid(n, [0.5, 2.0], 12), [[0.0] * (n - 1) + [r]
                                                           for r in (0.3, -1.0, 4.0)]])
        spec, nodes = LpSpec(p=p, T=1.0), 401
        # z = -B^T lambda0 vanishes exactly at t = 0 on the last three costates
        pullback = _quadrature_kernels(sys, spec.T, nodes)[0]
        assert not np.any(grid[-3:] @ pullback[0].T)
        got_ends, got_costs = sweep_arrays(sample_reach(sys, spec, grid, nodes))
        ends, costs = einsum_sweep(sys, spec, grid, nodes)
        scale = np.max(np.abs(ends), axis=1, keepdims=True)
        assert np.all(np.abs(got_ends - ends) <= 1e-12 * scale)
        assert np.all(np.abs(got_costs - costs) <= 1e-12 * costs)
        assert np.all(got_costs >= 0.0)

    @pytest.mark.parametrize("p", [2, 4, 6])
    @pytest.mark.parametrize("sys", [SADDLE, STIFF], ids=["saddle", "stiff"])
    def test_two_input_sweep_against_direct_expm_simpson(self, sys, p):
        grid = costate_grid(2, [0.5, 2.0], 16)
        got_ends, got_costs = sweep_arrays(sample_reach(sys, LpSpec(p=p, T=1.0), grid))
        ends, costs = simpson_reach_oracle(sys, p, 1.0, grid)
        scale = np.max(np.abs(ends), axis=1, keepdims=True)
        assert np.all(np.abs(got_ends - ends) <= 1e-10 * scale)
        assert np.all(np.abs(got_costs - costs) <= 1e-10 * costs)

    @pytest.mark.parametrize("p", [2, 4, 6])
    def test_peak_memory_is_two_sweep_arrays(self, p):
        # z and its root are (costates, nodes * m) arrays; the einsum sweep
        # peaked at four of them
        sys = LtiSystem(demo_system().A, np.eye(2))
        grid = np.random.default_rng(7).standard_normal((790, 2))
        nodes = 2001
        tracemalloc.start()
        try:
            sample_reach(sys, LpSpec(p=p, T=1.0), grid, nodes)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.5 * len(grid) * nodes * sys.m * 8


def spectrum_system(rng, cls, n, m):
    """A = V D V^-1 with a random well-conditioned basis and a spectrum of one
    class: real, saddle (+-rate pair), stiff (one fast mode) or oscillatory."""
    lam = list(rng.uniform(-2.0, 2.0, n))
    if cls == "saddle":
        rate = rng.uniform(5.0, 15.0)
        lam[:2] = [rate, -rate]
    elif cls == "stiff":
        lam[0] = -rng.uniform(20.0, 40.0)
    D = np.diag(lam)
    if cls == "oscillatory":
        omega = rng.uniform(2.0, 12.0)
        D[:2, :2] = [[lam[0], omega], [-omega, lam[0]]]
    while True:
        V = rng.standard_normal((n, n))
        if np.linalg.cond(V) <= 30.0:
            break
    return LtiSystem(V @ D @ np.linalg.inv(V), rng.standard_normal((n, m)))


class TestSharedDirectionSweep:
    """Rows that are positive multiples of one direction share its sweep."""

    @settings(max_examples=60, deadline=None, database=None, derandomize=True)
    @given(seed=st.integers(0, 2**32 - 1), n=st.sampled_from([2, 3, 4]),
           m=st.sampled_from([1, 2]), p=st.sampled_from([2, 4, 6]),
           cls=st.sampled_from(["real", "saddle", "stiff", "oscillatory"]))
    def test_matches_einsum_row_by_row(self, seed, n, m, p, cls):
        rng = np.random.default_rng(seed)
        sys = spectrum_system(rng, cls, n, m)
        magnitudes = np.sort(rng.uniform(0.05, 20.0, int(rng.integers(1, 6))))
        grid = costate_grid(n, magnitudes, int(rng.integers(1, 24)))
        spec, nodes = LpSpec(p=p, T=1.0), 201
        got_ends, got_costs = sweep_arrays(sample_reach(sys, spec, grid, nodes))
        ends, costs = einsum_sweep(sys, spec, grid, nodes)
        scale = np.max(np.abs(ends), axis=1, keepdims=True)
        assert np.all(np.abs(got_ends - ends) <= 1e-12 * scale)
        assert np.all(np.abs(got_costs - costs) <= 1e-12 * costs)

    def test_near_axis_row_is_not_merged_with_the_axis(self):
        # (cos pi, sin pi) = (-1, 1.2e-16) is no multiple of -e_1; swept as one,
        # the saddle's e^{20t} moves its endpoint by 3.9e-8 relative at p = 6
        tilted = np.array([np.cos(np.pi), np.sin(np.pi)])
        grid = np.array([[-1.0, 0.0], tilted, 2.0 * tilted])
        member = _directions(grid)[1]
        assert member[0] != member[1] and member[1] == member[2]
        for p in (2, 4, 6):
            got_ends, got_costs = sweep_arrays(sample_reach(SADDLE, LpSpec(p=p, T=1.0), grid))
            ends, costs = simpson_reach_oracle(SADDLE, p, 1.0, grid)
            scale = np.max(np.abs(ends), axis=1, keepdims=True)
            assert np.all(np.abs(got_ends - ends) <= 1e-10 * scale)
            assert np.all(np.abs(got_costs - costs) <= 1e-10 * costs)

    def test_zero_row_and_negative_multiple(self):
        d = np.array([0.6, -0.8])
        grid = np.array([d, np.zeros(2), -2.0 * d, 3.0 * d, np.zeros(2)])
        firsts, member, size = _directions(grid)
        assert member[0] == member[3] and member[1] == member[4]
        assert len({member[0], member[1], member[2]}) == len(firsts) == 3
        # the zero rows and -2d stand alone; d and 3d share one row of the two
        assert size[[1, 2, 4]].tolist() == [1.0, 1.0, 1.0] and (size[0] == 1.0) != (size[3] == 1.0)
        assert abs(size[3] / size[0] - 3.0) <= 1e-15
        cloud = sample_reach(demo_system(), SPEC6, grid)
        assert np.array_equal(cloud.samples.lambda0, grid)
        for k in (1, 4):
            assert cloud.samples[k].cost_p == 0.0
            assert np.array_equal(cloud.samples[k].endpoint, np.zeros(2))
        got_ends, got_costs = sweep_arrays(cloud)
        ends, costs = einsum_sweep(demo_system(), SPEC6, grid, 2001)
        scale = np.max(np.abs(ends), axis=1, keepdims=True)
        assert np.all(np.abs(got_ends - ends) <= 1e-12 * scale)
        assert np.all(np.abs(got_costs - costs) <= 1e-12 * costs)

    @pytest.mark.parametrize("p", [2, 6])
    def test_root_runs_once_per_direction(self, p):
        # five shells of 153 directions: the per-row sweep held two
        # (765, nodes * m) arrays, the shared one holds two (153, nodes * m)
        sys = LtiSystem(demo_system().A, np.eye(2))
        grid = costate_grid(2, [0.25, 0.5, 1.0, 2.0, 4.0], 150)
        directions, nodes = len(_directions(grid)[0]), 2001
        assert directions == 153 and len(grid) == 5 * directions
        tracemalloc.start()
        try:
            samples = sample_reach(sys, LpSpec(p=p, T=1.0), grid, nodes).samples
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.5 * directions * nodes * sys.m * 8 + samples.nbytes


class TestProp2Bound:
    def test_unit_scalar_system(self):
        sys = LtiSystem([[0.0]], [[1.0]])
        for p in (2, 4, 6):
            spec = LpSpec(p=p, T=1.0)
            assert abs(prop2_bound(sys, spec) - 1.0) <= 1e-12
        # tightness: |lambda0|^q = 1 gives unit cost exactly
        spec = LpSpec(p=6, T=1.0)
        cloud = sample_reach(sys, spec, np.array([[-1.0]]))
        assert abs(cloud.samples[0].cost_p - 1.0) <= 1e-12

    def test_soundness_on_filtered_grid(self):
        sys = demo_system()
        radius = prop2_bound(sys, SPEC6)
        grid = costate_grid(2, np.geomspace(0.05, 1.23, 12).tolist(), 64)
        norms = np.sum(np.abs(grid) ** SPEC6.q, axis=1)
        kept = grid[norms <= radius]
        assert len(kept) >= 500
        cloud = sample_reach(sys, SPEC6, kept)
        costs = np.array([s.cost_p for s in cloud.samples])
        assert np.max(costs) <= 1.0 + 1e-9

    def test_monotone_in_b(self):
        sys = demo_system()
        doubled = LtiSystem(sys.A, 2.0 * sys.B)
        assert prop2_bound(doubled, SPEC6) < prop2_bound(sys, SPEC6)


class TestInnerApprox:
    def test_huge_grid_filters_to_empty(self):
        grid = 1e6 * costate_grid(2, [1.0], 16)
        cloud = inner_approx(demo_system(), SPEC6, grid)
        assert len(cloud.samples) == 0
        assert cloud.hull is None

    def test_all_samples_certified_and_reachable(self):
        sys = demo_system()
        grid = costate_grid(2, np.geomspace(0.1, 1.2, 8).tolist(), 48)
        cloud = inner_approx(sys, SPEC6, grid)
        assert len(cloud.samples) > 0
        for s in cloud.samples:
            assert s.within_prop2_bound
            assert s.reachable

    def test_inner_hull_inside_full_hull(self):
        sys = demo_system()
        full_grid = frontier_adapted_grid(sys, SPEC6)
        full = sample_reach(sys, SPEC6, full_grid)
        inner_grid = costate_grid(2, np.geomspace(0.1, 1.2, 8).tolist(), 48)
        inner = inner_approx(sys, SPEC6, inner_grid)
        for s in inner.samples:
            assert full.hull.facet_violation(s.endpoint) <= 1e-6

    def test_reaches_long_axis_extremes(self):
        # certified costates still push close to the set's far tips along
        # the dominant Gramian direction
        sys = demo_system()
        v1 = reachability_gramian(sys, 1.0).eigenvectors[:, 0]
        full = sample_reach(sys, SPEC6, frontier_adapted_grid(sys, SPEC6))
        full_max = max(abs(v1 @ s.endpoint) for s in full.samples if s.reachable)
        inner = inner_approx(sys, SPEC6, costate_grid(2, np.geomspace(0.1, 1.25, 10).tolist(), 64))
        inner_max = max(abs(v1 @ s.endpoint) for s in inner.samples)
        assert inner_max >= 0.8 * full_max


class TestRecordCloud:
    @pytest.mark.parametrize("m", [1, 2])
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_column_reads_equal_record_reads(self, n, m):
        sys = random_stable_system(np.random.default_rng(10 * n + m), n, m)
        # shells from inside the certified radius to far outside the budget
        r0 = prop2_bound(sys, SPEC6, nodes=201) ** (1.0 / SPEC6.q)
        grid = costate_grid(n, r0 * np.array([0.5, 2.0, 8.0, 50.0]), 12)
        samples = sample_reach(sys, SPEC6, grid, nodes=201).samples
        assert samples.endpoint.shape == (len(grid), n)
        assert np.array_equal(samples.lambda0, grid)
        assert 0 < samples.within_prop2_bound.sum() < samples.reachable.sum() < len(samples)
        for field in samples.dtype.names:
            rows = np.array([getattr(s, field) for s in samples])
            assert np.array_equal(getattr(samples, field), rows), field
            assert np.array_equal(samples[field], rows), field

    def test_summed_record_flags_equal_column_sums(self):
        samples = sample_reach(demo_system(), SPEC6, costate_grid(2, [0.2, 1.0, 5.0, 20.0], 64)).samples
        assert sum(s.reachable for s in samples) == samples.reachable.sum()
        assert sum(s.within_prop2_bound for s in samples) == samples.within_prop2_bound.sum()
        assert 0 < samples.within_prop2_bound.sum() < samples.reachable.sum() < len(samples)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_uncertified_grid_gives_an_empty_record_array(self, n):
        sys = random_stable_system(np.random.default_rng(n), n, 1)
        cloud = inner_approx(sys, SPEC6, 1e6 * costate_grid(n, [1.0], 8), nodes=201)
        assert len(cloud.samples) == 0
        assert cloud.samples.endpoint.shape == (0, n)
        assert cloud.samples.lambda0.shape == (0, n)
        assert cloud.hull is None
        assert len(cloud_to_csv(cloud).split(",")) == 2 * n + 3


class TestCloudCsv:
    def test_column_layout(self):
        sys = demo_system()
        cloud = sample_reach(sys, SPEC6, costate_grid(2, [1.0], 8))
        lines = cloud_to_csv(cloud).strip().splitlines()
        assert lines[0] == "lambda0_1,lambda0_2,xf_1,xf_2,cost_p,reachable,within_prop2_bound"
        assert len(lines) == len(cloud.samples) + 1
        assert lines[1].split(",")[-2] in ("true", "false")


    def test_bytes_match_csv_writer(self):
        cloud = sample_reach(demo_system(), SPEC6, costate_grid(2, [0.5, 1.0, 5.0], 32))
        want = io.StringIO()
        writer = csv.writer(want)
        writer.writerow(["lambda0_1", "lambda0_2", "xf_1", "xf_2", "cost_p", "reachable",
                         "within_prop2_bound"])
        for s in cloud.samples:
            writer.writerow([repr(float(v)) for v in (*s.lambda0, *s.endpoint, s.cost_p)]
                            + [str(s.reachable).lower(), str(s.within_prop2_bound).lower()])
        assert {s.reachable for s in cloud.samples} == {True, False}
        assert cloud_to_csv(cloud) == want.getvalue()

    def test_empty_cloud_writes_the_header_only(self):
        text = cloud_to_csv(inner_approx(demo_system(), SPEC6, 1e6 * costate_grid(2, [1.0], 4)))
        assert text == "lambda0_1,lambda0_2,xf_1,xf_2,cost_p,reachable,within_prop2_bound\r\n"


class TestSimpsonWeights:
    def test_even_count_rejected(self):
        with pytest.raises(ValueError):
            simpson_weights(2000, 1.0)

    def test_integrates_cubic_exactly(self):
        w = simpson_weights(11, 1.0)
        xs = np.linspace(0.0, 1.0, 11)
        assert abs(w @ xs**3 - 0.25) <= 1e-14
