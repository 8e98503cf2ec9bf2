import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from reachkit import (
    LtiSystem,
    classify_spectrum,
    convolution_integral,
    expm_grid,
    matrix_exponential,
    simulate,
)
from reachkit.errors import DimensionError, IntervalError, NumericRangeError
from reachkit.lti import _doubling_table

from helpers import (
    DEMO_EIG_FAST,
    DEMO_EIG_SLOW,
    closed_form_expm_grid,
    conv_integral_oracle,
    demo_system,
    eig_expm,
    random_stable_system,
)


class TestMatrixExponential:
    def test_zero_matrix(self):
        assert np.allclose(matrix_exponential(np.zeros((2, 2)), 1.0), np.eye(2), atol=1e-15)

    def test_diagonal(self):
        A = np.diag([0.3, -1.2])
        t = 0.7
        expected = np.diag(np.exp(np.array([0.3, -1.2]) * t))
        assert np.allclose(matrix_exponential(A, t), expected, rtol=1e-14)

    def test_demo_eigenvalues(self):
        # eigenvalues of exp(A) are exp of the eigenvalues of A
        E = matrix_exponential(demo_system().A, 1.0)
        got = np.sort(np.real(np.linalg.eigvals(E)))
        expected = np.sort(np.exp([0.53, 1.57]))
        assert np.allclose(got, expected, atol=1e-2)
        exact = np.sort(np.exp([DEMO_EIG_SLOW, DEMO_EIG_FAST]))
        # eigenvalue extraction itself carries ~1e-8 relative noise here
        assert np.allclose(got, exact, rtol=1e-6)

    def test_negative_time(self):
        A = demo_system().A
        assert np.allclose(
            matrix_exponential(A, -0.8) @ matrix_exponential(A, 0.8), np.eye(2), atol=1e-12
        )

    def test_accuracy_large_argument(self):
        # spectral-form references across matrix classes at ||A t|| <= 50
        S = np.array([[0.0, 50.0], [-50.0, 0.0]])
        rotation = np.array(
            [[np.cos(50.0), np.sin(50.0)], [-np.sin(50.0), np.cos(50.0)]]
        )
        assert np.linalg.norm(matrix_exponential(S, 1.0) - rotation, 2) <= 1e-12

        rng = np.random.default_rng(3)
        Q, _ = np.linalg.qr(rng.standard_normal((4, 4)))
        lam_neg = np.array([-5.0, -3.0, -2.0, -1.0])
        A = Q @ np.diag(lam_neg) @ Q.T
        expected = Q @ np.diag(np.exp(lam_neg * 10.0)) @ Q.T
        got = matrix_exponential(A, 10.0)
        assert np.linalg.norm(got - expected, 2) <= 1e-12 * np.linalg.norm(expected, 2)

        lam_mix = np.array([-5.0, -1.0, 2.0, 5.0])
        A = Q @ np.diag(lam_mix) @ Q.T
        expected = Q @ np.diag(np.exp(lam_mix * 9.0)) @ Q.T
        got = matrix_exponential(A, 9.0)
        assert np.linalg.norm(got - expected, 2) <= 1e-12 * np.linalg.norm(expected, 2)

    def test_semigroup_property(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            sys = random_stable_system(rng, 3, 1)
            s, t = rng.uniform(-2.0, 2.0, 2)
            lhs = matrix_exponential(sys.A, s + t)
            rhs = matrix_exponential(sys.A, s) @ matrix_exponential(sys.A, t)
            # negative times make the factors grow, so normalize by size
            scale = max(1.0, np.max(np.abs(lhs)))
            assert np.max(np.abs(lhs - rhs)) <= 1e-10 * scale

    def test_inverse_property(self):
        rng = np.random.default_rng(12)
        for _ in range(10):
            sys = random_stable_system(rng, 2, 1)
            t = rng.uniform(-2.0, 2.0)
            prod = matrix_exponential(sys.A, t) @ matrix_exponential(sys.A, -t)
            assert np.max(np.abs(prod - np.eye(2))) <= 1e-10

    def test_nonsquare_raises(self):
        with pytest.raises(DimensionError):
            matrix_exponential(np.ones((2, 3)), 1.0)

    def test_overflow_raises(self):
        with pytest.raises(NumericRangeError):
            matrix_exponential(np.diag([1000.0, 1000.0]), 1000.0)


class TestExpmGrid:
    def test_matches_pointwise(self):
        sys = demo_system()
        grid = expm_grid(sys.A, 1.0, 0.0, 4097)
        times = np.linspace(1.0, 0.0, 4097)
        for k in (0, 1, 63, 64, 65, 1000, 4096):
            assert np.allclose(grid[k], eig_expm(sys.A, times[k]), atol=1e-12)

    def test_single_node(self):
        sys = demo_system()
        grid = expm_grid(sys.A, 0.5, 0.5, 1)
        assert np.allclose(grid[0], eig_expm(sys.A, 0.5), atol=1e-13)


def doubling_table_by_level(A, step, count):
    """The doubling table with one matrix_exponential call per level: the reference."""
    table = np.empty((count, len(A), len(A)))
    table[0] = np.eye(len(A))
    size = 1
    while size < count:
        top = min(2 * size, count)
        np.matmul(table[: top - size], matrix_exponential(A, size * step), out=table[size:top])
        size *= 2
    return table


class TestDoublingTable:
    def test_stacked_expm_matches_per_level_calls_exactly(self):
        rng = np.random.default_rng(12)
        for _ in range(200):
            n = int(rng.integers(1, 6))
            A = rng.standard_normal((n, n)) * rng.uniform(0.1, 30.0)
            step = rng.uniform(1e-6, 1e-2) * rng.choice([-1.0, 1.0])
            for count in (1, 2, 3, 17, 32, 33, 1001):
                assert np.array_equal(_doubling_table(A, step, count),
                                      doubling_table_by_level(A, step, count))

    def test_overflow_raises(self):
        with pytest.raises(NumericRangeError):
            _doubling_table(np.diag([1000.0, 1000.0]), 1.0, 4)
        with pytest.raises(NumericRangeError):
            expm_grid(np.diag([1000.0, 1000.0]), 0.0, 1000.0, 5)


# saddle, stiff, oscillatory and non-normal spectra with ||A|| T up to 200
ORACLE_SPECTRA = {
    "saddle-20": [[20.0, 1.0], [0.0, -20.0]],
    "saddle-40": [[40.0, 1.0], [0.0, -40.0]],
    "stiff": [[-40.0, 3.0], [0.0, -1.0]],
    "oscillatory": [[-0.5, 30.0], [-30.0, -0.5]],
    "non-normal": [[-5.0, 200.0], [0.0, -6.0]],
}
LEFT = np.array([0.6, -0.8])
RIGHT = np.array([[1.0], [0.5]])


def grid_errors(A, t0, t1, num, want, nodes=slice(None)):
    """Largest per-node relative error of the dense and contracted grids.

    want holds e^{A t} on the ascending grid; the dense error is relative
    to max|e^{A t_k}|, the contracted one to |LEFT| |e^{A t_k}| |RIGHT|.
    """
    dense = expm_grid(A, t0, t1, num)
    contracted = expm_grid(A, t0, t1, num, left=LEFT, right=RIGHT)
    if t0 > t1:
        dense, contracted = dense[::-1], contracted[::-1]
    dense, contracted = dense[nodes], contracted[nodes]
    dense_err = np.max(np.abs(dense - want), axis=(1, 2)) / np.max(np.abs(want), axis=(1, 2))
    scale = np.abs(LEFT) @ np.abs(want) @ np.abs(RIGHT)
    contracted_err = np.abs(contracted[:, 0] - LEFT @ want @ RIGHT) / scale
    return float(dense_err.max()), float(contracted_err.max())


class TestExpmGridOracle:
    @pytest.mark.parametrize("name", sorted(ORACLE_SPECTRA))
    def test_every_node_both_directions(self, name):
        A = np.array(ORACLE_SPECTRA[name])
        coarse = np.linspace(0.0, 1.0, 2001)
        direct = expm(A[None] * coarse[:, None, None])
        closed = closed_form_expm_grid(A, np.linspace(0.0, 1.0, 100001))
        # a direct expm at each of 1e5 nodes takes ~10 s, so the fine grid
        # meets it on the coarse nodes it contains and the closed form on all
        cases = [(2001, direct, slice(None)), (100001, closed, slice(None)),
                 (100001, direct, slice(None, None, 50))]
        for num, want, nodes in cases:
            for t0, t1 in ((0.0, 1.0), (1.0, 0.0)):
                dense_err, contracted_err = grid_errors(A, t0, t1, num, want, nodes)
                assert dense_err <= 1e-10, (num, t0, dense_err)
                assert contracted_err <= 1e-10, (num, t0, contracted_err)

    def test_direction_does_not_change_values(self):
        A = np.array(ORACLE_SPECTRA["saddle-40"])
        assert np.array_equal(expm_grid(A, 1.0, 0.0, 4097), expm_grid(A, 0.0, 1.0, 4097)[::-1])

    @pytest.mark.parametrize("t0, t1", [(0.5, 1.5), (1.5, 0.5), (-1.0, -0.25), (0.0, -1.0)])
    def test_grids_away_from_zero(self, t0, t1):
        A = np.array(ORACLE_SPECTRA["saddle-20"])
        times = np.linspace(t0, t1, 3001)
        want = closed_form_expm_grid(A, times)
        got = expm_grid(A, t0, t1, 3001)
        err = np.max(np.abs(got - want), axis=(1, 2)) / np.max(np.abs(want), axis=(1, 2))
        assert err.max() <= 1e-10

    def test_operand_shapes(self):
        A = demo_system().A
        assert expm_grid(A, 0.0, 1.0, 7).shape == (7, 2, 2)
        assert expm_grid(A, 0.0, 1.0, 7, left=LEFT).shape == (7, 1, 2)
        assert expm_grid(A, 0.0, 1.0, 7, right=LEFT).shape == (7, 2, 1)
        assert expm_grid(A, 0.0, 1.0, 7, left=np.eye(2)[:1], right=RIGHT).shape == (7, 1, 1)
        with pytest.raises(ValueError):
            expm_grid(A, 0.0, 1.0, 0)


def spectrum_block(kind: str, n: int, rng) -> np.ndarray:
    """Real block-diagonal matrix with a spectrum of the named kind."""
    D = np.zeros((n, n))
    if kind == "oscillatory":
        for k in range(0, n - 1, 2):
            a, w = rng.uniform(-1.0, 0.2), rng.uniform(5.0, 30.0)
            D[k:k + 2, k:k + 2] = [[a, w], [-w, a]]
        if n % 2:
            D[-1, -1] = rng.uniform(-1.0, 1.0)
    elif kind == "stiff":
        np.fill_diagonal(D, -np.geomspace(1.0, rng.uniform(1e2, 1e4), n))
    elif kind == "saddle":
        np.fill_diagonal(D, rng.uniform(0.5, 1.0, n) * (-1.0) ** np.arange(n))
    else:
        np.fill_diagonal(D, np.linspace(-1.0, 1.0, n) + rng.uniform(-0.2, 0.2, n))
    return D


def operand(shape, rng):
    return None if shape is None else rng.standard_normal(shape)


@st.composite
def grid_cases(draw):
    """A = V D V^-1 with cond(V) <= 30, scaled to ||A||_1 T <= 40, with
    random left/right operands (absent, 1-D or 2-D)."""
    kind = draw(st.sampled_from(["real-distinct", "saddle", "stiff", "oscillatory"]))
    n = draw(st.integers(1 if kind == "real-distinct" else 2, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    V = rng.standard_normal((n, n))
    while np.linalg.cond(V) > 30.0:
        V = rng.standard_normal((n, n))
    A = V @ spectrum_block(kind, n, rng) @ np.linalg.inv(V)
    T = draw(st.floats(0.05, 5.0))
    A *= draw(st.floats(0.1, 40.0)) / (np.linalg.norm(A, 1) * T)
    num = draw(st.sampled_from([1, 2, 3, 17, 2001]))
    left = operand(draw(st.sampled_from([None, (n,), (1, n), (3, n)])), rng)
    right = operand(draw(st.sampled_from([None, (n,), (n, 1), (n, 2)])), rng)
    return A, T, num, left, right


@settings(max_examples=150, deadline=None, database=None, derandomize=True)
@given(case=grid_cases())
def test_expm_grid_meets_direct_expm_at_every_node(case):
    A, T, num, left, right = case
    n = len(A)
    L = np.eye(n) if left is None else np.atleast_2d(left)
    R = np.eye(n) if right is None else right.reshape(n, -1)
    for t0, t1 in ((0.0, T), (T, 0.0)):
        direct = expm(A[None] * np.linspace(t0, t1, num)[:, None, None])
        got = expm_grid(A, t0, t1, num, left=left, right=right)
        assert got.shape == (num, len(L), R.shape[1])
        # each node's error against its largest entry of |L| |e^{At}| |R|
        scale = np.max(np.abs(L) @ np.abs(direct) @ np.abs(R), axis=(1, 2))
        err = np.max(np.abs(got - L @ direct @ R), axis=(1, 2)) / scale
        assert err.max() <= 1e-10, (t0, t1, err.max())


class TestConvolutionIntegral:
    def test_integrator_constant_integrand(self):
        sys = LtiSystem(np.zeros((2, 2)), [[1.0], [0.0]])
        result = convolution_integral(sys, 1.0, 0.0, 1.0)
        assert np.allclose(result, [[1.0], [0.0]], atol=1e-14)

    def test_interval_length(self):
        sys = LtiSystem(np.zeros((2, 2)), np.eye(2))
        result = convolution_integral(sys, 1.0, 0.25, 0.75)
        assert np.allclose(result, 0.5 * np.eye(2), atol=1e-14)

    def test_demo_vs_quadrature_oracle(self):
        sys = demo_system()
        got = convolution_integral(sys, 1.0, 0.0, 1.0)
        expected = conv_integral_oracle(sys, 1.0, 0.0, 1.0)
        assert np.max(np.abs(got - expected)) <= 1e-8 * np.max(np.abs(expected))

    def test_interval_additivity(self):
        rng = np.random.default_rng(21)
        for _ in range(5):
            sys = random_stable_system(rng, 3, 2)
            a, b, c = np.sort(rng.uniform(0.0, 1.0, 3))
            left = convolution_integral(sys, 1.0, a, b)
            right = convolution_integral(sys, 1.0, b, c)
            full = convolution_integral(sys, 1.0, a, c)
            assert np.max(np.abs(left + right - full)) <= 1e-10

    def test_reversed_interval_raises(self):
        with pytest.raises(IntervalError):
            convolution_integral(demo_system(), 1.0, 0.8, 0.2)

    def test_outside_horizon_raises(self):
        with pytest.raises(IntervalError):
            convolution_integral(demo_system(), 1.0, 0.0, 1.5)


class TestSimulate:
    def test_zero_control(self):
        traj = simulate(demo_system(), lambda t: np.array([0.0]), 1.0, 50)
        assert np.allclose(traj.endpoint, 0.0, atol=1e-15)
        assert traj.times[0] == 0.0 and traj.times[-1] == 1.0

    def test_pure_integrator(self):
        sys = LtiSystem(np.zeros((2, 2)), [[1.0], [0.0]])
        traj = simulate(sys, lambda t: np.array([1.0]), 1.0, 100)
        assert np.allclose(traj.endpoint, [1.0, 0.0], atol=1e-12)

    def test_demo_matches_closed_form(self):
        sys = demo_system()
        traj = simulate(sys, lambda t: np.array([1.0]), 1.0, 10_000)
        expected = convolution_integral(sys, 1.0, 0.0, 1.0)[:, 0]
        assert np.max(np.abs(traj.endpoint - expected)) <= 1e-8

    def test_sample_array_is_not_a_control(self):
        sys = LtiSystem(np.zeros((2, 2)), [[1.0], [0.0]])
        with pytest.raises(TypeError):
            simulate(sys, np.ones((65, 1)), 1.0, 64)

    def test_rk4_fourth_order(self):
        sys = demo_system()
        control = lambda t: np.array([np.sin(3.0 * t)])
        ref = simulate(sys, control, 1.0, 6400).endpoint
        errs = []
        for steps in (100, 200, 400):
            errs.append(np.linalg.norm(simulate(sys, control, 1.0, steps).endpoint - ref))
        # halving the step should shrink the error by about 2^4
        assert errs[0] / errs[1] > 8.0
        assert errs[1] / errs[2] > 8.0


class TestClassifySpectrum:
    def test_demo_real_distinct(self):
        spec = classify_spectrum(demo_system())
        got = np.sort(np.real(spec.eigenvalues))
        assert np.allclose(got, [0.53, 1.57], atol=0.005)
        assert spec.is_planar_real_distinct

    def test_rotation_complex_pair(self):
        sys = LtiSystem([[0.0, 1.0], [-1.0, 0.0]], [[1.0], [0.0]])
        spec = classify_spectrum(sys)
        assert not spec.is_planar_real_distinct
        assert np.allclose(np.sort(np.imag(spec.eigenvalues)), [-1.0, 1.0], atol=1e-12)

    def test_repeated_eigenvalue(self):
        sys = LtiSystem(np.eye(2), [[1.0], [0.0]])
        assert not classify_spectrum(sys).is_planar_real_distinct

    def test_not_planar(self):
        rng = np.random.default_rng(5)
        sys = random_stable_system(rng, 3, 1)
        assert not classify_spectrum(sys).is_planar_real_distinct


class TestLtiSystemValidation:
    def test_b_row_mismatch(self):
        with pytest.raises(DimensionError):
            LtiSystem(np.eye(2), np.ones((3, 1)))

    def test_nonfinite_entries(self):
        with pytest.raises(ValueError):
            LtiSystem([[np.inf, 0.0], [0.0, 1.0]], [[1.0], [0.0]])

    def test_vector_b_promoted(self):
        sys = LtiSystem(np.eye(2), [1.0, 0.0])
        assert sys.B.shape == (2, 1)
        assert sys.m == 1

    def test_matrices_read_only(self):
        sys = demo_system()
        with pytest.raises(ValueError):
            sys.A[0, 0] = 5.0
