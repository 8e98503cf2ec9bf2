import csv
import io
import tracemalloc

import numpy as np
import pytest

from reachkit import (
    ControlBounds,
    LtiSystem,
    bang_bang_control,
    boundary_curve,
    boundary_curve_to_csv,
    convolution_integral,
    matrix_exponential,
    reach_hull_planar,
    simulate,
    switch_count,
    switching_function,
)
from reachkit import boundary
from reachkit.boundary import (_brent, _channel_sign_changes, _refine_zero, _switching_grid,
                               _taylor_table)
from reachkit.errors import DimensionError, UnsupportedConfigurationError
from reachkit.lti import expm_grid

from helpers import (demo_system, eig_expm, random_bang_bang, random_planar_real_distinct,
                     random_stable_system)

UNIT_BOUNDS = ControlBounds.symmetric(1.0)
BAD_HORIZONS = pytest.mark.parametrize("T", [-1.0, 0.0, np.nan, np.inf])


def integrator():
    return LtiSystem(np.zeros((2, 2)), [[1.0], [0.0]])


class TestControlBounds:
    def test_ordering_enforced(self):
        with pytest.raises(ValueError):
            ControlBounds(lower=[1.0], upper=[-1.0])

    def test_symmetric(self):
        b = ControlBounds.symmetric(2.5, m=3)
        assert np.allclose(b.lower, -2.5) and np.allclose(b.upper, 2.5)
        assert b.m == 3

    def test_symmetric_rejects_negative_magnitude(self):
        with pytest.raises(ValueError):
            ControlBounds.symmetric(-1.0)

    def test_symmetric_rejects_a_fractional_channel_count(self):
        # 1.5 used to fail inside numpy with a message naming no parameter
        with pytest.raises(TypeError, match="m must be an integer, got 1.5"):
            ControlBounds.symmetric(1.0, m=1.5)
        assert ControlBounds.symmetric(1.0, m=np.int64(2)).m == 2

    @pytest.mark.parametrize("lower,upper", [([[-1.0]], [[1.0]]), ([-1.0], [[1.0]])],
                             ids=["both", "upper"])
    def test_two_dimensional_bounds_rejected(self, lower, upper):
        # boundary_curve reads lower[0] as a float, so a 2-D box cannot pass here
        with pytest.raises(DimensionError, match="scalars or 1-D"):
            ControlBounds(lower=lower, upper=upper)


class TestSwitchingFunction:
    def test_integrator_aligned(self):
        sys = integrator()
        for t in (0.0, 0.3, 1.0):
            assert np.allclose(switching_function(sys, [1.0, 0.0], 1.0, t), [1.0])

    def test_integrator_orthogonal(self):
        sys = integrator()
        for t in (0.0, 0.5, 1.0):
            assert np.allclose(switching_function(sys, [0.0, 1.0], 1.0, t), [0.0])

    def test_demo_matches_expm_oracle(self):
        sys = demo_system()
        c = np.array([1.0, 1.0])
        for t in np.linspace(0.0, 1.0, 9):
            got = switching_function(sys, c, 1.0, t)
            expected = c @ eig_expm(sys.A, 1.0 - t) @ sys.B
            assert np.max(np.abs(got - expected)) <= 1e-12


class TestBangBangControl:
    def test_constant_positive_psi(self):
        sys = integrator()
        u = bang_bang_control(sys, UNIT_BOUNDS, [1.0, 0.0], 1.0)
        assert len(u.switch_times) == 0
        assert np.allclose(u.values, [[1.0]])
        assert np.allclose(u(0.5), [1.0])

    def test_demo_at_most_one_switch(self):
        sys = demo_system()
        u = bang_bang_control(sys, UNIT_BOUNDS, [-1.0, 2.0], 1.0)
        assert len(u.switch_times) <= 1

    def test_demo_endpoint_on_boundary(self):
        sys = demo_system()
        u = bang_bang_control(sys, UNIT_BOUNDS, [-1.0, 2.0], 1.0)
        hull = reach_hull_planar(boundary_curve(sys, UNIT_BOUNDS, 1.0, n_eta=2000))
        endpoint = simulate(sys, u, 1.0, 400).endpoint
        # an exposed point: on the hull boundary to within discretization
        assert abs(hull.facet_violation(endpoint)) <= 1e-6

    def test_switch_matches_psi_zero(self):
        sys = demo_system()
        c = np.array([-1.0, 2.0])
        u = bang_bang_control(sys, UNIT_BOUNDS, c, 1.0)
        for ts in u.switch_times:
            assert abs(switching_function(sys, c, 1.0, ts)[0]) <= 1e-10

    def test_zero_c_rejected(self):
        with pytest.raises(ValueError):
            bang_bang_control(demo_system(), UNIT_BOUNDS, [0.0, 0.0], 1.0)

    @BAD_HORIZONS
    def test_horizon_outside_positive_reals_rejected(self, T):
        # a non-positive horizon used to return a control with no switches
        with pytest.raises(ValueError, match="horizon must be positive and finite"):
            bang_bang_control(demo_system(), UNIT_BOUNDS, [1.0, 0.5], T)

    @pytest.mark.parametrize("scan_resolution", [0.0, -0.1, 2.0, 3.0])
    def test_scan_resolution_outside_unit_interval_rejected(self, scan_resolution):
        # psi of this oscillator switches 3 times on [0, 1]; 2.0 and 3.0 would
        # round to a zero-interval scan that finds none of them
        sys = LtiSystem([[0.0, 10.0], [-10.0, 0.0]], [[0.0], [1.0]])
        assert len(bang_bang_control(sys, UNIT_BOUNDS, [1.0, 0.3], 1.0).switch_times) == 3
        with pytest.raises(ValueError, match="scan_resolution"):
            bang_bang_control(sys, UNIT_BOUNDS, [1.0, 0.3], 1.0, scan_resolution=scan_resolution)

    def test_lemma1_domination(self):
        # the switching control maximizes <c, endpoint> against random
        # admissible competitors
        sys = demo_system()
        rng = np.random.default_rng(77)
        competitors = []
        for _ in range(1000):
            k = int(rng.integers(0, 7))
            switches = np.sort(rng.uniform(0.0, 1.0, k))
            levels = rng.uniform(-1.0, 1.0, (k + 1, 1))
            from reachkit import PiecewiseConstantControl

            u = PiecewiseConstantControl(switches, levels, 1.0)
            competitors.append(simulate(sys, u, 1.0, 120).endpoint)
        competitors = np.stack(competitors)
        for _ in range(5):
            c = rng.standard_normal(2)
            u_star = bang_bang_control(sys, UNIT_BOUNDS, c, 1.0)
            best = simulate(sys, u_star, 1.0, 400).endpoint
            assert np.max(competitors @ c) <= c @ best + 1e-6


BAD_COSTATES = {
    "zero": ([0.0, 0.0], ValueError, "nonzero"),
    "nan": ([np.nan, 1.0], ValueError, "finite"),
    "inf": ([np.inf, 1.0], ValueError, "finite"),
    "length-3": ([1.0, 0.0, 0.0], DimensionError, "shape"),
    "row": ([[1.0, 0.0]], DimensionError, "shape"),
}


class TestCostateChecked:
    @pytest.mark.parametrize("case", ["zero", "nan", "inf", "length-3", "row"])
    def test_switch_count_rejects(self, case):
        c, error, match = BAD_COSTATES[case]
        with pytest.raises(error, match=match):
            switch_count(demo_system(), c, 1.0, 1001)

    # a zero c: TestBangBangControl::test_zero_c_rejected
    @pytest.mark.parametrize("case", ["nan", "inf", "length-3", "row"])
    def test_bang_bang_control_rejects(self, case):
        c, error, match = BAD_COSTATES[case]
        with pytest.raises(error, match=match):
            bang_bang_control(demo_system(), UNIT_BOUNDS, c, 1.0)

    def test_checked_once_per_call(self, monkeypatch):
        calls = []
        checked = boundary._costate
        monkeypatch.setattr(boundary, "_costate",
                            lambda *args: calls.append(args) or checked(*args))
        u = bang_bang_control(demo_system(), UNIT_BOUNDS, [1.0, -1.0], 1.0)
        # the root polish evaluated psi many times to place the switch
        assert len(u.switch_times) == 1
        assert len(calls) == 1
        switch_count(demo_system(), [1.0, -1.0], 1.0, 1001)
        assert len(calls) == 2


def random_basis(n, rng, cond_cap=30.0):
    """Random unit-column n-by-n basis with condition number <= cond_cap."""
    while True:
        V = rng.standard_normal((n, n))
        V /= np.linalg.norm(V, axis=0)
        if np.linalg.cond(V) <= cond_cap:
            return V


def modal_system(D, rng, m=1):
    """A = V D V^-1 for a random basis V, with unit B columns."""
    V = random_basis(len(D), rng)
    B = rng.standard_normal((len(D), m))
    return LtiSystem(V @ D @ np.linalg.inv(V), B / np.linalg.norm(B, axis=0))


SCAN_CLASSES = ("real-distinct", "oscillatory", "saddle", "stiff")


def scan_class_system(cls, rng):
    """Planar single-input system of one of the switch-scan spectrum classes."""
    if cls == "real-distinct":
        D = np.diag([rng.uniform(-2.0, -0.2), rng.uniform(0.2, 2.0)])
    elif cls == "oscillatory":
        mu, om = rng.uniform(-1.0, 0.5), rng.uniform(2.0, 12.0)
        D = np.array([[mu, om], [-om, mu]])
    elif cls == "saddle":
        D = np.diag([rng.uniform(15.0, 40.0), -rng.uniform(15.0, 40.0)]) / 2.0
    else:
        D = np.diag([-rng.uniform(15.0, 40.0), rng.uniform(-2.0, 0.5)])
    return modal_system(D, rng)


def system_with_zeros(lam, zeros, rng, T=1.0, multiplicities=None):
    """Single-input system with real spectrum lam and a costate c whose psi
    vanishes exactly at t = zeros, each of the given multiplicity (1 by
    default); the multiplicities sum to len(lam) - 1, the most a real
    spectrum allows."""
    lam = np.asarray(lam, dtype=float)
    multiplicities = multiplicities or [1] * len(zeros)
    # psi(T - s) = sum_k a_k e^{lam_k s}, whose j-th derivative in s is
    # sum_k a_k lam_k^j e^{lam_k s}; a spans the null space at the zeros
    rows = [lam**j * np.exp(lam * (T - z))
            for z, mu in zip(zeros, multiplicities) for j in range(mu)]
    a = np.linalg.svd(np.array(rows))[2][-1]
    V = random_basis(len(lam), rng)
    B = rng.standard_normal(len(lam))
    c = np.linalg.solve(V.T, a / np.linalg.solve(V, B))
    return LtiSystem(V @ np.diag(lam) @ np.linalg.inv(V), B[:, None]), c


def assert_matches_fine_scan(sys, bounds, c, T=1.0):
    got = bang_bang_control(sys, bounds, c, T)
    want = bang_bang_control(sys, bounds, c, T, scan_resolution=1e-6)
    assert len(got.switch_times) == len(want.switch_times)
    if len(want.switch_times):
        assert np.max(np.abs(got.switch_times - want.switch_times)) <= 1e-12
    assert np.array_equal(got.values, want.values)
    return got


class TestSpectralBracketGrid:
    @pytest.mark.parametrize("cls", SCAN_CLASSES)
    def test_matches_million_node_scan(self, cls):
        rng = np.random.default_rng(SCAN_CLASSES.index(cls))
        bounds = ControlBounds(lower=[-0.7], upper=[1.3])
        switches = 0
        for _ in range(3):
            sys = scan_class_system(cls, rng)
            for angle in rng.uniform(0.0, 2.0 * np.pi, 3):
                c = np.array([np.cos(angle), np.sin(angle)])
                switches += len(assert_matches_fine_scan(sys, bounds, c).switch_times)
        assert switches > 0

    @pytest.mark.parametrize("lam, zeros", [
        ([-1.5, 0.3, 1.8], [0.3, 0.7]),
        ([-2.0, -0.4, 0.9, 1.7], [0.2, 0.5, 0.85]),
    ], ids=["n3", "n4"])
    def test_real_spectrum_with_n_minus_1_switches(self, lam, zeros):
        rng = np.random.default_rng(len(lam))
        sys, c = system_with_zeros(lam, zeros, rng)
        u = assert_matches_fine_scan(sys, UNIT_BOUNDS, c)
        assert np.max(np.abs(u.switch_times - zeros)) <= 1e-9

    def test_two_inputs(self):
        rng = np.random.default_rng(8)
        bounds = ControlBounds(lower=[-1.0, -0.5], upper=[1.0, 2.0])
        oscillating = np.array([[-0.2, 6.0, 0.0], [-6.0, -0.2, 0.0], [0.0, 0.0, 1.0]])
        for D in (np.diag([-3.0, -1.0, 0.5]), oscillating):
            sys = modal_system(D, rng, m=2)
            for _ in range(3):
                assert_matches_fine_scan(sys, bounds, rng.standard_normal(3))

    @pytest.mark.parametrize("multiplicities", [(2,), (3,), (2, 1), (3, 1), (2, 2)])
    def test_multiple_zeros_on_nodes_stay_within_the_bound(self, multiplicities, monkeypatch):
        # why one scan suffices: sampling cannot add sign changes, and
        # roundoff on a node at a zero of multiplicity mu adds at most mu of
        # them, so a real spectrum's scan shows at most its n - 1 zeros
        n = sum(multiplicities) + 1
        scans, dense = [], _switching_grid
        monkeypatch.setattr(boundary, "_switching_grid",
                            lambda *args: scans.append(dense(*args)) or scans[-1])
        for seed in range(40):
            rng = np.random.default_rng([n, len(multiplicities), seed])
            lam = np.sort(rng.uniform(-3.0, 3.0, n))
            # A depends only on lam and the basis drawn first from this
            # stream, so a call with placeholder zeros sizes the default grid
            basis = lambda: np.random.default_rng([n, len(multiplicities), seed, 1])
            sys, c = system_with_zeros(lam, np.linspace(0.2, 0.8, n - 1), basis())
            bang_bang_control(sys, UNIT_BOUNDS, c, 1.0)
            intervals = len(scans[-1][0]) - 1
            nodes = np.sort(rng.choice(np.arange(1, intervals), len(multiplicities), replace=False))
            sys, c = system_with_zeros(lam, nodes / intervals, basis(),
                                       multiplicities=list(multiplicities))
            bang_bang_control(sys, UNIT_BOUNDS, c, 1.0)
            psi = scans[-1][0][:, 0]
            assert len(psi) == intervals + 1
            # each zero lies on its node: |psi| there is well below its neighbours'
            assert np.all(np.abs(psi[nodes]) <= 0.1 * np.minimum(np.abs(psi[nodes - 1]),
                                                                 np.abs(psi[nodes + 1])))
            assert len(_channel_sign_changes(psi)) <= n - 1

    def test_capped_default_grid_evaluates_psi_directly(self, monkeypatch):
        # ||A||_1 T ~ 1.2e5 asks for more than 2^16 intervals, so the default
        # grid stops at the cap, where h ||A||_1 / 2 is beyond the Taylor reach
        V = np.array([[1.0, 0.4], [0.3, -1.1]])
        sys = LtiSystem(V @ np.diag([-1e5, -1.0]) @ np.linalg.inv(V), [[1.0], [0.5]])
        c, T = np.array([1.0, -0.3]), 1.0
        nodes, dense = [], _switching_grid
        monkeypatch.setattr(boundary, "_switching_grid",
                            lambda *args: nodes.append(args[3]) or dense(*args))
        calls = count_calls(monkeypatch, ["_taylor_table"])
        u = bang_bang_control(sys, UNIT_BOUNDS, c, T)
        assert nodes == [boundary.MAX_GRID_INTERVALS + 1]
        assert calls == {"_taylor_table": 0}
        assert len(u.switch_times) >= 1
        for ts in u.switch_times:
            before, after = (switching_function(sys, c, T, ts + d)[0] for d in (-1e-9, 1e-9))
            assert before * after < 0.0
        edges = np.concatenate([[0.0], u.switch_times, [T]])
        for k, mid in enumerate(0.5 * (edges[:-1] + edges[1:])):
            psi = switching_function(sys, c, T, mid)
            assert np.array_equal(u.values[k], np.where(psi >= 0.0, 1.0, -1.0))

    def test_grid_is_sized_from_the_spectrum(self, monkeypatch):
        nodes = []
        dense = _switching_grid
        monkeypatch.setattr(boundary, "_switching_grid",
                            lambda *args: nodes.append(args[3]) or dense(*args))
        bang_bang_control(demo_system(), UNIT_BOUNDS, [1.0, -1.0], 1.0)
        oscillator = LtiSystem([[0.0, 100.0], [-100.0, 0.0]], [[0.0], [1.0]])
        bang_bang_control(oscillator, UNIT_BOUNDS, [1.0, 0.0], 1.0)
        # 64 intervals at the floor; 32 * (100 + 100 / pi) for the oscillator
        assert nodes == [65, 4220]


def count_calls(monkeypatch, names):
    """Count the calls bang_bang_control makes to each named boundary function."""
    calls = dict.fromkeys(names, 0)
    for name in names:
        def counted(*args, name=name, fn=getattr(boundary, name), **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        monkeypatch.setattr(boundary, name, counted)
    return calls


def test_brent_is_brentq_step_for_step():
    # the root polish keeps brentq's iteration and stopping rule, so it
    # returns the same zero, bit for bit, or fails to converge where it does
    from scipy.optimize import brentq

    rng = np.random.default_rng(34)
    families = [
        lambda x, c: c[0] + c[1] * x + c[2] * x**2 + c[3] * x**3,
        lambda x, c: np.sin(3.0 * c[0] * x + c[1]) + 0.3 * c[2],
        lambda x, c: np.exp(c[0] * x) - 1.5 - c[1],
        lambda x, c: (x - c[0]) ** 3 * (1.0 + c[1] ** 2),
    ]
    compared = 0
    for k in range(400):
        c = rng.standard_normal(4)
        f = lambda x, c=c, family=families[k % 4]: float(family(x, c))
        a, b = np.sort(rng.uniform(-3.0, 3.0, 2))
        fa, fb = f(a), f(b)
        if fa * fb >= 0.0:
            continue
        try:
            want = brentq(f, a, b, xtol=1e-15, rtol=4.0 * np.finfo(float).eps)
        except RuntimeError:
            want = "no convergence"
        try:
            got = _brent(f, a, b, fa, fb)
        except RuntimeError:
            got = "no convergence"
        assert got == want, (k, a, b)
        compared += 1
    assert compared >= 150


class TestRefinementCost:
    """A switch costs no exponential beyond the scan: Brent's method runs on
    a Taylor polynomial of psi about the bracket end, and each level on one
    about the node nearest its segment's midpoint, both from the scan's rows."""

    NAMES = ("matrix_exponential", "_psi", "_expm_stack")

    @pytest.mark.parametrize("A, c, switches", [
        (demo_system().A, [1.0, -1.0], 1),
        ([[0.0, 10.0], [-10.0, 0.0]], [1.0, 0.0], 3),
    ], ids=["demo", "oscillator"])
    def test_one_exponential_per_switch_and_no_direct_psi(self, A, c, switches,
                                                          monkeypatch):
        sys = LtiSystem(A, demo_system().B)
        want = bang_bang_control(sys, UNIT_BOUNDS, c, 1.0, scan_resolution=1e-6)
        calls = count_calls(monkeypatch, self.NAMES + ("expm_grid",))
        got = bang_bang_control(sys, UNIT_BOUNDS, c, 1.0)
        assert len(got.switch_times) == len(want.switch_times) == switches
        assert calls == {"matrix_exponential": 0, "_psi": 0, "_expm_stack": 0, "expm_grid": 1}
        assert np.max(np.abs(got.switch_times - want.switch_times)) <= 1e-12
        assert np.array_equal(got.values, want.values)

    def test_coarse_scan_on_a_stiff_system_evaluates_psi_directly(self, monkeypatch):
        # 4 intervals give 2 ||A||_1 h far above 1/4, past the polynomial's reach
        sys, c = system_with_zeros([-30.0, -0.5], [0.9], np.random.default_rng(12))
        want = bang_bang_control(sys, UNIT_BOUNDS, c, 1.0, scan_resolution=1e-6)
        calls = count_calls(monkeypatch, self.NAMES)
        got = bang_bang_control(sys, UNIT_BOUNDS, c, 1.0, scan_resolution=0.25)
        assert calls["_psi"] > 1
        # no bracket-end row is formed for it: the one stacked call is the levels'
        assert calls["_expm_stack"] == 1
        assert len(got.switch_times) == len(want.switch_times) == 1
        assert abs(got.switch_times[0] - want.switch_times[0]) <= 1e-12
        assert abs(got.switch_times[0] - 0.9) <= 1e-9
        assert np.array_equal(got.values, want.values)


class TestSwitchTimeAccuracy:
    """Every switch is a zero of the directly evaluated psi: brentq on
    switching_function over t* +- 1e-9 T lands within 1e-13 T of t*."""

    @staticmethod
    def spectrum(cls, n, rng):
        slow = list(rng.uniform(-2.0, 1.0, n - 2))
        fast = rng.uniform(15.0, 40.0, 2)
        if cls == "real":
            return np.diag(rng.uniform(-2.0, 2.0, n))
        if cls == "oscillatory":
            mu, om = rng.uniform(-1.0, 0.5), rng.uniform(2.0, 12.0)
            return np.block([[np.array([[mu, om], [-om, mu]]), np.zeros((2, n - 2))],
                             [np.zeros((n - 2, 2)), np.diag(slow)]])
        if cls == "saddle":
            return np.diag([fast[0] / 2.0, -fast[1] / 2.0] + slow)
        return np.diag([-fast[0], rng.uniform(-2.0, 0.5)] + slow)

    @pytest.mark.parametrize("cls", ["real", "oscillatory", "saddle", "stiff"])
    def test_switches_are_zeros_of_the_direct_psi(self, cls):
        from scipy.optimize import brentq

        rng = np.random.default_rng(["real", "oscillatory", "saddle", "stiff"].index(cls) + 60)
        T, switches = 1.0, 0
        for n in (2, 3, 4):
            for m in (1, 2):
                sys = modal_system(self.spectrum(cls, n, rng), rng, m=m)
                bounds = ControlBounds.symmetric(1.0, m)
                for _ in range(5):
                    c = rng.standard_normal(n)
                    for ts in bang_bang_control(sys, bounds, c, T).switch_times:
                        # the channel that switches is the one psi nearly zeroes
                        i = int(np.argmin(np.abs(switching_function(sys, c, T, ts))))
                        root = brentq(lambda t: switching_function(sys, c, T, t)[i],
                                      ts - 1e-9 * T, ts + 1e-9 * T,
                                      xtol=1e-15, rtol=4.0 * np.finfo(float).eps)
                        assert abs(root - ts) <= 1e-13 * T
                        switches += 1
        assert switches >= 10


class TestLevels:
    """Every level is the sign of the directly evaluated psi at its
    segment's midpoint, whether the call reads it off the Taylor table
    about the nearest scan row or, on a coarse grid, a direct exponential."""

    @pytest.mark.parametrize("cls, scan", [
        (cls, scan) for cls in ("real", "oscillatory", "saddle", "stiff")
        for scan in ("default", "coarse")])
    def test_levels_are_the_sign_of_psi_at_midpoints(self, cls, scan):
        rng = np.random.default_rng(["real", "oscillatory", "saddle", "stiff"].index(cls) + 70)
        T, segments = 1.0, 0
        for n in (2, 3, 4):
            for m in (1, 2):
                sys = modal_system(TestSwitchTimeAccuracy.spectrum(cls, n, rng), rng, m=m)
                bounds = ControlBounds(lower=-rng.uniform(0.5, 1.5, m),
                                       upper=rng.uniform(0.5, 1.5, m))
                for _ in range(4):
                    c = rng.standard_normal(n)
                    u = bang_bang_control(sys, bounds, c, T,
                                          scan_resolution=0.125 if scan == "coarse" else None)
                    edges = np.concatenate([[0.0], u.switch_times, [T]])
                    for k, mid in enumerate(0.5 * (edges[:-1] + edges[1:])):
                        psi = switching_function(sys, c, T, mid)
                        assert np.array_equal(u.values[k],
                                              np.where(psi >= 0.0, bounds.upper, bounds.lower))
                        segments += 1
        # 24 calls, and some of them switch
        assert segments > 24

    def test_brackets_wider_than_one_interval_get_all_their_terms(self, monkeypatch):
        # zero samples just past two sign changes widen their brackets to 2
        # and 3 intervals; the call's one Taylor table must reach the widest,
        # and both brackets are polished on all of its terms
        rng = np.random.default_rng(71)
        sys, c = system_with_zeros([-1.5, 0.4, 2.0], [0.3, 0.7], rng)
        want = bang_bang_control(sys, UNIT_BOUNDS, c, 1.0)
        dense, nodes, tables, polished = boundary._switching_grid, [], [], []

        def zeroed(*args):
            psi, rows = dense(*args)
            nodes.append(len(psi))
            psi = psi.copy()
            for width, j in zip((2, 3), np.flatnonzero(np.diff(np.signbit(psi[:, 0])))):
                psi[j + 1 : j + width, 0] = 0.0
            return psi, rows

        def table(sys, reach, fn=boundary._taylor_table):
            tables.append((reach, fn(sys, reach).shape[1]))
            return fn(sys, reach)

        def refine(sys, c, T, i, a, b, coefficients=None, fn=boundary._refine_zero):
            polished.append((b - a, len(coefficients)))
            return fn(sys, c, T, i, a, b, coefficients)

        monkeypatch.setattr(boundary, "_switching_grid", zeroed)
        monkeypatch.setattr(boundary, "_taylor_table", table)
        monkeypatch.setattr(boundary, "_refine_zero", refine)
        got = bang_bang_control(sys, UNIT_BOUNDS, c, 1.0)
        norm, h = np.linalg.norm(sys.A, 1), 1.0 / (nodes[0] - 1)
        assert [round(width / h) for width, _ in polished] == [2, 3]
        [(reach, terms)] = tables
        assert reach == pytest.approx(2.0 * norm * polished[-1][0], rel=1e-15)
        assert [count for _, count in polished] == [terms, terms]
        assert terms > _taylor_table(sys, 2.0 * norm * h).shape[1]
        assert np.max(np.abs(got.switch_times - want.switch_times)) <= 1e-13
        assert np.array_equal(got.values, want.values)


class TestIdenticallyZeroChannel:
    @staticmethod
    def decoupled_system():
        # B = v_1 and c the left eigenvector of -3, so c e^{As} B = 0 exactly
        V = np.array([[1.0, 0.4], [0.7, -1.3]])
        A = V @ np.diag([-1.0, -3.0]) @ np.linalg.inv(V)
        c = np.linalg.inv(V)[1]
        return LtiSystem(A, V[:, :1]), c

    @pytest.mark.parametrize("scan_resolution", [None, 1e-4])
    def test_no_switches_no_warning_and_upper(self, scan_resolution, caplog):
        sys, c = self.decoupled_system()
        psi = _switching_grid(sys, c, 1.0, 1001)[0]
        assert 0.0 < np.max(np.abs(psi)) < 1e-13
        assert _channel_sign_changes(psi[:, 0])  # the roundoff signs do change
        bounds = ControlBounds(lower=[-0.5], upper=[2.0])
        with caplog.at_level("WARNING", logger="reachkit.boundary"):
            u = bang_bang_control(sys, bounds, c, 1.0, scan_resolution=scan_resolution)
        assert caplog.records == []
        assert len(u.switch_times) == 0
        assert u.values.tolist() == [[2.0]]
        assert switch_count(sys, c, 1.0, 1001).identically_zero.tolist() == [True]

    def test_live_channel_beside_a_zero_one(self):
        sys1, c = self.decoupled_system()
        # c is a left eigenvector, so psi_2 = e^{-3(T - t)} c . b_2 keeps one sign
        B = np.column_stack([sys1.B[:, 0], [1.0, -2.0]])
        sys = LtiSystem(sys1.A, B)
        bounds = ControlBounds(lower=[-1.0, -1.0], upper=[1.0, 1.0])
        got = assert_matches_fine_scan(sys, bounds, c)
        assert np.all(got.values[:, 0] == 1.0)


class TestSwitchCount:
    def test_float_grid_points_rejected(self):
        with pytest.raises(TypeError, match="node count must be an integer"):
            switch_count(demo_system(), [1.0, 0.0], 1.0, 1e6)

    def test_demo_random_c_at_most_one(self):
        sys = demo_system()
        rng = np.random.default_rng(13)
        for _ in range(25):
            c = rng.standard_normal(2)
            report = switch_count(sys, c, 1.0, 10_000)
            assert report.sign_changes[0] <= 1

    def test_constant_psi_counts_zero(self):
        sys = LtiSystem(np.zeros((2, 2)), np.eye(2))
        report = switch_count(sys, [0.7, -0.3], 1.0, 500)
        assert np.all(report.sign_changes == 0)

    def test_oscillator_exceeds_one(self):
        sys = LtiSystem([[0.0, 1.0], [-25.0, 0.0]], [[0.0], [1.0]])
        report = switch_count(sys, [1.0, 0.0], 3.0, 10_000)
        assert report.sign_changes[0] >= 2

    def test_identically_zero_component(self):
        # second input column orthogonal to c e^{A(T-t)} for A = 0
        sys = LtiSystem(np.zeros((2, 2)), np.eye(2))
        report = switch_count(sys, [1.0, 0.0], 1.0, 500)
        assert report.identically_zero[1]
        assert report.sign_changes[1] == 0

    def test_grid_floor(self):
        with pytest.raises(ValueError):
            switch_count(demo_system(), [1.0, 0.0], 1.0, 50)

    @BAD_HORIZONS
    def test_horizon_outside_positive_reals_rejected(self, T):
        # a non-positive horizon used to count zero switches
        with pytest.raises(ValueError, match="horizon must be positive and finite"):
            switch_count(demo_system(), [1.0, 0.5], T, 200)

    def test_random_planar_systems_single_switch(self):
        rng = np.random.default_rng(14)
        for _ in range(5):
            sys = random_planar_real_distinct(rng)
            for _ in range(20):
                c = rng.standard_normal(2)
                report = switch_count(sys, c, 1.0, 10_000)
                assert report.sign_changes[0] <= 1


def psi_grid(sys, c, T, num):
    """psi on linspace(0, T, num) from expm_grid's factors, as switch_count forms it."""
    return expm_grid(sys.A, T, 0.0, num, left=c, right=sys.B)[:, 0]


def dense_switch_count(sys, c, T, grid_points):
    """switch_count from the whole psi grid at once: the reference."""
    psi = psi_grid(sys, c, T, grid_points)
    zero_scale = 1e-12 * np.linalg.norm(c) * np.linalg.norm(sys.B, 2)
    identically_zero = np.maximum(psi.max(axis=0), -psi.min(axis=0)) < zero_scale
    counts = [0 if identically_zero[i] else len(_channel_sign_changes(psi[:, i]))
              for i in range(sys.m)]
    return counts, identically_zero.tolist()


class TestBlockedSwitchCount:
    def assert_matches_dense(self, sys, c, T, grid_points):
        report = switch_count(sys, c, T, grid_points)
        counts, identically_zero = dense_switch_count(sys, c, T, grid_points)
        assert report.sign_changes.tolist() == counts
        assert report.identically_zero.tolist() == identically_zero
        return report

    def test_random_systems(self):
        rng = np.random.default_rng(41)
        changes = 0
        for n, m in ((2, 1), (3, 1), (3, 2), (4, 2)):
            for om in (0.0, 40.0, 300.0):
                D = np.diag(rng.uniform(-3.0, 2.0, n))
                D[0, 1], D[1, 0] = om, -om
                sys = modal_system(D, rng, m=m)
                for grid_points in (100, 4099, 65537, 200_001):
                    report = self.assert_matches_dense(sys, rng.standard_normal(n), 1.0,
                                                       grid_points)
                    changes += int(report.sign_changes.sum())
        assert changes > 1000

    @pytest.mark.parametrize("grid_points", [1_000_001, 1_048_577, 999_983])
    def test_grids_not_a_multiple_of_the_block(self, grid_points):
        sys = LtiSystem([[-0.3, 150.0], [-150.0, -0.3]], [[0.0], [1.0]])
        report = self.assert_matches_dense(sys, np.array([1.0, 0.4]), 1.0, grid_points)
        assert report.sign_changes[0] > 40

    def test_zeros_and_negative_zeros_on_nodes(self):
        # A = 0: psi is c B on every node, +0.0 or -0.0 in the orthogonal channels
        zero = LtiSystem(np.zeros((2, 2)), [[1.0, 0.0, -1.0], [0.0, 1.0, 0.0]])
        for c in ([-1.0, 0.0], [0.0, -2.0], [1.0, 1.0]):
            self.assert_matches_dense(zero, np.array(c), 1.0, 1001)
        # nilpotent A: psi(t) = c1 (b1 + (1 - t) b2) + c2 b2 is exact on the
        # dyadic nodes, so it vanishes exactly at the nodes t = 0.5 and 0.25
        nilpotent = LtiSystem([[0.0, 1.0], [0.0, 0.0]], [[-0.5, -0.75, 0.0], [1.0, 1.0, 0.0]])
        report = self.assert_matches_dense(nilpotent, np.array([1.0, 0.0]), 1.0, 2**16 + 1)
        psi = psi_grid(nilpotent, np.array([1.0, 0.0]), 1.0, 2**16 + 1)
        assert np.count_nonzero(psi[:, :2] == 0.0) == 2
        assert report.sign_changes.tolist() == [1, 1, 0]
        assert report.identically_zero.tolist() == [False, False, True]

    @pytest.mark.parametrize("cls", ["saddle", "stiff"])
    def test_fast_spectra(self, cls):
        # the switch-scan classes with fast rates 15-40, beside slow modes
        rng = np.random.default_rng(["saddle", "stiff"].index(cls) + 50)
        changes = 0
        for n in (2, 3, 4):
            for m in (1, 2):
                fast = rng.uniform(15.0, 40.0, 2)
                if cls == "saddle":
                    lam = [fast[0] / 2.0, -fast[1] / 2.0]
                else:
                    lam = [-fast[0], rng.uniform(-2.0, 0.5)]
                sys = modal_system(np.diag(lam + list(rng.uniform(-2.0, 1.0, n - 2))), rng, m=m)
                for grid_points in (100, 4099, 1_000_001):
                    report = self.assert_matches_dense(sys, rng.standard_normal(n), 1.0,
                                                       grid_points)
                    changes += int(report.sign_changes.sum())
        assert changes > 0

    def test_two_inputs_with_an_identically_zero_channel(self):
        sys = LtiSystem([[-1.0, 20.0, 0.0], [-20.0, -1.0, 0.0], [0.0, 0.0, 0.5]],
                        [[1.0, 0.0], [0.0, 0.0], [0.0, 1.0]])
        report = self.assert_matches_dense(sys, np.array([1.0, 0.5, 0.0]), 1.0, 300_007)
        assert report.identically_zero.tolist() == [False, True]
        assert report.sign_changes[0] >= 5 and report.sign_changes[1] == 0


class TestFormedNodes:
    """switch_count forms psi only on rows of doubtful sign."""

    @staticmethod
    def formed_nodes(monkeypatch):
        formed = []
        block = boundary._grid_block
        monkeypatch.setattr(boundary, "_grid_block",
                            lambda anchors, powers: formed.append(len(anchors) * len(powers))
                            or block(anchors, powers))
        return formed

    def test_demo_forms_at_most_two_rows(self, monkeypatch):
        sys, c = demo_system(), np.array([1.0, -1.0])
        counts, identically_zero = dense_switch_count(sys, c, 1.0, 1_000_001)
        formed = self.formed_nodes(monkeypatch)
        report = switch_count(sys, c, 1.0, 1_000_001)
        # the dense grid has 977 rows of 1024 nodes, 1,000,448 in all; only
        # the rows around the one switch are formed
        assert sum(formed) <= 2 * 1024
        assert report.sign_changes.tolist() == counts == [1]
        assert report.identically_zero.tolist() == identically_zero

    @pytest.mark.parametrize("case", ["fast-oscillator", "identically-zero"])
    def test_every_node_formed_when_no_row_is_certain(self, case, monkeypatch):
        if case == "fast-oscillator":
            sys = LtiSystem([[-0.3, 3000.0], [-3000.0, -0.3]], [[0.0], [1.0]])
            c, want = np.array([1.0, 0.4]), ([955], [False])
        else:
            sys, c = TestIdenticallyZeroChannel.decoupled_system()
            want = ([0], [True])
        assert dense_switch_count(sys, c, 1.0, 1_000_001) == want
        formed = self.formed_nodes(monkeypatch)
        report = switch_count(sys, c, 1.0, 1_000_001)
        assert sum(formed) == 977 * 1024
        assert (report.sign_changes.tolist(), report.identically_zero.tolist()) == want


def sign_changes_by_sign_product(values):
    # the former implementation: np.sign of the nonzero samples, fancy-indexed
    signs = np.sign(values)
    nz = np.flatnonzero(signs)
    if len(nz) < 2:
        return []
    flips = np.flatnonzero(signs[nz[1:]] * signs[nz[:-1]] < 0)
    return [(int(nz[j]), int(nz[j + 1])) for j in flips]


class TestChannelSignChanges:
    def test_zeros_are_skipped(self):
        values = np.array([1.0, 0.0, -0.0, 0.0, -2.0, -0.0, 3.0, 4.0, 0.0])
        assert _channel_sign_changes(values) == [(0, 4), (4, 6)]

    def test_no_pairs_without_two_nonzero_samples(self):
        assert _channel_sign_changes(np.zeros(5)) == []
        assert _channel_sign_changes(np.array([0.0, -0.0, 2.0, 0.0])) == []
        assert _channel_sign_changes(np.array([-1.0])) == []
        assert _channel_sign_changes(np.zeros(0)) == []

    def test_matches_sign_product_on_random_channels(self):
        rng = np.random.default_rng(31)
        for _ in range(200):
            values = rng.standard_normal(int(rng.integers(1, 60)))
            if rng.random() < 0.5:
                values[rng.random(len(values)) < 0.3] = rng.choice([0.0, -0.0])
            assert _channel_sign_changes(values) == sign_changes_by_sign_product(values)


def refine_zero(sys, c, T, i, a, b):
    """_refine_zero as bang_bang_control calls it: on the Taylor polynomial
    about b, from the row c^T e^{A (T - b)} formed here, when the bracket is
    within its reach, and on psi directly otherwise."""
    reach = 2.0 * np.linalg.norm(sys.A, 1) * (b - a)
    if reach > boundary.TAYLOR_REACH:
        return _refine_zero(sys, c, T, i, a, b)
    row = c @ matrix_exponential(sys.A, T - b)
    return _refine_zero(sys, c, T, i, a, b,
                        (row @ _taylor_table(sys, reach)).reshape(-1, sys.m)[:, i])


class TestRefineZero:
    def test_bracket_without_sign_change_warns(self, caplog):
        sys = integrator()
        with caplog.at_level("WARNING", logger="reachkit.boundary"):
            t = refine_zero(sys, np.array([1.0, 0.0]), 1.0, 0, 0.25, 0.5)
        assert t == 0.375
        assert "[0.25, 0.5]" in caplog.text

    def test_confirmed_bracket_is_silent(self, caplog):
        sys = LtiSystem([[0.0, 1.0], [-1.0, 0.0]], [[0.0], [1.0]])
        with caplog.at_level("WARNING", logger="reachkit.boundary"):
            t = refine_zero(sys, np.array([1.0, 0.0]), 1.0, 0, 0.5, 1.5)
        # psi(t) = sin(1 - t) vanishes at t = 1
        assert abs(t - 1.0) <= 1e-14
        assert caplog.records == []

    def test_zero_on_a_grid_node_is_bracketed_beyond_it(self, caplog):
        # psi(t) = sin(2 pi (1 - t)) vanishes at t = 0.5; a grid whose sample
        # at a node just past the zero had the wrong sign brackets it from there
        w = 2.0 * np.pi
        sys = LtiSystem([[0.0, w], [-w, 0.0]], [[0.0], [1.0]])
        with caplog.at_level("WARNING", logger="reachkit.boundary"):
            t = refine_zero(sys, np.array([1.0, 0.0]), 1.0, 0, 0.5 + 1e-13, 0.51)
        assert abs(t - 0.5) <= 1e-14
        assert caplog.records == []


class TestScanMemory:
    def test_scan_resolution_above_the_limit_allocates_nothing(self):
        # 1e-9 would ask for 1e9 + 1 scan rows, over 16 GB at n = 2
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=f"above the limit of {2**20}"):
                bang_bang_control(demo_system(), UNIT_BOUNDS, [1.0, -1.0], 1.0,
                                  scan_resolution=1e-9)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_switch_scan_never_forms_the_dense_grid(self):
        sys, num = demo_system(), 1_000_001
        tracemalloc.start()
        try:
            bang_bang_control(sys, UNIT_BOUNDS, [1.0, -1.0], 1.0)
            switch_count(sys, [1.0, -1.0], 1.0, num)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # e^{A t} on every node would take num * n * n * 8 = 32 MB; psi takes 8 MB
        assert peak < 0.5 * num * sys.n * sys.n * 8

    def test_switch_count_holds_no_whole_psi_grid(self):
        sys, num = demo_system(), 1_000_001
        switch_count(sys, [1.0, -1.0], 1.0, num)
        tracemalloc.start()
        try:
            switch_count(sys, [1.0, -1.0], 1.0, num)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # psi on every node would take num * 8 = 8 MB
        assert peak < 2 * 2**20


class TestBoundaryCurve:
    def test_integrator_segment(self):
        sys = integrator()
        curve = boundary_curve(sys, UNIT_BOUNDS, 1.0, n_eta=101)
        assert np.allclose(curve.g1[:, 1], 0.0, atol=1e-14)
        assert np.allclose(curve.g2[:, 1], 0.0, atol=1e-14)
        assert curve.g1[:, 0].min() >= -1.0 - 1e-12
        assert curve.g1[:, 0].max() <= 1.0 + 1e-12
        hull = reach_hull_planar(curve)
        assert hull.degenerate
        got = {tuple(np.round(v, 12)) for v in hull.vertices}
        assert got == {(-1.0, 0.0), (1.0, 0.0)}

    def test_closure_invariant(self):
        curve = boundary_curve(demo_system(), UNIT_BOUNDS, 1.0, n_eta=301)
        assert np.max(np.abs(curve.g1[0] - curve.g2[-1])) <= 1e-12
        assert np.max(np.abs(curve.g1[-1] - curve.g2[0])) <= 1e-12

    def test_symmetric_bounds_sign_symmetry(self):
        curve = boundary_curve(demo_system(), UNIT_BOUNDS, 1.0, n_eta=157)
        assert np.max(np.abs(curve.g2 + curve.g1)) <= 1e-10

    def test_exact_flag_demo(self):
        assert boundary_curve(demo_system(), UNIT_BOUNDS, 1.0, n_eta=11).exact

    @BAD_HORIZONS
    def test_horizon_outside_positive_reals_rejected(self, T):
        with pytest.raises(ValueError, match="horizon must be positive and finite"):
            boundary_curve(demo_system(), UNIT_BOUNDS, T, n_eta=11)

    def test_nonqualifying_flagged_not_error(self):
        rotation = LtiSystem([[0.0, 1.0], [-1.0, 0.0]], [[1.0], [0.0]])
        curve = boundary_curve(rotation, UNIT_BOUNDS, 1.0, n_eta=11)
        assert not curve.exact

    def test_repeated_eigenvalue_not_exact(self):
        curve = boundary_curve(LtiSystem(np.eye(2), [[1.0], [0.0]]), UNIT_BOUNDS, 1.0, n_eta=11)
        assert not curve.exact

    def test_three_states_not_exact(self):
        sys = random_stable_system(np.random.default_rng(5), 3, 1)
        assert not boundary_curve(sys, UNIT_BOUNDS, 1.0, n_eta=11).exact

    def test_fractional_sample_count_rejected(self):
        with pytest.raises(TypeError, match="n_eta must be an integer, got 100.5"):
            boundary_curve(demo_system(), UNIT_BOUNDS, 1.0, n_eta=100.5)
        assert boundary_curve(demo_system(), UNIT_BOUNDS, 1.0, n_eta=np.int64(11)).etas.size == 11

    def test_multi_input_rejected(self):
        sys = LtiSystem(np.zeros((2, 2)), np.eye(2))
        with pytest.raises(UnsupportedConfigurationError):
            boundary_curve(sys, ControlBounds.symmetric(1.0, m=2), 1.0)

    def test_asymmetric_bounds(self):
        bounds = ControlBounds(lower=[0.0], upper=[2.0])
        curve = boundary_curve(demo_system(), bounds, 1.0, n_eta=51)
        # eta = T on g1 is the all-upper control; eta = 0 the all-lower
        assert np.allclose(curve.g1[0], 0.0, atol=1e-13)
        assert np.linalg.norm(curve.g1[-1]) > 1.0

    @pytest.mark.parametrize("A,exact", [
        ([[20.0, 1.0], [0.0, -20.0]], True),
        ([[40.0, 1.0], [0.0, -40.0]], True),
        ([[-40.0, 3.0], [0.0, -1.0]], True),
        ([[-0.5, 30.0], [-30.0, -0.5]], False),
    ], ids=["saddle-20", "saddle-40", "stiff", "oscillatory"])
    def test_matches_per_eta_convolution_integrals(self, A, exact):
        sys = LtiSystem(A, [[1.0], [1.0]])
        bounds = ControlBounds(lower=[-0.5], upper=[2.0])
        curve = boundary_curve(sys, bounds, 1.0, n_eta=201)
        head = np.stack([convolution_integral(sys, 1.0, 0.0, eta)[:, 0] for eta in curve.etas])
        tail = head[-1] - head
        for got, want in ((curve.g1, 2.0 * head - 0.5 * tail), (curve.g2, -0.5 * head + 2.0 * tail)):
            assert np.max(np.abs(got - want)) <= 1e-10 * np.max(np.abs(want))
        assert curve.exact is exact


class TestReachHull:
    def test_random_switch_endpoints_inside(self):
        sys = demo_system()
        hull = reach_hull_planar(boundary_curve(sys, UNIT_BOUNDS, 1.0, n_eta=1600))
        rng = np.random.default_rng(15)
        for _ in range(200):
            u = random_bang_bang(rng)
            endpoint = simulate(sys, u, 1.0, 150).endpoint
            assert hull.facet_violation(endpoint) <= 1e-6

    def test_area_stable_under_refinement(self):
        sys = demo_system()
        a400 = reach_hull_planar(boundary_curve(sys, UNIT_BOUNDS, 1.0, n_eta=400)).volume
        a800 = reach_hull_planar(boundary_curve(sys, UNIT_BOUNDS, 1.0, n_eta=800)).volume
        assert abs(a800 - a400) <= 1e-3 * a400

    def test_hull_vertices_come_from_curves(self):
        sys = demo_system()
        curve = boundary_curve(sys, UNIT_BOUNDS, 1.0, n_eta=400)
        hull = reach_hull_planar(curve)
        points = np.vstack([curve.g1, curve.g2])
        for idx, v in zip(hull.vertex_indices, hull.vertices):
            assert np.array_equal(points[idx], v)

    def test_monotone_inclusion_in_horizon(self):
        sys = demo_system()
        hull_long = reach_hull_planar(boundary_curve(sys, UNIT_BOUNDS, 1.0, n_eta=800))
        curve_short = boundary_curve(sys, UNIT_BOUNDS, 0.5, n_eta=200)
        for point in np.vstack([curve_short.g1, curve_short.g2]):
            assert hull_long.facet_violation(point) <= 1e-9

    def test_dimension_guard(self):
        sys = LtiSystem(-np.eye(3), [[1.0], [0.0], [0.0]])
        curve = boundary_curve(sys, UNIT_BOUNDS, 1.0, n_eta=11)
        with pytest.raises(DimensionError):
            reach_hull_planar(curve)


class TestCsvExport:
    def test_columns_and_rows(self):
        curve = boundary_curve(demo_system(), UNIT_BOUNDS, 1.0, n_eta=25)
        lines = boundary_curve_to_csv(curve).strip().splitlines()
        assert lines[0] == "eta,x1_g1,x2_g1,x1_g2,x2_g2"
        assert len(lines) == 26
        first = [float(x) for x in lines[1].split(",")]
        assert first[0] == 0.0

    def test_bytes_match_csv_writer(self):
        curve = boundary_curve(demo_system(), UNIT_BOUNDS, 1.0, n_eta=25)
        want = io.StringIO()
        writer = csv.writer(want)
        writer.writerow(["eta", "x1_g1", "x2_g1", "x1_g2", "x2_g2"])
        for eta, p1, p2 in zip(curve.etas, curve.g1, curve.g2):
            writer.writerow([repr(float(v)) for v in (eta, *p1, *p2)])
        assert boundary_curve_to_csv(curve) == want.getvalue()
