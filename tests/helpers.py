"""Shared fixtures and independent numerical oracles for the test suite.

Oracles deliberately avoid the library's computational paths: matrix
exponentials come from eigendecomposition, the 2-by-2 closed form, a
direct scipy expm at every node (never chained products) or mpmath at 50
digits, integrals from (adaptive) trapezoid or Simpson rules, and
memberships from facet arithmetic.
"""

import mpmath
import numpy as np
from scipy.linalg import expm

from reachkit import LtiSystem

# planar demo system used throughout: real distinct eigenvalues, one input
DEMO_A = np.array([[0.4, -0.3], [0.5, 1.7]])
DEMO_B = np.array([[1.0], [0.0]])

# eigenvalues of DEMO_A frozen from the characteristic polynomial:
# (2.1 +- sqrt(1.09)) / 2
DEMO_EIG_SLOW = 0.5279846652873577
DEMO_EIG_FAST = 1.5720153347126423


def demo_system() -> LtiSystem:
    return LtiSystem(DEMO_A, DEMO_B)


def mp_expm(A, t: float, digits: int = 50) -> np.ndarray:
    """e^{A t} from mpmath's expm at the given working precision, rounded
    once to float64; the product A t is formed exactly at that precision."""
    with mpmath.workdps(digits):
        E = mpmath.expm(mpmath.matrix(np.asarray(A, dtype=float).tolist()) * mpmath.mpf(t))
        return np.array(E.tolist(), dtype=float)


def eig_expm(A: np.ndarray, t: float) -> np.ndarray:
    """Matrix exponential through eigendecomposition (oracle path)."""
    lam, V = np.linalg.eig(A)
    return np.real(V @ np.diag(np.exp(lam * t)) @ np.linalg.inv(V))


def eig_expm_grid(A: np.ndarray, times: np.ndarray) -> np.ndarray:
    """e^{A t} for each t in times, vectorized over the spectrum."""
    lam, V = np.linalg.eig(A)
    Vinv = np.linalg.inv(V)
    phases = np.exp(np.multiply.outer(times, lam))  # (K, n)
    return np.real(np.einsum("ij,kj,jl->kil", V, phases, Vinv))


def closed_form_expm_grid(A: np.ndarray, times: np.ndarray) -> np.ndarray:
    """e^{A t} for a 2-by-2 A at each t, from A = mu I + N with N^2 = d2 I."""
    mu = 0.5 * np.trace(A)
    N = A - mu * np.eye(2)
    d2 = mu * mu - np.linalg.det(A)
    d = np.sqrt(abs(d2))
    if d2 > 0:
        even, odd = np.cosh(d * times), np.sinh(d * times) / d
    elif d2 < 0:
        even, odd = np.cos(d * times), np.sin(d * times) / d
    else:
        even, odd = np.ones_like(times), times
    scale = np.exp(mu * times)[:, None, None]
    return scale * (even[:, None, None] * np.eye(2) + odd[:, None, None] * N)


def simpson_reach_oracle(sys: LtiSystem, p: int, T: float, costates, nodes: int = 2001):
    """Simpson endpoints and p-costs of u = root_{p-1}(-B^T e^{-A^T t} lambda0),
    with a direct scipy expm at every node."""
    times = np.linspace(0.0, T, nodes)
    w = np.full(nodes, 2.0)
    w[1::2] = 4.0
    w[0] = w[-1] = 1.0
    w *= T / (3.0 * (nodes - 1))
    pull = -np.einsum("nm,jkn->jmk", sys.B, expm(-sys.A[None] * times[:, None, None]))
    push = np.einsum("jnk,km->jnm", expm(sys.A[None] * (T - times)[:, None, None]), sys.B)
    z = np.einsum("jmk,lk->ljm", pull, np.atleast_2d(costates))
    u = np.sign(z) * np.abs(z) ** (1.0 / (p - 1))
    return np.einsum("j,jnm,ljm->ln", w, push, u), np.einsum("j,ljm->l", w, np.abs(u) ** p)


def adaptive_trapezoid(f, a: float, b: float, rel_tol: float = 1e-10, max_levels: int = 24):
    """Trapezoid rule with interval halving until the estimate settles.

    f maps an array of nodes to their stacked values. Each halving
    evaluates f only at the new midpoints and reuses the earlier samples.
    """
    n = 8
    xs = np.linspace(a, b, n + 1)
    vals = f(xs)
    est = np.trapezoid(vals, xs, axis=0)
    for _ in range(max_levels):
        n *= 2
        xs = np.linspace(a, b, n + 1)
        merged = np.empty((n + 1,) + vals.shape[1:])
        merged[::2], merged[1::2] = vals, f(xs[1::2])
        vals = merged
        new = np.trapezoid(vals, xs, axis=0)
        scale = np.max(np.abs(new)) or 1.0
        if np.max(np.abs(new - est)) <= rel_tol * scale:
            return new
        est = new
    return est


def conv_integral_oracle(sys: LtiSystem, T: float, t0: float, t1: float, rel_tol=1e-10):
    """Quadrature oracle for the convolution integral of e^{A(T-s)} B."""
    return adaptive_trapezoid(lambda s: eig_expm_grid(sys.A, T - s) @ sys.B, t0, t1, rel_tol)


def gramian_oracle(sys: LtiSystem, T: float, nodes: int = 100001) -> np.ndarray:
    """Trapezoid quadrature of the Gramian integrand on a dense grid."""
    times = np.linspace(0.0, T, nodes)
    EB = np.einsum("kij,jm->kim", eig_expm_grid(sys.A, T - times), sys.B)
    prods = np.einsum("kim,kjm->kij", EB, EB)
    return np.trapezoid(prods, times, axis=0)


def modal_gramian(A: np.ndarray, B: np.ndarray, T: float) -> np.ndarray:
    """W = int_0^T e^{As} B B^T e^{A^T s} ds from the eigenbasis of A.

    With A = V diag(lam) V^{-1} and G = V^{-1} B B^T V^{-H}, entry (i, j) of
    the modal integral is G_ij (e^{x T} - 1) / x for x = lam_i + conj(lam_j).
    No matrix exponential is taken, so stiff spectra cost no accuracy.
    """
    lam, V = np.linalg.eig(np.asarray(A, dtype=float))
    Vinv = np.linalg.inv(V)
    B = np.atleast_2d(np.asarray(B, dtype=float))
    G = Vinv @ B @ B.T @ Vinv.conj().T
    x = np.add.outer(lam, lam.conj())
    small = np.abs(x * T) < 1e-8
    phi = np.where(small, T * (1.0 + 0.5 * x * T), np.expm1(x * T) / np.where(small, 1.0, x))
    return np.real(V @ (G * phi) @ V.conj().T)


def well_conditioned(A: np.ndarray, limit: float = 1e6) -> bool:
    _, V = np.linalg.eig(A)
    return np.linalg.cond(V) < limit


def random_stable_system(rng, n: int, m: int, norm_cap: float = 5.0) -> LtiSystem:
    """Random Hurwitz system with a well-conditioned eigenbasis."""
    while True:
        M = rng.standard_normal((n, n))
        shift = max(np.real(np.linalg.eigvals(M))) + rng.uniform(0.2, 1.0)
        A = M - shift * np.eye(n)
        scale = np.linalg.norm(A, 2)
        if scale > norm_cap:
            A = A * (norm_cap / scale)
        if well_conditioned(A):
            break
    B = rng.standard_normal((n, m))
    return LtiSystem(A, B)


def random_planar_real_distinct(rng, min_gap: float = 0.3) -> LtiSystem:
    """Planar single-input system built from a real distinct spectrum."""
    while True:
        lam = np.sort(rng.uniform(-2.0, 2.0, 2))
        if lam[1] - lam[0] >= min_gap:
            break
    while True:
        V = rng.standard_normal((2, 2))
        if abs(np.linalg.det(V)) > 0.3:
            break
    A = V @ np.diag(lam) @ np.linalg.inv(V)
    B = rng.standard_normal((2, 1))
    if np.linalg.norm(B) < 0.3:
        B = B + 0.5 * np.sign(B + 1e-12)
    return LtiSystem(A, B)


def random_bang_bang(rng, bounds_mag: float = 1.0, max_switches: int = 5, T: float = 1.0):
    """Random saturated control with up to max_switches alternations."""
    from reachkit import PiecewiseConstantControl

    k = int(rng.integers(0, max_switches + 1))
    switches = np.sort(rng.uniform(0.0, T, k))
    start = rng.choice([-1.0, 1.0])
    values = bounds_mag * start * (-1.0) ** np.arange(k + 1)
    return PiecewiseConstantControl(
        switch_times=switches, values=values.reshape(-1, 1), horizon=T
    )


def frontier_adapted_grid(sys, spec, n_dirs: int = 720, extra_shells=(5.0, 10.0, 20.0, 50.0, 100.0),
                          extra_dirs: int = 302):
    """Deterministic costate grid combining large-magnitude shells with
    costates rescaled onto the unit-cost frontier.

    Stage one sweeps unit directions to estimate each direction's optimal
    cost; stage two scales every direction so its cost lands just inside
    the budget. The union resolves the reachable set's boundary while
    keeping the large-radius shells of the reference sweep.
    """
    from reachkit import costate_grid, sample_reach

    angles = 2.0 * np.pi * np.arange(n_dirs) / n_dirs
    dirs = np.column_stack([np.cos(angles), np.sin(angles)])
    probe = sample_reach(sys, spec, dirs)
    costs = np.array([s.cost_p for s in probe.samples])
    budget_p = spec.budget**spec.p
    radii = (0.999999999 * budget_p / costs) ** (1.0 / spec.q)
    adapted = dirs * radii[:, None]
    shells = costate_grid(2, extra_shells, extra_dirs)
    return np.vstack([shells, adapted])
