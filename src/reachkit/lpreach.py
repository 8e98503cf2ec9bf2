"""Lp-norm-bounded reachable sets via costate-parameterized optimal controls.

Each costate initial condition lambda0 induces the optimal control
u(t) = (-B^T e^{-A^T t} lambda0)^{1/(p-1)} (even p, elementwise odd root).
Sweeping lambda0 over a grid maps out terminal states together with their
optimal signal cost, which labels each endpoint as inside or outside the
budget. A Holder-type bound on ||lambda0||_q^q gives a cheap sufficient
filter for endpoints guaranteed to be reachable.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .csvout import csv_text
from .errors import DimensionError
from .geometry import Polytope, convex_hull
from .lti import LtiSystem, _count, expm_grid, matrix_exponential

__all__ = [
    "LpSpec",
    "LpOptimalControl",
    "LpReachCloud",
    "lp_optimal_control",
    "costate_grid",
    "sample_reach",
    "prop2_bound",
    "inner_approx",
    "cloud_to_csv",
    "simpson_weights",
]

DEFAULT_NODES = 2001

# relative slack on the budget comparison when labeling endpoints reachable
REACHABLE_SLACK = 1e-12


@dataclass(frozen=True)
class LpSpec:
    """Signal-norm budget: ||u||_{Lp} <= budget over horizon T, p even."""

    p: int
    T: float
    budget: float = 1.0

    def __post_init__(self):
        if self.p < 2 or self.p % 2 != 0:
            raise ValueError(f"p must be an even integer >= 2, got {self.p}")
        if not 0 < self.T < np.inf:
            raise ValueError(f"horizon must be positive and finite, got {self.T}")
        if not 0 < self.budget < np.inf:
            raise ValueError(f"budget must be positive and finite, got {self.budget}")

    @property
    def q(self) -> float:
        return self.p / (self.p - 1)


def _signed_root(z: np.ndarray, p: int) -> np.ndarray:
    """Sign-preserving (p-1)-th root: z itself for p = 2, else one new array."""
    if p == 2:
        return z
    if p == 4:
        return np.cbrt(z)
    root = np.abs(z)
    np.power(root, 1.0 / (p - 1), out=root)
    return np.copysign(root, z, out=root)


@dataclass
class LpOptimalControl:
    """Costate-parameterized optimal control sampled on a uniform grid."""

    A: np.ndarray
    B: np.ndarray
    lambda0: np.ndarray
    p: int
    times: np.ndarray
    values: np.ndarray

    def __call__(self, t):
        z = -self.B.T @ (matrix_exponential(-self.A.T, t) @ self.lambda0)
        return _signed_root(z, self.p)


@dataclass
class LpReachCloud:
    """Costate sweep results plus the hull of the affordable endpoints.

    samples is a record array with one row per costate and the fields
    lambda0 (n,), endpoint (n,), cost_p, reachable and within_prop2_bound,
    so samples.endpoint is the (N, n) endpoint array and samples[i] one
    costate's record. hull is built on first read; it is None when no
    endpoint is affordable or n is outside 2..4.
    """

    samples: np.recarray

    @cached_property
    def hull(self) -> Polytope | None:
        endpoints = self.samples.endpoint[self.samples.reachable]
        n = endpoints.shape[1]
        return convex_hull(endpoints, dim=n) if len(endpoints) and 2 <= n <= 4 else None


def simpson_weights(num: int, T: float) -> np.ndarray:
    """Composite Simpson weights on num (odd, >= 3) uniform nodes over [0, T]."""
    if num < 3 or num % 2 == 0:
        raise ValueError(f"Simpson rule needs an odd node count >= 3, got {num}")
    h = T / (num - 1)
    w = np.full(num, 2.0)
    w[1::2] = 4.0
    w[0] = w[-1] = 1.0
    return w * (h / 3.0)


def lp_optimal_control(
    sys: LtiSystem, lambda0, spec: LpSpec, num_points: int = DEFAULT_NODES
) -> LpOptimalControl:
    """Optimal-control candidate for one costate initial condition.

    The returned object evaluates the closed form at arbitrary times and
    carries samples on a uniform num_points grid over [0, T].
    """
    lambda0 = np.asarray(lambda0, dtype=float)
    if lambda0.shape != (sys.n,):
        raise DimensionError(f"lambda0 must have shape ({sys.n},), got {lambda0.shape}")
    if not np.all(np.isfinite(lambda0)):
        raise ValueError("lambda0 entries must be finite")
    num_points = _count(num_points, "num_points")
    times = np.linspace(0.0, spec.T, num_points)
    z = expm_grid(-sys.A.T, 0.0, spec.T, num_points, left=-sys.B.T, right=lambda0)[:, :, 0]
    return LpOptimalControl(
        A=sys.A,
        B=sys.B,
        lambda0=lambda0,
        p=spec.p,
        times=times,
        values=_signed_root(z, spec.p),
    )


def _quadrature_kernels(sys: LtiSystem, T: float, nodes: int):
    """Simpson-node matrices -B^T e^{-A^T t_j} and e^{A(T-t_j)} B, and the weights."""
    pullback = expm_grid(-sys.A.T, 0.0, T, nodes, left=-sys.B.T)
    pushforward = expm_grid(sys.A, T, 0.0, nodes, right=sys.B)
    return pullback, pushforward, simpson_weights(nodes, T)


def _radius(pullback: np.ndarray, weights: np.ndarray, spec: LpSpec) -> float:
    # the pullback holds -(e^{-A t_j} B)^T, whose entrywise p-norm is the same
    vec_norms = np.sum(np.abs(pullback) ** spec.p, axis=(1, 2)) ** (1.0 / spec.p)
    return 1.0 / (pullback.shape[1] * float(weights @ vec_norms**spec.q))


def prop2_bound(sys: LtiSystem, spec: LpSpec, nodes: int = DEFAULT_NODES) -> float:
    """Costate-norm radius R guaranteeing budget feasibility.

    Any lambda0 with ||lambda0||_q^q <= R * budget^p yields an optimal
    control whose Lp cost stays within the budget. R is the reciprocal of
    m times the Simpson integral of ||vec(e^{-A tau} B)||_p^q over [0, T].
    """
    pullback = expm_grid(-sys.A.T, 0.0, spec.T, nodes, left=-sys.B.T)
    return _radius(pullback, simpson_weights(nodes, spec.T), spec)


def _certify(sys: LtiSystem, spec: LpSpec, grid, nodes: int):
    """The checked grid, its quadrature kernels, and which costates the
    norm-radius filter certifies."""
    grid = np.atleast_2d(np.asarray(grid, dtype=float))
    if grid.size == 0:
        raise ValueError("costate grid must be nonempty")
    if grid.shape[1] != sys.n:
        raise DimensionError(f"grid rows must have dimension {sys.n}, got {grid.shape[1]}")
    if not np.all(np.isfinite(grid)):
        raise ValueError("costate grid entries must be finite")
    kernels = _quadrature_kernels(sys, spec.T, nodes)
    lam_norms = np.sum(np.abs(grid) ** spec.q, axis=1)
    return grid, kernels, lam_norms <= _radius(kernels[0], kernels[2], spec) * spec.budget**spec.p


def _directions(grid: np.ndarray):
    """The rows that stand for the grid's distinct directions, each row's
    direction, and each row's size relative to the row of its direction.

    A row shares the direction of the first row of its run in
    lexicographic order of rows scaled to max-norm 1 when each scaled
    component agrees with that row's to 4 eps relative, so zero components
    must be exactly zero and a negative multiple stays apart. Zero rows
    share the zero direction. The first row of each direction has size
    exactly 1, so a grid with no shared direction is swept row by row.
    """
    norms = np.max(np.abs(grid), axis=1)
    norms[norms == 0.0] = 1.0
    unit = grid / norms[:, None]
    # signs first: sorting on the values alone puts (a, -b) between rows of (a, b)
    order = np.lexsort(np.vstack([np.sign(unit).T, unit.T])[::-1])
    s, rows = unit[order], np.arange(len(grid))

    def close(a, b):
        return np.all(np.abs(a - b) <= 4.0 * np.finfo(float).eps * np.abs(b), axis=1)

    start = np.ones(len(s), dtype=bool)
    start[1:] = ~close(s[1:], s[:-1])
    lead = np.maximum.accumulate(np.where(start, rows, 0))
    # a row that drifted beyond 4 eps of its run's first row keeps its own direction
    lead = np.where(close(s, s[lead]), lead, rows)
    owner = np.empty_like(order)
    owner[order] = order[lead]
    firsts, member = np.unique(owner, return_inverse=True)
    return firsts, member, norms / norms[owner]


def _sweep(spec: LpSpec, grid, kernels, certified) -> LpReachCloud:
    pullback, pushforward, weights = kernels
    nodes, m, n = pullback.shape
    # homogeneity: alpha lambda0 has alpha^(1/(p-1)) times the endpoint of
    # lambda0 and alpha^q times its cost, so each direction is swept once
    firsts, member, size = _directions(grid)
    # column j * m + i of z and u holds node j, channel i
    z = grid[firsts] @ pullback.transpose(2, 0, 1).reshape(n, nodes * m)
    u = _signed_root(z, spec.p)
    weighted = (weights[:, None, None] * pushforward).transpose(0, 2, 1).reshape(nodes * m, n)
    samples = np.recarray(len(grid), dtype=[
        ("lambda0", float, (n,)), ("endpoint", float, (n,)), ("cost_p", float),
        ("reachable", bool), ("within_prop2_bound", bool)])
    samples.lambda0 = grid
    samples.endpoint = (u @ weighted)[member] * (size ** (1.0 / (spec.p - 1)))[:, None]
    # |u|^p = u z, since u has the sign of z and |u|^(p-1) = |z|
    samples.cost_p = (np.multiply(u, z, out=z) @ np.repeat(weights, m))[member] * size**spec.q
    samples.reachable = samples.cost_p <= spec.budget**spec.p * (1.0 + REACHABLE_SLACK)
    samples.within_prop2_bound = certified
    return LpReachCloud(samples)


def sample_reach(sys: LtiSystem, spec: LpSpec, grid, nodes: int = DEFAULT_NODES) -> LpReachCloud:
    """Sweep a costate grid and label endpoints by optimal signal cost.

    Endpoints and costs come from composite Simpson quadrature of the
    closed-form control, as two GEMMs over the distinct directions of the
    grid: one costate per direction by pullback gives z, and its odd root
    u by the weighted pushforward gives the endpoints; the costs are
    u . z. By costate homogeneity the costate alpha lambda0 has
    alpha^(1/(p-1)) times the endpoint of lambda0 and alpha^q times its
    cost. Rows share a direction when they are positive multiples of one
    another to 4 eps relative in every component, with zero components
    exactly zero; a zero row gets endpoint 0 and cost 0. samples keeps
    one record per row, with lambda0 the row as given. The cloud's hull
    covers the budget-feasible endpoints only and is built when first read.
    """
    return _sweep(spec, *_certify(sys, spec, grid, nodes))


def inner_approx(sys: LtiSystem, spec: LpSpec, grid, nodes: int = DEFAULT_NODES) -> LpReachCloud:
    """Restrict the sweep to costates certified by the norm-radius filter.

    Every surviving sample is guaranteed budget-feasible, so the resulting
    cloud is an inner approximation of the reachable set. An empty filter
    result is valid and produces an empty cloud. The quadrature kernels
    are built once and serve both the filter and the sweep, which sweeps
    each direction of the certified rows once, as in sample_reach:
    positive multiples to 4 eps relative in every component, with zero
    components exactly zero, share one direction.
    """
    grid, kernels, certified = _certify(sys, spec, grid, nodes)
    return _sweep(spec, grid[certified], kernels, certified[certified])


def _halton(d: int, count: int) -> np.ndarray:
    """The first count points of the unscrambled Halton sequence in the
    first d prime bases (2, 3, 5, 7 for d <= 4), starting at the origin.
    Each radical inverse sums its digits in the order of
    scipy.stats.qmc.Halton(scramble=False), so the points agree bit for bit."""
    bases = []
    candidate = 2
    while len(bases) < d:
        if all(candidate % b for b in bases):
            bases.append(candidate)
        candidate += 1
    points = np.zeros((count, d))
    for k, base in enumerate(bases):
        q, scale = np.arange(count), 1.0 / base
        while q.any():
            points[:, k] += (q % base) * scale
            scale /= base
            q //= base
    return points


def _sphere_directions(n: int, count: int) -> np.ndarray:
    """count unit directions: uniform angles for n = 2; otherwise the
    unscrambled Halton points in bases 2, 3, 5, 7 (the first n primes)
    mapped through the Gaussian quantile ndtri and normalised, skipping
    points within 1e-9 of the cube's faces (the first, the origin, among them)."""
    if n == 2:
        angles = 2.0 * np.pi * np.arange(count) / count
        return np.column_stack([np.cos(angles), np.sin(angles)])
    # imported on first use, so that importing reachkit skips scipy.special
    from scipy.special import ndtri

    raw = _halton(n, count + 16)
    raw = raw[np.all((raw > 1e-9) & (raw < 1.0 - 1e-9), axis=1)]
    gauss = ndtri(raw)
    norms = np.linalg.norm(gauss, axis=1)
    gauss = gauss[norms > 1e-12]
    dirs = gauss / np.linalg.norm(gauss, axis=1, keepdims=True)
    return dirs[:count]


def costate_grid(n: int, magnitudes, directions_per_shell: int) -> np.ndarray:
    """Deterministic costate grid of radius shells times sphere directions.

    Each shell of radius r contributes the 2n axis-aligned points +-r e_i
    plus directions_per_shell low-discrepancy unit directions scaled by r:
    uniform angles for n = 2; for higher n the unscrambled Halton sequence
    in bases 2, 3, 5, 7 (the first n primes) mapped through the Gaussian
    quantile ndtri and normalised. Exact duplicates collapse to their first
    occurrence.
    """
    if n < 1:
        raise ValueError(f"costate_grid needs n >= 1 states, got n={n}")
    n = _count(n, "n")
    magnitudes = np.atleast_1d(np.asarray(magnitudes, dtype=float))
    if magnitudes.ndim != 1:
        raise ValueError(f"magnitudes must be a scalar or 1-D, got shape {magnitudes.shape}")
    if not (magnitudes.size and np.all((magnitudes > 0) & (magnitudes < np.inf))
            and np.all(np.diff(magnitudes) >= 0)):
        raise ValueError("magnitudes must be nonempty, positive, finite and ascending")
    directions_per_shell = _count(directions_per_shell, "directions_per_shell")
    shell = np.vstack([np.eye(n), -np.eye(n), _sphere_directions(n, directions_per_shell)])
    points = (magnitudes[:, None, None] * shell).reshape(-1, n)
    # rows compare as raw bytes, so -0.0 and 0.0 stay distinct
    rows = points.view(np.dtype((np.void, points.itemsize * n))).ravel()
    _, first = np.unique(rows, return_index=True)
    return points[np.sort(first)]


def cloud_to_csv(cloud: LpReachCloud) -> str:
    """The samples as CSV text: costate, endpoint, cost, and budget labels."""
    s = cloud.samples
    n = s.dtype["endpoint"].shape[0]
    header = (
        [f"lambda0_{i + 1}" for i in range(n)]
        + [f"xf_{i + 1}" for i in range(n)]
        + ["cost_p", "reachable", "within_prop2_bound"]
    )
    return csv_text(header, np.column_stack([s.lambda0, s.endpoint, s.cost_p]),
                    np.column_stack([s.reachable, s.within_prop2_bound]))
