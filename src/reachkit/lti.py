"""Dense LTI primitives: matrix exponentials, exact convolution integrals,
and a fixed-step RK4 integrator used as an independent cross-check.
"""

import math
import operator
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import expm as _scipy_expm

from .errors import DimensionError, IntervalError, NumericRangeError

__all__ = [
    "LtiSystem",
    "Trajectory",
    "PiecewiseConstantControl",
    "matrix_exponential",
    "expm_grid",
    "convolution_integral",
    "simulate",
]


class LtiSystem:
    """Linear time-invariant system x' = A x + B u.

    A is n-by-n, B is n-by-m. Matrices are stored as read-only float arrays
    so instances can be shared freely across threads.
    """

    def __init__(self, A, B):
        A = np.array(A, dtype=float)
        B = np.array(B, dtype=float)
        if A.ndim != 2 or A.shape[0] != A.shape[1]:
            raise DimensionError(f"A must be square, got shape {A.shape}")
        if B.ndim == 1:
            B = B.reshape(-1, 1)
        if B.ndim != 2 or B.shape[0] != A.shape[0]:
            raise DimensionError(
                f"B must have {A.shape[0]} rows, got shape {B.shape}"
            )
        if A.shape[0] < 1 or B.shape[1] < 1:
            raise DimensionError("state and input dimensions must be >= 1")
        if not (np.all(np.isfinite(A)) and np.all(np.isfinite(B))):
            raise ValueError("A and B entries must be finite")
        A.flags.writeable = False
        B.flags.writeable = False
        self.A = A
        self.B = B

    @property
    def n(self) -> int:
        return self.A.shape[0]

    @property
    def m(self) -> int:
        return self.B.shape[1]

    def __repr__(self):
        return f"LtiSystem(n={self.n}, m={self.m})"


@dataclass
class Trajectory:
    """Sampled solution of an LTI system on an ascending time grid."""

    times: np.ndarray
    states: np.ndarray

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=float)
        self.states = np.asarray(self.states, dtype=float)
        if len(self.times) != len(self.states):
            raise DimensionError("times and states must have equal length")

    @property
    def endpoint(self) -> np.ndarray:
        return self.states[-1]


@dataclass
class PiecewiseConstantControl:
    """Piecewise-constant control: values[k] holds on [t_k, t_{k+1}).

    switch_times are the interior breakpoints, finite and ascending (equal
    neighbours allowed); values has one more row.
    Evaluation is right-continuous at the breakpoints.
    """

    switch_times: np.ndarray
    values: np.ndarray
    horizon: float = field(default=np.inf)

    def __post_init__(self):
        self.switch_times = np.atleast_1d(np.asarray(self.switch_times, dtype=float))
        self.values = np.atleast_2d(np.asarray(self.values, dtype=float))
        if self.values.shape[0] != len(self.switch_times) + 1:
            raise DimensionError(
                "need len(switch_times) + 1 value rows, got "
                f"{self.values.shape[0]} rows for {len(self.switch_times)} switches"
            )
        times = self.switch_times
        if not (np.all(np.isfinite(times)) and np.all(np.diff(times) >= 0)):
            raise ValueError(f"switch_times must be finite and ascending, got {times}")

    def __call__(self, t):
        idx = np.searchsorted(self.switch_times, t, side="right")
        return self.values[idx]


def _square_finite(A) -> np.ndarray:
    A = np.asarray(A, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise DimensionError(f"A must be square, got shape {A.shape}")
    if not np.all(np.isfinite(A)):
        raise ValueError("A entries must be finite")
    return A


def matrix_exponential(A, t: float) -> np.ndarray:
    """e^{A t} by scaling-and-squaring with Pade approximants.

    Negative t is allowed. Raises NumericRangeError if the result
    overflows to non-finite values.
    """
    A = _square_finite(A)
    if not np.isfinite(t):
        raise ValueError("t must be finite")
    return _expm_stack(A, t)


def _expm_stack(A: np.ndarray, times: np.ndarray) -> np.ndarray:
    """e^{A t} for each t in times, shape (len(times), n, n), from one expm call;
    a scalar time gives the one (n, n) exponential.

    scipy's expm treats each matrix of a stack on its own, so entry i is
    bit for bit the direct exponential of A * times[i].
    """
    with np.errstate(over="ignore", invalid="ignore"):
        out = _scipy_expm(np.multiply.outer(times, A))
    if not np.all(np.isfinite(out)):
        raise NumericRangeError(f"exp(A t) overflowed for |t| = {np.max(np.abs(times))}")
    return out


def _doubling_table(powers: np.ndarray, count: int) -> np.ndarray:
    """e^{A r h} for r = 0..count-1, shape (count, n, n), from powers[j] = e^{A h 2^j}.

    Entry r is the product of powers[j] over the set bits j of r, so no
    entry carries more than log2(count) factors; powers needs
    (count - 1).bit_length() levels.
    """
    table = np.empty((count,) + powers.shape[1:])
    table[0] = np.eye(powers.shape[1])
    for j in range((count - 1).bit_length()):
        size = 1 << j
        top = min(2 * size, count)
        np.matmul(table[: top - size], powers[j], out=table[size:top])
    return table


def _grid_factors(A, t0: float, t1: float, num: int, left=None, right=None):
    """Factors of left @ e^{A t} @ right on linspace(t0, t1, num); see expm_grid.

    Returns (anchors, powers, forward): anchors is (count, p, n) and powers
    is (width, n, q), and node k of the grid run from its end nearest t = 0
    is anchors[k // width] @ powers[k % width]. forward is False when that
    end is t1, so the caller reverses the nodes to get linspace order.
    """
    A = _square_finite(A)
    try:
        num = operator.index(num)
    except TypeError:
        raise TypeError(f"the node count must be an integer, got {num!r}") from None
    if num < 1:
        raise ValueError("num must be >= 1")
    if not (math.isfinite(t0) and math.isfinite(t1)):
        raise ValueError("t0 and t1 must be finite")
    start, end = (t0, t1) if num == 1 or abs(t0) <= abs(t1) else (t1, t0)
    step = (end - start) / (num - 1) if num > 1 else 0.0
    width = 1 << math.ceil(math.log2(num) / 2)
    count = -(-num // width)
    # width is 2^k, so the anchor steps width * step * 2^j continue the powers'
    # doubling sequence step * 2^j, and one expm call serves both tables
    k = width.bit_length() - 1
    times = step * 2.0 ** np.arange(k + (count - 1).bit_length())
    # a grid from t = 0 starts at the identity and needs no base exponential
    exps = _expm_stack(A, np.append(times, start) if start else times)
    powers = _doubling_table(exps[:k], width)
    anchors = _doubling_table(exps[k:len(times)], count)
    if start:
        anchors = exps[-1] @ anchors
    if left is not None:
        anchors = np.atleast_2d(np.asarray(left, dtype=float)) @ anchors
    if right is not None:
        right = np.asarray(right, dtype=float)
        powers = powers @ (right[:, None] if right.ndim == 1 else right)
    return anchors, powers, start == t0


def _grid_block(anchors: np.ndarray, powers: np.ndarray) -> np.ndarray:
    """Every anchor-by-power node as one GEMM, shape (len(anchors) * width, p, q)."""
    count, p, n = anchors.shape
    width, _, q = powers.shape
    out = anchors.reshape(-1, n) @ powers.transpose(1, 0, 2).reshape(n, -1)
    return out.reshape(count, p, width, q).transpose(0, 2, 1, 3).reshape(-1, p, q)


def expm_grid(A, t0: float, t1: float, num: int, *, left=None, right=None) -> np.ndarray:
    """left @ e^{A t} @ right for t on linspace(t0, t1, num), shape (num, p, q).

    left is (p, n) and right is (n, q); a 1-D left is a row, a 1-D right a
    column, and an omitted operand is the identity, so the plain call
    returns the (num, n, n) exponentials. The grid is factored as
    e^{A t_k} = anchor_{k // L} @ power_{k % L} with L ~ sqrt(num). Both
    tables are built by doubling from the grid end nearest t = 0, so every
    entry is a product of about log2(num) direct exponentials whose
    times share one sign (on grids that do not straddle t = 0), and no
    entry is reached by stepping back from a large e^{A t}. A grid running
    toward 0 is computed from the other end and returned as a reversed
    view, so both directions give the same values. The operands are
    folded into the tables, and one GEMM of (num/L * p, n) by (n, L * q)
    gives every node without forming (num, n, n). Nothing is cached.
    """
    anchors, powers, forward = _grid_factors(A, t0, t1, num, left, right)
    out = _grid_block(anchors, powers)[:num]
    return out if forward else out[::-1]


def convolution_integral(sys: LtiSystem, T: float, t0: float, t1: float) -> np.ndarray:
    """Exact integral of e^{A(T - tau)} B over tau in [t0, t1].

    Computed in closed form: the augmented block matrix [[A, B], [0, 0]]
    is exponentiated over the interval length (its upper-right block is
    the integral of e^{A s} B from 0 to t1 - t0), then composed with
    e^{A (T - t1)}.
    """
    if not (0.0 <= t0 <= t1 <= T):
        raise IntervalError(f"need 0 <= t0 <= t1 <= T, got t0={t0}, t1={t1}, T={T}")
    n, m = sys.n, sys.m
    aug = np.zeros((n + m, n + m))
    aug[:n, :n] = sys.A
    aug[:n, n:] = sys.B
    growth = matrix_exponential(aug, t1 - t0)[:n, n:]
    if t1 == T:
        return growth
    return matrix_exponential(sys.A, T - t1) @ growth


def simulate(sys: LtiSystem, u, T: float, steps: int) -> Trajectory:
    """Fixed-step RK4 integration of x' = A x + B u from x(0) = 0.

    u is a callable t -> (m,) vector (scalar return accepted for m=1).
    Controls exposing a switch_times attribute get those times inserted as
    integration nodes and are treated as constant within each step, which
    keeps the fourth order of the scheme across the discontinuities.
    """
    if not 0 < T < math.inf:
        raise ValueError(f"horizon must be positive and finite, got T={T}")
    if steps < 1:
        raise ValueError("steps must be >= 1")
    grid = np.linspace(0.0, T, steps + 1)
    switch_times = getattr(u, "switch_times", None)
    piecewise = switch_times is not None
    if piecewise and len(switch_times) > 0:
        interior = np.asarray(switch_times, dtype=float)
        interior = interior[(interior > 0.0) & (interior < T)]
        grid = np.unique(np.concatenate([grid, interior]))

    hs = np.diff(grid)
    if piecewise:
        # constant drive per interval (grid is switch-aligned), sampled at
        # the midpoints in one vectorized call
        mids = 0.5 * (grid[:-1] + grid[1:])
        useg = np.asarray(u(mids), dtype=float).reshape(len(mids), sys.m)
        start = mid = end = useg @ sys.B.T
    else:
        def eval_u(t):
            return np.atleast_1d(np.asarray(u(t), dtype=float))

        drives = np.stack([eval_u(t) for t in grid]) @ sys.B.T
        mid = np.stack([eval_u(t + 0.5 * h) for t, h in zip(grid[:-1], hs)]) @ sys.B.T
        start, end = drives[:-1], drives[1:]

    A = sys.A
    x = np.zeros(sys.n)
    states = np.empty((len(grid), sys.n))
    states[0] = x
    for k, h in enumerate(hs):
        k1 = A @ x + start[k]
        k2 = A @ (x + 0.5 * h * k1) + mid[k]
        k3 = A @ (x + 0.5 * h * k2) + mid[k]
        k4 = A @ (x + h * k3) + end[k]
        x = x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        states[k + 1] = x
    return Trajectory(times=grid, states=states)
