"""Dense LTI primitives: matrix exponentials, exact convolution integrals,
and a fixed-step RK4 integrator used as an independent cross-check.
"""

import bisect
import math
import operator
from dataclasses import dataclass, field

import numpy as np

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
    if not np.isfinite(A).all():
        raise ValueError("A entries must be finite")
    return A


def _count(value, name: str, low: int = 1) -> int:
    """value as an int, for a count that must be an integer >= low; a float,
    even a whole one, is rejected with an error that names the count."""
    try:
        value = operator.index(value)
    except TypeError:
        raise TypeError(f"{name} must be an integer, got {value!r}") from None
    if value < low:
        raise ValueError(f"{name} must be >= {low}, got {value}")
    return value


def matrix_exponential(A, t: float) -> np.ndarray:
    """e^{A t} by scaling-and-squaring with Pade approximants.

    Negative t is allowed. Raises NumericRangeError if the result
    overflows to non-finite values.
    """
    A = _square_finite(A)
    if not np.isfinite(t):
        raise ValueError("t must be finite")
    return _expm_stack(A, t)


def _pade_numerator(m: int) -> np.ndarray:
    """Coefficients b_0..b_m of p_m, the [m/m] Pade approximant of e^x being
    p_m(x) / p_m(-x) (Higham, SIAM J. Matrix Anal. Appl. 26(4), 2005)."""
    f = math.factorial
    return np.array([f(2 * m - k) // (f(k) * f(m - k)) for k in range(m + 1)], dtype=float)


# Pade orders m and their theta_m (Al-Mohy and Higham, SIAM J. Matrix
# Anal. Appl. 31(3), 2009, Table 3.1): r_m(X) meets e^X to unit roundoff u
# once ||X||_1 <= theta_m. For order 13 they scale X by 2^-s until their
# eta, taken from the norms of X's powers, is at most theta_13 and their
# ell check c ||abs(X)^27||_1 / ||X||_1 <= u holds, c = (13!)^2 / (26! 27!)
# being the first coefficient of r_13's backward error series.
# _ELL_13 = (u / c)^(1/26) bounds ||X||_1 where that check holds for any X.
_PADE_ORDERS = (3, 5, 7, 9, 13)
_THETA = (1.495585217958292e-2, 2.539398330063230e-1, 9.504178996162932e-1,
          2.097847961257068, 4.25)
_ELL_13 = (2.0**-53 * math.factorial(26) * math.factorial(27) / math.factorial(13) ** 2) ** (1 / 26)
# p_m's coefficients b_k, and the k of each, as (2, m // 2 + 1): the odd
# powers b_m, b_m-2, ..., b_1 in row 0 and the even ones in row 1
_PADE = {m: _pade_numerator(m)[::-1].reshape(-1, 2).T.copy() for m in _PADE_ORDERS}
_PADE_POWERS = {m: np.arange(m, -1, -1).reshape(-1, 2).T.copy() for m in _PADE_ORDERS}


def _even_powers(A: np.ndarray, p: int) -> np.ndarray:
    """A^2p, ..., A^2, A^0, shape (p + 1, n, n), highest power first, so that
    every lower order's powers are a contiguous tail."""
    even = np.empty((p + 1,) + A.shape)
    even[p] = 0.0
    even.reshape(p + 1, -1)[p, :: len(A) + 1] = 1.0
    for j in range(1, p + 1):
        # A^2j = A^2h A^2(j - h) with h = j // 2
        half = j // 2
        np.matmul(even[p - half] if half else A, even[p - j + half] if half else A, out=even[p - j])
    return even


def _squarings(size: float, limit: float) -> int:
    """The least s >= 0 with size / 2^s <= limit."""
    if size <= limit:
        return 0
    fraction, power = math.frexp(size / limit)
    return power - (fraction == 0.5)


def _order_13_squarings(A: np.ndarray, even: np.ndarray, norm: float, sizes) -> list:
    """The squarings s of order 13 at each |t| in sizes: the least s that
    brings |t| / 2^s within Al-Mohy and Higham's eta_5 |t| <= theta_13 and
    their ell check, from even = A^12, ..., A^0 and norm = ||A||_1.

    The ell check holds for any A up to |t| = _ELL_13 / norm, so it needs
    abs(A)^27 only when that bound would change some time's s."""
    norms = np.abs(even[1:4]).sum(axis=1).max(axis=1).tolist()
    d10, d8, d6 = (x ** (1 / k) for x, k in zip(norms, (10, 8, 6)))
    eta = min(max(d6, d8), max(d8, d10))
    limit = _THETA[-1] / eta if eta else math.inf
    squarings = [_squarings(x, limit) for x in sizes]
    bound = _ELL_13 / norm
    if limit > bound and squarings != [_squarings(x, bound) for x in sizes]:
        # ||abs(A)^27||_1 / norm, from abs(A) / norm, whose powers stay <= 1
        spread = np.linalg.matrix_power(np.abs(A) / norm, 27).sum(axis=0).max() ** (1 / 26)
        if spread:
            limit = min(limit, _ELL_13 / (norm * float(spread)))
            squarings = [_squarings(x, limit) for x in sizes]
    return squarings


def _pade_solve(A: np.ndarray, sums: np.ndarray) -> np.ndarray:
    """r_m(tau_i A) for each entry of sums, (K, 2, n, n), whose rows hold
    the sum over p_m's odd powers divided by A and the sum over its even
    powers: with U = A sums[:, 0] and V = sums[:, 1], r_m is
    (V - U)^-1 (V + U) = I + 2 (V - U)^-1 U, which keeps the digits of an
    exponential near I."""
    odd = A @ sums[:, 0]
    X = np.linalg.solve(sums[:, 1] - odd, odd + odd)
    X.reshape(len(X), -1)[:, :: len(A) + 1] += 1.0
    return X


def _set_triangle_bands(X: np.ndarray, A: np.ndarray, h: np.ndarray):
    """Overwrite the diagonal and superdiagonal of each X[i] ~ e^{A h_i},
    for upper-triangular A, with their closed forms (Al-Mohy and Higham
    2009, Code Fragment 2.1): exp(h a_jj) and
    h a_j,j+1 e^{(l1 + l2) / 2} sinh(x) / x, x = (l2 - l1) / 2,
    for l1 = h a_jj and l2 = h a_j+1,j+1.
    """
    n = A.shape[0]
    lam = h[:, None] * np.diag(A)
    flat = X.reshape(len(X), -1)
    flat[:, :: n + 1] = np.exp(lam)
    if n > 1:
        l1, l2 = lam[:, :-1], lam[:, 1:]
        x = 0.5 * (l2 - l1)
        zero = x == 0.0
        sinch = np.where(zero, 1.0, np.sinh(x) / np.where(zero, 1.0, x))
        # the difference of exponentials where it cannot cancel, and where
        # sinh(x) could overflow though the entry does not
        close = np.abs(x) <= 1.0
        growth = np.where(close, np.exp(0.5 * (l1 + l2)) * sinch,
                          (np.exp(l2) - np.exp(l1)) / np.where(close, 1.0, l2 - l1))
        flat[:, 1 : (n - 1) * (n + 1) : n + 1] = h[:, None] * np.diag(A, 1) * growth


def _triangular(A: np.ndarray):
    """Whether A is upper triangular, and whether it is lower triangular;
    a corner or an entry beside the diagonal decides most matrices."""
    if len(A) == 1:
        return True, True
    return (not (A[-1, 0] or A[1, 0] or np.tril(A, -1).any()),
            not (A[0, -1] or A[0, 1] or np.triu(A, 1).any()))


def _expm_kernel(A: np.ndarray, t: np.ndarray) -> np.ndarray:
    """e^{A t_i} for each t_i of the 1-D t; see _expm_stack."""
    n = len(A)
    upper, lower = _triangular(A)
    if upper and lower:
        out = np.zeros((len(t), n, n))
        out.reshape(len(t), n * n)[:, :: n + 1] = np.exp(np.multiply.outer(t, np.diag(A)))
        return out
    if lower:
        return _expm_kernel(A.T, t).transpose(0, 2, 1)
    if not len(t):
        return np.empty((0, n, n))
    norm = float(np.abs(A).sum(axis=0).max())
    exponent = math.frexp(norm)[1]
    if abs(exponent) > 64:
        # a power-of-two scale to ||A||_1 < 1, so that no power of A
        # overflows; it leaves every product A t as it was
        A, t, norm = np.ldexp(A, -exponent), np.ldexp(t, exponent), math.ldexp(norm, -exponent)
    # each time takes the lowest order m with ||A t||_1 <= theta_m, as an
    # index into _PADE_ORDERS, and past theta_9 order 13 on t / 2^s for the
    # least s that Al-Mohy and Higham allow
    size = np.abs(t).tolist()
    order = [bisect.bisect_left(_THETA, x * norm, hi=len(_THETA) - 1) for x in size]
    even = _even_powers(A, _PADE_ORDERS[max(order)] // 2)
    squarings = [0] * len(t)
    if max(order) == len(_THETA) - 1:
        top = [i for i, o in enumerate(order) if o == len(_THETA) - 1]
        for i, s in zip(top, _order_13_squarings(A, even, norm, [size[i] for i in top])):
            squarings[i] = s
    # the entries by descending order and squarings, so that each order's
    # entries are a run and the entries still squaring are a prefix
    if len(t) > 1:
        ranked = sorted(range(len(t)), key=lambda i: (order[i], squarings[i]), reverse=True)
        order, squarings, t = [order[i] for i in ranked], [squarings[i] for i in ranked], t[ranked]
    tau = np.ldexp(t, [-s for s in squarings]) if squarings[0] else t
    # each entry's Pade numerator and denominator: sums of A's even powers
    # weighted by its own powers of tau, highest power first (the small
    # terms first, which rounds least), by one small GEMM per entry so that
    # no entry's rounding depends on the others
    tau_powers = np.ones((len(t), _PADE_ORDERS[order[0]] + 1))
    tau_powers[:, 1:] = tau[:, None]
    np.multiply.accumulate(tau_powers, axis=1, out=tau_powers)
    sums = np.empty((len(t), 2, n * n))
    start = 0
    for group in sorted(set(order), reverse=True):
        stop = start + order.count(group)
        m = _PADE_ORDERS[group]
        # b_k tau^k, the weight of A^k in p_m(tau A), in _PADE[m]'s layout
        weights = tau_powers[start:stop, _PADE_POWERS[m]] * _PADE[m]
        np.matmul(weights, even[-(m // 2) - 1 :].reshape(m // 2 + 1, -1), out=sums[start:stop])
        start = stop
    X = _pade_solve(A, sums.reshape(len(t), 2, n, n))
    if upper:
        _set_triangle_bands(X, A, tau)
    for level in range(1, squarings[0] + 1):
        count = sum(map(level.__le__, squarings))
        X[:count] = X[:count] @ X[:count]
        if upper:
            _set_triangle_bands(X[:count], A, np.ldexp(tau[:count], level))
    if len(t) > 1:
        X[ranked] = X.copy()
    return np.triu(X) if upper else X


def _expm_stack(A: np.ndarray, times) -> np.ndarray:
    """e^{A t} for each t in times, shape (len(times), n, n); a scalar time
    gives the one (n, n) exponential.

    Scaling and squaring with Pade approximants (Al-Mohy and Higham, SIAM
    J. Matrix Anal. Appl. 31(3), 2009): each time takes the lowest of the
    orders 3, 5, 7 and 9 whose theta_m bounds ||A t||_1, or else order 13
    with their squarings. A's even powers are formed once for the whole
    stack; each entry then takes its own order, weights, solve and
    squarings, so entry i is bit for bit matrix_exponential(A, times[i]),
    the same kernel on a one-entry stack. A diagonal A gives exp of
    its diagonal, and a triangular A gets its diagonal and superdiagonal in
    closed form at every squaring.
    """
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        out = _expm_kernel(A, np.asarray(times, dtype=float).reshape(-1))
    if not np.isfinite(out).all():
        raise NumericRangeError(f"exp(A t) overflowed for |t| = {np.max(np.abs(times))}")
    return out.reshape(np.shape(times) + A.shape)


def _doubling_table(powers: np.ndarray, count: int) -> np.ndarray:
    """e^{A r h} for r = 0..count-1, shape (count, n, n), from powers[j] = e^{A h 2^j}.

    Entry r is the product of powers[j] over the set bits j of r, so no
    entry carries more than log2(count) factors; powers needs
    (count - 1).bit_length() levels. Each level is one GEMM of the
    entries so far, stacked as rows, by powers[j].
    """
    n = powers.shape[1]
    table = np.empty((count, n, n))
    table[0] = np.eye(n)
    rows = table.reshape(-1, n)
    for j in range((count - 1).bit_length()):
        size = 1 << j
        top = min(2 * size, count)
        np.matmul(rows[: (top - size) * n], powers[j], out=rows[size * n : top * n])
    return table


def _left_fold(left: np.ndarray, stack: np.ndarray) -> np.ndarray:
    """left @ stack[i] for every i, shape (len(stack), p, r), as one GEMM of
    left (p, n) by the entries of stack (count, n, r) side by side."""
    count, n, r = stack.shape
    out = left @ stack.transpose(1, 0, 2).reshape(n, count * r)
    return out.reshape(len(left), count, r).transpose(1, 0, 2)


def _grid_factors(A, t0: float, t1: float, num: int, left=None, right=None):
    """Factors of left @ e^{A t} @ right on linspace(t0, t1, num); see expm_grid.

    Returns (anchors, powers, forward): anchors is (count, p, n) and powers
    is (width, n, q), and node k of the grid run from its end nearest t = 0
    is anchors[k // width] @ powers[k % width]. forward is False when that
    end is t1, so the caller reverses the nodes to get linspace order.
    The base exponential and left fold into the anchors, and right into
    the powers, each as one GEMM over the whole table.
    """
    A = _square_finite(A)
    num = _count(num, "the node count")
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
        anchors = _left_fold(exps[-1], anchors)
    if left is not None:
        anchors = _left_fold(np.atleast_2d(np.asarray(left, dtype=float)), anchors)
    if right is not None:
        right = np.asarray(right, dtype=float)
        right = right[:, None] if right.ndim == 1 else right
        powers = (powers.reshape(-1, len(A)) @ right).reshape(width, len(A), -1)
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
    steps = _count(steps, "steps")
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
