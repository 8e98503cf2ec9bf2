"""Boundary of the magnitude-bounded reachable set for planar single-input
systems, via switching controls, plus switching-function analysis for
general systems.
"""

import logging
import math
from dataclasses import dataclass

import numpy as np

from .csvout import csv_text
from .errors import DimensionError, UnsupportedConfigurationError
from .geometry import Polytope, convex_hull
from .lti import (
    LtiSystem,
    PiecewiseConstantControl,
    _count,
    _expm_stack,
    _grid_block,
    _grid_factors,
    expm_grid,
    matrix_exponential,
)

__all__ = [
    "ControlBounds",
    "BoundaryCurve",
    "SwitchReport",
    "switching_function",
    "bang_bang_control",
    "switch_count",
    "boundary_curve",
    "reach_hull_planar",
    "boundary_curve_to_csv",
]

logger = logging.getLogger(__name__)

# bang_bang_control's bracket grid: intervals per unit of ||A||_1 T plus
# T max|Im lambda| / pi, clamped to [64, 2^16], and the most intervals an
# explicit scan_resolution may ask for (2^20 + 1 rows of n floats)
GRID_INTERVALS_PER_UNIT = 32
MIN_GRID_INTERVALS = 64
MAX_GRID_INTERVALS = 2**16
MAX_SCAN_INTERVALS = 2**20
# nodes of psi that switch_count forms at a time (64 anchor rows at 1e6
# nodes): the most a formed block holds; rows of certain sign are not formed
BLOCK_NODES = 2**16


@dataclass
class ControlBounds:
    """Componentwise input box: lower[i] <= u_i <= upper[i]."""

    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        self.lower = np.atleast_1d(np.asarray(self.lower, dtype=float))
        self.upper = np.atleast_1d(np.asarray(self.upper, dtype=float))
        if self.lower.ndim > 1 or self.upper.ndim > 1:
            raise DimensionError(f"lower and upper must be scalars or 1-D, got shapes "
                                 f"{self.lower.shape} and {self.upper.shape}")
        if self.lower.shape != self.upper.shape:
            raise DimensionError("lower and upper must have equal length")
        if not (np.all(np.isfinite(self.lower)) and np.all(np.isfinite(self.upper))):
            raise ValueError("bounds must be finite")
        if np.any(self.lower > self.upper):
            raise ValueError("need lower <= upper componentwise")

    @classmethod
    def symmetric(cls, magnitude: float, m: int = 1) -> "ControlBounds":
        # a negative magnitude gives lower > upper, which __post_init__ rejects
        mag, m = float(magnitude), _count(m, "m")
        return cls(lower=-mag * np.ones(m), upper=mag * np.ones(m))

    @property
    def m(self) -> int:
        return len(self.lower)


@dataclass
class BoundaryCurve:
    """Discretized switching-parameterized boundary curves.

    g1[k] is the endpoint of the control that starts at the upper bound and
    drops to the lower bound at etas[k]; g2[k] swaps the two levels. For
    qualifying systems (planar, real distinct eigenvalues, single input)
    the hull of the two curves is the exact reachable set; exact records
    whether that guarantee applies.
    """

    etas: np.ndarray
    g1: np.ndarray
    g2: np.ndarray
    exact: bool

    @property
    def n(self) -> int:
        return self.g1.shape[1]


@dataclass
class SwitchReport:
    """Per-channel strict sign-change counts of the switching function."""

    sign_changes: np.ndarray
    identically_zero: np.ndarray


def _costate(sys: LtiSystem, c) -> np.ndarray:
    """c as a float array, checked once per public call: shape (n,), finite, nonzero."""
    c = np.asarray(c, dtype=float)
    if c.shape != (sys.n,):
        raise DimensionError(f"c must have shape ({sys.n},), got {c.shape}")
    if not np.all(np.isfinite(c)):
        raise ValueError("c must be finite")
    if not np.any(c):
        raise ValueError("c must be nonzero")
    return c


def _psi(sys: LtiSystem, c: np.ndarray, T: float, t: float) -> np.ndarray:
    """switching_function for a c already checked."""
    return (c @ matrix_exponential(sys.A, T - t)) @ sys.B


def switching_function(sys: LtiSystem, c, T: float, t: float) -> np.ndarray:
    """psi(t; c) = c^T e^{A (T - t)} B, one entry per input channel."""
    return _psi(sys, _costate(sys, c), T, t)


def _switching_grid(sys: LtiSystem, c: np.ndarray, T: float, num: int):
    """psi on linspace(0, T, num), shape (num, m), and the rows
    r_k = c^T e^{A (T - t_k)} it is formed from, shape (num, n)."""
    # e^{A (T - t_k)} for t_k ascending equals e^{A s} for s descending
    rows = expm_grid(sys.A, T, 0.0, num, left=c)[:, 0]
    return rows @ sys.B, rows


# Brent's method stops once the bracket is narrower than XTOL + RTOL |x|
XTOL = 1e-15
RTOL = 4.0 * np.finfo(float).eps
# the largest ||A||_1 |s| at which bang_bang_control evaluates psi as its
# Taylor polynomial about a scan row, s being the distance from the row's node
TAYLOR_REACH = 0.25


def _brent(f, pre: float, cur: float, f_pre: float, f_cur: float) -> float:
    """The zero of f between pre and cur, where f has the nonzero values of
    opposite sign f_pre and f_cur, by Brent's method: step for step the
    iteration of scipy.optimize.brentq at xtol = XTOL and rtol = RTOL."""
    for _ in range(100):
        if (f_pre < 0.0) != (f_cur < 0.0) and f_pre and f_cur:
            blk, f_blk = pre, f_pre
            s_pre = s_cur = cur - pre
        if abs(f_blk) < abs(f_cur):
            pre, cur, blk = cur, blk, cur
            f_pre, f_cur, f_blk = f_cur, f_blk, f_cur
        delta = 0.5 * (XTOL + RTOL * abs(cur))
        bisect = 0.5 * (blk - cur)
        if f_cur == 0.0 or abs(bisect) < delta:
            return cur
        trial = None
        if abs(s_pre) > delta and abs(f_cur) < abs(f_pre):
            if pre == blk:
                # secant step
                trial = -f_cur * (cur - pre) / (f_cur - f_pre)
            else:
                # inverse quadratic interpolation
                d_pre = (f_pre - f_cur) / (pre - cur)
                d_blk = (f_blk - f_cur) / (blk - cur)
                trial = -f_cur * (f_blk * d_blk - f_pre * d_pre) / (d_blk * d_pre * (f_blk - f_pre))
            if not 2.0 * abs(trial) < min(abs(s_pre), 3.0 * abs(bisect) - delta):
                trial = None
        s_pre, s_cur = (bisect, bisect) if trial is None else (s_cur, trial)
        pre, f_pre = cur, f_cur
        cur += s_cur if abs(s_cur) > delta else math.copysign(delta, bisect)
        f_cur = f(cur)
    raise RuntimeError(f"no convergence to the zero between {pre!r} and {cur!r}")


def _taylor_table(sys: LtiSystem, reach: float) -> np.ndarray:
    """A^k B / k! for k = 0..K side by side, shape (n, (K + 1) m), with K + 1
    the fewest terms whose remainder bound reach^(K+1) / (K+1)! is below
    1e-18: for a row r = c^T e^{A (T - t_0)}, (r @ table).reshape(-1, m)
    holds psi's Taylor coefficients in s = t_0 - t, exact to roundoff where
    ||A||_1 |s| <= reach."""
    blocks, bound = [sys.B], reach
    while bound >= 1e-18:
        blocks.append(sys.A @ blocks[-1] / len(blocks))
        bound *= reach / len(blocks)
    return np.hstack(blocks)


def _refine_zero(sys, c, T, i, a, b, coefficients=None):
    """The zero of psi_i in the grid bracket (a, b), by _brent.

    coefficients, when given, are psi_i's Taylor coefficients about b,
    r A^k b_i / k! for k = 0..K with r = c^T e^{A (T - b)}, and psi_i is
    evaluated as that polynomial in b - t. The caller takes them from a
    _taylor_table whose reach is at least 2 ||A||_1 (b - a), so that the
    polynomial is exact to roundoff for |b - t| <= 2 (b - a), which holds
    every point evaluated below; without them psi_i is evaluated directly.
    A bracket whose endpoints do not differ in sign holds a zero on a grid
    node and is widened by one step beyond it; one that still shows no sign
    change gives its midpoint.
    """
    if coefficients is not None:
        # Horner's rule from the top coefficient; the expansion point is this b,
        # not the b the node-zero branch below may move
        coefficients = coefficients[::-1].tolist()

        def f(t, center=b):
            s, value = center - t, 0.0
            for coefficient in coefficients:
                value = value * s + coefficient
            return value
    else:
        f = lambda t: float(_psi(sys, c, T, t)[i])
    fa, fb = f(a), f(b)
    if fa == 0.0:
        return a
    if fb == 0.0:
        return b
    if fa * fb > 0.0:
        # The grid's sign at one endpoint was roundoff, so psi vanishes within
        # roundoff of the endpoint where |psi| is smaller (a zero on a grid
        # node): bracket it with the node one bracket width beyond.
        near, f_near, far = (a, fa, 2.0 * a - b) if abs(fa) < abs(fb) else (b, fb, 2.0 * b - a)
        f_far = f(far) if 0.0 <= far <= T else f_near
        if not f_far * f_near < 0.0:
            logger.warning(
                "channel %d: grid sign change on [%r, %r] not confirmed by direct "
                "evaluation (psi %r, %r); using the midpoint", i, a, b, fa, fb,
            )
            return 0.5 * (a + b)
        (a, fa), (b, fb) = sorted([(near, f_near), (far, f_far)])
    return _brent(f, a, b, fa, fb)


def _channel_sign_changes(values: np.ndarray):
    """Index pairs (j, k) of consecutive nonzero samples with opposite sign."""
    if np.all(values):
        negative = np.signbit(values)
        return [(int(j), int(j) + 1) for j in np.flatnonzero(negative[1:] != negative[:-1])]
    nz = np.flatnonzero(values)
    negative = np.signbit(values[nz])
    return [(int(nz[j]), int(nz[j + 1])) for j in np.flatnonzero(negative[1:] != negative[:-1])]


def _zero_scale(sys: LtiSystem, c: np.ndarray) -> float:
    """Peak |psi| below which a channel is identically zero up to roundoff:
    1e-12 ||c|| ||B||_2, with ||B||_2 from the m-by-m Gram matrix B^T B
    (for m = 1 the column norm)."""
    gram = sys.B.T @ sys.B
    largest = gram[0, 0] if sys.m == 1 else np.linalg.eigvalsh(gram)[-1]
    return 1e-12 * math.sqrt(c @ c) * math.sqrt(largest)


def bang_bang_control(
    sys: LtiSystem, bounds: ControlBounds, c, T: float, scan_resolution: float | None = None
) -> PiecewiseConstantControl:
    """Saturated control selected by the sign of the switching function.

    Channel i takes upper[i] where psi_i(t; c) >= 0 and lower[i] elsewhere.
    Sign changes are bracketed on a uniform grid over [0, T] and refined by
    Brent's method (_brent), so the returned breakpoints are accurate to
    root-finding precision. By default the grid has 32 intervals per unit
    of ||A||_1 T + T max|Im lambda| / pi (between 64 and 2^16), which
    resolves the fastest rate and every half period of oscillation; an
    explicit scan_resolution in (0, 1] gives intervals of
    scan_resolution * T instead, at most 2^20 of them. The grid is scanned
    once: sampling cannot add sign changes, so on a real spectrum the scan
    shows at most the n - 1 zeros Feldbaum's theorem allows. A channel
    whose peak |psi| on the grid is below 1e-12 * ||c|| * ||B|| is
    identically zero, as in switch_count: it has no switches and holds
    upper[i].
    The call chooses how to evaluate psi once. With h the grid interval,
    reach = max(||A||_1 h / 2, 2 ||A||_1 (b - a) over every bracket (a, b)).
    If reach <= TAYLOR_REACH, psi near a scan node t_k is the Taylor
    polynomial sum_j (r_k A^j B / j!) (t_k - t)^j, from the scan's row
    r_k = c^T e^{A (T - t_k)} and one _taylor_table of that reach: each
    bracket is refined on the polynomial about b (see _refine_zero), and
    each level is the sign of psi at its segment's midpoint on the
    polynomial about the nearest node, so the scan is the call's one
    exponential. Otherwise the refinement evaluates psi directly and the
    levels come from one stacked exponential at the midpoints.
    """
    if not 0 < T < math.inf:
        raise ValueError(f"horizon must be positive and finite, got T={T}")
    c = _costate(sys, c)
    if bounds.m != sys.m:
        raise DimensionError(f"bounds have {bounds.m} channels, system has {sys.m}")
    norm = float(np.abs(sys.A).sum(axis=0).max())
    if scan_resolution is not None:
        if not 0.0 < scan_resolution <= 1.0:
            raise ValueError(f"scan_resolution must lie in (0, 1], got {scan_resolution}")
        intervals = int(round(1.0 / scan_resolution))
        if intervals > MAX_SCAN_INTERVALS:
            raise ValueError(f"scan_resolution {scan_resolution} asks for {intervals} "
                             f"intervals, above the limit of {MAX_SCAN_INTERVALS}")
    else:
        scale = norm * T + T * np.max(np.abs(np.linalg.eigvals(sys.A).imag)) / np.pi
        intervals = min(MAX_GRID_INTERVALS,
                        max(MIN_GRID_INTERVALS, math.ceil(GRID_INTERVALS_PER_UNIT * scale)))
    psi, rows = _switching_grid(sys, c, T, intervals + 1)
    # channels whose signs on the grid are roundoff get no brackets
    zero = np.max(np.abs(psi), axis=0) < _zero_scale(sys, c)

    # the times of the grid, without forming the whole grid
    h = T / intervals
    node = lambda j: T if j == intervals else j * h
    pairs = [(i, node(j), node(k), k) for i in range(sys.m) if not zero[i]
             for j, k in _channel_sign_changes(psi[:, i])]
    # a level is evaluated within h / 2 of its nearest node, and a bracket
    # (a, b) is polished within 2 (b - a) of b, so one table of this reach
    # serves them all
    reach = max([0.5 * norm * h] + [2.0 * norm * (b - a) for _, a, b, _ in pairs])
    table = _taylor_table(sys, reach) if reach <= TAYLOR_REACH else None
    switch_times = []
    for i, a, b, k in pairs:
        taylor = None if table is None else (rows[k] @ table).reshape(-1, sys.m)[:, i]
        switch_times.append(_refine_zero(sys, c, T, i, a, b, taylor))
    switch_times = np.array(sorted(switch_times))
    if len(switch_times) > 1:
        keep = np.concatenate([[True], np.diff(switch_times) > 1e-12 * max(T, 1.0)])
        switch_times = switch_times[keep]

    edges = np.concatenate([[0.0], switch_times, [T]])
    mids = 0.5 * (edges[:-1] + edges[1:])
    if table is None:
        # one stacked exponential; its entries are bit for bit the direct ones
        psi_mids = (c @ _expm_stack(sys.A, T - mids)) @ sys.B
    else:
        nearest = np.rint(mids / h).astype(int)
        s = np.where(nearest == intervals, T, nearest * h) - mids
        coefficients = (rows[nearest] @ table).reshape(len(mids), -1, sys.m)
        powers = s[:, None] ** np.arange(coefficients.shape[1])
        psi_mids = np.einsum("sk,skm->sm", powers, coefficients)
    values = np.where((psi_mids >= 0.0) | zero, bounds.upper, bounds.lower)
    return PiecewiseConstantControl(switch_times=switch_times, values=values, horizon=T)


def switch_count(sys: LtiSystem, c, T: float, grid_points: int) -> SwitchReport:
    """Strict sign changes of each switching-function channel on a grid.

    The count is over psi on linspace(0, T, grid_points), the nodes of
    _switching_grid, with zero samples skipped as in _channel_sign_changes.
    Node k * L + j is a_k . p_j for the expm_grid factors a_k (c^T times an
    anchor) and p_j (a power times B). With p the mean of the p_j and r
    their largest distance from it, Cauchy-Schwarz gives every node of row
    k the sign of a_k . p whenever, in each channel,
    |a_k . p| > ||a_k|| (r + 1e-12 max_j ||p_j||) + 1e-12 ||c|| ||B||;
    the first slack covers the roundoff of the bound and of the GEMM.
    Only the rows that fail the bound are formed: the rows split into runs
    of equal certainty, a certain run is scanned as its samples a_k . p,
    one per row, and a doubtful run is formed in blocks of at most about
    64k nodes, so memory stays flat in grid_points. A piece whose channel
    keeps one sign costs only its max and min, and the sign of the last
    nonzero sample is carried across piece edges. Channels whose peak
    magnitude falls below 1e-12 * ||c|| * ||B|| are flagged identically
    zero and counted as zero switches; a certain row proves its channels
    are not. The report equals the count over the whole dense grid,
    expm_grid(A, T, 0, grid_points, left=c, right=B), formed from the same
    factors.
    """
    if grid_points < 100:
        raise ValueError("grid_points must be >= 100")
    if not 0 < T < math.inf:
        raise ValueError(f"horizon must be positive and finite, got T={T}")
    c = _costate(sys, c)
    # nodes run from t = T back to t = 0; a sign-change count has no direction
    anchors, powers, _ = _grid_factors(sys.A, T, 0.0, grid_points, left=c, right=sys.B)
    width = len(powers)
    rows = max(1, BLOCK_NODES // width)
    zero = _zero_scale(sys, c)
    # the row bound of the docstring; certain[k] says row k passes it
    norms = lambda x: np.sqrt(np.einsum("...i,...i->...", x, x))
    a, p = anchors[:, 0], powers.transpose(0, 2, 1)
    center = p.mean(axis=0)
    radius = norms(p - center).max(axis=0) + 1e-12 * norms(p).max(axis=0)
    samples = a @ center.T
    certain = np.all(np.abs(samples) > norms(a)[:, None] * radius + zero, axis=1)
    # runs of rows of equal certainty: a certain run is scanned as its
    # samples, one per row, and a doubtful run is formed `rows` rows at a time
    edges = (np.flatnonzero(certain[1:] != certain[:-1]) + 1).tolist()
    pieces = []
    for start, stop in zip([0] + edges, edges + [len(anchors)]):
        pieces += ([(start, stop)] if certain[start] else
                   [(row, min(row + rows, stop)) for row in range(start, stop, rows)])
    peak = np.zeros(sys.m)
    counts = np.zeros(sys.m, dtype=int)
    last_negative = [None] * sys.m
    for start, stop in pieces:
        if certain[start]:
            psi = samples[start:stop]
        else:
            psi = _grid_block(anchors[start:stop], powers)[: grid_points - start * width, 0]
        high, low = psi.max(axis=0), psi.min(axis=0)
        peak = np.maximum(peak, np.maximum(high, -low))
        for i in range(sys.m):
            if low[i] > 0.0 or high[i] < 0.0:
                first = last = bool(high[i] < 0.0)
            else:
                column = psi[:, i]
                negative = np.signbit(column[column != 0.0])
                if len(negative) == 0:
                    continue
                counts[i] += np.count_nonzero(negative[1:] != negative[:-1])
                first, last = bool(negative[0]), bool(negative[-1])
            counts[i] += last_negative[i] is not None and last_negative[i] != first
            last_negative[i] = last
    identically_zero = peak < zero
    counts[identically_zero] = 0
    return SwitchReport(sign_changes=counts, identically_zero=identically_zero)


def boundary_curve(
    sys: LtiSystem, bounds: ControlBounds, T: float, n_eta: int = 400
) -> BoundaryCurve:
    """Boundary curves of the reachable set under box-bounded input.

    Sweeps the switch time eta over a uniform grid on [0, T] and evaluates
    both one-switch control patterns through exact convolution integrals:
    the tail int_eta^T e^{A(T - tau)} B dtau is G(T - eta), where G(s) is
    the upper-right block of e^{M s} for M = [[A, B], [0, 0]] (Van Loan),
    so one expm_grid call gives every tail, and the head is G(T) - tail.
    Requires a single input channel. exact is the paper's hypothesis for
    the exact boundary: n = 2 and real eigenvalues more than
    1e-8 * max(1, ||A||_2) apart. Other systems still produce curves, with
    exact=False marking that the guarantee does not apply. Eigen-solver
    failures propagate as numpy.linalg.LinAlgError.
    """
    if sys.m != 1:
        raise UnsupportedConfigurationError(
            f"boundary parameterization needs a single input, got m={sys.m}"
        )
    if bounds.m != 1:
        raise DimensionError("bounds must be scalar for a single-input system")
    n_eta = _count(n_eta, "n_eta", low=2)
    if not 0 < T < math.inf:
        raise ValueError(f"horizon must be positive and finite, got T={T}")

    lo = float(bounds.lower[0])
    hi = float(bounds.upper[0])
    n = sys.n
    etas = np.linspace(0.0, T, n_eta)
    augmented = np.zeros((n + 1, n + 1))
    augmented[:n, :n] = sys.A
    augmented[:n, n:] = sys.B
    e_n = np.eye(n + 1)[n]
    tail = expm_grid(augmented, T, 0.0, n_eta, left=np.eye(n, n + 1), right=e_n)[:, :, 0]
    head = tail[0] - tail
    g1 = hi * head + lo * tail
    g2 = lo * head + hi * tail
    eigenvalues = np.linalg.eigvals(sys.A)
    exact = bool(n == 2 and np.all(np.isreal(eigenvalues))
                 and np.ptp(eigenvalues.real) > 1e-8 * max(1.0, np.linalg.norm(sys.A, 2)))
    return BoundaryCurve(etas=etas, g1=g1, g2=g2, exact=exact)


def reach_hull_planar(curve: BoundaryCurve) -> Polytope:
    """Convex hull of both boundary curves (planar systems only).

    Hull input stacks g1 then g2, so vertex_indices below len(etas) refer
    to g1 samples and the rest to g2. Collinear curves (motion confined to
    a line) come back as a degenerate segment polytope.
    """
    if curve.n != 2:
        raise DimensionError(f"planar hull needs 2 states, got n={curve.n}")
    return convex_hull(np.vstack([curve.g1, curve.g2]), dim=2)


def boundary_curve_to_csv(curve: BoundaryCurve) -> str:
    """The curve samples as CSV text: eta, then g1 coords, then g2 coords."""
    header = (
        ["eta"]
        + [f"x{i + 1}_g1" for i in range(curve.n)]
        + [f"x{i + 1}_g2" for i in range(curve.n)]
    )
    return csv_text(header, np.column_stack([curve.etas, curve.g1, curve.g2]))
