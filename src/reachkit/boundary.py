"""Boundary of the magnitude-bounded reachable set for planar single-input
systems, via switching controls, plus switching-function analysis for
general systems.
"""

import logging
import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import brentq

from .csvout import csv_text
from .errors import DimensionError, UnsupportedConfigurationError
from .geometry import Polytope, convex_hull
from .lti import (
    LtiSystem,
    PiecewiseConstantControl,
    _grid_block,
    _grid_factors,
    classify_spectrum,
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
# T max|Im lambda| / pi, clamped to [64, 2^16], and the refinement used when
# a real spectrum shows more sign changes than its n - 1 zeros allow
GRID_INTERVALS_PER_UNIT = 32
MIN_GRID_INTERVALS = 64
MAX_GRID_INTERVALS = 2**16
RESCAN_FACTOR = 16
# nodes of psi that switch_count forms at a time (64 anchor rows at 1e6 nodes)
BLOCK_NODES = 2**16


@dataclass
class ControlBounds:
    """Componentwise input box: lower[i] <= u_i <= upper[i]."""

    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        self.lower = np.atleast_1d(np.asarray(self.lower, dtype=float))
        self.upper = np.atleast_1d(np.asarray(self.upper, dtype=float))
        if self.lower.shape != self.upper.shape:
            raise DimensionError("lower and upper must have equal length")
        if not (np.all(np.isfinite(self.lower)) and np.all(np.isfinite(self.upper))):
            raise ValueError("bounds must be finite")
        if np.any(self.lower > self.upper):
            raise ValueError("need lower <= upper componentwise")

    @classmethod
    def symmetric(cls, magnitude: float, m: int = 1) -> "ControlBounds":
        # a negative magnitude gives lower > upper, which __post_init__ rejects
        mag = float(magnitude)
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


def switching_function(sys: LtiSystem, c, T: float, t: float) -> np.ndarray:
    """psi(t; c) = c^T e^{A (T - t)} B, one entry per input channel."""
    c = np.asarray(c, dtype=float)
    if c.shape != (sys.n,):
        raise DimensionError(f"c must have shape ({sys.n},), got {c.shape}")
    return (c @ matrix_exponential(sys.A, T - t)) @ sys.B


def _switching_grid(sys: LtiSystem, c, T: float, num: int) -> np.ndarray:
    """psi on linspace(0, T, num), shape (num, m)."""
    # e^{A (T - t_k)} for t_k ascending equals e^{A s} for s descending
    return expm_grid(sys.A, T, 0.0, num, left=np.asarray(c, dtype=float), right=sys.B)[:, 0]


def _refine_zero(sys, c, T, i, a, b):
    f = lambda t: float(switching_function(sys, c, T, t)[i])
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
        if 0.0 <= far <= T and f(far) * f_near < 0.0:
            a, b = min(near, far), max(near, far)
        else:
            logger.warning(
                "channel %d: grid sign change on [%r, %r] not confirmed by direct "
                "evaluation (psi %r, %r); using the midpoint", i, a, b, fa, fb,
            )
            return 0.5 * (a + b)
    return float(brentq(f, a, b, xtol=1e-15, rtol=4.0 * np.finfo(float).eps))


def _channel_sign_changes(values: np.ndarray):
    """Index pairs (j, k) of consecutive nonzero samples with opposite sign."""
    if np.all(values):
        negative = np.signbit(values)
        return [(int(j), int(j) + 1) for j in np.flatnonzero(negative[1:] != negative[:-1])]
    nz = np.flatnonzero(values)
    negative = np.signbit(values[nz])
    return [(int(nz[j]), int(nz[j + 1])) for j in np.flatnonzero(negative[1:] != negative[:-1])]


def _zero_scale(sys: LtiSystem, c: np.ndarray) -> float:
    """Peak |psi| below which a channel is identically zero up to roundoff."""
    return 1e-12 * np.linalg.norm(c) * np.linalg.norm(sys.B, 2)


def _grid_brackets(sys: LtiSystem, c, T: float, intervals: int):
    """Per channel, the (a, b) time brackets of psi's sign changes on
    linspace(0, T, intervals + 1), and which channels are identically zero
    there; those channels get no brackets, since their signs are roundoff."""
    psi = _switching_grid(sys, c, T, intervals + 1)
    zero = np.max(np.abs(psi), axis=0) < _zero_scale(sys, c)
    # the times of the grid, without forming the whole grid
    node = lambda j: T if j == intervals else j * (T / intervals)
    return [[] if zero[i] else [(node(j), node(k)) for j, k in _channel_sign_changes(psi[:, i])]
            for i in range(sys.m)], zero


def bang_bang_control(
    sys: LtiSystem, bounds: ControlBounds, c, T: float, scan_resolution: float | None = None
) -> PiecewiseConstantControl:
    """Saturated control selected by the sign of the switching function.

    Channel i takes upper[i] where psi_i(t; c) >= 0 and lower[i] elsewhere.
    Sign changes are bracketed on a uniform grid over [0, T] and refined by
    brentq, so the returned breakpoints are accurate to root-finding
    precision. By default the grid has 32 intervals per unit of
    ||A||_1 T + T max|Im lambda| / pi (between 64 and 2^16), which resolves
    the fastest rate and every half period of oscillation; an explicit
    scan_resolution in (0, 1] gives intervals of scan_resolution * T
    instead. On the default grid a real spectrum is checked against the
    n-intervals bound (Feldbaum): psi_i then has at most n - 1 zeros, and a
    channel with more sign changes is logged and rescanned on a 16x finer
    grid. A channel whose peak |psi| on the grid is below
    1e-12 * ||c|| * ||B|| is identically zero, as in switch_count: it has no
    switches and holds upper[i].
    """
    if not 0 < T < math.inf:
        raise ValueError(f"horizon must be positive and finite, got T={T}")
    c = np.asarray(c, dtype=float)
    if not np.any(c):
        raise ValueError("c must be nonzero")
    if bounds.m != sys.m:
        raise DimensionError(f"bounds have {bounds.m} channels, system has {sys.m}")
    if scan_resolution is not None:
        if not 0.0 < scan_resolution <= 1.0:
            raise ValueError(f"scan_resolution must lie in (0, 1], got {scan_resolution}")
        brackets, zero = _grid_brackets(sys, c, T, int(round(1.0 / scan_resolution)))
    else:
        eigenvalues = np.linalg.eigvals(sys.A)
        scale = np.linalg.norm(sys.A, 1) * T + T * np.max(np.abs(eigenvalues.imag)) / np.pi
        intervals = min(MAX_GRID_INTERVALS,
                        max(MIN_GRID_INTERVALS, math.ceil(GRID_INTERVALS_PER_UNIT * scale)))
        brackets, zero = _grid_brackets(sys, c, T, intervals)
        most = max(len(pairs) for pairs in brackets)
        if most > sys.n - 1 and np.all(np.isreal(eigenvalues)):
            logger.warning(
                "%d sign changes of psi on %d intervals, above the n - 1 = %d zeros of a "
                "real spectrum; rescanning on %d intervals", most, intervals, sys.n - 1,
                RESCAN_FACTOR * intervals,
            )
            brackets, zero = _grid_brackets(sys, c, T, RESCAN_FACTOR * intervals)

    switch_times = np.array(sorted(
        _refine_zero(sys, c, T, i, a, b) for i, pairs in enumerate(brackets) for a, b in pairs
    ))
    if len(switch_times) > 1:
        keep = np.concatenate([[True], np.diff(switch_times) > 1e-12 * max(T, 1.0)])
        switch_times = switch_times[keep]

    edges = np.concatenate([[0.0], switch_times, [T]])
    mids = 0.5 * (edges[:-1] + edges[1:])
    values = np.empty((len(mids), sys.m))
    for k, tm in enumerate(mids):
        psi_mid = switching_function(sys, c, T, tm)
        values[k] = np.where((psi_mid >= 0.0) | zero, bounds.upper, bounds.lower)
    return PiecewiseConstantControl(switch_times=switch_times, values=values, horizon=T)


def switch_count(sys: LtiSystem, c, T: float, grid_points: int) -> SwitchReport:
    """Strict sign changes of each switching-function channel on a grid.

    The count is over psi on linspace(0, T, grid_points), the nodes of
    _switching_grid, with zero samples skipped as in _channel_sign_changes.
    psi is formed in blocks of about 64k nodes from the expm_grid factors, so
    memory stays flat in grid_points: a block whose channel keeps one sign
    costs only its max and min, and the sign of the last nonzero sample is
    carried across block edges. Channels whose peak magnitude falls below
    1e-12 * ||c|| * ||B|| are flagged identically zero and counted as zero
    switches.
    """
    if grid_points < 100:
        raise ValueError("grid_points must be >= 100")
    if not 0 < T < math.inf:
        raise ValueError(f"horizon must be positive and finite, got T={T}")
    c = np.asarray(c, dtype=float)
    # nodes run from t = T back to t = 0; a sign-change count has no direction
    anchors, powers, _ = _grid_factors(sys.A, T, 0.0, grid_points, left=c, right=sys.B)
    width = len(powers)
    rows = max(1, BLOCK_NODES // width)
    peak = np.zeros(sys.m)
    counts = np.zeros(sys.m, dtype=int)
    last_negative = [None] * sys.m
    for row in range(0, len(anchors), rows):
        psi = _grid_block(anchors[row:row + rows], powers)[: grid_points - row * width, 0]
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
    identically_zero = peak < _zero_scale(sys, c)
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
    Requires a single input channel. Systems outside the planar
    real-distinct-eigenvalue class still produce curves, with exact=False
    marking that the exact-boundary guarantee does not apply.
    """
    if sys.m != 1:
        raise UnsupportedConfigurationError(
            f"boundary parameterization needs a single input, got m={sys.m}"
        )
    if bounds.m != 1:
        raise DimensionError("bounds must be scalar for a single-input system")
    if n_eta < 2:
        raise ValueError("n_eta must be >= 2")
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
    exact = classify_spectrum(sys).is_planar_real_distinct
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
