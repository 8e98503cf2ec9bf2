"""Energy-bounded reachable sets: reachability Gramian, ellipsoid geometry,
and minimum-energy point-to-point control.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericRangeError, UnreachableTargetError
from .lti import LtiSystem, expm_grid, matrix_exponential

__all__ = [
    "Gramian",
    "MinEnergyControl",
    "reachability_gramian",
    "ellipsoid_axes",
    "min_energy_control",
    "gramian_trace",
    "ellipsoid_to_json",
]

# relative eigenvalue ratio below which the Gramian is treated as singular
SINGULARITY_RATIO = 1e-10


@dataclass
class Gramian:
    """Reachability Gramian over [0, T] with its symmetric eigensystem.

    eigenvalues are sorted descending; eigenvectors[:, i] is the unit
    eigenvector paired with eigenvalues[i].
    """

    W: np.ndarray
    T: float
    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


@dataclass
class MinEnergyControl:
    """Closed-form least-squared-energy control u(t) = B^T e^{A^T (T-t)} eta.

    eta solves W eta = xf; cost is the squared L2 norm xf^T eta. The
    used_pseudoinverse flag marks targets resolved through a rank-deficient
    Gramian.
    """

    A: np.ndarray
    B: np.ndarray
    T: float
    eta: np.ndarray
    cost: float
    used_pseudoinverse: bool = False

    def __call__(self, t):
        return self.B.T @ (matrix_exponential(self.A.T, self.T - t) @ self.eta)

    def on_grid(self, num: int):
        """Vectorized samples on a uniform grid: (times, values (num, m))."""
        times = np.linspace(0.0, self.T, num)
        values = expm_grid(self.A.T, self.T, 0.0, num, left=self.B.T, right=self.eta)[:, :, 0]
        return times, values


def _gramian_matrix(sys: LtiSystem, T: float) -> np.ndarray:
    """The symmetrized W of reachability_gramian, without its eigensystem."""
    if not 0 < T < math.inf:
        raise ValueError(f"horizon must be positive and finite, got T={T}")
    n = sys.n
    reach = float(np.abs(sys.A).sum(axis=0).max()) * T
    doublings = math.ceil(math.log2(reach)) if reach > 1.0 else 0
    h = T / 2**doublings
    gram = sys.B @ sys.B.T
    # B B^T divided by a power of two to ||B B^T||_1 h < 1 (through the bound
    # n trace(B B^T)) keeps the block's norm near A's, and so its exponential
    # at a low Pade order; W takes the same factor back, exactly
    scale = math.ldexp(1.0, max(0, math.frexp(n * float(gram.trace()) * h)[1]))
    block = np.zeros((2 * n, 2 * n))
    block[:n, :n] = -sys.A
    np.divide(gram, scale, out=block[:n, n:])
    block[n:, n:] = sys.A.T
    E = matrix_exponential(block, h)
    step = E[n:, n:].T
    W = step @ E[:n, n:]
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(doublings):
            W = W + step @ W @ step.T
            step = step @ step
        W = (0.5 * scale) * (W + W.T)
    if not np.isfinite(W).all():
        raise NumericRangeError(f"Gramian overflowed for T = {T}")
    return W


def reachability_gramian(sys: LtiSystem, T: float) -> Gramian:
    """Gramian W = integral of e^{A(T-s)} B B^T e^{A^T(T-s)} over [0, T].

    The block exponential of [[-A, B B^T], [0, A^T]] gives W(h) in closed
    form on a short step h = T / 2^k with ||A||_1 h <= 1, where e^{-A h}
    cannot swamp the result; B B^T enters it divided by a power of two that
    brings ||B B^T||_1 h below 1, and W is multiplied back. Doubling
    W(2t) = W(t) + e^{A t} W(t) e^{A^T t} then reaches T; every step adds a
    PSD term, so nothing cancels on stiff or unstable spectra. The result is
    symmetrized before the eigendecomposition.
    """
    W = _gramian_matrix(sys, T)
    eigenvalues, eigenvectors = np.linalg.eigh(W)
    # zero out roundoff-scale negatives; anything larger stays visible
    floor = -1e-12 * max(1.0, float(np.max(np.abs(eigenvalues), initial=0.0)))
    eigenvalues = np.where((eigenvalues < 0.0) & (eigenvalues > floor), 0.0, eigenvalues)
    order = np.argsort(eigenvalues)[::-1]
    return Gramian(
        W=W,
        T=float(T),
        eigenvalues=eigenvalues[order],
        eigenvectors=eigenvectors[:, order],
    )


def ellipsoid_axes(g: Gramian, c: float):
    """Principal semi-axes of the energy-budget reachable ellipsoid.

    With budget c on the squared L2 norm of the input, axis i has length
    sqrt(c * lambda_i) along eigenvector v_i. Returned sorted by
    descending length.
    """
    if not 0 < c < np.inf:
        raise ValueError(f"budget must be positive and finite, got c={c}")
    lengths = np.sqrt(c * np.clip(g.eigenvalues, 0.0, None))
    return [(float(lengths[i]), g.eigenvectors[:, i]) for i in range(len(lengths))]


def min_energy_control(sys: LtiSystem, T: float, xf) -> MinEnergyControl:
    """Least-energy control steering the origin to xf at time T.

    Solves W eta = xf directly when W is nonsingular. A rank-deficient W
    switches to the eigenvalue-truncated pseudo-inverse after checking xf
    lies in range(W); targets outside the range raise
    UnreachableTargetError.
    """
    xf = np.asarray(xf, dtype=float)
    if xf.shape != (sys.n,):
        raise ValueError(f"xf must have shape ({sys.n},), got {xf.shape}")
    if not np.all(np.isfinite(xf)):
        raise ValueError("xf must be finite")
    g = reachability_gramian(sys, T)
    lam_max = float(g.eigenvalues[0]) if len(g.eigenvalues) else 0.0
    singular = lam_max <= 0.0 or float(g.eigenvalues[-1]) <= SINGULARITY_RATIO * lam_max
    if not singular:
        eta = np.linalg.solve(g.W, xf)
        used_pinv = False
    else:
        cutoff = SINGULARITY_RATIO * max(lam_max, 1e-300)
        coeffs = g.eigenvectors.T @ xf
        inv = np.where(g.eigenvalues > cutoff, 1.0 / np.maximum(g.eigenvalues, cutoff), 0.0)
        eta = g.eigenvectors @ (inv * coeffs)
        residual = np.linalg.norm(g.W @ eta - xf)
        if residual > 1e-8 * max(np.linalg.norm(xf), 1e-300):
            raise UnreachableTargetError(
                f"target outside range of singular Gramian (residual {residual:.3e})"
            )
        used_pinv = True
    cost = float(xf @ eta)
    return MinEnergyControl(
        A=sys.A,
        B=sys.B,
        T=float(T),
        eta=eta,
        cost=cost,
        used_pseudoinverse=used_pinv,
    )


def gramian_trace(g: Gramian) -> float:
    """Trace of W; equals the eigenvalue sum up to roundoff."""
    return float(np.trace(g.W))


def ellipsoid_to_json(g: Gramian, c: float) -> dict:
    axes = ellipsoid_axes(g, c)
    return {
        "T": g.T,
        "c": float(c),
        "axes": [
            {"length": length, "direction": direction.tolist()}
            for length, direction in axes
        ],
    }
