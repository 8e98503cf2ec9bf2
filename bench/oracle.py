"""Independent reference computations for checking benchmark outputs.

Nothing here calls reachkit's numerical paths. Matrix exponentials are
evaluated directly at every node (eigen-decomposition when the basis is
well conditioned, batched scipy ``expm`` otherwise), never by chained
products, and switching-function zeros come from a fine direct sign scan.
"""

import hashlib
import json

import numpy as np
from scipy.linalg import expm as _expm
from scipy.optimize import brentq
from scipy.spatial import ConvexHull, QhullError

# eigenbases worse conditioned than this fall back to batched direct expm
MODAL_COND_LIMIT = 1e4


def expm_nodes(A, times):
    """e^{A t} for every t in times, shape (len(times), n, n)."""
    A = np.asarray(A, dtype=float)
    times = np.asarray(times, dtype=float)
    lam, V = np.linalg.eig(A)
    if np.linalg.cond(V) < MODAL_COND_LIMIT:
        Vinv = np.linalg.inv(V)
        phases = np.exp(np.multiply.outer(times, lam))
        return np.real(np.einsum("ij,kj,jl->kil", V, phases, Vinv))
    return _expm(A[None] * times[:, None, None])


def simpson_weights(num, T):
    h = T / (num - 1)
    w = np.full(num, 2.0)
    w[1::2] = 4.0
    w[0] = w[-1] = 1.0
    return w * (h / 3.0)


def signed_root(z, p):
    return np.sign(z) * np.abs(z) ** (1.0 / (p - 1))


def lp_sweep(A, B, p, T, costates, nodes, z_rel=1e-12, chunk=64):
    """Simpson endpoints and p-costs of the costate-parameterized controls.

    u(t) = root_{p-1}(-B^T e^{-A^T t} lambda0); endpoint = int e^{A(T-t)} B u dt.
    The third result bounds, per costate, how far any implementation's
    endpoint may move when z = -B^T e^{-A^T t} lambda0 carries a relative
    error z_rel: the odd root magnifies an error d near a zero of z to
    d^(1/(p-1)), so agreement there is limited by conditioning, not by
    correctness. Costates go through in chunks, which keeps this sweep's
    working set well below the library's when both run in one process.
    """
    A = np.asarray(A, dtype=float)
    B = np.asarray(B, dtype=float)
    costates = np.atleast_2d(np.asarray(costates, dtype=float))
    times = np.linspace(0.0, T, nodes)
    w = simpson_weights(nodes, T)
    pull = -np.einsum("nm,jkn->jmk", B, expm_nodes(-A, times))  # -B^T e^{-A^T t}
    push = np.einsum("jnk,km->jnm", expm_nodes(A, T - times), B)
    push_norm = np.max(np.abs(push), axis=1)
    ends, costs, bounds = [], [], []
    for lo in range(0, len(costates), chunk):
        z = np.einsum("jmk,lk->ljm", pull, costates[lo:lo + chunk])
        u = signed_root(z, p)
        ends.append(np.einsum("j,jnm,ljm->ln", w, push, u))
        costs.append(np.einsum("j,ljm->l", w, np.abs(u) ** p))
        d = z_rel * np.max(np.abs(z), axis=(1, 2), keepdims=True)
        with np.errstate(divide="ignore"):
            slope = d / ((p - 1) * np.abs(z) ** ((p - 2) / (p - 1)))
        du = np.minimum(d ** (1.0 / (p - 1)), slope)
        bounds.append(np.einsum("j,jm,ljm->l", w, push_norm, du))
    return np.concatenate(ends), np.concatenate(costs), np.concatenate(bounds)


def volume_tolerance(points, bounds, rel):
    """Relative hull-volume slack for points each uncertain by up to bounds."""
    extent = np.ptp(points, axis=0) if len(points) else np.ones(1)
    return rel + float(np.max(bounds, initial=0.0)) * float(np.sum(1.0 / np.maximum(extent, 1e-300)))


def certified_radius(A, B, p, T, nodes):
    """Radius R with ||lambda0||_q^q <= R budget^p certifying feasibility."""
    times = np.linspace(0.0, T, nodes)
    EB = np.einsum("jnk,km->jnm", expm_nodes(-np.asarray(A, float), times), B)
    q = p / (p - 1)
    norms = np.sum(np.abs(EB.reshape(nodes, -1)) ** p, axis=1) ** (1.0 / p)
    return 1.0 / (B.shape[1] * float(simpson_weights(nodes, T) @ norms**q))


def hull_volume(points, dim):
    """Volume of the convex hull (area in 2-D), 0 for flat point sets."""
    points = np.asarray(points, dtype=float)
    if len(points) <= dim:
        return 0.0
    try:
        return float(ConvexHull(points).volume)
    except QhullError:
        return 0.0


def gramian(A, B, T):
    """W = int_0^T e^{As} B B^T e^{A^T s} ds in modal form."""
    lam, V = np.linalg.eig(np.asarray(A, dtype=float))
    if np.linalg.cond(V) >= MODAL_COND_LIMIT:
        return _gramian_simpson(A, B, T)
    Vinv = np.linalg.inv(V)
    G = Vinv @ B @ B.T @ Vinv.conj().T
    x = np.add.outer(lam, lam.conj())
    small = np.abs(x * T) < 1e-8
    safe = np.where(small, 1.0, x)
    phi = np.where(small, T * (1.0 + 0.5 * x * T), np.expm1(x * T) / safe)
    return np.real(V @ (G * phi) @ V.conj().T)


def _gramian_simpson(A, B, T, nodes=4001):
    s = np.linspace(0.0, T, nodes)
    EB = np.einsum("jnk,km->jnm", expm_nodes(A, s), B)
    return np.einsum("j,jim,jkm->ik", simpson_weights(nodes, T), EB, EB)


def convolution_head(A, B, T, etas):
    """int_0^eta e^{A(T - tau)} B dtau for each eta (single input), (len, n)."""
    lam, V = np.linalg.eig(np.asarray(A, dtype=float))
    if np.linalg.cond(V) >= MODAL_COND_LIMIT:
        raise ValueError("eigenbasis too ill-conditioned for the modal head")
    coef = np.linalg.solve(V, np.asarray(B, dtype=float)[:, 0])
    etas = np.asarray(etas, dtype=float)
    # (e^{lam T} - e^{lam (T - eta)}) / lam = -e^{lam T} expm1(-lam eta) / lam
    x = np.multiply.outer(etas, lam)
    small = np.abs(x) < 1e-12
    safe = np.where(lam == 0, 1.0, lam)
    factor = np.where(small, etas[:, None] * (1.0 - 0.5 * x),
                      -np.expm1(-x) / safe) * np.exp(lam * T)
    return np.real((factor * coef) @ V.T)


def psi_modal(A, B, c, T):
    """Switching function t -> c^T e^{A(T-t)} B (single input), vectorized."""
    lam, V = np.linalg.eig(np.asarray(A, dtype=float))
    alpha = (np.asarray(c, dtype=float) @ V) * np.linalg.solve(V, np.asarray(B, float)[:, 0])

    def psi(t):
        return np.real(np.exp(np.multiply.outer(T - np.asarray(t, float), lam)) @ alpha)

    return psi


def switch_times(A, B, c, T, grid_points):
    """Zeros of psi on (0, T): sign scan on a fine grid, refined by brentq."""
    psi = psi_modal(A, B, c, T)
    ts = np.linspace(0.0, T, grid_points)
    signs = np.sign(psi(ts))
    nz = np.flatnonzero(signs)
    flips = np.flatnonzero(signs[nz[1:]] * signs[nz[:-1]] < 0)
    return np.array([
        brentq(lambda t: float(psi(t)), ts[nz[j]], ts[nz[j + 1]], xtol=1e-15)
        for j in flips
    ])


def manifest_problems(out_dir, expected):
    """Manifest entries that disagree with the bytes on disk."""
    problems = []
    try:
        manifest = json.loads((out_dir / "manifest.json").read_text())
    except (OSError, ValueError) as exc:
        return [f"manifest unreadable: {exc}"]
    names = sorted(e["name"] for e in manifest["files"])
    if names != sorted(expected):
        problems.append(f"manifest lists {names}, expected {sorted(expected)}")
    for entry in manifest["files"]:
        try:
            data = (out_dir / entry["name"]).read_bytes()
        except OSError as exc:
            problems.append(f"{entry['name']}: {exc}")
            continue
        if hashlib.sha256(data).hexdigest() != entry["sha256"] or len(data) != entry["bytes"]:
            problems.append(f"{entry['name']}: sha256/bytes differ from manifest")
    return problems
