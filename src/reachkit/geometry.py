"""Convex hulls, membership tests, and volumes for point clouds in R^2..R^4."""

import math
from dataclasses import dataclass

import numpy as np
from scipy.spatial import ConvexHull as _QhullConvexHull
from scipy.spatial import QhullError as _QhullError

from .errors import DegenerateGeometryError, UnsupportedDimensionError

__all__ = ["Polytope", "convex_hull", "contains", "polytope_to_json"]


@dataclass
class Polytope:
    """Convex polytope as vertices plus outward facet halfspaces.

    Facet inequalities read normal . x <= offset with unit outward normals.
    Degenerate (affinely dependent) polytopes carry volume 0, an empty
    facet list, and degenerate=True.
    """

    dim: int
    vertices: np.ndarray
    vertex_indices: np.ndarray
    facet_normals: np.ndarray
    facet_offsets: np.ndarray
    volume: float
    degenerate: bool = False

    def facet_violation(self, x) -> float:
        """Largest signed facet residual of x; <= 0 means inside."""
        if self.degenerate:
            raise DegenerateGeometryError("polytope is degenerate")
        x = np.asarray(x, dtype=float)
        return float(np.max(self.facet_normals @ x - self.facet_offsets))


def _affine_rank(points: np.ndarray):
    center = points.mean(axis=0)
    centered = points - center
    svals = np.linalg.svd(centered, compute_uv=False)
    if svals.size == 0 or svals[0] == 0.0:
        return 0, svals
    scale = max(svals[0], 1.0)
    tol = scale * max(points.shape) * np.finfo(float).eps * 100.0
    return int(np.sum(svals > tol)), svals


def _degenerate_polytope(points: np.ndarray, dim: int) -> Polytope:
    """Extreme points of an affinely dependent cloud, as a flat polytope."""
    center = points.mean(axis=0)
    centered = points - center
    _, _, vt = np.linalg.svd(centered, full_matrices=False)
    # spread along the leading direction picks out segment endpoints
    coords = centered @ vt[0]
    lo = int(np.argmin(coords))
    hi = int(np.argmax(coords))
    if np.allclose(points[lo], points[hi]):
        idx = np.array([lo])
    else:
        idx = np.unique([lo, hi])
    return Polytope(
        dim=dim,
        vertices=points[idx].copy(),
        vertex_indices=idx,
        facet_normals=np.zeros((0, dim)),
        facet_offsets=np.zeros(0),
        volume=0.0,
        degenerate=True,
    )


def _polygon_facets(vertices: np.ndarray):
    rolled = np.roll(vertices, -1, axis=0)
    edges = rolled - vertices
    normals = np.column_stack([edges[:, 1], -edges[:, 0]])
    lengths = np.linalg.norm(normals, axis=1)
    normals = normals / lengths[:, None]
    offsets = np.einsum("ij,ij->i", normals, vertices)
    return normals, offsets


def _shoelace(vertices: np.ndarray) -> float:
    x, y = vertices[:, 0], vertices[:, 1]
    return 0.5 * abs(float(np.dot(x, np.roll(y, -1)) - np.dot(np.roll(x, -1), y)))


def _merge_facets(normals: np.ndarray, offsets: np.ndarray, tol: float):
    rows = np.column_stack([normals, offsets])
    order = np.lexsort(rows.T[::-1])
    keep = []
    for i in order:
        if keep and np.all(np.abs(rows[i] - rows[keep[-1]]) <= tol):
            continue
        keep.append(i)
    return normals[keep], offsets[keep]


def _fan_volume(points: np.ndarray, simplices: np.ndarray, center: np.ndarray, dim: int) -> float:
    mats = points[simplices] - center
    dets = np.abs(np.linalg.det(mats))
    return float(dets.sum() / math.factorial(dim))


def convex_hull(points, dim: int | None = None) -> Polytope:
    """Convex hull of a point cloud in dimension 2 to 4.

    Every dimension uses quickhull (qhull, triangulated output); 2-D
    vertices run counterclockwise from the lexicographic minimum. Hull vertices
    are always a subset of the input points and the result is
    deterministic for a given input order. Affinely dependent input
    yields a degenerate polytope instead of an error.
    """
    points = np.atleast_2d(np.asarray(points, dtype=float))
    if dim is None:
        dim = points.shape[1]
    if not 2 <= dim <= 4:
        raise UnsupportedDimensionError(f"dimension must be in [2, 4], got {dim}")
    if points.shape[1] != dim:
        raise UnsupportedDimensionError(
            f"points have dimension {points.shape[1]}, expected {dim}"
        )
    if not np.all(np.isfinite(points)):
        raise ValueError("points must be finite")

    rank, _ = _affine_rank(points)
    if rank < dim:
        return _degenerate_polytope(points, dim)

    span = points.max(axis=0) - points.min(axis=0)
    merge_tol = 1e-10 * max(1.0, float(np.linalg.norm(span)))

    try:
        hull = _QhullConvexHull(points, qhull_options="Qt")
    except _QhullError:
        return _degenerate_polytope(points, dim)

    if dim == 2:
        # qhull lists 2-D vertices counterclockwise; start at the lexicographic min
        idx = hull.vertices
        idx = np.roll(idx, -int(np.lexsort((points[idx, 1], points[idx, 0]))[0]))
        vertices = points[idx].copy()
        normals, offsets = _polygon_facets(vertices)
        return Polytope(
            dim=2,
            vertices=vertices,
            vertex_indices=idx,
            facet_normals=normals,
            facet_offsets=offsets,
            volume=_shoelace(vertices),
            degenerate=False,
        )

    idx = np.sort(hull.vertices)
    vertices = points[idx].copy()
    center = vertices.mean(axis=0)
    vol = _fan_volume(points, hull.simplices, center, dim)
    normals = hull.equations[:, :dim]
    offsets = -hull.equations[:, dim]
    normals, offsets = _merge_facets(normals, offsets, merge_tol)
    return Polytope(
        dim=dim,
        vertices=vertices,
        vertex_indices=idx,
        facet_normals=normals,
        facet_offsets=offsets,
        volume=vol,
        degenerate=False,
    )


def contains(poly: Polytope, x, tol: float = 1e-9) -> bool:
    """Whether x satisfies every facet inequality within tol."""
    return poly.facet_violation(x) <= tol


def polytope_to_json(poly: Polytope) -> dict:
    return {
        "dim": poly.dim,
        "vertices": poly.vertices.tolist(),
        "facets": [
            {"normal": n.tolist(), "offset": float(o)}
            for n, o in zip(poly.facet_normals, poly.facet_offsets)
        ],
        "volume": poly.volume,
        "degenerate": poly.degenerate,
    }
