"""Convex hulls, membership tests, and volumes for point clouds in R^2..R^4."""

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateGeometryError, UnsupportedDimensionError

__all__ = ["Polytope", "convex_hull", "polytope_to_json"]


@dataclass
class Polytope:
    """Convex polytope as vertices plus outward facet halfspaces.

    Facet inequalities read normal . x <= offset with unit outward normals.
    For a hull from `convex_hull`, volume and facets are qhull's, the
    facets sorted by (normal, offset) and not paired with the 2-D vertex
    order. Degenerate polytopes, from clouds qhull rejects as flat, carry
    volume 0, an empty facet list, and degenerate=True.
    """

    dim: int
    vertices: np.ndarray
    vertex_indices: np.ndarray
    facet_normals: np.ndarray
    facet_offsets: np.ndarray
    volume: float
    degenerate: bool = False

    def facet_violation(self, x) -> float:
        """Largest signed facet residual of x; <= 0 means inside. qhull's
        facet merging can leave a very thin hull's own input points outside,
        by up to 3e-5 of the half-width on a 1e9 x 0.1 ellipse of 2000 points."""
        if self.degenerate:
            raise DegenerateGeometryError("polytope is degenerate")
        x = np.asarray(x, dtype=float)
        return float(np.max(self.facet_normals @ x - self.facet_offsets))


def _degenerate_polytope(points: np.ndarray, dim: int) -> Polytope:
    """Extreme points of a cloud qhull rejects as flat, as a flat polytope."""
    # spread along the leading centred direction picks out segment endpoints
    centered = points - points.mean(axis=0)
    coords = centered @ np.linalg.svd(centered, full_matrices=False)[2][0]
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


def convex_hull(points, dim: int | None = None) -> Polytope:
    """Convex hull of a point cloud in dimension 2 to 4.

    One quickhull (qhull, triangulated output) call serves every
    dimension, and the volume and facets are qhull's own: the facets are
    its distinct hyperplanes (the triangulated pieces of one face share
    a hyperplane bit for bit), sorted by (normal, offset). Only the
    vertex order depends on the dimension: 2-D vertices run
    counterclockwise from the lexicographic minimum, higher dimensions
    keep sorted input indices. Hull vertices are always a subset of the
    input points and the result is deterministic for a given input
    order. qhull alone decides flatness: input it rejects (affinely
    dependent within its roundoff bound, or too few points) yields a
    degenerate polytope instead of an error.
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

    # imported on first use, so that importing reachkit skips scipy.spatial
    from scipy.spatial import ConvexHull, QhullError

    try:
        hull = ConvexHull(points, qhull_options="Qt")
    except QhullError:
        return _degenerate_polytope(points, dim)

    idx = hull.vertices
    if dim == 2:
        # qhull lists 2-D vertices counterclockwise; start at the lexicographic min
        idx = np.roll(idx, -int(np.lexsort((points[idx, 1], points[idx, 0]))[0]))
    else:
        idx = np.sort(idx)
    facets = np.unique(hull.equations, axis=0)
    return Polytope(
        dim=dim,
        vertices=points[idx].copy(),
        vertex_indices=idx,
        facet_normals=facets[:, :dim],
        facet_offsets=-facets[:, dim],
        volume=float(hull.volume),
    )


def polytope_to_json(poly: Polytope) -> dict:
    return {
        "dim": poly.dim,
        "vertices": poly.vertices.tolist(),
        "facets": [
            {"normal": n, "offset": o}
            for n, o in zip(poly.facet_normals.tolist(), poly.facet_offsets.tolist())
        ],
        "volume": poly.volume,
        "degenerate": poly.degenerate,
    }
