"""Hyperbolic Voronoi/Delaunay complexes of colored Poisson samples.

The hyperbolic Delaunay complex equals the sub-complex of the Euclidean
Delaunay triangulation of the Poincare images whose circumdisks stay
inside the open unit disk, so construction runs Euclidean Delaunay
(Qhull) and filters faces.  Voronoi vertices are the hyperbolic
circumcenters of the kept faces.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.spatial import Delaunay as _EuclideanDelaunay

from .graphs import edges_of_keys, side_keys
from .hypgeo import GeodesicPolygon, HPoint, circumcenters_arrays
from .pointprocess import ColoredPointSet


class DegenerateInput(ValueError):
    """Raised for duplicate nuclei or fewer than three points."""


class NotInterior(ValueError):
    """Raised when asking for the cell polygon of a boundary-masked nucleus."""


@dataclass(frozen=True)
class Window:
    """Finite-volume truncation: sample in R_sample, measure in R_window."""

    R_sample: float
    R_window: float

    def __post_init__(self):
        if not 0 < self.R_window < self.R_sample:
            raise ValueError("need 0 < R_window < R_sample")

    @staticmethod
    def with_margin(R_window: float) -> "Window":
        """Sampling ball 2 beyond the window."""
        return Window(R_window + 2.0, R_window)


@dataclass
class VoronoiComplex:
    """Delaunay adjacency plus Voronoi vertices of a colored point set."""

    points: ColoredPointSet
    delaunay_edges: np.ndarray    # (k, 2) nucleus index pairs, u < v
    faces: np.ndarray             # (m, 3) kept triangles (nucleus indices)
    vor_rho: np.ndarray           # (m,) Voronoi vertex polar coordinates
    vor_theta: np.ndarray
    interior_mask: np.ndarray     # (n,) per nucleus
    face_ptr: np.ndarray          # (n + 1,) CSR offsets into face_of
    face_of: np.ndarray           # (3m,) incident kept faces, ascending per nucleus

    @property
    def n_nuclei(self) -> int:
        return len(self.points)

    def cell_faces(self, i: int) -> np.ndarray:
        """Indices of the kept faces incident to nucleus i, ascending."""
        return self.face_of[self.face_ptr[i]:self.face_ptr[i + 1]]


def delaunay(points: ColoredPointSet) -> VoronoiComplex:
    """Build the hyperbolic Delaunay/Voronoi complex of a colored sample.

    A nucleus is interior when all its incident Voronoi vertices exist
    (no incident face was filtered, nucleus off the Euclidean hull) and
    lie within points.R - 1 of the origin.
    """
    n = len(points)
    if n < 3:
        raise DegenerateInput(
            f"need at least 3 nuclei, got {n} at lambda={points.lam:g} in "
            f"a ball of radius R={points.R:g}")
    xy = points.disk_xy
    # exact duplicates break the empty-disk property
    order = np.lexsort((xy[:, 1], xy[:, 0]))
    s = xy[order]
    if np.any(np.all(s[1:] == s[:-1], axis=1)):
        raise DegenerateInput("duplicate nuclei")

    tri = _EuclideanDelaunay(xy)  # Qhull; cocircular ties broken by joggle-free merge
    simplices = tri.simplices

    a, b, c = xy[simplices[:, 0]], xy[simplices[:, 1]], xy[simplices[:, 2]]
    cx, cy, r2 = _euclidean_circumcircles(a, b, c)
    keep = np.hypot(cx, cy) + np.sqrt(r2) < 1.0

    faces = simplices[keep]
    lifts = _hyperboloid(points.rho, points.theta)
    A, B, C = lifts[faces[:, 0]], lifts[faces[:, 1]], lifts[faces[:, 2]]
    vr, vt, finite = circumcenters_arrays(
        A[:, 0], A[:, 1], A[:, 2],
        B[:, 0], B[:, 1], B[:, 2],
        C[:, 0], C[:, 1], C[:, 2],
    )
    # containment of the Euclidean circumdisk implies a finite center
    faces = faces[finite]
    vr, vt = vr[finite], vt[finite]

    faces = faces.astype(np.int64)
    corners = faces.ravel()

    edges = edges_of_keys(side_keys(faces, n), n)

    # face incidence as CSR; the stable sort keeps each nucleus's faces ascending
    star_kept = np.bincount(corners, minlength=n)
    face_ptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(star_kept, out=face_ptr[1:])
    face_of = np.argsort(corners, kind="stable") // 3

    # star completeness: every Euclidean incident simplex must survive
    star_total = np.bincount(simplices.ravel(), minlength=n)
    on_hull = np.zeros(n, dtype=bool)
    on_hull[tri.convex_hull.ravel()] = True

    interior = (~on_hull) & (star_kept == star_total) & (star_total > 0)
    vmax = np.zeros(n)
    np.maximum.at(vmax, corners, np.repeat(vr, 3))
    interior &= vmax <= points.R - 1.0

    return VoronoiComplex(
        points=points,
        delaunay_edges=edges,
        faces=faces,
        vor_rho=vr,
        vor_theta=vt,
        interior_mask=interior,
        face_ptr=face_ptr,
        face_of=face_of,
    )


def _euclidean_circumcircles(a, b, c):
    ax, ay = a[:, 0], a[:, 1]
    bx, by = b[:, 0] - ax, b[:, 1] - ay
    cx, cy = c[:, 0] - ax, c[:, 1] - ay
    d = 2.0 * (bx * cy - by * cx)
    b2 = bx * bx + by * by
    c2 = cx * cx + cy * cy
    ux = (cy * b2 - by * c2) / d
    uy = (bx * c2 - cx * b2) / d
    return ax + ux, ay + uy, ux * ux + uy * uy


def _hyperboloid(rho, theta):
    s = np.sinh(rho)
    return np.column_stack([s * np.cos(theta), s * np.sin(theta), np.cosh(rho)])


def cell_polygon(V: VoronoiComplex, i: int) -> GeodesicPolygon:
    """Voronoi cell of an interior nucleus, vertices ordered ccw."""
    if not V.interior_mask[i]:
        raise NotInterior(f"nucleus {i} is boundary-masked")
    js = V.cell_faces(i)
    tanh_half = np.tanh(V.vor_rho[js] / 2.0)
    zv = tanh_half * np.exp(1j * V.vor_theta[js])
    nx, ny = V.points.disk_xy[i]
    zn = complex(nx, ny)
    # cell is hyperbolically convex, so geodesic directions at the
    # nucleus (Mobius-translated to the origin) order its vertices ccw
    ang = np.angle((zv - zn) / (1.0 - np.conj(zn) * zv))
    order = np.argsort(ang)
    verts = tuple(
        HPoint(float(V.vor_rho[js[k]]), float(V.vor_theta[js[k]])) for k in order
    )
    return GeodesicPolygon(verts)


def core_cell_mask(V: VoronoiComplex, r_core: float) -> np.ndarray:
    """Cells meeting the central ball of radius r_core (vertex/nucleus proxy).

    A cell counts as a core cell when its nucleus or one of its Voronoi
    vertices lies within r_core; the cell containing the origin (nearest
    nucleus) is always included.
    """
    mask = V.points.rho <= r_core
    mask[V.faces[V.vor_rho <= r_core].ravel()] = True
    mask[int(np.argmin(V.points.rho))] = True
    return mask


def shell_cell_mask(V: VoronoiComplex, R_window: float) -> np.ndarray:
    """Cells touching the outer shell {rho > R_window} or boundary-masked."""
    return (V.points.rho > R_window) | ~V.interior_mask
