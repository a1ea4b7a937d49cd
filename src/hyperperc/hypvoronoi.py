"""Hyperbolic Voronoi/Delaunay complexes of colored Poisson samples.

The hyperbolic Delaunay complex equals the sub-complex of the Euclidean
Delaunay triangulation of the Poincare images whose circumdisks stay
inside the open unit disk.  A whole complex (`delaunay`, for the sweeps,
the densities and the pictures) runs Euclidean Delaunay (Qhull) on the
whole sample and filters faces.  A reach threshold needs only the stars
of the few cells its invasion takes, so `LocalStars` builds each when
asked from one 2-D convex hull: the images of the cell's nearest nuclei
under inversion about it, whose hull edges are the cell's fan of faces,
each verified against the whole sample.  Both keep faces and mark
interior nuclei by one rule (`_filter`).  Voronoi vertices are the
hyperbolic circumcenters of the kept faces.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy.spatial import ConvexHull, QhullError
from scipy.spatial import Delaunay as _EuclideanDelaunay

from .graphs import edges_of_keys, side_keys
from .hypgeo import (
    GeodesicPolygon,
    HPoint,
    circumcenters_arrays,
    geodesic_direction,
)
from .pointprocess import ColoredPointSet


class DegenerateInput(ValueError):
    """Raised for duplicate nuclei or fewer than three points."""


class NotInterior(ValueError):
    """Raised when asking for the cell polygon of a boundary-masked nucleus."""


# Least distance from a window to its sampling edge, where cells are cut
# short: a densities window at R_w = 5.9, R = 6 read Euler +1.63, not -1.
MARGIN = 2.0


@dataclass(frozen=True)
class Window:
    """Finite-volume truncation: sample in R_sample, measure in R_window."""

    R_sample: float
    R_window: float

    def __post_init__(self):
        # 1e-12 forgives the rounding of R_window + MARGIN in with_margin
        if not 0 < self.R_window <= self.R_sample - MARGIN + 1e-12:
            raise ValueError(f"window radius must satisfy 0 < Rw <= R - "
                             f"{MARGIN:g}, a margin of {MARGIN:g} to the "
                             f"sampling edge; got Rw={self.R_window:g}")

    @staticmethod
    def with_margin(R_window: float) -> "Window":
        """Sampling ball MARGIN beyond the window."""
        return Window(R_window + MARGIN, R_window)


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
    return _whole_complex(points, _disk_xy(points))


def _disk_xy(points: ColoredPointSet) -> np.ndarray:
    """Poincare coordinates of a sample Delaunay can take: at least three
    nuclei, no two alike."""
    n = len(points)
    if n < 3:
        raise DegenerateInput(
            f"need at least 3 nuclei, got {n} at lambda={points.lam:g} in "
            f"a ball of radius R={points.R:g}")
    # float64 rows, so that each row views as one complex number
    xy = np.ascontiguousarray(points.disk_xy, dtype=np.float64)
    # exact duplicates break the empty-disk property.  Equal nuclei share
    # x, so only the runs of tied x in x order need their y compared: the
    # nuclei of those runs, sorted as complex numbers (x, then y), put
    # equal ones side by side
    x = np.sort(xy[:, 0])
    if np.any(x[1:] == x[:-1]):
        order = np.argsort(xy[:, 0])
        tied = np.flatnonzero(x[1:] == x[:-1])
        runs = order[np.union1d(tied, tied + 1)]
        z = np.sort(xy[runs].view(np.complex128).ravel())
        if np.any(z[1:] == z[:-1]):
            raise DegenerateInput("duplicate nuclei")
    return xy


def _whole_complex(points: ColoredPointSet, xy: np.ndarray) -> VoronoiComplex:
    n = len(points)
    tri = _EuclideanDelaunay(xy)  # Qhull; cocircular ties broken by joggle-free merge
    simplices = tri.simplices
    faces, vr, vt, interior = _filter(
        points.rho, points.theta, simplices,
        _reach(_euclidean_circumcircles(xy, simplices)), _hull_mask(tri),
        points.R)
    corners = faces.ravel()
    edges = edges_of_keys(side_keys(faces, n), n)

    # face incidence as CSR; the stable sort keeps each nucleus's faces ascending
    face_ptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(corners, minlength=n), out=face_ptr[1:])
    face_of = np.argsort(corners, kind="stable") // 3

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


def _hull_mask(tri) -> np.ndarray:
    on_hull = np.zeros(len(tri.points), dtype=bool)
    on_hull[tri.convex_hull.ravel()] = True
    return on_hull


def _filter(rho, theta, simplices, reach, on_hull, R):
    """The kept faces among Euclidean Delaunay `simplices`, their Voronoi
    vertices (rho, theta) and the interior mask of the nuclei; the one
    rule for whole complexes and local stars.

    A face is kept when its Euclidean circumdisk, which reaches `reach`
    from the origin, lies inside the open unit disk and its hyperbolic
    circumcenter is finite.  A nucleus is interior when it is off the
    hull, has a face, every face it has is kept, and all its Voronoi
    vertices lie within R - 1 of the origin.
    """
    n = len(rho)
    faces = simplices[reach < 1.0]
    # (m, 9): the lifts of each face's corners, one after the other
    lifts = _hyperboloid(rho, theta)[faces].reshape(-1, 9)
    vr, vt, finite = circumcenters_arrays(*lifts.T)
    # containment of the Euclidean circumdisk implies a finite center
    faces = faces[finite].astype(np.int64)
    vr, vt = vr[finite], vt[finite]
    star_kept = np.bincount(faces.ravel(), minlength=n)
    star_total = np.bincount(simplices.ravel(), minlength=n)
    interior = (~on_hull) & (star_kept == star_total) & (star_total > 0)
    # vr >= 0, and a nucleus without kept faces is not interior already
    interior[faces[vr > R - 1.0]] = False
    return faces, vr, vt, interior


def _reach(circles):
    """How far from the origin the circumdisks reach, in the disk."""
    cx, cy, r2 = circles
    return np.hypot(cx, cy) + np.sqrt(r2)


def _euclidean_circumcircles(xy, simplices):
    """Centres (x, y) and squared radii of the triangles' circumcircles;
    NaN, which keeps and proves no face, for collinear corners."""
    a, b, c = xy[simplices].transpose(1, 2, 0)
    ax, ay = a
    bx, by = b[0] - ax, b[1] - ay
    cx, cy = c[0] - ax, c[1] - ay
    d = 2.0 * (bx * cy - by * cx)
    d[d == 0.0] = np.nan
    b2 = bx * bx + by * by
    c2 = cx * cx + cy * cy
    ux = (cy * b2 - by * c2) / d
    uy = (bx * c2 - cx * b2) / d
    return ax + ux, ay + uy, ux * ux + uy * uy


# A star first takes the STAR_NUCLEI nuclei nearest its cell, then
# STAR_GROWTH times as many after each failed proof, and comes from the
# whole complex once that count reaches the sample size.
STAR_NUCLEI = 64
STAR_GROWTH = 4
# relative margin of the emptiness and keep tests, far above rounding: a
# nucleus that close to a circumcircle counts as inside, and the star
# grows; a face that close to the unit circle sends the star to the whole
# complex
_ROUNDING = 1e-9
# relative margin of the interior test: a star with a Voronoi vertex this
# close to R - 1 comes from the whole complex.  One face's hyperbolic
# circumcenter, computed from its corners in another order, moved by at
# most 2e-7 of its radius over 80 000 faces of radius up to 10.
_VERTEX_ROUNDING = 1e-5


class Star(NamedTuple):
    """A cell's Delaunay star, as delaunay() of the whole sample has it."""

    faces: np.ndarray      # (m, 3) kept faces, sample indices
    vor_rho: np.ndarray    # (m,) their Voronoi vertices' polar radii
    neighbours: np.ndarray  # the other corners of the kept faces, ascending
    interior: bool


class LocalStars:
    """The Delaunay stars of single cells of a sample, computed when asked.

    Cell x's star comes from the nuclei nearest to x in hyperbolic
    distance, ranked by the key |z - z_x|^2 / (1 - |z|^2) (plain Euclidean
    nearness in the disk misses neighbours far out).  Inversion about z_x,
    z -> (z - z_x) / |z - z_x|^2, keeps each nucleus's direction from x and
    maps the circle through x, a and b to the line through the images of a
    and b, and that circle's open disk to the open half-plane beyond the
    line from the origin.  So when the origin lies strictly inside the 2-D
    convex hull (Qhull) of the candidates' images, x lies inside the
    candidates' hull, and each edge of the images' hull makes with x a
    face with no candidate in its circumdisk; these faces close a fan
    around x.  A face is proven a Delaunay triangle of the sample when no
    nucleus lies in its open circumdisk or within rounding of its circle:
    a circumdisk inside the candidates' ball {key < t}, t the key of the
    nearest nucleus left out, is checked against the candidates, any
    other against the whole sample.  A proven fan is x's whole star.  If
    the hull does not hold the origin, Qhull refuses it or a face is not
    proven, more nuclei are taken, up to the whole sample, whose complex
    delaunay() builds.  On the voronoi-pc benchmark 531 stars took 532
    hulls and no whole complex.  Faces, Voronoi vertices and the interior
    flag follow delaunay()'s rule (`_filter`).  The vertices agree with
    delaunay()'s to rounding, since a face's corners may come in another
    order than in Qhull's triangulation, so a star on which the keep or
    the interior test is within rounding of its bound comes from the
    whole complex as well, and so has delaunay()'s flag by construction.
    """

    def __init__(self, points: ColoredPointSet):
        self.points = points
        self._xy = xy = _disk_xy(points)
        self._x, self._y = xy[:, 0].copy(), xy[:, 1].copy()
        self._w = 1.0 - (self._x * self._x + self._y * self._y)
        self._inv_w = 1.0 / self._w
        self._whole = None
        self._stars = {}

    def star(self, x: int) -> Star:
        """Cell x's star, equal to delaunay(points)'s."""
        got = self._stars.get(x)
        if got is None:
            got = self._local(x)
            if got is None:
                if self._whole is None:
                    self._whole = _whole_complex(self.points, self._xy)
                got = self._from_whole(x)
            self._stars[x] = got
        return got

    def _local(self, x):
        """x's star from the hulls of ever more of its nearest nuclei,
        inverted about x; None, for the whole complex, when no hull short
        of the whole sample proves x's fan or a rounding guard fires."""
        if self._whole is not None:
            return None
        n = len(self._xy)
        zx, zy = self._xy[x]
        r2 = np.square(self._x - zx)
        r2 += np.square(self._y - zy)
        key = r2 * self._inv_w
        key[x] = np.inf    # x is no candidate of its own
        k = STAR_NUCLEI
        while k < n:
            part = np.argpartition(key, k - 1)
            near, t = part[:k - 1], key[part[k - 1]]
            fan = self._fan(np.concatenate((near, [x])), t, r2[near])
            if fan is not None:
                return self._fan_star(*fan)
            k *= STAR_GROWTH
        return None

    def _fan(self, nodes, t, d2):
        """The faces of x = nodes[-1] over the nodes, as node indices, and
        their circumcircles, when the hull of the other nodes' images
        holds the origin and every face is proven; else None.  d2 holds
        the other nodes' squared distances to x."""
        pxy = self._xy[nodes]
        try:
            hull = ConvexHull((pxy[:-1] - pxy[-1]) / d2[:, None])
        except QhullError:
            return None
        # the origin strictly inside the hull (every offset negative), so
        # the faces close a fan around x
        if not hull.equations[:, 2].max() < 0.0:
            return None
        # each hull edge makes a face with x
        fan = np.full((len(hull.simplices), 3), len(d2))
        fan[:, :2] = hull.simplices
        cx, cy, r2 = circles = _euclidean_circumcircles(pxy, fan)
        # every face against the candidates, and one whose circumdisk
        # leaves their ball {key < t}, the Euclidean disk of centre
        # z_x / (1 + t), against the whole sample as well
        if not _clear(pxy[:, 0], pxy[:, 1], fan, cx, cy, r2):
            return None
        bx, by = pxy[-1] / (1.0 + t)
        br = math.sqrt(t * (t + self._w[nodes[-1]])) / (1.0 + t)
        out = (np.hypot(cx - bx, cy - by) + np.sqrt(r2)
               >= br * (1 - _ROUNDING))
        if out.any() and not _clear(self._x, self._y, nodes[fan[out]],
                                    cx[out], cy[out], r2[out]):
            return None
        return nodes, fan, circles

    def _fan_star(self, nodes, fan, circles):
        """The star of x = nodes[-1] from its proven fan, by _filter's
        rule; None when the keep or the interior test is within rounding
        of its bound."""
        reach = _reach(circles)
        R = self.points.R
        kept, vr, _, interior = _filter(
            self.points.rho[nodes], self.points.theta[nodes], fan, reach,
            np.zeros(len(nodes), dtype=bool), R)
        if (np.abs(reach - 1.0).min() <= _ROUNDING
                or np.abs(vr - (R - 1.0)).min(initial=np.inf)
                <= _VERTEX_ROUNDING * R):
            return None
        return _star(int(nodes[-1]), nodes[kept], vr, bool(interior[-1]))

    def _from_whole(self, x):
        V = self._whole
        js = V.cell_faces(x)
        return _star(x, V.faces[js], V.vor_rho[js], bool(V.interior_mask[x]))

    def neighbours(self, x: int, R_window: float):
        """Cell x's Delaunay neighbours as _kernels._invade reads site
        marks, a list and an array, None for a shell cell: beyond
        R_window or not interior, as shell_cell_mask has it."""
        if self.points.rho[x] > R_window:
            return None
        s = self.star(x)
        return (s.neighbours.tolist(), s.neighbours) if s.interior else None

    def core_mask(self) -> np.ndarray:
        """core_cell_mask(delaunay(points), 0.0): every face whose Voronoi
        vertex is the origin lies in the star of the nucleus nearest the
        origin."""
        s = self.star(int(np.argmin(self.points.rho)))
        return _core_rule(self.points.rho, s.faces, s.vor_rho, 0.0)


def _clear(xs, ys, faces, cx, cy, r2):
    """Whether none of the points (xs, ys) lies in the open circumdisk of
    any face, or within rounding of its circle, apart from the face's own
    corners (indices into xs, ys), which lie on it.  A face without a
    circle (NaN, collinear corners) is never clear."""
    dx = xs - cx[:, None]
    dy = ys - cy[:, None]
    d = dx * dx + dy * dy
    d[np.arange(len(d))[:, None], faces] = np.inf
    return bool((d >= r2[:, None] * (1 + _ROUNDING)).all())


def _star(x, faces, vor_rho, interior):
    corners = np.unique(faces)
    return Star(faces, vor_rho, corners[corners != x], interior)


def _hyperboloid(rho, theta):
    s = np.sinh(rho)
    return np.array([s * np.cos(theta), s * np.sin(theta), np.cosh(rho)]).T


def cell_polygon(V: VoronoiComplex, i: int) -> GeodesicPolygon:
    """Voronoi cell of an interior nucleus, vertices ordered ccw."""
    if not V.interior_mask[i]:
        raise NotInterior(f"nucleus {i} is boundary-masked")
    verts = [HPoint(float(V.vor_rho[j]), float(V.vor_theta[j]))
             for j in V.cell_faces(i)]
    zn = HPoint(float(V.points.rho[i]), float(V.points.theta[i])).disk
    # the cell is hyperbolically convex, so geodesic directions at the
    # nucleus order its vertices ccw
    verts.sort(key=lambda v: geodesic_direction(zn, v.disk))
    return GeodesicPolygon(verts)


def core_cell_mask(V: VoronoiComplex, r_core: float) -> np.ndarray:
    """Cells meeting the central ball of radius r_core (vertex/nucleus proxy).

    A cell counts as a core cell when its nucleus or one of its Voronoi
    vertices lies within r_core; the cell containing the origin (nearest
    nucleus) is always included.
    """
    return _core_rule(V.points.rho, V.faces, V.vor_rho, r_core)


def _core_rule(rho, faces, vor_rho, r_core):
    mask = rho <= r_core
    mask[faces[vor_rho <= r_core].ravel()] = True
    mask[int(np.argmin(rho))] = True
    return mask


def shell_cell_mask(V: VoronoiComplex, R_window: float) -> np.ndarray:
    """Cells touching the outer shell {rho > R_window} or boundary-masked."""
    return (V.points.rho > R_window) | ~V.interior_mask
