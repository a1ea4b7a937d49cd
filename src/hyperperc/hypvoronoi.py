"""Hyperbolic Voronoi/Delaunay complexes of colored Poisson samples.

The hyperbolic Delaunay complex equals the sub-complex of the Euclidean
Delaunay triangulation of the Poincare images whose circumdisks stay
inside the open unit disk.  A whole complex (`delaunay`, for the sweeps,
the densities and the pictures) runs Euclidean Delaunay (Qhull) on the
whole sample and filters faces.  A reach threshold needs only the stars
of the few cells its invasion takes, so `LocalStars` builds one star at a
time from a Qhull triangulation of the cell's nearest nuclei, verified
against the whole sample.  Both keep faces and mark interior nuclei by
one rule (`_filter`).  Voronoi vertices are the hyperbolic circumcenters
of the kept faces.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

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
    # exact duplicates break the empty-disk property; sorted as complex
    # numbers (x, then y), equal nuclei end up adjacent
    z = np.sort(xy.view(np.complex128).ravel())
    if np.any(z[1:] == z[:-1]):
        raise DegenerateInput("duplicate nuclei")
    return xy


def _whole_complex(points: ColoredPointSet, xy: np.ndarray) -> VoronoiComplex:
    n = len(points)
    tri = _EuclideanDelaunay(xy)  # Qhull; cocircular ties broken by joggle-free merge
    simplices = tri.simplices
    faces, vr, vt, interior = _filter(
        points.rho, points.theta, simplices,
        _euclidean_circumcircles(xy, simplices), _hull_mask(tri), points.R)
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


def _filter(rho, theta, simplices, circles, on_hull, R):
    """The kept faces among Euclidean Delaunay `simplices`, their Voronoi
    vertices (rho, theta) and the interior mask of the nuclei; the one
    rule for whole complexes and local stars.

    A face is kept when its Euclidean circumdisk (`circles`) lies inside
    the open unit disk and its hyperbolic circumcenter is finite.  A
    nucleus is interior when it is off the hull, has a face, every face it
    has is kept, and all its Voronoi vertices lie within R - 1 of the
    origin.
    """
    n = len(rho)
    faces = simplices[_reach(circles) < 1.0]
    lifts = _hyperboloid(rho, theta)
    A, B, C = lifts[faces[:, 0]], lifts[faces[:, 1]], lifts[faces[:, 2]]
    vr, vt, finite = circumcenters_arrays(
        A[:, 0], A[:, 1], A[:, 2],
        B[:, 0], B[:, 1], B[:, 2],
        C[:, 0], C[:, 1], C[:, 2],
    )
    # containment of the Euclidean circumdisk implies a finite center
    faces = faces[finite].astype(np.int64)
    vr, vt = vr[finite], vt[finite]
    corners = faces.ravel()
    star_kept = np.bincount(corners, minlength=n)
    star_total = np.bincount(simplices.ravel(), minlength=n)
    interior = (~on_hull) & (star_kept == star_total) & (star_total > 0)
    vmax = np.zeros(n)
    np.maximum.at(vmax, corners, np.repeat(vr, 3))
    interior &= vmax <= R - 1.0
    return faces, vr, vt, interior


def _reach(circles):
    """How far from the origin the circumdisks reach, in the disk."""
    cx, cy, r2 = circles
    return np.hypot(cx, cy) + np.sqrt(r2)


def _euclidean_circumcircles(xy, simplices):
    """Centres (x, y) and squared radii of the triangles' circumcircles."""
    a, b, c = xy[simplices[:, 0]], xy[simplices[:, 1]], xy[simplices[:, 2]]
    ax, ay = a[:, 0], a[:, 1]
    bx, by = b[:, 0] - ax, b[:, 1] - ay
    cx, cy = c[:, 0] - ax, c[:, 1] - ay
    d = 2.0 * (bx * cy - by * cx)
    b2 = bx * bx + by * by
    c2 = cx * cx + cy * cy
    ux = (cy * b2 - by * c2) / d
    uy = (bx * c2 - cx * b2) / d
    return ax + ux, ay + uy, ux * ux + uy * uy


# A local star first triangulates the STAR_NUCLEI nuclei nearest its cell,
# then STAR_GROWTH times as many after each failed check, and the whole
# sample once that count reaches the sample size.
STAR_NUCLEI = 32
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

    Cell x's star comes from a Qhull triangulation of the nuclei nearest
    to x in hyperbolic distance, ranked by the key |z - z_x|^2 / (1 - |z|^2)
    (plain Euclidean nearness in the disk misses neighbours far out).  x's
    faces are accepted only if they close a fan around x (x is off the
    local hull) and no nucleus of the whole sample lies in their open
    circumdisks or within rounding of their circles.  Then each is a
    Delaunay triangle of the sample, and a closed fan of them is x's whole
    star.  Otherwise more nuclei are taken, up to the whole sample in its
    own order, which is delaunay()'s input to Qhull.  Faces, Voronoi
    vertices and the interior flag follow delaunay()'s rule (`_filter`).
    The vertices agree with delaunay()'s to rounding, since Qhull may list
    a face's corners in another order, so a star on which the keep or the
    interior test is within rounding of its bound comes from the whole
    complex as well, and so has delaunay()'s flag by construction.
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
        if self._whole is not None:
            return None
        xy, n = self._xy, len(self._xy)
        z = xy[x]
        dx, dy = self._x - z[0], self._y - z[1]
        d2 = (dx * dx + dy * dy) * self._inv_w
        k = STAR_NUCLEI
        while k < n:
            part = np.argpartition(d2, k)
            near, t = part[:k], d2[part[k]]
            tri = _EuclideanDelaunay(xy[near])
            on_hull = _hull_mask(tri)
            here = int(np.argmin(d2[near]))    # x, the one key of 0
            simplices = tri.simplices
            fan = simplices[(simplices == here).any(axis=1)]
            if len(fan) and not on_hull[here]:
                circles = _euclidean_circumcircles(tri.points, fan)
                if self._empty(tri.points, near, fan, circles, x, t):
                    R = self.points.R
                    faces, vr, _, interior = _filter(
                        self.points.rho[near], self.points.theta[near], fan,
                        circles, on_hull, R)
                    if (np.any(np.abs(_reach(circles) - 1.0) <= _ROUNDING)
                            or np.any(np.abs(vr - (R - 1.0))
                                      <= _VERTEX_ROUNDING * R)):
                        return None
                    return _star(x, near[faces], vr, bool(interior[here]))
            k *= STAR_GROWTH
        return None

    def _empty(self, near_xy, near, fan, circles, x, t):
        """Whether no nucleus lies in the open circumdisks of `fan` (faces
        over the candidates `near`, at `near_xy`), or within rounding of
        their circles.  Every circumdisk is scanned against the
        candidates.  One inside the candidates' ball {key < t}, t the key
        of the nearest nucleus left out, holds no other nucleus; any other
        is scanned against the whole sample as well."""
        cx, cy, r2 = circles
        if not _clear(near_xy[:, 0], near_xy[:, 1], fan, cx, cy, r2):
            return False
        # {key < t} is the Euclidean disk of centre z_x / (1 + t)
        bx, by = self._xy[x] / (1.0 + t)
        br = math.sqrt(t * (t + self._w[x])) / (1.0 + t)
        out = np.hypot(cx - bx, cy - by) + np.sqrt(r2) >= br * (1 - _ROUNDING)
        return not out.any() or _clear(self._x, self._y, near[fan[out]],
                                       cx[out], cy[out], r2[out])

    def _from_whole(self, x):
        V = self._whole
        js = V.cell_faces(x)
        return _star(x, V.faces[js], V.vor_rho[js], bool(V.interior_mask[x]))

    def neighbours(self, x: int, R_window: float):
        """Cell x's Delaunay neighbours as _kernels._invade reads site
        marks, twice, None for a shell cell: beyond R_window or not
        interior, as shell_cell_mask has it."""
        if self.points.rho[x] > R_window:
            return None
        s = self.star(x)
        return (s.neighbours, s.neighbours) if s.interior else None

    def core_mask(self) -> np.ndarray:
        """core_cell_mask(delaunay(points), 0.0): every face whose Voronoi
        vertex is the origin lies in the star of the nucleus nearest the
        origin."""
        s = self.star(int(np.argmin(self.points.rho)))
        return _core_rule(self.points.rho, s.faces, s.vor_rho, 0.0)


def _clear(xs, ys, faces, cx, cy, r2):
    """Whether none of the points (xs, ys) lies in the open circumdisk of
    a face, or within rounding of its circle, apart from the face's own
    corners (indices into xs, ys), which lie on it."""
    dx = xs - cx[:, None]
    dy = ys - cy[:, None]
    d = dx * dx + dy * dy
    d[np.arange(len(d))[:, None], faces] = np.inf
    return not np.any(d < r2[:, None] * (1 + _ROUNDING))


def _star(x, faces, vor_rho, interior):
    corners = np.unique(faces)
    return Star(faces, vor_rho, corners[corners != x], interior)


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
    return _core_rule(V.points.rho, V.faces, V.vor_rho, r_core)


def _core_rule(rho, faces, vor_rho, r_core):
    mask = rho <= r_core
    mask[faces[vor_rho <= r_core].ravel()] = True
    mask[int(np.argmin(rho))] = True
    return mask


def shell_cell_mask(V: VoronoiComplex, R_window: float) -> np.ndarray:
    """Cells touching the outer shell {rho > R_window} or boundary-masked."""
    return (V.points.rho > R_window) | ~V.interior_mask
