"""Hyperbolic Voronoi/Delaunay complexes of colored Poisson samples.

The hyperbolic Delaunay complex equals the sub-complex of the Euclidean
Delaunay triangulation of the Poincare images whose circumdisks stay
inside the open unit disk.  A whole complex (`delaunay`, for the sweeps,
the densities and the pictures) runs Euclidean Delaunay (Qhull) on the
whole sample and filters faces (`_filter`).  A reach threshold needs only
the stars of the few cells its invasion takes, so `LocalStars` builds
each when asked from one 2-D convex hull: the images of the cell's
nearest nuclei under inversion about it, whose hull edges are the cell's
fan of faces, each proven empty in that inversion space.  Both keep
faces and mark interior nuclei by one rule, and both take a face's
Voronoi vertex, its hyperbolic circumcenter, from its Euclidean
circumcircle in closed form (`hypgeo.circumcenters_arrays`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.spatial import ConvexHull, QhullError
from scipy.spatial import Delaunay as _EuclideanDelaunay

from .graphs import edges_of_keys, side_keys
from .hypgeo import (
    GeodesicPolygon,
    HPoint,
    InvalidInput,
    circumcenters_arrays,
    geodesic_direction,
)
from .pointprocess import ColoredPointSet


class DegenerateInput(InvalidInput):
    """Raised for duplicate nuclei, fewer than three points or a sample
    Qhull cannot triangulate."""


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
            raise InvalidInput(f"window radius must satisfy 0 < Rw <= R - "
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
    # Qhull; cocircular ties broken by joggle-free merge
    try:
        tri = _EuclideanDelaunay(xy)
    except QhullError as e:
        # e.g. every nucleus on one line: Qhull's report, first line only
        raise DegenerateInput(f"Qhull cannot triangulate the {n} nuclei: "
                              f"{str(e).strip().splitlines()[0]}") from None
    simplices = tri.simplices
    faces, vr, vt, interior = _filter(
        simplices, _euclidean_circumcircles(xy, simplices), _hull_mask(tri),
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


def _filter(simplices, circles, on_hull, R):
    """The kept faces among Euclidean Delaunay `simplices` with `circles`,
    their Voronoi vertices (rho, theta) and the interior mask of the
    nuclei.

    A face is kept when its Euclidean circumdisk lies inside the open unit
    disk.  A nucleus is interior when it is off the hull, has a face,
    every face it has is kept, and all its Voronoi vertices lie within
    R - 1 of the origin.  LocalStars applies the same rule to a fan.
    """
    n = len(on_hull)
    cx, cy, r = circles
    keep = _reach(circles) < 1.0
    faces = simplices[keep].astype(np.int64)
    vr, vt = circumcenters_arrays(cx[keep], cy[keep], r[keep])
    star_kept = np.bincount(faces.ravel(), minlength=n)
    star_total = np.bincount(simplices.ravel(), minlength=n)
    interior = (~on_hull) & (star_kept == star_total) & (star_total > 0)
    # vr >= 0, and a nucleus without kept faces is not interior already
    interior[faces[vr > R - 1.0]] = False
    return faces, vr, vt, interior


def _reach(circles):
    """How far from the origin the circumdisks reach, in the disk."""
    cx, cy, r = circles
    return np.hypot(cx, cy) + r


def _euclidean_circumcircles(xy, simplices):
    """Centres (x, y) and radii of the triangles' circumcircles; NaN,
    which keeps and proves no face, for collinear corners."""
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
    return ax + ux, ay + uy, np.hypot(ux, uy)


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
# circumcenter, from its circle through its corners in another order or
# from a star's inverted hull, moved by at most 3e-11 of its radius over
# 140 000 faces of radius up to 10.
_VERTEX_ROUNDING = 1e-5
# what LocalStars._fan returns for a fan it cannot prove
_UNPROVEN = object()


class Star:
    """A cell's Delaunay star, as delaunay() of the whole sample has it: its
    kept faces (m, 3) in sample indices, their Voronoi vertices' polar
    radii vor_rho (m,), the other corners of the kept faces, ascending, and
    the interior flag; indexed as the tuple of these four.  A local star
    also holds its faces' Euclidean circumcircles, a list of (centre x,
    centre y, radius), and computes vor_rho from them when it is first
    read."""

    __slots__ = ("faces", "neighbours", "interior", "circles", "_vor_rho")

    def __init__(self, faces, vor_rho, neighbours, interior, circles=None):
        self.faces, self._vor_rho = faces, vor_rho
        self.neighbours, self.interior = neighbours, interior
        self.circles = circles

    @property
    def vor_rho(self) -> np.ndarray:
        if self._vor_rho is None:
            rows = np.array(self.circles).reshape(-1, 3)
            self._vor_rho, _ = circumcenters_arrays(*rows.T)
        return self._vor_rho

    def __getitem__(self, i):
        return (self.faces, self.vor_rho, self.neighbours, self.interior)[i]


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
    nucleus lies in its open circumdisk or within rounding of its circle,
    a test that the hull edge's line equation gives in inversion space: a
    circumdisk inside the candidates' ball {key < t}, t the key of the
    nearest nucleus left out, is checked against the candidates, any other
    against the whole sample as well.  A proven fan is x's whole star.  If
    the hull does not hold the origin, Qhull refuses it or a face is not
    proven, more nuclei are taken, up to the whole sample, whose complex
    delaunay() builds.  On the voronoi-pc benchmark 531 stars took 532
    hulls and no whole complex.

    One scalar pass over the hull's edges (`_fan`) gives each face's
    circle, its row of the emptiness proof, which one matrix product
    checks against every candidate, and its keep test, by _filter's rule.
    The interior flag needs the Voronoi vertices only when the circles
    leave it open: a face's vertex lies inside its circumdisk, so its
    radius is at most 2 artanh(|c| + r).  When every kept face reaches at
    most tanh((R - 1 - _VERTEX_ROUNDING R) / 2), less a rounding margin,
    every vertex lies within R - 1 and clear of the interior test's guard,
    and the star is interior exactly when every face is kept.  On the
    voronoi-pc benchmark this bound settled 463 of 531 stars; the others,
    and any star whose vor_rho is read, take their vertices from
    hypgeo.circumcenters_arrays.  The vertices agree with
    delaunay()'s to rounding, since the star's circles come from the
    hull's lines and delaunay()'s from the corners, so a star on which the
    keep or the interior test is within rounding of its bound comes from
    the whole complex as well, and so has delaunay()'s flag by
    construction.
    """

    def __init__(self, points: ColoredPointSet):
        self.points = points
        self._xy = xy = _disk_xy(points)
        self._x, self._y = xy[:, 0].copy(), xy[:, 1].copy()
        self._w = 1.0 - (self._x * self._x + self._y * self._y)
        self._inv_w = 1.0 / self._w
        # the largest reach |c| + r of a kept face that puts its Voronoi
        # vertex within R - 1 - _VERTEX_ROUNDING R of the origin
        R = points.R
        self._settled = (math.tanh((R - 1.0 - _VERTEX_ROUNDING * R) / 2.0)
                         * (1 - _ROUNDING))
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
            star = self._fan(x, near, t, r2[near])
            if star is not _UNPROVEN:
                return star
            k *= STAR_GROWTH
        return None

    def _fan(self, x, near, t, d2):
        """x's star over its candidates `near` when the hull of their
        images holds the origin and every face is proven, None when the
        keep or the interior test is within rounding of its bound, and
        _UNPROVEN otherwise.  d2 holds the candidates' squared distances
        to x, t the key of the nearest nucleus left out."""
        # the images q = (p - x) / |p - x|^2, and |q|^2 as a third column
        q = np.empty((len(near), 3))
        np.subtract(self._xy[near], self._xy[x], out=q[:, :2])
        q[:, 2] = 1.0
        q /= d2[:, None]
        try:
            hull = ConvexHull(q[:, :2])
        except QhullError:
            return _UNPROVEN
        zx, zy = self._xy[x].tolist()
        # the candidates' ball {key < t} is the Euclidean disk of centre
        # z_x / (1 + t) and radius br
        bx, by = zx / (1.0 + t), zy / (1.0 + t)
        br = math.sqrt(t * (t + self._w[x])) / (1.0 + t) * (1 - _ROUNDING)
        hypot = math.hypot
        # the proof's rows (2u, _ROUNDING |u|^2), column by column
        col_x, col_y, col_m = [], [], []
        circles, out, kept = [], [], []
        rim, top = False, -math.inf
        for j, (a, b, off) in enumerate(hull.equations.tolist()):
            # the origin strictly inside the hull (every offset negative),
            # so the faces close a fan around x
            if not off < 0.0:
                return _UNPROVEN
            # hull edge j lies on the line n.q + off = 0, the image of the
            # circumcircle of x and the edge's ends.  Its centre is x + u
            # with 2u = n / -off, and a nucleus p of image q has the power
            # |p - x|^2 (1 - 2u.q) to it, so |p - c|^2 >= r^2 (1 +
            # _ROUNDING) reads 2u.q + _ROUNDING |u|^2 |q|^2 <= 1
            vx, vy = a / -off, b / -off    # 2u
            ux, uy = 0.5 * vx, 0.5 * vy
            r = hypot(ux, uy)
            col_x.append(vx)
            col_y.append(vy)
            col_m.append(_ROUNDING * (r * r))
            cx, cy = ux + zx, uy + zy
            circles.append((cx, cy, r))
            # a circumdisk that leaves the candidates' ball is checked
            # against the whole sample as well
            if hypot(cx - bx, cy - by) + r >= br:
                out.append(j)
            # kept when the circumdisk lies inside the unit disk
            reach = hypot(cx, cy) + r
            if abs(reach - 1.0) <= _ROUNDING:
                rim = True
            if reach < 1.0:
                kept.append(j)
                if reach > top:
                    top = reach
        # every candidate but the face's own corners passes every row
        power = np.dot(q, np.array((col_x, col_y, col_m)))
        pairs = hull.simplices
        power[pairs, np.arange(len(pairs))[:, None]] = 0.0
        if not power.max() <= 1.0:    # NaN, from a face without a circle, fails
            return _UNPROVEN
        if out:
            faces = np.full((len(out), 3), x)
            faces[:, :2] = near[pairs[out]]
            if not _clear(self._x, self._y, faces,
                          *np.array([circles[j] for j in out]).T):
                return _UNPROVEN
        if rim:
            return None
        interior = len(kept) == len(circles)
        if interior:
            ring = hull.vertices
        else:
            pairs = pairs[kept]
            circles = [circles[j] for j in kept]
            ring = np.unique(pairs)
        vr = None
        if top > self._settled:
            vr, _ = circumcenters_arrays(*np.array(circles).reshape(-1, 3).T)
            R = self.points.R
            for v in vr.tolist():
                if abs(v - (R - 1.0)) <= _VERTEX_ROUNDING * R:
                    return None
                interior = interior and v <= R - 1.0
        faces = np.full((len(pairs), 3), x)
        faces[:, :2] = near[pairs]
        return Star(faces, vr, np.sort(near[ring]), interior, circles)

    def _from_whole(self, x):
        V = self._whole
        js = V.cell_faces(x)
        corners = np.unique(V.faces[js])
        return Star(V.faces[js], V.vor_rho[js], corners[corners != x],
                    bool(V.interior_mask[x]))

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


def _clear(xs, ys, faces, cx, cy, r):
    """Whether none of the points (xs, ys) lies in the open circumdisk of
    any face, or within rounding of its circle, apart from the face's own
    corners (indices into xs, ys), which lie on it.  A face without a
    circle (NaN, collinear corners) is never clear."""
    dx = xs - cx[:, None]
    dy = ys - cy[:, None]
    d = dx * dx + dy * dy
    d[np.arange(len(d))[:, None], faces] = np.inf
    return bool((d >= np.square(r)[:, None] * (1 + _ROUNDING)).all())


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
