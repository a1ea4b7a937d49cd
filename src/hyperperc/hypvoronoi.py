"""Hyperbolic Voronoi/Delaunay complexes of colored Poisson samples.

The hyperbolic Delaunay complex equals the sub-complex of the Euclidean
Delaunay triangulation of the Poincare images whose circumdisks stay
inside the open unit disk.  A whole complex (`delaunay`, for the sweeps,
the densities and the pictures) runs Euclidean Delaunay (Qhull) on the
whole sample and filters faces.  A reach threshold needs only the stars
of the few cells its invasion takes, so `LocalStars` builds them when
asked from Qhull triangulations of a cell's nearest nuclei, verified
against the whole sample; one such patch serves every cell whose fan of
faces it proves.  Both keep faces and mark interior nuclei by one rule
(`_filter`).  Voronoi vertices are the hyperbolic circumcenters of the
kept faces.
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


class _Patch(NamedTuple):
    """The proven faces of one local triangulation, kept for its cells."""

    near: np.ndarray       # (k,) the candidates' sample indices
    faces: np.ndarray      # (m, 3) kept proven faces, candidate indices
    vor_rho: np.ndarray    # (m,) their Voronoi vertices' polar radii
    interior: np.ndarray   # (k,) _filter's interior flag per candidate


class LocalStars:
    """The Delaunay stars of single cells of a sample, computed when asked.

    Cell x's star comes from a Qhull triangulation of the nuclei nearest
    to x in hyperbolic distance, ranked by the key |z - z_x|^2 / (1 - |z|^2)
    (plain Euclidean nearness in the disk misses neighbours far out).  A
    face of this patch is proven a Delaunay triangle of the sample when no
    nucleus lies in its open circumdisk or within rounding of its circle:
    a circumdisk inside the candidates' ball {key < t}, t the key of the
    nearest nucleus left out, is checked against the candidates, and one
    of x's faces that leaves the ball against the whole sample.  A cell
    off the patch hull whose faces are all proven has a closed fan of
    Delaunay triangles, its whole star, so one patch serves x and every
    such cell among the candidates.  On the voronoi-pc benchmark 531
    stars took 270 Qhull calls, about 4.5 per replica and rung, where one
    patch per star took 564.  If x's own faces are not all proven, more
    nuclei are taken, up to the whole sample in its own order, which is
    delaunay()'s input to Qhull; a grown patch serves x only.  Faces,
    Voronoi vertices and the interior flag follow delaunay()'s rule
    (`_filter`).  The vertices agree with delaunay()'s to rounding, since
    Qhull may list a face's corners in another order, so a star on which
    the keep or the interior test is within rounding of its bound comes
    from the whole complex as well, and so has delaunay()'s flag by
    construction.
    """

    def __init__(self, points: ColoredPointSet):
        self.points = points
        self._xy = xy = _disk_xy(points)
        self._x, self._y = xy[:, 0].copy(), xy[:, 1].copy()
        self._w = 1.0 - (self._x * self._x + self._y * self._y)
        self._inv_w = 1.0 / self._w
        self._whole = None
        self._stars = {}
        self._served = {}    # cell -> (patch, its candidate index)

    def star(self, x: int) -> Star:
        """Cell x's star, equal to delaunay(points)'s."""
        got = self._stars.get(x)
        if got is None:
            if x not in self._served:
                self._local(x)
            served = self._served.pop(x, None)
            if served is not None:
                got = _patch_star(x, *served)
            else:
                if self._whole is None:
                    self._whole = _whole_complex(self.points, self._xy)
                got = self._from_whole(x)
            self._stars[x] = got
        return got

    def _local(self, x):
        """Triangulate ever more of x's nearest nuclei until a patch proves
        x's faces and serves x, unless a rounding guard fires.  x stays
        unserved, for the whole complex, if no patch short of the whole
        sample proves them."""
        if self._whole is not None:
            return
        xy, n = self._xy, len(self._xy)
        z = xy[x]
        dx, dy = self._x - z[0], self._y - z[1]
        d2 = (dx * dx + dy * dy) * self._inv_w
        k = STAR_NUCLEI
        while k < n:
            part = np.argpartition(d2, k)
            # a copy, so that a kept patch does not hold all n ranks
            near, t = part[:k].copy(), d2[part[k]]
            tri = _EuclideanDelaunay(xy[near])
            on_hull = _hull_mask(tri)
            here = int(np.argmin(d2[near]))    # x, the one key of 0
            at_x = (tri.simplices == here).any(axis=1)
            if (at_x.any() and not on_hull[here]
                    and self._serve(x, near, t, tri, at_x, on_hull,
                                    share=k == STAR_NUCLEI)):
                return
            k *= STAR_GROWTH

    def _serve(self, x, near, t, tri, at_x, on_hull, share):
        """Prove the faces of the patch `tri` over the candidates `near`,
        x's (`at_x`) and, when `share`, those inside the candidates' ball;
        serve every cell whose faces are all proven; return whether x's
        are."""
        pxy, faces = tri.points, tri.simplices
        cx, cy, r2 = _euclidean_circumcircles(pxy, faces)
        # {key < t} is the Euclidean disk of centre z_x / (1 + t)
        bx, by = self._xy[x] / (1.0 + t)
        br = math.sqrt(t * (t + self._w[x])) / (1.0 + t)
        inside = (np.hypot(cx - bx, cy - by) + np.sqrt(r2)
                  < br * (1 - _ROUNDING))
        proven = at_x | (inside & share)
        proven[proven] = _clear(pxy[:, 0], pxy[:, 1], faces[proven],
                                cx[proven], cy[proven], r2[proven])
        # x's faces that leave the ball are checked against the whole
        # sample, once the candidates clear all of x's faces
        out = at_x & ~inside
        if out.any():
            proven[out] = proven[at_x].all() and _clear(
                self._x, self._y, near[faces[out]], cx[out], cy[out], r2[out])
        R = self.points.R
        reach = _reach((cx, cy, r2))
        proven_faces = faces[proven]
        kept, vr, _, interior = _filter(
            self.points.rho[near], self.points.theta[near], proven_faces,
            reach[proven], on_hull, R)
        risky = np.zeros(len(near), dtype=bool)
        risky[faces[proven & (np.abs(reach - 1.0) <= _ROUNDING)]] = True
        risky[kept[np.abs(vr - (R - 1.0)) <= _VERTEX_ROUNDING * R]] = True
        total = np.bincount(faces.ravel(), minlength=len(near))
        counted = np.bincount(proven_faces.ravel(), minlength=len(near))
        served = (counted == total) & (total > 0) & ~on_hull & ~risky
        patch = _Patch(near, kept, vr, interior)
        js = np.flatnonzero(served)
        for j, y in zip(js.tolist(), near[js].tolist()):
            if y not in self._stars:
                self._served[y] = (patch, j)
        return bool(proven[at_x].all())

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
    """Per face, whether none of the points (xs, ys) lies in its open
    circumdisk, or within rounding of its circle, apart from the face's
    own corners (indices into xs, ys), which lie on it."""
    dx = xs - cx[:, None]
    dy = ys - cy[:, None]
    d = dx * dx + dy * dy
    d[np.arange(len(d))[:, None], faces] = np.inf
    return ~np.any(d < r2[:, None] * (1 + _ROUNDING), axis=1)


def _patch_star(x, patch, j):
    """Cell x's star, read from a patch that serves it as candidate j."""
    mine = (patch.faces == j).any(axis=1)
    return _star(x, patch.near[patch.faces[mine]], patch.vor_rho[mine],
                 bool(patch.interior[j]))


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
