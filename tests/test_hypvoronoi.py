import cmath
import itertools
import math
from dataclasses import replace

import numpy as np
import pytest
from scipy.spatial import ConvexHull
from scipy.spatial import Delaunay as _EuclideanDelaunay

from hyperperc.hypgeo import ball_area, polygon_area
from hyperperc import _kernels, hypvoronoi
from hyperperc.hypvoronoi import (
    MARGIN,
    DegenerateInput,
    LocalStars,
    Window,
    cell_outline,
    core_cell_mask,
    delaunay,
    shell_cell_mask,
)
from hyperperc.percolation import (
    label_clusters,
    site_reach_threshold,
    voronoi_sample,
)
from hyperperc.pointprocess import ColoredPointSet

from oracle_geo import HPoint, cell_polygon, dist, dist_arrays


def brute_force_delaunay_faces(xy):
    """All triples whose Euclidean circumdisk stays inside the unit disk
    and contains no other sample point.  O(n^4), independent of Qhull."""
    n = len(xy)
    faces = set()
    for i, j, k in itertools.combinations(range(n), 3):
        (ax, ay), (bx, by), (cx, cy) = xy[i], xy[j], xy[k]
        d = 2.0 * ((bx - ax) * (cy - ay) - (by - ay) * (cx - ax))
        if abs(d) < 1e-14:
            continue
        b2 = (bx - ax) ** 2 + (by - ay) ** 2
        c2 = (cx - ax) ** 2 + (cy - ay) ** 2
        ux = ((cy - ay) * b2 - (by - ay) * c2) / d
        uy = ((bx - ax) * c2 - (cx - ax) * b2) / d
        ox, oy = ax + ux, ay + uy
        r = math.hypot(ux, uy)
        if math.hypot(ox, oy) + r >= 1.0:
            continue
        empty = True
        for m in range(n):
            if m in (i, j, k):
                continue
            if math.hypot(xy[m][0] - ox, xy[m][1] - oy) < r - 1e-12:
                empty = False
                break
        if empty:
            faces.add(frozenset((i, j, k)))
    return faces


def small_sample(lam, replica, max_n=30, min_n=4):
    for shift in range(50):
        pts, _ = voronoi_sample(lam, 2.2, 17, "voronoi-small",
                                replica + 1000 * shift)
        if min_n <= len(pts) <= max_n:
            return pts
    raise RuntimeError("no sample of suitable size found")


def triple_points(rho=1.0):
    thetas = [0.0, 2.0 * math.pi / 3.0, 4.0 * math.pi / 3.0]
    return ColoredPointSet(
        rho=np.full(3, rho),
        theta=np.array(thetas),
        white=np.array([True, False, True]),
        lam=1.0,
        p=0.5,
        R=3.0,
        seed=0,
    )


class TestWindow:
    def test_margin(self):
        w = Window.with_margin(5.0)
        assert w.R_sample == 7.0
        assert w.R_window == 5.0

    def test_invalid(self):
        with pytest.raises(ValueError):
            Window(3.0, 5.0)
        with pytest.raises(ValueError):
            Window(3.0, 0.0)

    def test_window_inside_the_margin_is_refused(self):
        with pytest.raises(ValueError) as e:
            Window(6.0, 4.5)
        assert str(e.value) == (
            "window radius must satisfy 0 < Rw <= R - 2, a margin of 2 to "
            "the sampling edge; got Rw=4.5")
        Window(6.0, 4.0)

    @pytest.mark.parametrize("R_window", [0.3, 0.4, 1.3, 2.1, 2.6, 3.6])
    def test_with_margin_passes_its_own_check(self, R_window):
        # R_window + 2 - 2 rounds below R_window for each of these
        w = Window.with_margin(R_window)
        assert w.R_sample - MARGIN < R_window
        assert w.R_window == R_window


class TestDelaunayConstruction:
    def test_too_few_points(self):
        pts = triple_points()
        two = ColoredPointSet(
            rho=pts.rho[:2], theta=pts.theta[:2], white=pts.white[:2],
            lam=1.0, p=0.5, R=3.0, seed=0,
        )
        with pytest.raises(DegenerateInput):
            delaunay(two)

    def test_duplicate_nuclei(self):
        pts = triple_points()
        dup = ColoredPointSet(
            rho=np.concatenate([pts.rho, pts.rho[:1]]),
            theta=np.concatenate([pts.theta, pts.theta[:1]]),
            white=np.concatenate([pts.white, pts.white[:1]]),
            lam=1.0, p=0.5, R=3.0, seed=0,
        )
        with pytest.raises(DegenerateInput):
            delaunay(dup)

    def test_tied_x_is_a_duplicate_only_with_equal_y(self):
        # nuclei mirrored in the x axis, (x, y) and (x, -y), share x
        # exactly and are distinct; a third nucleus on that x which
        # repeats one of them makes a run of three tied x with a duplicate
        pts = triple_points()

        def with_extra(rho, theta):
            return ColoredPointSet(
                rho=np.concatenate([pts.rho, rho]),
                theta=np.concatenate([pts.theta, theta]),
                white=np.concatenate([pts.white, np.ones(len(rho), bool)]),
                lam=1.0, p=0.5, R=3.0, seed=0,
            )

        mirrored = with_extra(np.full(2, 1.5), np.array([1.0, -1.0]))
        xy = mirrored.disk_xy
        assert xy[3, 0] == xy[4, 0] and xy[3, 1] == -xy[4, 1] != 0.0
        assert len(delaunay(mirrored).faces) > 0
        LocalStars(mirrored)
        three = with_extra(np.full(3, 1.5), np.array([1.0, -1.0, 1.0]))
        for build in (delaunay, LocalStars):
            with pytest.raises(DegenerateInput, match="^duplicate nuclei$"):
                build(three)

    def test_symmetric_triple(self):
        V = delaunay(triple_points())
        assert len(V.vor_rho) == 1
        assert len(V.delaunay_edges) == 3
        # equidistant from all three, so the single Voronoi vertex is the origin
        assert V.vor_rho[0] < 1e-9
        # hull nuclei are never interior
        assert not V.interior_mask.any()

    @pytest.mark.parametrize("replica", range(8))
    def test_faces_match_brute_force_oracle(self, replica):
        pts = small_sample(1.0, replica)
        V = delaunay(pts)
        got = {frozenset(map(int, f)) for f in V.faces}
        assert got == brute_force_delaunay_faces(pts.disk_xy)

    @pytest.mark.parametrize("replica", range(4))
    def test_empty_circumdisk_invariant(self, replica):
        pts, _ = voronoi_sample(1.0, 4.0, 23, "voronoi-mid", replica)
        V = delaunay(pts)
        assert len(V.vor_rho) > 0
        for j in range(len(V.vor_rho)):
            d_all = dist_arrays(
                np.full(len(pts), V.vor_rho[j]),
                np.full(len(pts), V.vor_theta[j]),
                pts.rho, pts.theta,
            )
            r_face = d_all[V.faces[j]]
            assert np.ptp(r_face) < 1e-8
            assert d_all.min() > r_face.mean() - 1e-8

    def test_interior_nuclei_stay_clear_of_rim(self):
        pts, _ = voronoi_sample(1.0, 6.0, 31, "voronoi-rim", 0)
        V = delaunay(pts)
        interior = V.interior_mask
        assert interior.any()
        assert not interior.all()
        for i in np.flatnonzero(interior):
            assert max(V.vor_rho[j] for j in V.cell_faces(i)) <= pts.R - 1.0
        # every nucleus hugging the rim is masked
        assert not interior[pts.rho > pts.R - 0.05].any()


class TestCells:
    def test_cell_polygon_properties(self):
        pts, _ = voronoi_sample(1.0, 6.0, 37, "voronoi-cells", 0)
        V = delaunay(pts)
        ids = np.flatnonzero(V.interior_mask)[:15]
        assert len(ids) > 0
        xy = pts.disk_xy
        for i in ids:
            outline = cell_outline(V, xy, int(i))
            assert polygon_area(outline) > 0
            nucleus = HPoint(float(pts.rho[i]), float(pts.theta[i]))
            for v in map(HPoint.from_disk, outline):
                d_own = dist(v, nucleus)
                d_min = dist_arrays(
                    np.full(len(pts), v.rho), np.full(len(pts), v.theta),
                    pts.rho, pts.theta,
                ).min()
                # cell vertices are equidistant from the nucleus and its
                # nearest competitors
                assert d_own <= d_min + 1e-8

    def test_vertices_sorted_by_direction_at_the_nucleus(self):
        # the order, first vertex included, of an argsort of the geodesic
        # directions at the nucleus, with the nucleus Mobius-moved to 0
        for rep in range(10):
            pts, _ = voronoi_sample(1.0, 5.0, 53, "cell-order", rep)
            V = delaunay(pts)
            xy = pts.disk_xy
            for i in np.flatnonzero(V.interior_mask):
                js = V.cell_faces(i)
                zv = np.tanh(V.vor_rho[js] / 2.0) * np.exp(1j * V.vor_theta[js])
                zn = complex(*xy[i])
                ang = np.angle((zv - zn) / (1.0 - np.conj(zn) * zv))
                want = [HPoint(float(V.vor_rho[j]), float(V.vor_theta[j])).disk
                        for j in js[np.argsort(ang)]]
                assert cell_outline(V, xy, int(i)) == want

    def test_outline_is_the_polygon_of_hpoints(self):
        # the outline's corners are, bit for bit, the disk coordinates of
        # the HPoint cell that oracle_geo.cell_polygon builds
        cells = 0
        for rep in range(2):
            pts, _ = voronoi_sample(1.0, 6.0, 37, "voronoi-cells", rep)
            V = delaunay(pts)
            xy = pts.disk_xy
            for i in np.flatnonzero(V.interior_mask).tolist():
                assert cell_outline(V, xy, i) == [
                    v.disk for v in cell_polygon(V, i)]
                cells += 1
        assert cells > 100

    def test_interior_cell_areas_tile_the_window(self):
        # interior cells are disjoint, so their total area stays below the
        # sampling ball area and the per-cell mean is near 1/lam
        lam = 1.0
        areas = []
        for rep in range(5):
            pts, _ = voronoi_sample(lam, 7.0, 41, "voronoi-area", rep)
            V = delaunay(pts)
            xy = pts.disk_xy
            for i in np.flatnonzero(V.interior_mask):
                areas.append(polygon_area(cell_outline(V, xy, int(i))))
        mean = float(np.mean(areas))
        assert abs(mean - 1.0 / lam) < 0.12

    def test_interior_count_tracks_intensity(self):
        lam = 1.0
        R_window = 5.0
        counts = []
        for rep in range(30):
            pts, _ = voronoi_sample(lam, 7.0, 43, "voronoi-count", rep)
            V = delaunay(pts)
            counts.append(int((V.interior_mask & (pts.rho <= R_window)).sum()))
        expected = lam * ball_area(R_window)
        assert abs(np.mean(counts) - expected) / expected < 0.1


class TestAdjacency:
    def test_color_filters_partition_edges(self):
        pts, _ = voronoi_sample(1.0, 5.0, 47, "voronoi-adj", 0)
        V = delaunay(pts)
        n, e, white = V.n_nuclei, V.delaunay_edges, pts.white
        lw = label_clusters(n, e, site_open=white).labels
        lb = label_clusters(n, e, site_open=~white).labels
        # the white and black sites make up all the nuclei, once each
        assert np.array_equal(lw >= 0, white)
        assert np.array_equal(lb >= 0, ~white)
        ww = white[e[:, 0]] & white[e[:, 1]]
        bb = ~white[e[:, 0]] & ~white[e[:, 1]]
        assert ww.sum() + bb.sum() < len(e)
        # no cluster mixes colours: the site-filtered clusters are exactly
        # the components of the monochromatic Delaunay edges
        for labels, mono, sites in ((lw, ww, white), (lb, bb, ~white)):
            by_edges = label_clusters(n, e, edge_open=mono).labels
            assert np.array_equal(labels[sites], by_edges[sites])
            assert np.all(sites[labels[sites]])

    def test_adjacency_matches_raster_oracle(self):
        # rasterize nearest-nucleus ownership on a fine grid and read off
        # which interior cells share a positive-length border
        pts, _ = voronoi_sample(0.8, 4.5, 53, "voronoi-raster", 1)
        V = delaunay(pts)
        interior = V.interior_mask
        assert interior.sum() >= 3

        lim = math.tanh(3.5 / 2.0)
        m = 700
        ax = np.linspace(-lim, lim, m)
        gx, gy = np.meshgrid(ax, ax)
        rr = np.hypot(gx, gy)
        inside = rr < lim
        g_rho = 2.0 * np.arctanh(np.clip(rr, 0, 1 - 1e-12))
        g_theta = np.arctan2(gy, gx)
        owner = np.full(gx.shape, -1, dtype=np.int64)
        best = np.full(gx.shape, np.inf)
        for i in range(len(pts)):
            d = dist_arrays(g_rho, g_theta, pts.rho[i], pts.theta[i])
            closer = d < best
            best[closer] = d[closer]
            owner[closer] = i
        owner[~inside] = -1

        raster_pairs = set()
        for a, b in ((owner[:, :-1], owner[:, 1:]), (owner[:-1, :], owner[1:, :])):
            diff = (a != b) & (a >= 0) & (b >= 0)
            for u, v in zip(a[diff].ravel(), b[diff].ravel()):
                raster_pairs.add((min(u, v), max(u, v)))

        graph_pairs = {
            (int(u), int(v))
            for u, v in V.delaunay_edges
            if interior[u] and interior[v]
        }
        raster_interior = {
            (u, v) for u, v in raster_pairs if interior[u] and interior[v]
        }
        assert graph_pairs == raster_interior


class TestFaceIncidence:
    @pytest.mark.parametrize("lam,R,rep", [(1.0, 5.0, 0), (0.25, 4.0, 1),
                                           (2.0, 4.5, 2)])
    def test_csr_matches_per_nucleus_lists(self, lam, R, rep):
        V = delaunay(voronoi_sample(lam, R, 67, "voronoi-csr", rep)[0])
        lists = [[] for _ in range(V.n_nuclei)]
        for j, face in enumerate(V.faces):
            for v in face:
                lists[int(v)].append(j)
        assert V.face_ptr[0] == 0 and V.face_ptr[-1] == 3 * len(V.faces)
        for i in range(V.n_nuclei):
            assert V.cell_faces(i).tolist() == lists[i]


class TestCoreShell:
    @pytest.mark.parametrize("r_core", [0.0, 1.0, 2.0])
    def test_core_mask_matches_vertex_loop(self, r_core):
        pts, _ = voronoi_sample(1.0, 5.0, 59, "voronoi-core", 1)
        V = delaunay(pts)
        want = pts.rho <= r_core
        for j in range(len(V.vor_rho)):
            if V.vor_rho[j] <= r_core:
                for v in V.faces[j]:
                    want[int(v)] = True
        want[int(np.argmin(pts.rho))] = True
        np.testing.assert_array_equal(core_cell_mask(V, r_core), want)

    def test_core_contains_origin_cell(self):
        pts, _ = voronoi_sample(1.0, 6.0, 59, "voronoi-core", 0)
        V = delaunay(pts)
        core = core_cell_mask(V, 1.0)
        assert core[int(np.argmin(pts.rho))]
        assert 0 < core.sum() < len(pts)

    def test_shell_is_outer(self):
        pts, _ = voronoi_sample(1.0, 6.0, 59, "voronoi-core", 0)
        V = delaunay(pts)
        shell = shell_cell_mask(V, 4.0)
        assert shell[pts.rho > 5.9].all()
        core = core_cell_mask(V, 1.0)
        assert not (core & shell).any()


def star_of_complex(V, x):
    """Cell x's kept faces, neighbours and interior flag in V."""
    e = V.delaunay_edges
    nbrs = np.sort(np.concatenate([e[e[:, 0] == x, 1], e[e[:, 1] == x, 0]]))
    faces = {frozenset(f) for f in V.faces[V.cell_faces(x)].tolist()}
    return faces, nbrs.tolist(), bool(V.interior_mask[x])


def assert_stars_match(stars, V, cells):
    for x in cells:
        s = stars.star(int(x))
        faces, nbrs, interior = star_of_complex(V, int(x))
        assert {frozenset(f) for f in s.faces.tolist()} == faces
        assert s.neighbours.tolist() == nbrs
        assert s.interior == interior
        # the star's circles come from its ring's lines in inversion
        # space, V's from the corners in Qhull's order: they differed by
        # 5.0e-12 of rho at most over 42 000 faces (lambda 0.05-8)
        np.testing.assert_allclose(np.sort(s.vor_rho),
                                   np.sort(V.vor_rho[V.cell_faces(int(x))]),
                                   rtol=1e-10)


def neighbours_off(V, x, faces):
    """x's Delaunay neighbours in V that are corners of none of `faces`
    and lie off the Euclidean hull, so that their stars are local."""
    nbrs = np.setdiff1d(star_of_complex(V, x)[1], faces)
    hull = _EuclideanDelaunay(V.points.disk_xy).convex_hull
    return nbrs[~np.isin(nbrs, hull)]


@pytest.fixture
def hull_sizes(monkeypatch):
    """The number of points of every hull in hypvoronoi: the rings of a
    star's inverted candidates, STAR_NUCLEI - 1 images at first, and the
    Qhull Delaunay triangulations of whole samples."""
    sizes = []

    def counted(hull):
        def call(points):
            sizes.append(len(points))
            return hull(points)
        return call

    for name in ("_ring", "_EuclideanDelaunay"):
        monkeypatch.setattr(hypvoronoi, name,
                            counted(getattr(hypvoronoi, name)))
    return sizes


def nearest_nucleus(pts):
    """The one-hot mask of the nucleus nearest the origin, the core of
    percolation.voronoi_threshold."""
    core = np.zeros(len(pts), dtype=bool)
    core[np.argmin(pts.rho)] = True
    return core


# images in the ring of a star's first candidates, and after each growth
FIRST = hypvoronoi.STAR_NUCLEI - 1
GROWN = {hypvoronoi.STAR_NUCLEI * hypvoronoi.STAR_GROWTH ** j - 1
         for j in range(1, 6)}


class TestLocalStars:
    """Each local star is the star of the whole complex."""

    WINDOWS = [(0.25, 6.5, 0), (0.25, 6.5, 1), (1.0, 4.5, 0), (1.0, 4.5, 1),
               (2.0, 4.0, 0), (2.0, 4.0, 1)]

    @pytest.mark.parametrize("lam,R_window,rep", WINDOWS)
    def test_every_window_cell(self, lam, R_window, rep, hull_sizes):
        pts, _ = voronoi_sample(lam, R_window + 2.0, 71, "local-stars", rep)
        V = delaunay(pts)
        stars = LocalStars(pts)
        del hull_sizes[:]
        assert_stars_match(stars, V, np.flatnonzero(pts.rho <= R_window))
        # no star needed the whole sample
        assert max(hull_sizes) < len(pts)
        np.testing.assert_array_equal(core_cell_mask(V, 0.0),
                                      nearest_nucleus(pts))

    @pytest.mark.parametrize("lam,R_window,rep", WINDOWS)
    def test_one_hull_per_star(self, lam, R_window, rep, hull_sizes):
        # each star takes one ring of its first candidates and one more
        # per growth, none of the whole sample, and a star asked for again
        # takes none; whether the cells come in shuffled order or as an
        # invasion takes them
        pts, u = voronoi_sample(lam, R_window + 2.0, 71, "local-stars", rep)
        V = delaunay(pts)
        inside = pts.rho <= R_window
        shuffled = np.random.default_rng(rep).permutation(
            np.flatnonzero(inside))
        stars = LocalStars(pts)
        del hull_sizes[:]
        assert_stars_match(stars, V, shuffled)
        assert hull_sizes.count(FIRST) == len(shuffled)
        assert set(hull_sizes) <= {FIRST} | GROWN
        assert max(hull_sizes) < len(pts) - 1
        calls = len(hull_sizes)
        assert_stars_match(stars, V, shuffled[::-1])
        assert len(hull_sizes) == calls

        stars = LocalStars(pts)
        taken = []
        leaf = np.empty(0, dtype=np.int64)

        def neighbours(w):
            # every window cell is expanded, every other cell is a leaf
            if not inside[w]:
                return [], leaf
            taken.append(w)
            nb = stars.star(w).neighbours
            return nb.tolist(), nb

        del hull_sizes[:]
        _kernels._invade(neighbours, u, [(0.0, int(np.argmin(pts.rho)))])
        assert len(taken) > len(shuffled) // 2
        assert hull_sizes.count(FIRST) == len(taken)
        assert set(hull_sizes) <= {FIRST} | GROWN
        assert_stars_match(stars, V, taken)

    @pytest.mark.parametrize("lam,R_window,rep", WINDOWS[::2])
    def test_neighbours_innermost_first(self, lam, R_window, rep):
        # the invasion's adapter lists the star's neighbours by ascending
        # nucleus rho, the list and the array alike, while the star keeps
        # them by index as delaunay() has them
        pts, _ = voronoi_sample(lam, R_window + 2.0, 71, "local-stars", rep)
        stars = LocalStars(pts)
        listed = 0
        for x in range(len(pts)):
            got = stars.neighbours(x)
            s = stars.star(x)
            if not s.interior:
                assert got is None
                continue
            sites, near = got
            assert sites == near.tolist()
            assert sorted(sites) == s.neighbours.tolist()
            assert (np.diff(pts.rho[near]) >= 0).all()
            listed += 1
        assert listed > 10

    # (lambda, R_window) from sparse to dense; one replica each
    GRID = [(0.05, 6.0), (0.25, 5.5), (0.5, 5.0), (1.0, 4.0), (2.0, 3.0),
            (4.0, 2.5), (8.0, 2.0)]

    @pytest.mark.parametrize("lam,R_window", GRID)
    def test_intensities(self, lam, R_window, hull_sizes):
        pts, _ = voronoi_sample(lam, R_window + 2.0, 73, "local-stars-grid", 0)
        V = delaunay(pts)
        stars = LocalStars(pts)
        del hull_sizes[:]
        assert_stars_match(stars, V, np.flatnonzero(pts.rho <= R_window))
        np.testing.assert_array_equal(core_cell_mask(V, 0.0),
                                      nearest_nucleus(pts))
        assert max(hull_sizes) < len(pts) - 1

    @pytest.mark.parametrize("lam,R_window", GRID)
    def test_circles_are_the_faces_circumcircles(self, lam, R_window):
        # each circle read off a ring edge's line in inversion space is
        # its face's circumcircle through the corners: centres and radii
        # agreed to 5e-14 of the radius on these cells
        pts, _ = voronoi_sample(lam, R_window + 2.0, 73, "local-stars-grid", 0)
        stars = LocalStars(pts)
        for x in np.flatnonzero(pts.rho <= R_window).tolist():
            s = stars.star(x)
            cx, cy, r = np.array(s.circles).reshape(-1, 3).T
            want_x, want_y, want_r = hypvoronoi._euclidean_circumcircles(
                pts.disk_xy, s.faces)
            assert (np.hypot(cx - want_x, cy - want_y) <= 1e-10 * want_r).all()
            assert (np.abs(r - want_r) <= 1e-10 * want_r).all()

    @pytest.mark.parametrize("lam,R_window", GRID)
    def test_interior_bound_agrees_with_the_vertices(self, lam, R_window,
                                                      monkeypatch):
        # on every cell off the Euclidean hull, nearest the origin first,
        # the interior flag that the circles' reach settles equals the
        # flag of the full vertex test, which a bound of -inf forces on
        # every star.  A vertex lies inside its circumdisk, the bound's
        # ground, and a star settled without its vertices reaches no
        # farther than R - 1 less the interior test's margin
        pts, _ = voronoi_sample(lam, R_window + 2.0, 73, "local-stars-grid", 0)
        hull = set(_EuclideanDelaunay(pts.disk_xy).convex_hull.ravel())
        cells = [x for x in np.argsort(pts.rho).tolist() if x not in hull]
        R = pts.R
        calls = []
        vertices = hypvoronoi.circumcenters_arrays

        def counted(*circles):
            calls.append(circles)
            return vertices(*circles)

        monkeypatch.setattr(hypvoronoi, "circumcenters_arrays", counted)
        bound, full = LocalStars(pts), LocalStars(pts)
        full._settled = -math.inf
        settled = 0
        for x in cells:
            before = len(calls)
            s = bound.star(x)
            cx, cy, r = np.array(s.circles).reshape(-1, 3).T
            far = 2.0 * np.arctanh(np.hypot(cx, cy) + r)
            if len(calls) == before and len(far):
                settled += 1
                assert far.max() <= R - 1.0 - hypvoronoi._VERTEX_ROUNDING * R
            assert (s.vor_rho <= far).all()
            t = full.star(x)
            assert s.interior == t.interior
            assert s.faces.tolist() == t.faces.tolist()
            assert s.neighbours.tolist() == t.neighbours.tolist()
        assert settled > 0

    def test_stars_own_their_arrays(self):
        # a star kept for the invasion holds arrays of the size of its
        # fan, not views of the n-long arrays of the sample
        pts, u = voronoi_sample(1.0, 7.5, 71, "local-stars", 0)
        stars = LocalStars(pts)
        site_reach_threshold(stars.neighbours, u, nearest_nucleus(pts),
                             pts.rho > 5.5)
        for x in np.flatnonzero(pts.rho <= 3.0):
            stars.star(int(x))
        assert len(stars._stars) > 50
        for star in stars._stars.values():
            for a in (star.faces, star.vor_rho, star.neighbours):
                assert a.base is None or a.base.size < 3 * len(star.faces)

    def test_growth(self, hull_sizes):
        # at lambda = 1/4 the first candidates often miss a nucleus that
        # lies in a face's circumdisk, so stars grow
        pts, _ = voronoi_sample(0.25, 8.5, 73, "local-stars-growth", 0)
        V = delaunay(pts)
        del hull_sizes[:]
        assert_stars_match(LocalStars(pts), V, np.flatnonzero(pts.rho <= 6.5))
        grown = hypvoronoi.STAR_NUCLEI * hypvoronoi.STAR_GROWTH - 1
        assert grown in hull_sizes
        assert hull_sizes.count(FIRST) > len(hull_sizes) // 2

    def test_small_sample_is_triangulated_whole(self, hull_sizes):
        pts = small_sample(1.0, 0, max_n=hypvoronoi.STAR_NUCLEI)
        V = delaunay(pts)
        del hull_sizes[:]
        stars = LocalStars(pts)
        assert_stars_match(stars, V, range(len(pts)))
        assert hull_sizes == [len(pts)]

    @pytest.mark.parametrize("rep", range(3))
    def test_stars_that_reach_the_whole_sample(self, rep, hull_sizes):
        # the inverted hull of a hull nucleus's candidates never holds the
        # origin, so its star grows to the whole sample, which is then
        # triangulated once, in its own order
        pts, _ = voronoi_sample(1.0, 4.5, 79, "local-stars-whole", rep)
        assert hypvoronoi.STAR_NUCLEI < len(pts) <= 400
        V = delaunay(pts)
        del hull_sizes[:]
        stars = LocalStars(pts)
        assert_stars_match(stars, V, range(len(pts)))
        assert hull_sizes.count(len(pts)) == 1
        assert not V.interior_mask.all()

    def test_collinear_corners_are_never_proven(self):
        # three nuclei on a line have no circumcircle: NaN, without a
        # warning, and no point set clears it
        xy = np.array([[0.1, 0.1], [0.2, 0.2], [0.4, 0.4], [-0.5, 0.3]])
        face = np.array([[0, 1, 2]])
        cx, cy, r2 = hypvoronoi._euclidean_circumcircles(xy, face)
        assert np.isnan(r2).all()
        assert not hypvoronoi._clear(xy[:3, 0], xy[:3, 1], face, cx, cy, r2)
        assert not hypvoronoi._clear(xy[:, 0], xy[:, 1], face, cx, cy, r2)
        assert not np.isfinite(hypvoronoi._reach((cx, cy, r2))).any()

    def test_face_without_a_circle_fails_the_proof(self, monkeypatch,
                                                    hull_sizes):
        # a fan face whose corners lie on one line has no circle, here
        # after the ring's second image moves onto the ray of its first,
        # so it is not proven, the star grows, here to the whole complex,
        # and still equals delaunay()'s
        pts, _ = voronoi_sample(1.0, 6.5, 71, "local-stars", 0)
        V = delaunay(pts)
        ring = hypvoronoi._ring    # counted

        def collinear(q):
            r = ring(q)
            q[r[1], :2] = 2.0 * q[r[0], :2]
            return r

        monkeypatch.setattr(hypvoronoi, "_ring", collinear)
        x = int(np.flatnonzero(pts.rho <= 4.5)[0])
        del hull_sizes[:]
        assert_stars_match(LocalStars(pts), V, [x])
        assert hull_sizes[0] == FIRST and hull_sizes[-1] == len(pts)

    def test_nucleus_at_a_circle_fails_the_proof(self, hull_sizes):
        # a nucleus outside a fan face's circumcircle by 1e-10 of its
        # radius lies within the emptiness test's margin, so no hull
        # proves x's fan, and x's star comes from the whole complex
        pts, _ = voronoi_sample(1.0, 6.5, 71, "local-stars", 0)
        x = int(np.flatnonzero(pts.rho <= 4.5)[0])
        xy = pts.disk_xy
        face = LocalStars(pts).star(x).faces[:1]
        (cx,), (cy,), (r,) = hypvoronoi._euclidean_circumcircles(xy, face)
        # across the circle from x
        c = complex(cx, cy)
        out = c - complex(*xy[x])
        z = c + r * (1 + 1e-10) * out / abs(out)
        at = replace(pts, rho=np.append(pts.rho, 2 * math.atanh(abs(z))),
                     theta=np.append(pts.theta, cmath.phase(z) % (2 * math.pi)),
                     white=np.append(pts.white, True))
        V = delaunay(at)
        del hull_sizes[:]
        assert_stars_match(LocalStars(at), V, [x])
        assert hull_sizes[0] == FIRST and hull_sizes[-1] == len(at)

    def test_refused_hull_fails_the_proof(self, monkeypatch, hull_sizes):
        # a ring of fewer than 3 vertices counts as a failed proof: the
        # star takes more nuclei and still equals delaunay()'s
        pts, _ = voronoi_sample(1.0, 6.5, 71, "local-stars", 0)
        V = delaunay(pts)
        ring = hypvoronoi._ring    # counted
        refused = []

        def refuse_first(q):
            if len(q) == FIRST:
                refused.append(len(q))
                return [0, 1]
            return ring(q)

        monkeypatch.setattr(hypvoronoi, "_ring", refuse_first)
        cells = np.flatnonzero(pts.rho <= 4.5)[:20]
        del hull_sizes[:]
        assert_stars_match(LocalStars(pts), V, cells)
        assert refused == [FIRST] * len(cells)
        grown = hypvoronoi.STAR_NUCLEI * hypvoronoi.STAR_GROWTH - 1
        assert hull_sizes == [grown] * len(cells)

    def test_vertex_at_the_interior_bound(self, hull_sizes):
        # give the sample the radius R at which a cell's largest Voronoi
        # vertex lies at R - 1 exactly: the local vertices may differ from
        # delaunay()'s by rounding there, so the star comes from the whole
        # complex and has its interior flag
        pts, _ = voronoi_sample(1.0, 5.5, 71, "local-stars", 1)
        V = delaunay(pts)
        tri = _EuclideanDelaunay(pts.disk_xy)
        on_hull = np.zeros(len(pts), dtype=bool)
        on_hull[tri.convex_hull.ravel()] = True
        complete = (np.bincount(tri.simplices.ravel(), minlength=len(pts))
                    == np.diff(V.face_ptr))
        vmax = np.zeros(len(pts))
        np.maximum.at(vmax, V.faces.ravel(), np.repeat(V.vor_rho, 3))
        # off the hull with every face kept, and a radius of at least R
        cells = np.flatnonzero(~on_hull & complete & (vmax > pts.R - 1.0))
        assert len(cells) >= 5
        for x in cells[:5]:
            at = replace(pts, R=float(vmax[x]) + 1.0)
            W = delaunay(at)
            assert W.interior_mask[x]
            del hull_sizes[:]
            assert_stars_match(LocalStars(at), W, [x])
            assert hull_sizes[-1] == len(pts)
            # the same after x's neighbours off its faces at the bound,
            # whose stars are local
            at_bound = W.faces[np.abs(W.vor_rho - (at.R - 1.0))
                               <= hypvoronoi._VERTEX_ROUNDING * at.R]
            stars = LocalStars(at)
            del hull_sizes[:]
            assert_stars_match(stars, W, neighbours_off(W, x, at_bound))
            assert max(hull_sizes) < len(pts)
            assert_stars_match(stars, W, [x])
            assert hull_sizes[-1] == len(pts)

    def test_face_at_the_unit_circle(self, monkeypatch, hull_sizes):
        # two window cells have a face whose circumdisk comes within 6e-6
        # of the unit circle: a local star, unless the keep test's margin
        # reaches that far, when the star comes from the whole complex
        pts, _ = voronoi_sample(0.25, 8.5, 71, "local-stars", 0)
        V = delaunay(pts)
        gap = 1.0 - hypvoronoi._reach(
            hypvoronoi._euclidean_circumcircles(pts.disk_xy, V.faces))
        gap[(pts.rho[V.faces] > 6.5).all(axis=1)] = np.inf
        face = V.faces[np.argmin(gap)]
        x = int(face[np.argmin(pts.rho[face])])
        assert gap.min() < 1e-5
        del hull_sizes[:]
        assert_stars_match(LocalStars(pts), V, [x])
        assert max(hull_sizes) < len(pts)
        monkeypatch.setattr(hypvoronoi, "_ROUNDING", 1e-5)
        del hull_sizes[:]
        assert_stars_match(LocalStars(pts), V, [x])
        assert hull_sizes[-1] == len(pts)
        # the same after x's neighbours off the faces within the margin
        stars = LocalStars(pts)
        del hull_sizes[:]
        assert_stars_match(stars, V,
                           neighbours_off(V, x, V.faces[gap <= 1e-5]))
        assert max(hull_sizes) < len(pts)
        assert_stars_match(stars, V, [x])
        assert hull_sizes[-1] == len(pts)

    def test_no_cell_near_the_unit_circle_is_served(self, monkeypatch):
        # with the keep test's margin at 1e-5, every window cell with a
        # face within it of the unit circle comes from the whole complex,
        # in whatever order the cells come
        pts, _ = voronoi_sample(0.25, 8.5, 71, "local-stars", 5)
        V = delaunay(pts)
        monkeypatch.setattr(hypvoronoi, "_ROUNDING", 1e-5)
        tri = _EuclideanDelaunay(pts.disk_xy)
        reach = hypvoronoi._reach(
            hypvoronoi._euclidean_circumcircles(pts.disk_xy, tri.simplices))
        rim = np.unique(tri.simplices[np.abs(reach - 1.0) <= 1e-5])
        cells = np.random.default_rng(0).permutation(
            np.flatnonzero(pts.rho <= 6.5))
        near_rim = np.intersect1d(rim, cells)
        assert len(near_rim) > 0
        whole = []
        from_whole = LocalStars._from_whole

        def spied(self, x):
            whole.append(x)
            return from_whole(self, x)

        monkeypatch.setattr(LocalStars, "_from_whole", spied)
        assert_stars_match(LocalStars(pts), V, cells)
        assert set(near_rim.tolist()) <= set(whole)

    def test_degenerate_input(self):
        pts = triple_points()
        two = ColoredPointSet(
            rho=pts.rho[:2], theta=pts.theta[:2], white=pts.white[:2],
            lam=1.0, p=0.5, R=3.0, seed=0,
        )
        dup = ColoredPointSet(
            rho=np.concatenate([pts.rho, pts.rho[:1]]),
            theta=np.concatenate([pts.theta, pts.theta[:1]]),
            white=np.concatenate([pts.white, pts.white[:1]]),
            lam=1.0, p=0.5, R=3.0, seed=0,
        )
        for bad in (two, dup):
            with pytest.raises(DegenerateInput) as whole:
                delaunay(bad)
            with pytest.raises(DegenerateInput) as local:
                LocalStars(bad)
            assert str(local.value) == str(whole.value)


def images(q_xy):
    """Rows (x, y, |q|^2) of the points q_xy, as LocalStars._fan hands
    them to hypvoronoi._ring."""
    q_xy = np.asarray(q_xy, dtype=float)
    return np.column_stack([q_xy, np.square(q_xy).sum(axis=1)])


def fan_over(zs, x=0):
    """LocalStars._fan of nucleus x over every other point of zs (disk
    coordinates) as its candidates, with no nucleus left out."""
    z = np.asarray(zs, dtype=complex)
    pts = ColoredPointSet(rho=2.0 * np.arctanh(np.abs(z)),
                          theta=np.angle(z) % (2.0 * math.pi),
                          white=np.ones(len(z), dtype=bool), lam=1.0, p=0.5,
                          R=6.0, seed=0)
    stars = LocalStars(pts)
    near = np.delete(np.arange(len(z)), x)
    d2 = np.square(stars._xy[near] - stars._xy[x]).sum(axis=1)
    return stars._fan(x, near, 1e12, d2)


def as_rotation_of(ring, vertices):
    """Whether the list ring is the cyclic sequence vertices."""
    vertices = list(vertices)
    return (len(ring) == len(vertices) and ring[0] in vertices
            and ring == np.roll(vertices, -vertices.index(ring[0])).tolist())


# x at the origin and six nuclei around it, whose star is its six faces
HEXAGON = [0j] + [0.3 * cmath.exp(1j * math.pi * k / 3) for k in range(6)]


class TestRing:
    """The Graham scan about the origin that gives a star its fan, against
    Qhull's hull, and the fans it refuses."""

    @pytest.mark.parametrize("seed", range(20))
    def test_equals_qhull_on_clouds_around_the_origin(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(3, 200))
        q = images(rng.standard_normal((n, 2)) * rng.uniform(0.1, 10.0, 2)
                   + rng.uniform(-0.3, 0.3, 2))
        hull = ConvexHull(q[:, :2])
        if not (hull.equations[:, 2] < 0).all():
            pytest.skip("the cloud's hull misses the origin")
        # counter-clockwise, as Qhull lists a 2-D hull's vertices
        assert as_rotation_of(hypvoronoi._ring(q), hull.vertices)

    @pytest.mark.parametrize("lam,R_window", [(0.25, 5.5), (1.0, 4.5),
                                              (4.0, 2.5)])
    def test_equals_qhull_on_real_stars(self, lam, R_window, monkeypatch):
        # the inverted candidates of every window cell, as voronoi-pc's
        # stars take them, first and grown
        pts, _ = voronoi_sample(lam, R_window + 2.0, 71, "local-stars", 0)
        seen = []
        ring = hypvoronoi._ring

        def kept(q):
            r = ring(q)
            seen.append((q.copy(), r))
            return r

        monkeypatch.setattr(hypvoronoi, "_ring", kept)
        stars = LocalStars(pts)
        for x in np.flatnonzero(pts.rho <= R_window).tolist():
            stars.star(x)
        assert len(seen) >= np.count_nonzero(pts.rho <= R_window)
        for q, r in seen:
            hull = ConvexHull(q[:, :2])
            assert (hull.equations[:, 2] < 0).all()
            assert as_rotation_of(r, hull.vertices)

    def test_proves_a_fan(self):
        star = fan_over(HEXAGON)
        assert isinstance(star, hypvoronoi.Star)
        assert star.neighbours.tolist() == list(range(1, 7))
        assert len(star.faces) == 6

    @pytest.mark.parametrize("zs", [
        # every other nucleus on one side of x: the origin outside
        [0j, 0.3 + 0.2j, -0.3 + 0.2j, 0.4j, 0.1 + 0.5j],
        # two nuclei on either side of x, the rest above: the origin on
        # the edge between their images
        [0j, 0.3, -0.3, 0.4j, 0.2 + 0.3j, -0.2 + 0.3j],
        # two candidates
        [0j, 0.3, -0.2 + 0.3j],
        # every candidate on one line through x: a ring of 2 vertices
        [0j, 0.1 + 0.1j, 0.2 + 0.2j, -0.3 - 0.3j, 0.4 + 0.4j],
    ], ids=["outside", "on-an-edge", "two-points", "one-line"])
    def test_refuses(self, zs):
        assert fan_over(zs) is hypvoronoi._UNPROVEN

    @pytest.mark.parametrize("bad", [
        (np.nan, np.nan, np.nan),
        (np.inf, np.inf, np.inf),
        (np.inf, -np.inf, np.inf),
        # a duplicate nucleus: (0, 0) / 0
        (np.nan, np.nan, np.inf),
    ], ids=["nan", "inf", "inf-mixed", "duplicate"])
    @pytest.mark.parametrize("at", [0, 3])
    def test_refuses_a_nan_or_inf_image(self, bad, at, monkeypatch):
        # without a warning, which the test configuration makes an error
        ring = hypvoronoi._ring

        def spoiled(q):
            q[at] = bad
            return ring(q)

        monkeypatch.setattr(hypvoronoi, "_ring", spoiled)
        assert fan_over(HEXAGON) is hypvoronoi._UNPROVEN
