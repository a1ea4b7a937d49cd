import math
from decimal import Decimal

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperperc.hypgeo import (
    DegenerateError,
    GeodesicPolygon,
    WORKING_RADIUS,
    HPoint,
    ball_area,
    circumcenters_arrays,
    polygon_area,
)
from hyperperc.hypvoronoi import _euclidean_circumcircles, delaunay
from hyperperc.percolation import voronoi_sample

from oracle_geo import (
    Isometry,
    apply,
    circumcenter,
    circumcenter_decimal,
    dist,
)

RNG = np.random.default_rng(20260823)


def random_point(rng, rho_max=6.0):
    return HPoint(rho_max * rng.random(), 2 * math.pi * rng.random())


def random_isometry(rng):
    g = Isometry.rotation(2 * math.pi * rng.random())
    t = Isometry.translation_to(random_point(rng, rho_max=3.0))
    h = t @ g
    if rng.random() < 0.5:
        h = h @ Isometry(1.0 + 0j, 0j, flip=True)
    return h


class TestDist:
    def test_identity(self):
        o = HPoint.origin()
        assert dist(o, o) == 0.0

    def test_radial_segment_matches_quadrature(self):
        # Independent oracle: integrate the radial line element 2/(1-t^2)
        # from 0 to the Poincare radius 0.5.
        from scipy.integrate import quad

        expected, _ = quad(lambda t: 2.0 / (1.0 - t * t), 0.0, 0.5)
        p = HPoint.from_disk(0.5 + 0j)
        assert dist(HPoint.origin(), p) == pytest.approx(expected, abs=1e-12)
        assert expected == pytest.approx(math.log(3.0), abs=1e-12)

    def test_isometry_invariance(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            a, b = random_point(rng), random_point(rng)
            g = random_isometry(rng)
            assert abs(dist(a, b) - dist(apply(g, a), apply(g, b))) < 1e-9

    def test_symmetry_and_positivity(self):
        rng = np.random.default_rng(2)
        for _ in range(200):
            a, b = random_point(rng), random_point(rng)
            assert dist(a, b) == pytest.approx(dist(b, a), abs=1e-14)
            assert dist(a, b) > 0

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=200, deadline=None)
    def test_triangle_inequality(self, seed):
        rng = np.random.default_rng(seed)
        a, b, c = (random_point(rng) for _ in range(3))
        assert dist(a, c) <= dist(a, b) + dist(b, c) + 1e-12


class TestBallArea:
    def test_degenerate(self):
        assert ball_area(0.0) == 0.0

    def test_exponential_growth_constant(self):
        assert ball_area(20.0) / math.exp(20.0) == pytest.approx(
            math.pi, rel=1e-6
        )

    def test_matches_polar_quadrature(self):
        # Surface integral with area element sinh(rho) drho dtheta.
        from scipy.integrate import quad

        expected = 2 * math.pi * quad(math.sinh, 0.0, 2.0)[0]
        assert ball_area(2.0) == pytest.approx(expected, abs=1e-10)
        assert ball_area(2.0) == pytest.approx(2 * math.pi * (math.cosh(2) - 1))

    def test_monotone(self):
        r = np.linspace(0, 12, 50)
        areas = [ball_area(x) for x in r]
        assert all(a < b for a, b in zip(areas, areas[1:]))


class TestCircumcenter:
    def test_symmetric_triple_centers_at_origin(self):
        pts = [HPoint(1.5, k * 2 * math.pi / 3) for k in range(3)]
        m = circumcenter(*pts)
        assert m is not None
        assert m.rho < 1e-9

    def test_equidistance(self):
        rng = np.random.default_rng(3)
        done = 0
        while done < 100:
            a, b, c = (random_point(rng, rho_max=4.0) for _ in range(3))
            try:
                m = circumcenter(a, b, c)
            except DegenerateError:
                continue
            if m is None:
                continue
            da, db, dc = dist(m, a), dist(m, b), dist(m, c)
            assert abs(da - db) < 1e-8 and abs(da - dc) < 1e-8
            done += 1

    def test_equal_radius_triple_centers_at_origin(self):
        # An equal-rho triple is by definition equidistant from the origin.
        pts = [HPoint(8.0, t) for t in (0.0, math.pi / 64, math.pi / 32)]
        m = circumcenter(*pts)
        assert m is not None and m.rho < 1e-6

    def test_hypercycle_triple_unbounded(self):
        pts = [
            HPoint.from_disk(complex(x, y))
            for x, y in ((-0.3, 0.52), (0.0, 0.5), (0.3, 0.52))
        ]
        # Euclidean circumdisk of the disk images escapes the unit disk.
        zs = [p.disk for p in pts]
        ax, ay = zs[0].real, zs[0].imag
        bx, by = zs[1].real, zs[1].imag
        cx, cy = zs[2].real, zs[2].imag
        d = 2 * (ax * (by - cy) + bx * (cy - ay) + cx * (ay - by))
        ux = (
            (ax**2 + ay**2) * (by - cy)
            + (bx**2 + by**2) * (cy - ay)
            + (cx**2 + cy**2) * (ay - by)
        ) / d
        uy = (
            (ax**2 + ay**2) * (cx - bx)
            + (bx**2 + by**2) * (ax - cx)
            + (cx**2 + cy**2) * (bx - ax)
        ) / d
        r = math.hypot(ax - ux, ay - uy)
        assert math.hypot(ux, uy) + r > 1.0
        assert circumcenter(*pts) is None

    def test_collinear_raises(self):
        a = HPoint(1.0, 0.0)
        b = HPoint(2.0, 0.0)
        c = HPoint(3.0, 0.0)
        with pytest.raises(DegenerateError):
            circumcenter(a, b, c)


def circumcircles(z):
    """The library's Euclidean circumcircles of the triangles with disk
    corners z[0, i], z[1, i], z[2, i]."""
    xy = np.column_stack((z.real.ravel(), z.imag.ravel()))
    return _euclidean_circumcircles(xy, np.arange(z.size).reshape(z.shape).T)


class TestCircumcentersArrays:
    def test_matches_the_scalar_oracle(self):
        # criterion 1's triangles: corners at rho in [0.05, 6], against
        # the hyperboloid lift, which is accurate this near the origin
        rng = np.random.default_rng(9)
        n = 20_000
        rho = rng.uniform(0.05, 6.0, size=(3, n))
        theta = rng.uniform(0.0, 2 * math.pi, size=(3, n))
        z = np.tanh(rho / 2) * np.exp(1j * theta)
        cx, cy, r = circumcircles(z)
        inside = np.hypot(cx, cy) + r < 1.0
        m_rho, m_theta = circumcenters_arrays(cx[inside], cy[inside],
                                              r[inside])
        m_rho, m_theta = iter(m_rho), iter(m_theta)
        checked = {True: 0, False: 0}
        for i in range(n):
            if inside[i]:
                got_rho, got_theta = next(m_rho), next(m_theta)
            try:
                m = circumcenter(*(HPoint(rho[k, i], theta[k, i])
                                   for k in range(3)))
            except DegenerateError:
                continue
            assert inside[i] == (m is not None), i
            checked[bool(inside[i])] += 1
            if m is not None:
                assert abs(got_rho - m.rho) < 1e-9
                d_theta = (got_theta - m.theta + math.pi) % (2 * math.pi) - math.pi
                assert abs(math.sinh(m.rho) * d_theta) < 1e-9
        # both outcomes are exercised
        assert min(checked.values()) > 1000

    @pytest.mark.parametrize("lam,R", [(0.02, WORKING_RADIUS), (1.0, 5.0)])
    def test_closed_form_against_the_decimal_lift(self, lam, R):
        # the Voronoi vertices of whole complexes, up to the working
        # radius, against the hyperboloid lift in 50 digits from the same
        # nuclei: 5e-11 relative in rho at worst (the float lift erred
        # 3e-4 on these faces near rho = 12)
        pts, _ = voronoi_sample(lam, R, 6, "decimal-vertices", 0)
        V = delaunay(pts)
        xy = pts.disk_xy
        faces = np.flatnonzero(V.vor_rho <= WORKING_RADIUS)
        assert V.vor_rho[faces].max() > R - 1.0
        for j in faces:
            rho, mx, my = circumcenter_decimal(xy[V.faces[j]].tolist())
            rho = float(rho)
            assert abs(V.vor_rho[j] - rho) <= 1e-9 * rho
            # the sine of the angle between the two directions, times the
            # distance at which it displaces the vertex
            c, s = (Decimal(f(V.vor_theta[j])) for f in (math.cos, math.sin))
            sin_d = float((c * my - s * mx) / (mx * mx + my * my).sqrt())
            assert math.sinh(rho) * abs(sin_d) <= 1e-9 * rho


def equilateral_triangle(angle):
    """Vertices of the equilateral hyperbolic triangle with given angles."""
    # Splitting at the center gives right triangles with acute angles
    # angle/2 and pi/3 and hypotenuse r: cosh(r) = cot(angle/2) cot(pi/3).
    ch = 1.0 / (math.tan(angle / 2.0) * math.tan(math.pi / 3.0))
    r = math.acosh(ch)
    return [HPoint(r, k * 2 * math.pi / 3) for k in range(3)]


class TestPolygonArea:
    def test_triangle_377_tile(self):
        tri = GeodesicPolygon(tuple(equilateral_triangle(2 * math.pi / 7)))
        assert polygon_area(tri) == pytest.approx(math.pi / 7, abs=1e-10)

    def test_angle_defect_direct(self):
        tri = GeodesicPolygon(tuple(equilateral_triangle(math.pi / 4)))
        assert polygon_area(tri) == pytest.approx(math.pi - 3 * math.pi / 4, abs=1e-10)

    def test_subdivision_oracle(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            pts = sorted(
                (random_point(rng, rho_max=2.0) for _ in range(3)),
                key=lambda p: p.theta,
            )
            tri = GeodesicPolygon(tuple(pts))
            try:
                area = polygon_area(tri)
            except DegenerateError:
                continue
            # Split along the geodesic from vertex 0 through an interior
            # point of the opposite side (the circumcenter-free analogue:
            # use the side midpoint computed by a translation).
            mid = _geodesic_midpoint(pts[1], pts[2])
            a1 = polygon_area(GeodesicPolygon((pts[0], pts[1], mid)))
            a2 = polygon_area(GeodesicPolygon((pts[0], mid, pts[2])))
            assert abs(area - (a1 + a2)) < 1e-9

    def test_isometry_invariance(self):
        rng = np.random.default_rng(5)
        tri = equilateral_triangle(math.pi / 5)
        base = polygon_area(GeodesicPolygon(tuple(tri)))
        for _ in range(100):
            g = random_isometry(rng)
            imgs = [apply(g, v) for v in tri]
            if g.flip:
                imgs = imgs[::-1]
            assert abs(polygon_area(GeodesicPolygon(tuple(imgs))) - base) < 1e-8

    def test_additivity_under_diagonal_split(self):
        quad = [
            HPoint(1.2, 0.3),
            HPoint(1.4, 1.7),
            HPoint(1.1, 3.0),
            HPoint(1.3, 4.6),
        ]
        whole = polygon_area(GeodesicPolygon(tuple(quad)))
        t1 = polygon_area(GeodesicPolygon((quad[0], quad[1], quad[2])))
        t2 = polygon_area(GeodesicPolygon((quad[0], quad[2], quad[3])))
        assert abs(whole - (t1 + t2)) < 1e-8

    def test_collapsed_raises(self):
        with pytest.raises(DegenerateError):
            polygon_area(
                GeodesicPolygon(
                    (HPoint(1e-9, 0.0), HPoint(1e-9, 2.0), HPoint(1e-9, 4.0))
                )
            )


def _geodesic_midpoint(a, b):
    t = Isometry.translation_to(a).inverse()
    w = t.apply_disk(b.disk)
    half = math.tanh(0.5 * math.atanh(abs(w)))
    m = half * w / abs(w)
    return apply(t.inverse(), HPoint.from_disk(m))


class TestIsometry:
    def test_identity(self):
        p = HPoint(2.0, 1.0)
        q = apply(Isometry.identity(), p)
        assert dist(p, q) < 1e-15

    def test_inverse_roundtrip(self):
        rng = np.random.default_rng(6)
        for _ in range(100):
            g = random_isometry(rng)
            p = random_point(rng)
            q = apply(g.inverse(), apply(g, p))
            assert dist(p, q) < 1e-10

    def test_translation_moves_origin(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            m = random_point(rng)
            g = Isometry.translation_to(m)
            assert dist(apply(g, HPoint.origin()), m) < 1e-10

    def test_reflection_fixes_axis_and_involutes(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            p, q = random_point(rng, 3.0), random_point(rng, 3.0)
            if dist(p, q) < 1e-3:
                continue
            r = Isometry.reflection_across(p, q)
            assert dist(apply(r, p), p) < 1e-9
            assert dist(apply(r, q), q) < 1e-9
            x = random_point(rng)
            assert dist(apply(r, apply(r, x)), x) < 1e-9
