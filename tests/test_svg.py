import math
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from hyperperc import svg
from hyperperc.hypgeo import HPoint
from hyperperc.hypvoronoi import delaunay
from hyperperc.percolation import voronoi_sample
from hyperperc.pointprocess import ColoredPointSet, replica_rng
from hyperperc.tilinggraph import build_ball

from oracle_geo import Isometry, bisector_ideal_points, dist


def paths_of(doc: str):
    root = ET.fromstring(doc)
    ns = "{http://www.w3.org/2000/svg}"
    return root.findall(f"{ns}path")


def test_empty_is_just_the_disk():
    doc = svg.render_voronoi(None)
    root = ET.fromstring(doc)
    ns = "{http://www.w3.org/2000/svg}"
    assert len(root.findall(f"{ns}circle")) == 1
    assert len(root.findall(f"{ns}path")) == 0


def test_symmetric_triple_gives_three_sectors():
    pts = ColoredPointSet(
        rho=np.array([1.0, 1.0, 1.0]),
        theta=np.array([0.0, 2 * math.pi / 3, 4 * math.pi / 3]),
        white=np.array([True, False, True]),
        lam=1.0, p=0.5, R=3.0, seed=0,
    )
    doc = svg.render_voronoi(delaunay(pts), R_window=2.0)
    cells = paths_of(doc)
    assert len(cells) == 3
    # every sector touches the rim: its outline contains unit-circle arcs
    for path in cells:
        assert "A 1 1 " in path.get("d")
    fills = {c.get("fill") for c in cells}
    assert fills == {"#ffffff", "#404040"}


def test_random_sample_parses_and_partitions():
    pts, _ = voronoi_sample(1.0, 6.0, 31, "svg-test", 0)
    V = delaunay(pts)
    doc = svg.render_voronoi(V, R_window=4.0)
    cells = paths_of(doc)
    assert len(cells) >= int(V.interior_mask.sum())
    fills = {c.get("fill") for c in cells}
    assert fills == {"#ffffff", "#404040"}
    strokes = {c.get("stroke") for c in cells}
    # boundary-reaching clusters of both colors exist at p = 1/2, so some
    # cells carry distinct highlight strokes on top of the default
    assert len(strokes) > 1


def test_render_voronoi_reads_the_disk_coordinates_once(monkeypatch):
    # each cell's outline reads the nuclei's disk coordinates; computing
    # them once per cell made a render quadratic in the sample size
    V = delaunay(voronoi_sample(1.0, 5.0, 31, "svg-test", 0)[0])
    calls = []
    disk_xy = ColoredPointSet.disk_xy.fget

    def counted(points):
        calls.append(1)
        return disk_xy(points)

    monkeypatch.setattr(ColoredPointSet, "disk_xy", property(counted))
    svg.render_voronoi(V, R_window=3.0)
    assert len(calls) == 1


def random_disk_points(rng, n, rho_max=7.0):
    r = np.tanh(0.5 * rho_max * rng.random(n))
    return (r * np.exp(2j * math.pi * rng.random(n))).tolist()


def test_reflect_fixes_its_axis_and_is_an_involution():
    rng = np.random.default_rng(11)
    za, zb, z = (random_disk_points(rng, 2000) for _ in range(3))
    for a, b, x in zip(za, zb, z):
        assert abs(svg._reflect(a, b, a) - a) < 1e-9
        assert abs(svg._reflect(a, b, b) - b) < 1e-9
        assert abs(svg._reflect(a, b, svg._reflect(a, b, x)) - x) < 1e-9
        want = Isometry.reflection_across(HPoint.from_disk(a),
                                          HPoint.from_disk(b)).apply_disk(x)
        assert abs(svg._reflect(a, b, x) - want) < 1e-9


def test_bisector_ideal_point_is_equidistant_on_the_rim():
    rng = np.random.default_rng(12)
    zi, zj = (random_disk_points(rng, 2000) for _ in range(2))
    for a, b in zip(zi, zj):
        for toward in (a + b, -(a + b), 1j * (a - b)):
            e = svg._bisector_ideal_point(a, b, toward)
            assert abs(abs(e) - 1.0) < 1e-9
            # w |e - z|^2 with w = 1 / (1 - |z|^2) of each nucleus
            ha = abs(e - a) ** 2 / (1.0 - abs(a) ** 2)
            hb = abs(e - b) ** 2 / (1.0 - abs(b) ** 2)
            assert abs(ha - hb) <= 1e-9 * max(ha, hb)
            want = min(bisector_ideal_points(a, b),
                       key=lambda z: abs(z - toward))
            assert abs(e - want) < 1e-9


@pytest.mark.parametrize("pq", [(3, 7), (7, 3), (4, 5)])
def test_tiling_layout_is_isometric(pq):
    p, q = pq
    ball = build_ball(p, q, 3)
    coords = svg.tiling_layout(ball)
    assert len(coords) == ball.n_vertices
    assert max(abs(z) for z in coords.values()) < 1.0
    lengths = [
        dist(HPoint.from_disk(coords[int(u)]), HPoint.from_disk(coords[int(v)]))
        for u, v in ball.edges
    ]
    assert np.ptp(lengths) < 1e-8


def test_render_tiling_styles_by_state():
    ball = build_ball(3, 7, 3)
    open_edges = replica_rng(5, "bond", 0).random(ball.n_edges) < 0.4
    doc = svg.render_tiling(ball, open_edges)
    edges = paths_of(doc)
    assert len(edges) == ball.n_edges
    bold = sum(1 for e in edges if e.get("stroke") == "#d62728")
    assert bold == int(open_edges.sum())



def test_an_arc_flatter_than_the_output_is_written_as_its_chord():
    # a short edge near the rim on a geodesic through the middle of the
    # disk, from the lambda 0.5, R 7, seed 2 render: an arc of radius
    # 1442.24, whose 5th decimal a 1-ulp move of an endpoint changed,
    # bowing 1.4e-9 from its chord
    za = complex(-0.8777936034231787, 0.4705252723279176)
    zb = complex(-0.8813634645945174, 0.472438824905351)
    _, r, _ = svg._geo_params(za, zb)
    assert r > 1000
    d = svg._edge_d(za, zb)
    assert d == "L -0.88136 0.47244"
    for ulps in (-2, -1, 1, 2):
        for moved in ((za, _ulps(zb, ulps)), (_ulps(za, ulps), zb)):
            assert svg._edge_d(*moved) == d
    assert svg._edge_d(_ulps(zb, -1), za) == "L -0.87779 0.47053"
    # a short edge on a small circle still bows: an arc
    zc = complex(-0.87807, 0.46703)
    zd = complex(-0.88350, 0.46842)
    assert svg._edge_d(zc, zd).startswith("A ")


def _ulps(z, k):
    """z with both coordinates moved by k units in the last place."""
    def move(x):
        for _ in range(abs(k)):
            x = np.nextafter(x, math.copysign(math.inf, k))
        return float(x)
    return complex(move(z.real), move(z.imag))
