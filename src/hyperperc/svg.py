"""SVG 1.1 rendering of tessellations in the Poincare disk, 600 px square.

Geodesic edges are drawn as circular arcs orthogonal to the unit circle.
Unbounded Voronoi cells are closed off through the ideal endpoints of
their unbounded bisector edges, so a boundary cell renders as a sector
reaching the rim of the disk.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from .hypgeo import geodesic_direction
from .hypvoronoi import MARGIN, VoronoiComplex, shell_cell_mask
from ._kernels import label_clusters_kernel
from .graphs import sorted_distinct

_PALETTE = (
    "#d62728", "#1f77b4", "#2ca02c", "#ff7f0e", "#9467bd",
    "#8c564b", "#e377c2", "#17becf",
)

_HEADER = (
    '<?xml version="1.0" encoding="UTF-8"?>\n'
    '<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
    'width="600" height="600" viewBox="-1.05 -1.05 2.1 2.1">\n'
)

_DISK = ('<circle cx="0" cy="0" r="1" fill="none" stroke="#000" '
         'stroke-width="0.006"/>\n')


# the coordinates' last written decimal.  An arc that bows less than this
# from its chord is written as the chord: its radius, large and
# ill-conditioned in the endpoints, would print rounding noise (a 1e-16
# move of an endpoint shifted a radius of 1442.24 in its 5th decimal)
_RESOLUTION = 1e-5


def _fmt(x: float) -> str:
    # a coordinate that rounds to zero reads 0.00000 whatever the sign of
    # its rounding residue
    s = f"{x:.5f}"
    return "0.00000" if s == "-0.00000" else s


def _geo_params(za: complex, zb: complex):
    """Center and radius of the circle orthogonal to the unit circle
    through za, zb; None when the geodesic is a diameter chord."""
    cross = (za.conjugate() * zb).imag
    if abs(cross) < 1e-9:
        return None
    d = 2.0 * cross
    cx = ((1.0 + abs(za) ** 2) * zb.imag - (1.0 + abs(zb) ** 2) * za.imag) / d
    cy = ((1.0 + abs(zb) ** 2) * za.real - (1.0 + abs(za) ** 2) * zb.real) / d
    c = complex(cx, cy)
    r = math.sqrt(max(abs(c) ** 2 - 1.0, 0.0))
    sweep = 1 if cross < 0 else 0
    return c, r, sweep


def _edge_d(za: complex, zb: complex) -> str:
    """Path continuation from za to zb (arc or line command)."""
    on_rim = abs(za) > 0.9999 and abs(zb) > 0.9999
    if on_rim:
        gap = (cmath.phase(zb) - cmath.phase(za)) % (2.0 * math.pi)
        large = 1 if gap > math.pi else 0
        return f"A 1 1 0 {large} 1 {_fmt(zb.real)} {_fmt(zb.imag)}"
    g = _geo_params(za, zb)
    if g is None or _sagitta(abs(zb - za), g[1]) < _RESOLUTION:
        return f"L {_fmt(zb.real)} {_fmt(zb.imag)}"
    _, r, sweep = g
    return f"A {_fmt(r)} {_fmt(r)} 0 0 {sweep} {_fmt(zb.real)} {_fmt(zb.imag)}"


def _sagitta(chord: float, r: float) -> float:
    """How far the minor arc of radius r over a chord bows from it."""
    h = 0.5 * chord
    return h * h / (r + math.sqrt(max(r * r - h * h, 0.0)))


def _polygon_d(zs) -> str:
    parts = [f"M {_fmt(zs[0].real)} {_fmt(zs[0].imag)}"]
    for a, b in zip(zs, list(zs[1:]) + [zs[0]]):
        parts.append(_edge_d(a, b))
    parts.append("Z")
    return " ".join(parts)


def document(body: str) -> str:
    return _HEADER + _DISK + body + "</svg>\n"


def _bisector_ideal_point(zi: complex, zj: complex, toward: complex) -> complex:
    """Ideal endpoint of the bisector of nuclei zi, zj nearer to `toward`.

    z is equidistant from zi and zj when wi |z - zi|^2 = wj |z - zj|^2,
    with w = 1 / (1 - |z|^2) of each nucleus.  Times 1 / (wi wj) and on
    |z| = 1 this reads Re(conj(c) z) = k, with k = |zi|^2 - |zj|^2 and
    c = (1 - |zj|^2)(zi - zj) + k zj, so the endpoints are arg c +- h with
    cos h = k/|c|.  h is taken by atan2 from |c|^2 - k^2 =
    (1 - |zi|^2)(1 - |zj|^2)|zi - zj|^2, since acos loses the short
    bisectors of close nuclei near the rim.
    """
    d = zi - zj
    k = d.real * (zi.real + zj.real) + d.imag * (zi.imag + zj.imag)
    gi, gj = 1.0 - abs(zi) ** 2, 1.0 - abs(zj) ** 2
    arg = cmath.phase(gj * d + k * zj)
    half = math.atan2(abs(d) * math.sqrt(gi * gj), k)
    e1 = cmath.exp(1j * (arg + half))
    e2 = cmath.exp(1j * (arg - half))
    return e1 if abs(e1 - toward) < abs(e2 - toward) else e2


def _cell_outline(V: VoronoiComplex, xy: np.ndarray, i: int) -> list:
    """Disk coordinates of cell i's boundary, ccw; unbounded edges are
    closed through their ideal endpoints.  xy holds the nuclei's disk
    coordinates."""
    zn = complex(*xy[i])
    verts = []
    js = V.cell_faces(i)
    for j in js:
        r = math.tanh(V.vor_rho[j] / 2.0)
        verts.append(r * cmath.exp(1j * V.vor_theta[j]))
    # edges of cell i with a single kept face extend to the ideal boundary
    face_count = {}
    for j in js:
        for v in V.faces[j]:
            v = int(v)
            if v != i:
                face_count[v] = face_count.get(v, 0) + 1
    for nbr, cnt in face_count.items():
        if cnt == 1:
            zj = complex(*xy[nbr])
            verts.append(_bisector_ideal_point(zn, zj, toward=(zn + zj) / 2 * 4))
    if len(verts) < 3:
        return []
    verts.sort(key=lambda z: geodesic_direction(zn, z))
    return verts


def render_voronoi(V: VoronoiComplex | None,
                   R_window: float | None = None) -> str:
    """Tessellation picture: white/black cell fills, boundary-reaching
    monochromatic clusters stroked in distinct colors."""
    if V is None or V.n_nuclei < 3:
        return document("")
    if R_window is None:
        R_window = V.points.R - MARGIN
    shell = shell_cell_mask(V, R_window)
    white = V.points.white
    eu = np.ascontiguousarray(V.delaunay_edges[:, 0])
    ev = np.ascontiguousarray(V.delaunay_edges[:, 1])
    all_open = np.ones(len(eu), dtype=bool)
    stroke = {}
    nxt = 0
    for color_mask in (white, ~white):
        labels = label_clusters_kernel(V.n_nuclei, eu, ev, all_open, color_mask)
        ls = labels[shell]
        for lab in sorted_distinct(ls[ls >= 0]).tolist():
            stroke_color = _PALETTE[nxt % len(_PALETTE)]
            nxt += 1
            for cell in np.flatnonzero(labels == lab).tolist():
                stroke[cell] = stroke_color
    xy = V.points.disk_xy
    body = []
    for i in range(V.n_nuclei):
        outline = _cell_outline(V, xy, i)
        if not outline:
            continue
        fill = "#ffffff" if white[i] else "#404040"
        sc = stroke.get(i, "#9a9a9a")
        sw = 0.008 if i in stroke else 0.003
        body.append(
            f'<path d="{_polygon_d(outline)}" fill="{fill}" '
            f'stroke="{sc}" stroke-width="{sw}"/>\n'
        )
    return document("".join(body))


def _reflect(za: complex, zb: complex, z: complex) -> complex:
    """Mirror image of z across the geodesic through za and zb.

    w = (z - za) / (1 - conj(za) z) sends za to the origin and the geodesic
    to the diameter at angle phi = geodesic_direction(za, zb), where the
    mirror is w -> e^{2 i phi} conj(w); the inverse map brings it back.
    """
    turn = cmath.exp(2j * geodesic_direction(za, zb))
    w = turn * ((z - za) / (1.0 - za.conjugate() * z)).conjugate()
    return (w + za) / (1.0 + za.conjugate() * w)


def tiling_layout(ball) -> dict:
    """Disk coordinates for every vertex of a {p,q} ball.

    The base face is centered at the origin; neighboring faces are mirror
    images across shared edges (the tiling is kaleidoscopic), so a BFS
    over face adjacencies places all vertices.
    """
    from .tilinggraph import left_face_of

    p, q = ball.p_gon, ball.q_deg
    rv = math.acosh(1.0 / (math.tan(math.pi / p) * math.tan(math.pi / q)))
    rd = math.tanh(rv / 2.0)
    faces = ball.faces.tolist()
    coords = {}
    for k, v in enumerate(faces[0]):
        coords[v] = rd * cmath.exp(2j * math.pi * (k + 0.5) / p)
    left = left_face_of(ball)
    placed = {0}
    queue = [0]
    while queue:
        f = queue.pop(0)
        cyc = faces[f]
        for a, b in zip(cyc, cyc[1:] + cyc[:1]):
            g = left.get((b, a))
            if g is None or g in placed:
                continue
            placed.add(g)
            queue.append(g)
            gcyc = faces[g]
            ib = gcyc.index(b)
            gcyc = gcyc[ib:] + gcyc[:ib]
            assert gcyc[1] == a, "shared edge not consecutive in neighbor face"
            ia = cyc.index(a)
            for k in range(2, p):
                v = gcyc[k]
                if v not in coords:
                    src = cyc[(ia - (k - 1)) % p]
                    coords[v] = _reflect(coords[a], coords[b], coords[src])
    return coords


def render_tiling(ball, open_edges=None) -> str:
    """Edge drawing of a tiling ball; open edges (if given) drawn bold."""
    coords = tiling_layout(ball)
    body = []
    for k, (u, v) in enumerate(ball.edges):
        za, zb = coords[int(u)], coords[int(v)]
        d = f"M {_fmt(za.real)} {_fmt(za.imag)} {_edge_d(za, zb)}"
        if open_edges is None:
            style = 'stroke="#333" stroke-width="0.004"'
        elif open_edges[k]:
            style = 'stroke="#d62728" stroke-width="0.007"'
        else:
            style = 'stroke="#cccccc" stroke-width="0.002"'
        body.append(f'<path d="{d}" fill="none" {style}/>\n')
    return document("".join(body))
