"""Independent oracles for {p,q} tiling balls.

generate_geometric_ball generates tiles in the Poincare disk by
reflecting the central face across its edges (breadth-first, pruned by a
radius cap), deduplicates vertices and faces by rounded coordinates, and
rebuilds the combinatorial ball as faces within vertex-sharing distance
L-1 of the central face.  This shares no code path with
hyperperc.tilinggraph.build_ball.

edges_and_dual reads the edges and the interior dual off a face list
with Python sets and dicts, the reference for the array code of
build_ball and dual_ball.

build_ball_dicts attaches one face at a time on a dict boundary, gluing
each new face along a maximal chain of saturated boundary vertices, with
a tuple per face: the reference for the rounds that build_ball computes
with array code.
"""

import cmath
import math
from collections import deque


def _vertex_radius(p, q):
    return math.acosh(1.0 / (math.tan(math.pi / q) * math.tan(math.pi / p)))


def _reflect_factory(z1, z2):
    """Reflection of the disk across the geodesic through z1, z2."""
    cross = (z1.conjugate() * z2).imag
    if abs(cross) < 1e-12:
        phi = cmath.phase(z2 - z1)
        return lambda z: cmath.exp(2j * phi) * z.conjugate()
    d = 2.0 * cross
    cx = ((1.0 + abs(z1) ** 2) * z2.imag - (1.0 + abs(z2) ** 2) * z1.imag) / d
    cy = ((1.0 + abs(z2) ** 2) * z1.real - (1.0 + abs(z1) ** 2) * z2.real) / d
    c = complex(cx, cy)
    r2 = abs(c) ** 2 - 1.0
    return lambda z: c + r2 / (z - c).conjugate()


def _rho(z):
    return 2.0 * math.atanh(min(abs(z), 1 - 1e-15))


def _key(z):
    return (round(z.real, 6), round(z.imag, 6))


def generate_geometric_ball(p, q, layers):
    """Counts (V, E, F) of the layered {p,q} ball for L = 1..layers.

    Returns a list of dicts with keys V, E, F and the interior degree
    histogram of the largest ball.
    """
    rv = _vertex_radius(p, q)
    r_disk = math.tanh(rv / 2.0)
    base = tuple(
        r_disk * cmath.exp(2j * math.pi * (k + 0.5) / p) for k in range(p)
    )
    # prune radius: centers of faces within vertex-share distance L-1 stay
    # within 2*rv*(layers-1) of the origin; add slack for safe connectivity
    r_max = 2.0 * rv * (layers - 1) + 2.0 * rv + 0.2

    seen = {_key(0j)}
    queue = deque([(0j, base)])
    geom_faces = []
    while queue:
        center, verts = queue.popleft()
        geom_faces.append(verts)
        for i in range(p):
            refl = _reflect_factory(verts[i], verts[(i + 1) % p])
            nc = refl(center)
            k = _key(nc)
            if k in seen or _rho(nc) > r_max:
                continue
            seen.add(k)
            queue.append((nc, tuple(refl(v) for v in verts)))

    vid = {}
    faces = []
    for verts in geom_faces:
        ids = []
        for z in verts:
            k = _key(z)
            if k not in vid:
                vid[k] = len(vid)
            ids.append(vid[k])
        faces.append(frozenset(zip(ids, ids[1:] + ids[:1])))

    face_vsets = [frozenset(u for e in f for u in e) for f in faces]
    # vertex-sharing BFS from the central face
    vertex_faces = {}
    for fi, vs in enumerate(face_vsets):
        for v in vs:
            vertex_faces.setdefault(v, []).append(fi)
    layer = {0: 0}
    frontier = [0]
    d = 0
    while frontier:
        d += 1
        nxt = []
        for fi in frontier:
            for v in face_vsets[fi]:
                for fj in vertex_faces[v]:
                    if fj not in layer:
                        layer[fj] = d
                        nxt.append(fj)
        frontier = nxt

    out = []
    for L in range(1, layers + 1):
        chosen = [fi for fi, d in layer.items() if d <= L - 1]
        edges = set()
        verts = set()
        for fi in chosen:
            verts |= face_vsets[fi]
            for a, b in faces[fi]:
                edges.add((a, b) if a < b else (b, a))
        deg = {}
        for a, b in edges:
            deg[a] = deg.get(a, 0) + 1
            deg[b] = deg.get(b, 0) + 1
        out.append(
            {
                "V": len(verts),
                "E": len(edges),
                "F": len(chosen),
                "degree_histogram": sorted(deg.values()),
            }
        )
    return out


def edges_and_dual(faces):
    """Edges, dual edges, primal_edge and dual_edge_of of a face list.

    Edges are the sorted pairs u < v of the face sides.  Each edge on two
    faces gets a dual edge joining them; dual edges are numbered in the
    order their primal edges first occur, face by face, side by side.
    """
    edge_faces = {}
    for fi, f in enumerate(faces):
        for a, b in zip(f, f[1:] + f[:1]):
            key = (a, b) if a < b else (b, a)
            edge_faces.setdefault(key, []).append(fi)
    edges = sorted(edge_faces)
    eidx = {e: k for k, e in enumerate(edges)}
    dual_edge_of = [-1] * len(edges)
    dual_edges = []
    primal_edge = []
    for key, fs in edge_faces.items():
        if len(fs) == 2:
            k = eidx[key]
            dual_edge_of[k] = len(dual_edges)
            dual_edges.append((min(fs), max(fs)))
            primal_edge.append(k)
    return edges, dual_edges, primal_edge, dual_edge_of


def build_ball_dicts(p, q, layers):
    """Faces, boundary and vertex_layer of the layered {p,q} ball.

    One face at a time, on dicts nxt/prv keyed by the boundary vertices,
    a set of the round's old boundary and one tuple per face: returns
    (faces, boundary, vertex_layer) as lists, with no vertex budget.
    """
    deg = [2] * p
    nxt = {i: (i + 1) % p for i in range(p)}
    prv = {i: (i - 1) % p for i in range(p)}
    faces = [tuple(range(p))]
    vertex_layer = [0] * p
    n = p

    def attach(chain, round_no):
        nonlocal n
        j = len(chain) - 1
        assert 1 <= j <= p - 1, "chain too long for one face"
        m = p - j - 1
        new = list(range(n, n + m))
        n += m
        deg.extend([2] * m)
        vertex_layer.extend([round_no] * m)
        faces.append(tuple(reversed(chain)) + tuple(new))
        deg[chain[0]] += 1
        deg[chain[-1]] += 1
        for v in chain[1:-1]:
            del nxt[v], prv[v]
        path = [chain[0]] + new + [chain[-1]]
        for a, b in zip(path, path[1:]):
            nxt[a] = b
            prv[b] = a

    def cycle():
        start = min(nxt)
        order = [start]
        v = nxt[start]
        while v != start:
            order.append(v)
            v = nxt[v]
        return order

    for round_no in range(1, layers):
        old = set(nxt)

        def saturated_old(v):
            return v in old and v in nxt and deg[v] == q

        for v in cycle():
            while v in nxt:
                chain = [prv[v], v]
                while saturated_old(chain[0]):
                    chain.insert(0, prv[chain[0]])
                while saturated_old(chain[-1]):
                    chain.append(nxt[chain[-1]])
                attach(chain, round_no)
    return faces, cycle(), vertex_layer
