"""Finite combinatorial balls of the regular {p,q} hyperbolic tiling.

Construction is face-closing and layered: starting from one p-gon, each
round walks the boundary cycle and attaches faces until every old
boundary vertex has its full complement of q faces.  A single attach
operation glues a new p-gon along a maximal chain of boundary edges whose
inner vertices are saturated (degree already q), which uniformly covers
the fan, closing and cascade cases that arise for p = 3 or q = 3.

The resulting ball carries its planar rotation system and an interior
dual graph with the edge bijection e <-> e-dagger.
"""

from __future__ import annotations

import io
from dataclasses import dataclass, field

import numpy as np

from .graphs import bfs_distances


class NotHyperbolic(ValueError):
    """Raised when (p-2)(q-2) <= 4."""


class TooLarge(ValueError):
    """Raised when the construction would exceed the vertex budget."""


class Disconnected(ValueError):
    """Defensive: raised if a distance query cannot reach its target."""


@dataclass
class TilingBall:
    """A finite ball of the {p,q} tiling with rotation system and faces."""

    p_gon: int
    q_deg: int
    layers: int
    n_vertices: int
    edges: np.ndarray          # (m, 2), u < v
    faces: list                # tuples of vertex ids, ccw
    rotation: list             # per vertex: neighbors in ccw cyclic order
    boundary: list             # final boundary cycle, ccw
    vertex_layer: np.ndarray   # round at which each vertex appeared

    _edge_index: dict = field(default=None, repr=False)

    @property
    def n_edges(self) -> int:
        return len(self.edges)

    @property
    def degrees(self) -> np.ndarray:
        deg = np.zeros(self.n_vertices, dtype=np.int64)
        np.add.at(deg, self.edges[:, 0], 1)
        np.add.at(deg, self.edges[:, 1], 1)
        return deg

    @property
    def interior_vertex_mask(self) -> np.ndarray:
        return self.degrees == self.q_deg

    def edge_index(self) -> dict:
        if self._edge_index is None:
            self._edge_index = {
                (int(u), int(v)): k for k, (u, v) in enumerate(self.edges)
            }
        return self._edge_index

    def serialize(self) -> str:
        """Documented edge-list text format with VERTICES/EDGES/FACES/DUAL."""
        dual = dual_ball(self)
        buf = io.StringIO()
        buf.write(f"#pq v1 p={self.p_gon} q={self.q_deg} L={self.layers}\n")
        buf.write(f"VERTICES {self.n_vertices}\n")
        for v in range(self.n_vertices):
            buf.write(f"{v} {self.vertex_layer[v]}\n")
        buf.write(f"EDGES {self.n_edges}\n")
        for u, v in self.edges:
            buf.write(f"{u} {v}\n")
        buf.write(f"FACES {len(self.faces)}\n")
        for f in self.faces:
            buf.write(" ".join(str(v) for v in f) + "\n")
        buf.write(f"DUAL {len(dual.edges)}\n")
        for k, (f1, f2) in enumerate(dual.edges):
            buf.write(f"{f1} {f2} {dual.primal_edge[k]}\n")
        return buf.getvalue()


@dataclass
class DualBall:
    """Interior dual of a TilingBall: one vertex per face of the primal."""

    primal: TilingBall
    n_vertices: int
    edges: np.ndarray         # (k, 2) face-index pairs
    primal_edge: np.ndarray   # (k,) primal edge index for each dual edge
    dual_edge_of: np.ndarray  # (m,) dual edge index per primal edge, -1 if none
    faces: list               # q-cycles around interior primal vertices

    @property
    def degrees(self) -> np.ndarray:
        deg = np.zeros(self.n_vertices, dtype=np.int64)
        if len(self.edges):
            np.add.at(deg, self.edges[:, 0], 1)
            np.add.at(deg, self.edges[:, 1], 1)
        return deg

    @property
    def interior_vertex_mask(self) -> np.ndarray:
        return self.degrees == self.primal.p_gon


def build_ball(p_gon: int, q_deg: int, layers: int, max_vertices: int = 10**7) -> TilingBall:
    """Build the layered {p,q} ball with `layers` rounds of faces.

    layers=1 is the single base face; each further round attaches every
    face incident to a then-boundary vertex.
    """
    if p_gon < 3 or q_deg < 3:
        raise ValueError("need p, q >= 3")
    if (p_gon - 2) * (q_deg - 2) <= 4:
        raise NotHyperbolic(f"{{{p_gon},{q_deg}}} is not hyperbolic")
    if layers < 1:
        raise ValueError("need at least one layer")

    p, q = p_gon, q_deg
    deg = [2] * p
    nxt = {i: (i + 1) % p for i in range(p)}
    prv = {i: (i - 1) % p for i in range(p)}
    faces = [tuple(range(p))]
    vertex_layer = [0] * p
    n = p

    def attach(chain):
        """Glue a new p-gon along the boundary chain; return nothing.

        chain is a boundary path c_0..c_j (j >= 1 edges) whose inner
        vertices are saturated; the face cycle is the reversed chain
        followed by p-j-1 fresh vertices.
        """
        nonlocal n
        j = len(chain) - 1
        assert 1 <= j <= p - 1, "chain too long for one face"
        m = p - j - 1
        new = list(range(n, n + m))
        n += m
        if n > max_vertices:
            raise TooLarge(f"vertex budget {max_vertices} exceeded")
        deg.extend([2] * m)
        vertex_layer.extend([round_no] * m)
        faces.append(tuple(reversed(chain)) + tuple(new))
        # chain endpoints gain one edge; inner chain vertices leave the boundary
        deg[chain[0]] += 1
        deg[chain[-1]] += 1
        for v in chain[1:-1]:
            del nxt[v], prv[v]
        path = [chain[0]] + new + [chain[-1]]
        for a, b in zip(path, path[1:]):
            nxt[a] = b
            prv[b] = a

    for round_no in range(1, layers):
        old = set(nxt.keys())
        saturated_old = lambda v: v in old and v in nxt and deg[v] == q
        start = min(old)
        order = [start]
        v = nxt[start]
        while v != start:
            order.append(v)
            v = nxt[v]
        for v in order:
            while v in nxt:  # still on the boundary
                chain = [prv[v], v]
                while saturated_old(chain[0]):
                    chain.insert(0, prv[chain[0]])
                while saturated_old(chain[-1]):
                    chain.append(nxt[chain[-1]])
                attach(chain)

    boundary = []
    if nxt:
        start = min(nxt.keys())
        boundary.append(start)
        v = nxt[start]
        while v != start:
            boundary.append(v)
            v = nxt[v]

    edge_set = set()
    for f in faces:
        for a, b in zip(f, f[1:] + f[:1]):
            edge_set.add((a, b) if a < b else (b, a))
    edges = np.array(sorted(edge_set), dtype=np.int64)

    rotation = _rotation_from_faces(n, faces, edges)
    return TilingBall(
        p_gon=p,
        q_deg=q,
        layers=layers,
        n_vertices=n,
        edges=edges,
        faces=faces,
        rotation=rotation,
        boundary=boundary,
        vertex_layer=np.array(vertex_layer, dtype=np.int64),
    )


def _rotation_from_faces(n, faces, edges):
    """Cyclic (ccw) neighbor order per vertex, chained through shared faces.

    In a ccw face ... a, v, b ..., edge (v,a) is the ccw-successor of
    (v,b) around v; boundary vertices yield an open chain starting at the
    neighbor with no predecessor.
    """
    succ = [dict() for _ in range(n)]
    for f in faces:
        k = len(f)
        for i in range(k):
            a, v, b = f[i - 2], f[i - 1], f[i]
            succ[v][b] = a
    neighbor_sets = [set() for _ in range(n)]
    for u, v in edges:
        neighbor_sets[u].add(int(v))
        neighbor_sets[v].add(int(u))
    rotation = []
    for v in range(n):
        s = succ[v]
        nbrs = neighbor_sets[v]
        starts = nbrs - set(s.values())
        cur = min(starts) if starts else min(nbrs)
        order = [cur]
        while cur in s and len(order) < len(nbrs):
            cur = s[cur]
            order.append(cur)
        assert len(order) == len(nbrs), "rotation chain broken"
        rotation.append(order)
    return rotation


def dual_ball(ball: TilingBall) -> DualBall:
    """Interior dual graph: faces become vertices, e-dagger crosses e."""
    edge_faces = {}
    for fi, f in enumerate(ball.faces):
        for a, b in zip(f, f[1:] + f[:1]):
            key = (a, b) if a < b else (b, a)
            edge_faces.setdefault(key, []).append(fi)
    eidx = ball.edge_index()
    m = ball.n_edges
    dual_edge_of = np.full(m, -1, dtype=np.int64)
    dual_edges = []
    primal_edge = []
    for key, fs in edge_faces.items():
        if len(fs) == 2:
            k = eidx[key]
            dual_edge_of[k] = len(dual_edges)
            dual_edges.append((min(fs), max(fs)))
            primal_edge.append(k)
    dual_edges = (
        np.array(dual_edges, dtype=np.int64)
        if dual_edges
        else np.empty((0, 2), dtype=np.int64)
    )
    # dual faces: cycles of faces around interior primal vertices
    interior = ball.interior_vertex_mask
    dual_faces = []
    for v in range(ball.n_vertices):
        if not interior[v]:
            continue
        ring = []
        ok = True
        rot = ball.rotation[v]
        for a, b in zip(rot, rot[1:] + rot[:1]):
            f = _face_with_corner(ball, a, v, b, edge_faces)
            if f is None:
                ok = False
                break
            ring.append(f)
        if ok:
            dual_faces.append(tuple(ring))
    return DualBall(
        primal=ball,
        n_vertices=len(ball.faces),
        edges=dual_edges,
        primal_edge=np.array(primal_edge, dtype=np.int64),
        dual_edge_of=dual_edge_of,
        faces=dual_faces,
    )


def _face_with_corner(ball, a, v, b, edge_faces):
    """The face containing the corner path a-v-b, if present."""
    k1 = (a, v) if a < v else (v, a)
    for f in edge_faces.get(k1, ()):  # at most two candidates
        cyc = ball.faces[f]
        k = len(cyc)
        for i in range(k):
            if cyc[i] == v and {cyc[i - 1], cyc[(i + 1) % k]} >= {a, b}:
                return f
    return None


def graph_distance(ball: TilingBall, u: int, v: int) -> int:
    """BFS distance between two vertices of the ball."""
    d = bfs_distances(ball.n_vertices, ball.edges, u)[v]
    if d < 0:
        raise Disconnected(f"no path between {u} and {v}")
    return int(d)


def left_face_of(ball: TilingBall):
    """Map directed edge (u, v) -> index of the face on its left, if any.

    A ccw face traversal has its interior on the left, so the face whose
    cycle contains consecutive (u, v) is left of u->v.
    """
    left = {}
    for fi, f in enumerate(ball.faces):
        for a, b in zip(f, f[1:] + f[:1]):
            left[(a, b)] = fi
    return left
