"""Finite combinatorial balls of the regular {p,q} hyperbolic tiling.

Construction is face-closing and layered: starting from one p-gon, each
round walks the boundary cycle and attaches faces until every old
boundary vertex has its full complement of q faces.  A single attach
operation glues a new p-gon along a maximal chain of boundary edges whose
inner vertices are saturated (degree already q), which uniformly covers
the fan, closing and cascade cases that arise for p = 3 or q = 3.

The edges of the ball and its interior dual graph, with the edge
bijection e <-> e-dagger, are read off the face sides with array code.
"""

from __future__ import annotations

import io
from dataclasses import dataclass

import numpy as np

from .graphs import edges_of_keys, side_keys, vertex_degrees

# Vertex budget of build_ball, checked before each round allocates.
MAX_VERTICES = 10**7


class NotHyperbolic(ValueError):
    """Raised when (p-2)(q-2) <= 4."""


class TooLarge(ValueError):
    """Raised when the construction would exceed the vertex budget."""


@dataclass
class TilingBall:
    """A finite ball of the {p,q} tiling with its faces and boundary."""

    p_gon: int
    q_deg: int
    layers: int
    n_vertices: int
    edges: np.ndarray          # (m, 2), u < v
    faces: list                # tuples of vertex ids, ccw
    boundary: list             # final boundary cycle, ccw
    vertex_layer: np.ndarray   # round at which each vertex appeared

    @property
    def n_edges(self) -> int:
        return len(self.edges)

    @property
    def degrees(self) -> np.ndarray:
        return vertex_degrees(self.n_vertices, self.edges)

    @property
    def interior_vertex_mask(self) -> np.ndarray:
        return self.degrees == self.q_deg

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

    @property
    def degrees(self) -> np.ndarray:
        return vertex_degrees(self.n_vertices, self.edges)

    @property
    def interior_vertex_mask(self) -> np.ndarray:
        return self.degrees == self.primal.p_gon


def build_ball(p_gon: int, q_deg: int, layers: int) -> TilingBall:
    """Build the layered {p,q} ball with `layers` rounds of faces.

    layers=1 is the single base face; each further round attaches every
    face incident to a then-boundary vertex.  Raises TooLarge before a
    round that could take the ball past MAX_VERTICES vertices.
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
        # A boundary vertex of degree d lies on d - 1 faces and ends the
        # round on q, so the new faces hold sum(q - d + 1) old vertices.
        # Each boundary edge ends in one new face, and a face holding k of
        # them holds at least k + 1 old vertices (every new face meets the
        # old boundary): there are at most sum(q - d) new faces, each with
        # at most p - 2 new vertices, so the bound never under-estimates.
        bound = n + (p - 2) * sum(q - deg[v] for v in order)
        if bound > MAX_VERTICES:
            raise TooLarge(
                f"vertex budget {MAX_VERTICES} exceeded: round {round_no} of "
                f"the {{{p},{q}}} ball may need up to {bound} vertices"
            )
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

    return TilingBall(
        p_gon=p,
        q_deg=q,
        layers=layers,
        n_vertices=n,
        edges=edges_of_keys(side_keys(faces, n), n),
        faces=faces,
        boundary=boundary,
        vertex_layer=np.array(vertex_layer, dtype=np.int64),
    )


def dual_ball(ball: TilingBall) -> DualBall:
    """Interior dual graph: faces become vertices, e-dagger crosses e.

    The sorted unique side keys are the keys of ball.edges.  A dual edge
    joins the two faces of an edge whose key occurs twice; dual edges are
    numbered in the order their primal edges first occur in the faces.
    """
    keys = side_keys(ball.faces, ball.n_vertices)
    _, first, edge_of = np.unique(keys, return_index=True, return_inverse=True)
    second = np.flatnonzero(first[edge_of] != np.arange(len(keys)))
    second = second[np.argsort(first[edge_of[second]])]
    primal_edge = edge_of[second]
    dual_edge_of = np.full(ball.n_edges, -1, dtype=np.int64)
    dual_edge_of[primal_edge] = np.arange(len(primal_edge))
    return DualBall(
        primal=ball,
        n_vertices=len(ball.faces),
        edges=np.stack([first[primal_edge], second], axis=1) // ball.p_gon,
        primal_edge=primal_edge,
        dual_edge_of=dual_edge_of,
    )


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
