"""Finite combinatorial balls of the regular {p,q} hyperbolic tiling.

Construction is face-closing and layered: starting from one p-gon, each
round attaches every face that meets the boundary cycle, until every old
boundary vertex has its full complement of q faces.  The cycle at the
start of a round is the previous round's fresh vertices in id order, and
the round's faces follow from the cycle's degrees alone: each vertex
still short of q faces gets a fan of faces and then one closing face,
glued along it and the saturated vertices that follow it.  build_ball
computes each round as one block of array code.

The edges of the ball and its interior dual graph, with the edge
bijection e <-> e-dagger, are read off the face sides with array code.
"""

from __future__ import annotations

import io
from dataclasses import dataclass

import numpy as np

from .graphs import edges_of_keys, side_keys, vertex_degrees
from .hypgeo import InvalidInput

# Vertex budget of build_ball, checked before each round allocates.
MAX_VERTICES = 10**7


class NotHyperbolic(InvalidInput):
    """Raised unless p, q >= 3 and (p-2)(q-2) > 4."""


class TooLarge(InvalidInput):
    """Raised when the construction would exceed the vertex budget."""


@dataclass
class TilingBall:
    """A finite ball of the {p,q} tiling with its faces.

    faces is one (F, p) int64 array, a row per face in the order the
    faces were attached, so its sides give the edge keys with no
    conversion; read a row's vertices as Python ints through .tolist().
    The vertices of the last layer, in id order, are the boundary cycle,
    ccw.
    """

    p_gon: int
    q_deg: int
    layers: int
    n_vertices: int
    edges: np.ndarray          # (m, 2), u < v
    faces: np.ndarray          # (F, p) int64, one face per row, ccw
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
        # rows as Python ints, which format several times faster than
        # numpy scalars
        buf.write(f"#pq v1 p={self.p_gon} q={self.q_deg} L={self.layers}\n")
        buf.write(f"VERTICES {self.n_vertices}\n")
        buf.writelines(f"{v} {layer}\n"
                       for v, layer in enumerate(self.vertex_layer.tolist()))
        buf.write(f"EDGES {self.n_edges}\n")
        buf.writelines(f"{u} {v}\n" for u, v in self.edges.tolist())
        buf.write(f"FACES {len(self.faces)}\n")
        buf.writelines(" ".join(map(str, f)) + "\n"
                       for f in self.faces.tolist())
        buf.write(f"DUAL {len(dual.edges)}\n")
        buf.writelines(f"{f1} {f2} {e}\n" for (f1, f2), e in
                       zip(dual.edges.tolist(), dual.primal_edge.tolist()))
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
    face incident to a then-boundary vertex.  Raises NotHyperbolic unless
    p, q >= 3 and (p - 2)(q - 2) > 4, and TooLarge before the base face
    or a round that could take the ball past MAX_VERTICES vertices.

    A round on the boundary cycle C with degrees d: the first face is
    glued along (C[-1], C[0]), so C[-1] gains an edge first.  The heads
    are C[0] and every vertex with d < q; the k saturated vertices after a
    head lie inside its closing face.  A head other than C[0] arrives with
    one edge more, from the closing face before it, and gets q - arrival
    fan faces [v, a, p - 2 fresh], then its closing face
    [b, C[i + k], ..., C[i], a, p - 3 - k fresh]: b is the next head, or
    the round's first fresh vertex after the last head; a is the vertex
    before the face's first fresh one; fresh ids run on in face order.
    """
    p, q = p_gon, q_deg
    if p < 3 or q < 3 or (p - 2) * (q - 2) <= 4:
        raise NotHyperbolic(f"{{{p},{q}}} is not a hyperbolic tiling: need "
                            f"p, q >= 3 and (p - 2)(q - 2) > 4")
    if layers < 1:
        raise InvalidInput(f"layer count must be at least 1, got {layers}")
    if p > MAX_VERTICES:
        raise TooLarge(f"vertex budget {MAX_VERTICES} exceeded: the base "
                       f"face of the {{{p},{q}}} ball has {p} vertices")

    # col[j] is column j of a face row; faces collects one (F, p) block
    # per round, round_start the first vertex id of each round
    col = np.arange(p, dtype=np.int64)
    faces = [col[None]]
    round_start = [0]
    deg = np.full(p, 2, dtype=np.int64)
    n = p
    for round_no in range(1, layers):
        # the boundary cycle C is lo .. n0 - 1 in id order, deg its degrees
        lo, n0 = round_start[-1], n
        round_start.append(n0)
        # A boundary vertex of degree d lies on d - 1 faces and ends the
        # round on q, so the new faces hold sum(q - d + 1) old vertices.
        # Each boundary edge ends in one new face, and a face holding k of
        # them holds at least k + 1 old vertices (every new face meets the
        # old boundary): there are at most sum(q - d) new faces, each with
        # at most p - 2 new vertices, so the bound never under-estimates.
        # Python ints, exact for any q
        bound = n + (p - 2) * (q * len(deg) - int(deg.sum()))
        if bound > MAX_VERTICES:
            raise TooLarge(
                f"vertex budget {MAX_VERTICES} exceeded: round {round_no} of "
                f"the {{{p},{q}}} ball may need up to {bound} vertices"
            )
        deg[-1] += 1
        head = deg < q
        head[0] = True
        heads = np.flatnonzero(head)
        # fan faces and the closing face of each head
        per_head = q - deg[heads]
        per_head[0] += 1
        # A face of head C[i] holds r old vertices after b: 0 for a fan
        # face, k + 1 for the closing face.  Column j <= r holds
        # C[i + r - j] = top - j, so b is the head itself or the vertex
        # after its closing chain, n0 after the last; column j > r holds
        # first - r - 2 + j: a = first - 1, then the fresh ids.
        r = np.zeros(per_head.sum(), dtype=np.int64)
        r[per_head.cumsum() - 1] = np.diff(heads, append=n0 - lo)
        fresh = p - 2 - r
        assert fresh.min() >= 0, "chain too long for one face"
        first = n0 + fresh.cumsum() - fresh
        top = lo + np.repeat(heads, per_head) + r
        faces.append(np.where(col <= r[:, None], top[:, None] - col,
                              (first - r - 2)[:, None] + col))
        n = n0 + int(fresh.sum())
        # a fresh vertex has degree 2, plus one as each face's a, plus one
        # for n0, the b of the round's last face
        a = first[first > n0] - 1 - n0
        deg = 2 + np.bincount(a, minlength=n - n0)
        deg[0] += 1

    faces = np.concatenate(faces)
    return TilingBall(
        p_gon=p,
        q_deg=q,
        layers=layers,
        n_vertices=n,
        edges=edges_of_keys(side_keys(faces, n), n),
        faces=faces,
        vertex_layer=np.repeat(np.arange(layers, dtype=np.int64),
                               np.diff(round_start + [n])),
    )


def ball_vertices(p_gon: int, q_deg: int, layers: int) -> int:
    """build_ball(p_gon, q_deg, layers).n_vertices, counted round by round
    without a face: build_ball's refusals, TooLarge at the same round with
    the same message.

    A round on a boundary of c vertices of degree sum s attaches
    F = q c - s faces: q - d for a vertex of degree d, one fewer for C[-1],
    which the first face's edge reaches, and one more for C[0].  Its
    faces' r sum to c, so it adds (p - 2) F - c fresh vertices, the next
    boundary.  A fresh vertex has degree 2, plus one for each face whose
    a it is, plus one for the round's first fresh vertex.  The round's
    first face holds fresh vertices (a fan face of C[0], or, for q = 3,
    C[0]'s closing face over no saturated vertex), so every other face's
    a is fresh, and the next degree sum is 2 ((p - 2) F - c) + F.
    """
    build_ball(p_gon, q_deg, min(layers, 1))    # the input checks
    p, q = p_gon, q_deg
    n = c = p
    s = 2 * p
    for round_no in range(1, layers):
        faces = q * c - s
        bound = n + (p - 2) * faces
        if bound > MAX_VERTICES:
            raise TooLarge(
                f"vertex budget {MAX_VERTICES} exceeded: round {round_no} of "
                f"the {{{p},{q}}} ball may need up to {bound} vertices"
            )
        c = (p - 2) * faces - c
        n += c
        s = 2 * c + faces
    return n


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
    for fi, f in enumerate(ball.faces.tolist()):
        for a, b in zip(f, f[1:] + f[:1]):
            left[(a, b)] = fi
    return left
