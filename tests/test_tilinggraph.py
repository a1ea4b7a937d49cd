import gc
import platform
import re

import numpy as np
import pytest

from hyperperc import tilinggraph
from hyperperc.graphs import edges_of_keys, side_keys
from hyperperc.tilinggraph import (
    NotHyperbolic,
    TooLarge,
    ball_vertices,
    build_ball,
    dual_ball,
)

from oracle_tiling import (
    build_ball_dicts,
    edges_and_dual,
    generate_geometric_ball,
)


def last_layer(ball):
    """Ids of the ball's last-layer vertices, its boundary cycle, ccw."""
    return np.flatnonzero(ball.vertex_layer == ball.layers - 1).tolist()


class TestBuildBall:
    def test_base_case_single_face(self):
        b = build_ball(3, 7, 1)
        assert b.n_vertices == 3
        assert b.n_edges == 3
        assert len(b.faces) == 1

    def test_not_hyperbolic(self):
        with pytest.raises(NotHyperbolic):
            build_ball(4, 4, 2)
        with pytest.raises(NotHyperbolic):
            build_ball(3, 6, 2)

    def test_too_large(self, monkeypatch):
        monkeypatch.setattr(tilinggraph, "MAX_VERTICES", 50)
        with pytest.raises(TooLarge, match=r"budget 50 exceeded: round 2 "
                           r"of the \{3,7\} ball may need up to 60 vertices"):
            build_ball(3, 7, 6)
        assert build_ball(3, 7, 2).n_vertices <= 50

    @pytest.mark.parametrize("p,q", [(3, 7), (7, 3), (4, 5), (5, 4), (3, 8)])
    def test_budget_bound_never_under_estimates(self, p, q, monkeypatch):
        # one vertex short of each ball: the check before the last round
        # must refuse it, or the ball would outgrow the budget unchecked
        for L in range(2, 6):
            n = build_ball(p, q, L).n_vertices
            monkeypatch.setattr(tilinggraph, "MAX_VERTICES", n - 1)
            with pytest.raises(TooLarge, match=f"round {L - 1} "):
                build_ball(p, q, L)
            monkeypatch.undo()

    # every hyperbolic {p,q} with p, q <= 10
    HYPERBOLIC = [(p, q) for p in range(3, 11) for q in range(3, 11)
                  if (p - 2) * (q - 2) > 4]

    @pytest.mark.parametrize("p,q", HYPERBOLIC)
    def test_vertex_count_without_faces(self, p, q, monkeypatch):
        # the counted balls have build_ball's sizes, up to 5 * 10^4
        # vertices, and under a budget of each smaller ball's size both
        # refuse the largest at the same round with the same message
        sizes = []
        for L in range(1, 40):
            sizes.append(build_ball(p, q, L).n_vertices)
            assert ball_vertices(p, q, L) == sizes[-1]
            if sizes[-1] > 5 * 10**4:
                break
        for budget in sorted(set(sizes))[:-1]:
            monkeypatch.setattr(tilinggraph, "MAX_VERTICES", budget)
            with pytest.raises(TooLarge) as built:
                build_ball(p, q, L)
            with pytest.raises(TooLarge) as counted:
                ball_vertices(p, q, L)
            assert str(counted.value) == str(built.value)

    @pytest.mark.parametrize("p,q,L", [(3, 6, 3), (4, 4, 2), (3, 7, 0),
                                       (3, 7, -2), (60, 3, 2)])
    def test_vertex_count_refuses_what_build_ball_refuses(self, p, q, L,
                                                          monkeypatch):
        monkeypatch.setattr(tilinggraph, "MAX_VERTICES", 50)
        with pytest.raises(ValueError) as built:
            build_ball(p, q, L)
        with pytest.raises(type(built.value),
                           match=re.escape(str(built.value))):
            ball_vertices(p, q, L)

    def test_interior_degrees(self):
        b = build_ball(3, 7, 4)
        deg = b.degrees
        interior = b.interior_vertex_mask
        assert interior.any()
        assert np.all(deg[interior] == 7)
        assert np.all(deg <= 7)

    def test_faces_are_pgons(self):
        for p, q in ((3, 7), (4, 5), (7, 3), (5, 4)):
            b = build_ball(p, q, 3)
            assert all(len(f) == p for f in b.faces)

    def test_euler_formula(self):
        for p, q, L in ((3, 7, 4), (4, 5, 3), (7, 3, 3), (5, 5, 3)):
            b = build_ball(p, q, L)
            assert b.n_vertices - b.n_edges + len(b.faces) == 1

    @pytest.mark.parametrize("p,q,L", [(3, 7, 5), (7, 3, 4), (4, 5, 4), (5, 4, 4)])
    def test_counts_match_geometric_oracle(self, p, q, L):
        oracle = generate_geometric_ball(p, q, L)
        for ell in range(1, L + 1):
            b = build_ball(p, q, ell)
            ref = oracle[ell - 1]
            assert b.n_vertices == ref["V"]
            assert b.n_edges == ref["E"]
            assert len(b.faces) == ref["F"]
            assert sorted(b.degrees.tolist()) == ref["degree_histogram"]

    def test_isomorphic_to_oracle_small(self):
        import networkx as nx

        b = build_ball(3, 7, 3)
        g1 = nx.Graph(b.edges.tolist())
        # rebuild the oracle graph directly
        from oracle_tiling import generate_geometric_ball as _gen  # noqa: F401

        oracle = generate_geometric_ball(3, 7, 3)
        # same counts already checked; verify degree-sequence isomorphism
        g2_degrees = oracle[2]["degree_histogram"]
        assert sorted(d for _, d in g1.degree()) == g2_degrees

    def test_ball_is_planar(self):
        import networkx as nx

        b = build_ball(4, 5, 3)
        is_planar, _ = nx.check_planarity(nx.Graph(b.edges.tolist()))
        assert is_planar

    def test_boundary_is_simple_cycle(self):
        b = build_ball(3, 7, 4)
        boundary = last_layer(b)
        assert len(set(boundary)) == len(boundary)
        eset = {(int(u), int(v)) for u, v in b.edges}
        for a, c in zip(boundary, boundary[1:] + boundary[:1]):
            assert (min(a, c), max(a, c)) in eset

    def test_transitivity_proxy(self):
        # the radius-1 combinatorial ball looks the same around the center
        # vertex and around any depth-<=2 interior vertex
        import networkx as nx

        b = build_ball(3, 7, 5)
        g = nx.Graph(b.edges.tolist())
        interior = b.interior_vertex_mask

        def ball1(v):
            sub = nx.ego_graph(g, v, radius=1)
            return sorted(d for _, d in sub.degree())

        ref = ball1(0)
        candidates = [
            v
            for v in range(b.n_vertices)
            if b.vertex_layer[v] <= 2 and interior[v]
            and all(interior[u] for u in g.neighbors(v))
        ]
        assert candidates
        for v in candidates[:20]:
            assert ball1(v) == ref

    def test_nonamenability_proxy(self):
        for p, q in ((3, 7), (4, 5)):
            ratios = []
            for L in range(2, 7):
                b = build_ball(p, q, L)
                boundary = len(last_layer(b))
                ratios.append(boundary / b.n_vertices)
            assert min(ratios) > 0.3

    def test_serialize_header_and_sections(self):
        b = build_ball(3, 7, 2)
        text = b.serialize()
        lines = text.splitlines()
        assert lines[0] == "#pq v1 p=3 q=7 L=2"
        assert any(l.startswith("VERTICES ") for l in lines)
        assert any(l.startswith("EDGES ") for l in lines)
        assert any(l.startswith("FACES ") for l in lines)
        assert any(l.startswith("DUAL ") for l in lines)


class TestFlatBuilder:
    """build_ball computes each round's faces with array code from the
    boundary's degrees; tests/oracle_tiling.py keeps the dict loop that
    attaches one face at a time, the reference for those rounds."""

    @staticmethod
    def assert_matches_dict_builder(p, q, L):
        b = build_ball(p, q, L)
        faces, boundary, vertex_layer = build_ball_dicts(p, q, L)
        faces = np.array(faces)
        n = b.n_vertices
        assert b.faces.dtype == np.int64
        assert b.faces.shape == (len(faces), p)
        assert np.array_equal(b.faces, faces)
        assert np.array_equal(b.edges, edges_of_keys(side_keys(faces, n), n))
        assert last_layer(b) == boundary
        assert b.vertex_layer.tolist() == vertex_layer

    def test_matches_dict_builder(self):
        # every hyperbolic {p,q} with 3 <= p, q <= 20 and every L under
        # 2 500 vertices
        checked = 0
        for p in range(3, 21):
            for q in range(3, 21):
                if (p - 2) * (q - 2) <= 4:
                    continue
                for L in range(1, 30):
                    if build_ball(p, q, L).n_vertices >= 2_500:
                        break
                    self.assert_matches_dict_builder(p, q, L)
                    checked += 1
        assert checked == 642

    @pytest.mark.parametrize("p,q,L", [(3, 7, 9), (7, 3, 10), (4, 5, 7)])
    def test_matches_dict_builder_on_large_balls(self, p, q, L):
        self.assert_matches_dict_builder(p, q, L)

    @pytest.mark.parametrize("p,q,L", [(7, 3, 3), (8, 3, 3)])
    def test_round_from_a_saturated_first_vertex(self, p, q, L):
        # the cycle's first vertex already has q edges, so it gets no fan
        # face and the round opens with its closing face
        prev = build_ball(p, q, L - 1)
        assert prev.degrees[last_layer(prev)[0]] == q
        self.assert_matches_dict_builder(p, q, L)

    @pytest.mark.parametrize("p,L", [(7, 2), (8, 2), (7, 4)])
    def test_round_that_saturates_the_last_vertex(self, p, L):
        # q = 3: the round's first face gives the cycle's last vertex its
        # third edge, so it lies inside the round's last face
        prev = build_ball(p, 3, L - 1)
        assert prev.degrees[last_layer(prev)[-1]] == 2
        self.assert_matches_dict_builder(p, 3, L)

    @pytest.mark.parametrize("p,q", [(3, 7), (7, 3), (4, 5), (5, 4), (8, 3)])
    def test_boundary_is_the_last_layer(self, p, q):
        # the dict builder's boundary cycle is build_ball's last layer
        for L in range(1, 6):
            b = build_ball(p, q, L)
            _, boundary, _ = build_ball_dicts(p, q, L)
            assert boundary == np.flatnonzero(
                b.vertex_layer == L - 1).tolist()

    @pytest.mark.skipif(platform.python_implementation() != "CPython",
                        reason="reads CPython's gc allocation counter")
    def test_allocates_nothing_per_face(self):
        # gen-0 count = tracked allocations minus deallocations; a tuple
        # per face would add one per face (1 000s here)
        enabled = gc.isenabled()
        gc.disable()
        try:
            before = gc.get_count()[0]
            b = build_ball(3, 7, 7)
            grown = gc.get_count()[0] - before
        finally:
            if enabled:
                gc.enable()
        assert len(b.faces) > 1000
        assert grown < 100


class TestDual:
    def test_dual_of_37_is_73_like(self):
        b = build_ball(3, 7, 4)
        d = dual_ball(b)
        interior = d.interior_vertex_mask
        assert interior.any()
        assert np.all(d.degrees[interior] == 3)

    def test_edge_bijection_involution(self):
        b = build_ball(4, 5, 3)
        d = dual_ball(b)
        for k in range(len(d.edges)):
            assert d.dual_edge_of[d.primal_edge[k]] == k

    def test_dual_edge_count(self):
        b = build_ball(3, 7, 3)
        d = dual_ball(b)
        edge_face_count = {}
        for f in b.faces.tolist():
            for a, c in zip(f, f[1:] + f[:1]):
                key = (min(a, c), max(a, c))
                edge_face_count[key] = edge_face_count.get(key, 0) + 1
        two_sided = sum(1 for v in edge_face_count.values() if v == 2)
        assert len(d.edges) == two_sided

    @pytest.mark.parametrize("p,q", [(3, 7), (7, 3), (4, 5), (5, 4), (3, 8)])
    def test_matches_dict_oracle(self, p, q):
        # same arrays in the same order, so per-dual-edge uniforms stay put
        for L in range(1, 6):
            b = build_ball(p, q, L)
            d = dual_ball(b)
            edges, dual_edges, primal_edge, dual_edge_of = edges_and_dual(
                b.faces.tolist())
            assert b.edges.tolist() == [list(e) for e in edges]
            assert d.edges.tolist() == [list(e) for e in dual_edges]
            assert d.primal_edge.tolist() == primal_edge
            assert d.dual_edge_of.tolist() == dual_edge_of
            assert d.edges.shape == (len(dual_edges), 2)
            for a in (b.edges, d.edges, d.primal_edge, d.dual_edge_of):
                assert a.dtype == np.int64

