from collections import deque

import numpy as np
import pytest

from hyperperc.graphs import (
    bfs_distances,
    csr_adjacency,
    side_keys,
    sorted_distinct,
)
from hyperperc.tilinggraph import build_ball, dual_ball

from oracle_perc import bfs_labels


def loop_csr_adjacency(n, edges):
    """Edge-by-edge CSR fill: each vertex's slots in ascending edge order."""
    edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    deg = np.zeros(n, dtype=np.int64)
    np.add.at(deg, edges[:, 0], 1)
    np.add.at(deg, edges[:, 1], 1)
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(deg, out=indptr[1:])
    indices = np.empty(2 * len(edges), dtype=np.int64)
    edge_id = np.empty(2 * len(edges), dtype=np.int64)
    cursor = indptr[:-1].copy()
    for k, (u, v) in enumerate(edges):
        indices[cursor[u]], edge_id[cursor[u]] = v, k
        cursor[u] += 1
        indices[cursor[v]], edge_id[cursor[v]] = u, k
        cursor[v] += 1
    return indptr, indices, edge_id


def queue_bfs(n, edges, source):
    adj = [[] for _ in range(n)]
    for u, v in edges:
        adj[int(u)].append(int(v))
        adj[int(v)].append(int(u))
    dist = [-1] * n
    dist[source] = 0
    queue = deque([source])
    while queue:
        v = queue.popleft()
        for u in adj[v]:
            if dist[u] < 0:
                dist[u] = dist[v] + 1
                queue.append(u)
    return np.array(dist, dtype=np.int64)


@pytest.fixture(scope="module")
def cases():
    return list(graphs())


def graphs():
    ball = build_ball(3, 7, 5)
    yield ball.n_vertices, ball.edges
    dual = dual_ball(build_ball(7, 3, 4))
    yield dual.n_vertices, dual.edges
    rng = np.random.default_rng(3)
    for n in (1, 7, 60):
        # unsorted, repeated and self-loop edges, isolated vertices
        yield n + 4, rng.integers(0, n, size=(3 * n, 2))
    yield 5, np.zeros((0, 2), dtype=np.int64)


@pytest.mark.parametrize("case", range(6))
def test_csr_matches_loop_fill(cases, case):
    n, edges = cases[case]
    got = csr_adjacency(n, edges)
    want = loop_csr_adjacency(n, edges)
    for g, w in zip(got, want):
        assert g.dtype == np.int64
        np.testing.assert_array_equal(g, w)


@pytest.mark.parametrize("case", range(6))
def test_bfs_matches_queue_bfs(cases, case):
    n, edges = cases[case]
    for source in (0, n // 2, n - 1):
        dist = bfs_distances(n, edges, source)
        np.testing.assert_array_equal(dist, queue_bfs(n, edges, source))
        labels = bfs_labels(n, edges, np.ones(len(edges), bool), np.ones(n, bool))
        np.testing.assert_array_equal(dist >= 0, labels == labels[source])


@pytest.mark.parametrize("case", range(6))
def test_bfs_depth_stops_at_the_depth(cases, case):
    n, edges = cases[case]
    for source in (0, n // 2, n - 1):
        full = bfs_distances(n, edges, source)
        for depth in range(max(full.max(), 0) + 2):
            want = np.where(full <= depth, full, -1)
            np.testing.assert_array_equal(
                bfs_distances(n, edges, source, depth), want)


def test_bfs_depth_zero_builds_no_adjacency(cases, monkeypatch):
    # the BFS scans the edge list at every depth, never a CSR adjacency
    def refuse(*args):
        raise AssertionError("the BFS built a CSR adjacency")

    monkeypatch.setattr("hyperperc.graphs.csr_adjacency", refuse)
    for n, edges in cases:
        for source in (0, n // 2, n - 1):
            full = queue_bfs(n, edges, source)
            for depth in (0, 1, 2, None):
                want = full if depth is None else np.where(full <= depth,
                                                           full, -1)
                np.testing.assert_array_equal(
                    bfs_distances(n, edges, source, depth), want)


@pytest.mark.parametrize("p_gon,q_deg", [(3, 7), (7, 3), (4, 5)])
@pytest.mark.parametrize("dual", [False, True])
def test_bfs_matches_queue_bfs_on_tilings(p_gon, q_deg, dual):
    g = build_ball(p_gon, q_deg, 5)
    if dual:
        g = dual_ball(g)
    for source in (0, g.n_vertices // 2, g.n_vertices - 1):
        np.testing.assert_array_equal(
            bfs_distances(g.n_vertices, g.edges, source),
            queue_bfs(g.n_vertices, g.edges, source))


def distinct_cases():
    rng = np.random.default_rng(11)
    for size in (0, 1, 10_000):
        yield np.arange(size, dtype=np.int64)[::-1].copy()  # no duplicates
        yield rng.integers(0, max(size // 3, 1), size=size)
    for p_gon, q_deg, layers in ((3, 7, 6), (7, 3, 6), (4, 5, 6)):
        ball = build_ball(p_gon, q_deg, layers)
        yield side_keys(ball.faces, ball.n_vertices)


@pytest.mark.parametrize("case", range(9))
def test_sorted_distinct_equals_unique(case):
    values = list(distinct_cases())[case]
    got = sorted_distinct(values)
    assert got.dtype == values.dtype
    np.testing.assert_array_equal(got, np.unique(values))


def test_bfs_disconnected_gives_minus_one():
    # a path 0-1-2, a triangle 3-4-5 and the isolated vertex 6
    edges = np.array([[0, 1], [1, 2], [3, 4], [4, 5], [3, 5]])
    np.testing.assert_array_equal(bfs_distances(7, edges, 0),
                                  [0, 1, 2, -1, -1, -1, -1])
    np.testing.assert_array_equal(bfs_distances(7, edges, 4),
                                  [-1, -1, -1, 1, 0, 1, -1])
    np.testing.assert_array_equal(bfs_distances(7, edges, 6),
                                  [-1, -1, -1, -1, -1, -1, 0])
