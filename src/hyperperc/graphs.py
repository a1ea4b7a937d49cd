"""Small shared graph helpers: edge keys, degrees, CSR adjacency and BFS
distances."""

from __future__ import annotations

import numpy as np


def side_keys(faces, n: int) -> np.ndarray:
    """Key min*n + max of each face side, face by face, side by side."""
    f = np.asarray(faces, dtype=np.int64)
    g = np.roll(f, -1, axis=1)
    return (np.minimum(f, g) * n + np.maximum(f, g)).ravel()


def edges_of_keys(keys: np.ndarray, n: int) -> np.ndarray:
    """The distinct edges (u, v), u < v, of edge keys; sorted keys are the
    pairs in lexicographic order."""
    return np.stack(np.divmod(np.unique(keys), n), axis=1)


def vertex_degrees(n: int, edges: np.ndarray) -> np.ndarray:
    """Number of edge ends at each of the n vertices."""
    return np.bincount(edges.ravel(), minlength=n)


def csr_adjacency(n: int, edges: np.ndarray):
    """CSR adjacency of an undirected edge list.

    Returns (indptr, indices, edge_id) with edge_id[j] the row index into
    `edges` that produced adjacency slot j, so per-edge marks (open/closed)
    can be consulted during traversals.
    """
    edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    # slot 2k is edge k seen from u, slot 2k+1 from v; a stable sort by
    # vertex keeps each vertex's slots in edge order
    ends = edges.ravel()
    slots = np.argsort(ends, kind="stable")
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(ends, minlength=n), out=indptr[1:])
    indices = edges[:, ::-1].ravel()[slots]
    return indptr, indices, slots // 2


def bfs_distances(n: int, edges: np.ndarray, source: int) -> np.ndarray:
    """Unweighted shortest-path distances from source; -1 if unreachable."""
    indptr, indices, _ = csr_adjacency(n, edges)
    dist = np.full(n, -1, dtype=np.int64)
    dist[source] = 0
    frontier = np.array([source], dtype=np.int64)
    d = 0
    while len(frontier):
        d += 1
        start = indptr[frontier]
        count = indptr[frontier + 1] - start
        # the adjacency slots of every frontier vertex, concatenated
        first = np.cumsum(count) - count
        slots = np.repeat(start - first, count) + np.arange(int(count.sum()))
        nbrs = indices[slots]
        frontier = np.unique(nbrs[dist[nbrs] < 0])
        dist[frontier] = d
    return dist
