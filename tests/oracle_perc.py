"""Reference implementations: flood-fill labels and reach for the
kernels, and the whole-complex Voronoi threshold pipeline."""

from collections import deque

import numpy as np

from hyperperc._kernels import csr_neighbours, site_reach_threshold
from hyperperc.graphs import csr_adjacency
from hyperperc.hypvoronoi import core_cell_mask, shell_cell_mask
from hyperperc.percolation import voronoi_replica


def bfs_labels(n, edges, edge_open, site_open):
    """Component labels by BFS flood fill; label = min member index, -1 closed."""
    adj = [[] for _ in range(n)]
    for k, (u, v) in enumerate(edges):
        if edge_open[k] and site_open[u] and site_open[v]:
            adj[int(u)].append(int(v))
            adj[int(v)].append(int(u))
    labels = np.full(n, -1, dtype=np.int64)
    for s in range(n):
        if not site_open[s] or labels[s] >= 0:
            continue
        comp = [s]
        labels[s] = s
        queue = deque([s])
        while queue:
            v = queue.popleft()
            for u in adj[v]:
                if labels[u] < 0:
                    labels[u] = s
                    comp.append(u)
                    queue.append(u)
        root = min(comp)
        for v in comp:
            labels[v] = root
    return labels


def reach_at_level(n, edges, uniforms_edges, core, shell, p):
    """Does some open cluster meet both core and shell at level p (bond)?"""
    edge_open = uniforms_edges <= p
    site_open = np.ones(n, dtype=bool)
    labels = bfs_labels(n, edges, edge_open, site_open)
    core_labels = set(labels[core].tolist())
    shell_labels = set(labels[shell].tolist())
    return len(core_labels & shell_labels) > 0


def site_reach_at_level(n, edges, uniforms_sites, core, shell, p):
    """Same for site percolation: sites open at level p iff uniform <= p."""
    site_open = uniforms_sites <= p
    edge_open = np.ones(len(edges), dtype=bool)
    labels = bfs_labels(n, edges, edge_open, site_open)
    core_labels = {l for l in labels[core].tolist() if l >= 0}
    shell_labels = {l for l in labels[shell].tolist() if l >= 0}
    return len(core_labels & shell_labels) > 0


def whole_complex_voronoi_threshold(lam, window, master_seed, experiment,
                                    replica):
    """voronoi_threshold from the whole complex: delaunay, the core and
    shell masks, the CSR adjacency and the site invasion over it."""
    V, u = voronoi_replica(lam, window, master_seed, experiment, replica)
    shell = shell_cell_mask(V, window.R_window)
    core = core_cell_mask(V, 0.0)
    indptr, indices, _ = csr_adjacency(V.n_nuclei, V.delaunay_edges)
    return site_reach_threshold(csr_neighbours(indptr, indices, indices,
                                               shell), u, core)
