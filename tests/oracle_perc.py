"""Reference implementations: flood-fill labels and reach for the
kernels, the heap-only invasion, the whole-complex Voronoi threshold
pipeline, and the crossing estimate with its bootstrap as one loop over
resamples."""

from collections import deque
from heapq import heapify, heappop, heappush

import numpy as np

from hyperperc._kernels import csr_neighbours, site_reach_threshold
from hyperperc.graphs import csr_adjacency
from hyperperc.hypvoronoi import core_cell_mask, shell_cell_mask
from hyperperc.percolation import (
    BOOTSTRAP_RESAMPLES,
    NoCrossing,
    voronoi_replica,
)


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


# _kernels._invade before the priority flood: every slot goes through the
# heap, so sites leave in Prim's order
def heap_invade(neighbours, marks, start, stop=2.0, shell=None):
    """Invasion percolation from the core, until the first shell site,
    the first level above `stop`, or a slot into a known shell site at
    most the running maximum.  Returns (top, taken): taken[w] is the
    running maximum when site w was taken, its minimax level from the
    core, and top is the level at which the core reaches the shell, 2.0
    if it does not.

    `start` holds the (level, site) pairs of the core sites, each entering
    at its own level.  neighbours(w) gives site w's adjacency as (sites,
    ids), a list of sites and an index array, the slot into sites[j]
    costing marks[ids[j]], or None if w is a shell site.  The lowest
    boundary level is taken next.

    shell[w], if given, is true for a site that neighbours would call
    shell, known before its adjacency is read.  A slot into such a site
    at a level <= top returns top at once, and top is then exact:
    - top never exceeds the reach level, since each new maximum is the
      cheapest exit from the taken set, which every core-to-shell path
      leaves;
    - the slot closes a core-to-shell path at level <= top, and every pop
      before it would have left top unchanged.
    Without shell, the invasion runs until it takes a shell site."""
    taken = {}
    heap = list(start)
    heapify(heap)
    top = 0.0
    while heap:
        level, w = heappop(heap)
        if w in taken:
            continue
        if level > top:
            if level > stop:
                break
            top = level
        taken[w] = top
        adjacency = neighbours(w)
        if adjacency is None:
            return top, taken
        sites, ids = adjacency
        # a slot into a taken site would only be popped and dropped
        for slot in zip(marks[ids].tolist(), sites):
            if slot[1] not in taken:
                if slot[0] <= top and shell is not None and shell[slot[1]]:
                    return top, taken
                heappush(heap, slot)
    return 2.0, taken


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


def crossing_loop(curve_small, curve_large, p_grid):
    """First upward zero of curve_large - curve_small after its minimum,
    by a scan from the minimum; None if there is none."""
    d = np.asarray(curve_large) - np.asarray(curve_small)
    i0 = int(np.argmin(d))
    if d[i0] >= 0:
        return None
    for i in range(i0 + 1, len(d)):
        if d[i] >= 0:
            d0, d1 = d[i - 1], d[i]
            if d1 == d0:
                return float(p_grid[i])
            t = -d0 / (d1 - d0)
            return float(p_grid[i - 1] + t * (p_grid[i] - p_grid[i - 1]))
    return None


def bootstrap_draws_loop(seed, ns):
    """The bootstrap's replica indices drawn one resample at a time, and
    within a resample one size at a time: draws[r][s] holds resample r's
    ns[s] indices into size s."""
    rng = np.random.default_rng(seed)
    return [[rng.integers(0, n, n) for n in ns]
            for _ in range(BOOTSTRAP_RESAMPLES)]


def estimate_pc_loop(thresholds_by_size, p_grid, bootstrap_seed=0):
    """estimate_pc one resample at a time: returns (value, ci_lo, ci_hi,
    crossings, bootstrap_accepted) or raises the same NoCrossing."""
    p_grid = np.asarray(p_grid, dtype=float)
    sizes = [float(s) for s, _ in thresholds_by_size]
    samples = [np.asarray(t, dtype=float) for _, t in thresholds_by_size]

    def curve(t):
        return np.searchsorted(np.sort(t), p_grid, side="right") / len(t)

    def crossings_of(curve_list):
        scaled = [s * c for s, c in zip(sizes, curve_list)]
        return [crossing_loop(small, large, p_grid)
                for small, large in zip(scaled, scaled[1:])]

    curves = [curve(t) for t in samples]
    crossings = crossings_of(curves)
    if None in crossings:
        i = crossings.index(None)
        d = sizes[i + 1] * curves[i + 1] - sizes[i] * curves[i]
        raise NoCrossing(
            f"reach curves of sizes {sizes[i]:g} and {sizes[i + 1]:g} do not "
            f"cross within the p-grid [{p_grid[0]:g}, {p_grid[-1]:g}]: their "
            f"size-weighted difference runs from {d.min():.4g} to "
            f"{d.max():.4g}; widen the grid or the ladder"
        )
    value = float(np.median(crossings))
    boots = []
    for draw in bootstrap_draws_loop(bootstrap_seed,
                                     [len(t) for t in samples]):
        resampled = [t[idx] for t, idx in zip(samples, draw)]
        cs = crossings_of([curve(t) for t in resampled])
        if None not in cs:
            boots.append(np.median(cs))
    if len(boots) < BOOTSTRAP_RESAMPLES // 2:
        raise NoCrossing(
            "crossing unstable under bootstrap resampling: "
            f"{len(boots)} of {BOOTSTRAP_RESAMPLES} resamples cross"
        )
    lo, hi = np.percentile(boots, [2.5, 97.5])
    return (value, float(min(lo, value)), float(max(hi, value)),
            tuple(crossings), len(boots) / BOOTSTRAP_RESAMPLES)
