"""Hot Monte Carlo kernels: invasion from a core, one union-find
filtration, and cluster labels.

`_invade`, invasion percolation from the core (Prim's algorithm;
Wilkinson & Willemsen, J. Phys. A 16, 1983), is the one cluster
traversal.  It takes each site at its minimax (bottleneck) level from the
core: the first shell site gives the reach threshold, and stopped at
level p it has taken exactly the core's p-cluster.  It reads each taken
site's adjacency and mark ids (edge ids for bond, the sites for site)
through one protocol, so one loop serves a tiling's CSR adjacency and a
Voronoi replica's stars, built as the invasion reaches them, and gathers
the marks of the sites it takes only.
`filtration` adds edges in a given order (Newman & Ziff, PRL 85:4104,
2000) and gives the phase sweeps their core-to-shell counts on a whole
p-grid.  Each edge end is found with path halving, and each root keeps
one flag (1 core, 2 shell, 3 both).  The pass counts the clusters that
hold a core site too: once that count is 1 and the one such cluster meets
the shell, every later count is 1, so the pass stops there, and it reads
edge ends only up to its largest cut.  Both kernels are plain Python.
The filtration loop runs over Python lists, because in a per-edge loop
the numpy scalar that each array access boxes costs more than the
union-find step; invasion likewise reads each site's neighbours as a
list, which csr_neighbours keeps per site.  Cluster labels come from
scipy's connected components.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush

import numpy as np
from scipy.sparse import coo_matrix

# perfbench records this in each run's environment and refuses to compare
# runs whose backends differ; the kernels have one implementation
BACKEND = "numpy"


def filtration(n, eu, ev, order, core, shell, cuts):
    """Union-find over edges added in `order`, counting the clusters that
    meet both a core site and a shell site.

    Returns counts: counts[j] is the count after the first cuts[j] edges.
    The sweep reads the edges up to the largest cut only, and stops early
    once one cluster holds every core site and meets the shell.
    """
    counts = [0] * len(cuts)
    top = int(cuts.max(initial=0))
    a_of = eu[order[:top]].tolist()
    b_of = ev[order[:top]].tolist()
    parent = list(range(n))
    # one flag per root: 1 if its cluster holds a core site, 2 a shell site
    flag = (2 * shell + core).tolist()
    both = int(np.count_nonzero(core & shell))
    cores = int(np.count_nonzero(core))
    # segments between ascending cuts
    start = 0
    segments = np.argsort(cuts).tolist()
    for i, j in enumerate(segments):
        if cores == 1 and both == 1:
            # the one cluster with a core site meets the shell: a later
            # merge can neither split it nor add a second
            for j in segments[i:]:
                counts[j] = 1
            break
        end = int(cuts[j])
        for a, b in zip(a_of[start:end], b_of[start:end]):
            # find with path halving, inlined for both ends
            while parent[a] != a:
                parent[a] = a = parent[parent[a]]
            while parent[b] != b:
                parent[b] = b = parent[parent[b]]
            if a == b:
                continue
            parent[a] = b
            fa = flag[a]
            if fa:
                fb = flag[b]
                f = flag[b] = fa | fb
                if fa & fb & 1:
                    cores -= 1
                if f == 3:
                    both += 1 - (fa == 3) - (fb == 3)
        counts[j] = both
        start = end
    return np.array(counts, dtype=np.int64)


def _invade(neighbours, marks, start, stop=2.0):
    """Invasion percolation from the core, until the first shell site or
    the first level above `stop`.  Returns (top, taken): taken[w] is the
    running maximum when site w was taken, its minimax level from the
    core, and top is that of the shell site, 2.0 if none was taken.

    `start` holds the (level, site) pairs of the core sites, each entering
    at its own level.  neighbours(w) gives site w's adjacency as (sites,
    ids), a list of sites and an index array, the slot into sites[j]
    costing marks[ids[j]], or None if w is a shell site.  The lowest
    boundary level is taken next."""
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
                heappush(heap, slot)
    return 2.0, taken


def csr_neighbours(indptr, indices, ids, shell):
    """_invade's neighbours over a CSR adjacency (graphs.csr_adjacency):
    ids is its edge_id for bond marks and its indices for site marks.

    Built once per graph and shared by its replicas: each site's
    neighbour list and id slice are kept after the first invasion that
    takes it, so the memo holds only sites some replica has taken."""
    indptr = indptr.tolist()
    shell = shell.tolist()
    memo = {}

    def neighbours(w):
        got = memo.get(w)
        if got is None:
            if shell[w]:
                return None
            a, b = indptr[w], indptr[w + 1]
            got = memo[w] = indices[a:b].tolist(), ids[a:b]
        return got

    return neighbours


def _at_zero(core):
    """Every core site entering at level 0."""
    return [(0.0, w) for w in np.flatnonzero(core).tolist()]


def bond_reach_threshold(neighbours, uniforms, core):
    """Level at which some core site first joins some shell site when
    edges open in increasing uniforms, 2.0 if they never join; core sites
    enter at 0.0.  neighbours(w) is _invade's with ids = edge ids, as
    csr_neighbours(indptr, indices, edge_id, shell) gives it."""
    return _invade(neighbours, uniforms, _at_zero(core))[0]


def site_reach_threshold(neighbours, uniforms, core):
    """Level at which some core site first joins some shell site when
    sites open in increasing uniforms, 2.0 if they never join.
    neighbours(w) is _invade's with ids = sites, built as the invasion
    reaches w if need be.  Each core site enters at its own uniform and
    each step costs the uniform of the site it enters, so a path costs its
    largest uniform."""
    sites = np.flatnonzero(core)
    return _invade(neighbours, uniforms,
                   zip(uniforms[sites].tolist(), sites.tolist()))[0]


def bond_cluster(neighbours, uniforms, core, p):
    """The core's cluster of the edges with uniform <= p: a dict from
    each of its sites to its minimax level from the core.  neighbours is
    bond_reach_threshold's; a shell site stops the invasion, so a whole
    cluster needs neighbours without one."""
    return _invade(neighbours, uniforms, _at_zero(core), p)[1]


def label_clusters_kernel(n, eu, ev, edge_open, site_open):
    """Connected components of the open edges between open sites.

    labels[i] is the minimal member index of i's cluster, or -1 for
    closed sites.
    """
    # lazy: csgraph adds 3 MB and ~25 ms of import; thresholds never need it
    from scipy.sparse.csgraph import connected_components

    keep = edge_open & site_open[eu] & site_open[ev]
    graph = coo_matrix((np.ones(int(keep.sum())), (eu[keep], ev[keep])),
                       shape=(n, n))
    _, comp = connected_components(graph, directed=False)
    _, lowest = np.unique(comp, return_index=True)
    return np.where(site_open, lowest[comp], -1)
