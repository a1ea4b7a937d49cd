"""Hot Monte Carlo kernels: invasion from a core, one union-find
filtration, and cluster labels.

`_invade`, invasion percolation from the core (Prim's algorithm;
Wilkinson & Willemsen, J. Phys. A 16, 1983), is the one cluster
traversal.  It takes each site at its minimax (bottleneck) level from the
core: the first shell site gives the reach threshold, and stopped at
level p it has taken exactly the core's p-cluster.  It runs as a priority
flood (Barnes, Lehman & Mulla, Computers & Geosciences 62, 2014): a slot
at or below the running maximum is taken at that maximum in any order, so
it goes on a plain LIFO stack, and only a slot above it goes through
`heapq`.  The maximum rises only when the stack is empty, so each level's
basin is taken whole first and every level equals Prim's.  Adapters list
a site's neighbours innermost first, so the stack takes the outermost
first and the invasion dives toward the shell.  A reach threshold ends
sooner, at a slot into a site known to be shell at a level at most the
running maximum: that maximum never exceeds the threshold, since every
core-to-shell path leaves the taken set and each new maximum is its
cheapest exit, and the slot closes a path at or below it.  The invasion
alone reads the shell flags; adapters only list a taken site's adjacency
and mark ids (edge ids for bond, the sites for site), so one loop serves
a tiling's CSR adjacency and a Voronoi replica's stars, built as the
invasion reaches them, and gathers the marks of the sites it takes only.
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
scipy's connected components, imported by the labelling only.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush

import numpy as np

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


def _invade(neighbours, marks, start, stop=2.0, shell=None):
    """Invasion percolation from the core, until the first shell site,
    the first level above `stop`, or a slot into a flagged shell site at
    most the running maximum.  Returns (top, taken): taken[w] is the
    running maximum when site w was taken, its minimax level from the
    core, and top is the level at which the core reaches the shell, 2.0
    if it does not.

    `start` holds the (level, site) pairs of the core sites, each entering
    at its own level.  neighbours(w) gives site w's adjacency as (sites,
    ids), a list of sites and an index array, the slot into sites[j]
    costing marks[ids[j]], or None for a shell site found only then.

    A priority flood (Barnes, Lehman & Mulla, Computers & Geosciences 62,
    2014): a slot at a level <= top goes on a plain stack, only a slot
    above top on the heap.  The stack is emptied before the heap is
    popped, and a site taken from either at a level <= top is taken at
    top.  Levels are unchanged from Prim's order: top rises only at a
    heap pop with the stack empty, when the heap holds every exit from
    the taken set, so every site left has a minimax level >= top and
    each level's basin is taken whole before top rises.  The stack is
    LIFO, so with adjacencies listed innermost first the invasion takes
    the outermost neighbour first and dives toward the shell.

    shell[w], if given, is true for a site known to be shell before its
    adjacency is read; the invasion is the only reader of these flags.
    Taking such a site returns top, and so does a slot into one at a
    level <= top, where top is then exact:
    - top never exceeds the reach level, since each new maximum is the
      cheapest exit from the taken set, which every core-to-shell path
      leaves;
    - the slot closes a core-to-shell path at level <= top, and every
      site taken before it would have left top unchanged.
    Without shell, only `stop` and a None adjacency end the invasion."""
    taken = {}
    heap = list(start)
    heapify(heap)
    stack = []
    top = 0.0
    while True:
        if stack:
            w = stack.pop()
            if w in taken:
                continue
        elif heap:
            level, w = heappop(heap)
            if w in taken:
                continue
            if level > top:
                if level > stop:
                    break
                top = level
        else:
            break
        taken[w] = top
        if shell is not None and shell[w]:
            return top, taken
        adjacency = neighbours(w)
        if adjacency is None:
            return top, taken
        sites, ids = adjacency
        # a slot into a taken site would only be popped and dropped
        for level, v in zip(marks[ids].tolist(), sites):
            if v not in taken:
                if level > top:
                    heappush(heap, (level, v))
                elif shell is not None and shell[v]:
                    return top, taken
                else:
                    stack.append(v)
    return 2.0, taken


def csr_neighbours(indptr, indices, ids):
    """_invade's neighbours over a CSR adjacency (graphs.csr_adjacency):
    ids is its edge_id for bond marks and its indices for site marks.  It
    lists every site's neighbours, a shell site's too, and never returns
    None.  Over edges sorted by (u, v), as build_ball's are, each row
    lists its neighbours by ascending id, and a ball's ids rise with the
    round that adds them: innermost first, as _invade wants.  A dual
    ball's edges are not sorted, and its rows keep their order.

    Built once per graph and shared by its replicas: each site's
    neighbour list and id slice are kept after the first invasion that
    takes it, so the memo holds only sites some replica has taken."""
    indptr = indptr.tolist()
    memo = {}

    def neighbours(w):
        got = memo.get(w)
        if got is None:
            a, b = indptr[w], indptr[w + 1]
            got = memo[w] = indices[a:b].tolist(), ids[a:b]
        return got

    return neighbours


def _at_zero(core):
    """Every core site entering at level 0."""
    return [(0.0, w) for w in np.flatnonzero(core).tolist()]


def bond_reach_threshold(neighbours, uniforms, core, shell):
    """Level at which some core site first joins some shell site when
    edges open in increasing uniforms, 2.0 if they never join; core sites
    enter at 0.0.  neighbours(w) is _invade's with ids = edge ids, as
    csr_neighbours(indptr, indices, edge_id) gives it, and shell the
    flags of the shell sites (_invade's)."""
    return _invade(neighbours, uniforms, _at_zero(core), shell=shell)[0]


def site_reach_threshold(neighbours, uniforms, core, shell):
    """Level at which some core site first joins some shell site when
    sites open in increasing uniforms, 2.0 if they never join.
    neighbours(w) is _invade's with ids = sites, built as the invasion
    reaches w if need be, and shell the flags of the sites known to be
    shell before then (_invade's).  Each core site enters at its own
    uniform and each step costs the uniform of the site it enters, so a
    path costs its largest uniform."""
    sites = np.flatnonzero(core)
    return _invade(neighbours, uniforms,
                   zip(uniforms[sites].tolist(), sites.tolist()),
                   shell=shell)[0]


def bond_cluster(neighbours, uniforms, core, p):
    """The core's cluster of the edges with uniform <= p: a dict from
    each of its sites to its minimax level from the core.  neighbours is
    bond_reach_threshold's; no site is shell, so only p stops the
    invasion."""
    return _invade(neighbours, uniforms, _at_zero(core), p)[1]


def label_clusters_kernel(n, eu, ev, edge_open, site_open):
    """Connected components of the open edges between open sites.

    labels[i] is the minimal member index of i's cluster, or -1 for
    closed sites.
    """
    # lazy: scipy.sparse and its csgraph cost about 0.15 s of import, and
    # no threshold or sweep needs them
    from scipy.sparse import coo_matrix
    from scipy.sparse.csgraph import connected_components

    keep = edge_open & site_open[eu] & site_open[ev]
    graph = coo_matrix((np.ones(int(keep.sum())), (eu[keep], ev[keep])),
                       shape=(n, n))
    _, comp = connected_components(graph, directed=False)
    _, lowest = np.unique(comp, return_index=True)
    return np.where(site_open, lowest[comp], -1)
