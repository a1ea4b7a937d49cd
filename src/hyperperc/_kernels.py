"""Hot Monte Carlo kernels: one union-find filtration, and cluster labels.

`filtration` adds edges in a given order (Newman & Ziff, PRL 85:4104,
2000); the reach thresholds and the phase sweeps are all read from it.
It is plain Python over numpy arrays.  Cluster labels come from scipy's
connected components.
"""

from __future__ import annotations

import numpy as np
from scipy.sparse import coo_matrix

# perfbench records this in each run's environment and refuses to compare
# runs whose backends differ; the filtration has one implementation
BACKEND = "numpy"


def _find(parent, i):
    root = i
    while parent[root] != root:
        root = parent[root]
    while parent[i] != root:
        nxt = parent[i]
        parent[i] = root
        i = nxt
    return root


def filtration(n, eu, ev, order, core, shell, cuts):
    """Union-find over edges added in `order`, counting the clusters that
    meet both a core site and a shell site.

    Returns (first, counts): first is the position in `order` of the edge
    that makes the count positive (-1 if it is positive before any edge,
    len(order) if never); counts[j] is the count after the first cuts[j]
    edges.  With no cuts the sweep stops at first.  Otherwise it stops
    after the largest cut, and first is len(order) if the count is still
    zero there.
    """
    m = len(order)
    ncut = len(cuts)
    parent = np.arange(n)
    has_core = core.copy()
    has_shell = shell.copy()
    both = 0
    for i in range(n):
        if has_core[i] and has_shell[i]:
            both += 1
    first = -1 if both > 0 else m
    counts = np.zeros(ncut, dtype=np.int64)
    if ncut == 0 and first < 0:
        return first, counts
    # segments between ascending cuts; with no cuts, one segment to the end
    cut_order = np.argsort(cuts)
    start = 0
    for s in range(max(ncut, 1)):
        end = cuts[cut_order[s]] if ncut else m
        for idx in range(start, end):
            k = order[idx]
            ru = _find(parent, eu[k])
            rv = _find(parent, ev[k])
            if ru == rv:
                continue
            if rv < ru:
                ru, rv = rv, ru
            parent[rv] = ru
            hc = has_core[ru] or has_core[rv]
            hs = has_shell[ru] or has_shell[rv]
            if hc and hs:
                both += (1 - (has_core[ru] and has_shell[ru])
                         - (has_core[rv] and has_shell[rv]))
                if first == m:
                    first = idx
                    if ncut == 0:
                        return first, counts
            has_core[ru] = hc
            has_shell[ru] = hs
        if ncut:
            counts[cut_order[s]] = both
            start = end
    return first, counts

_NO_CUTS = np.zeros(0, dtype=np.int64)


def bond_reach_threshold(n, eu, ev, uniforms, core, shell):
    """Level at which some core site first joins some shell site when
    edges open in increasing uniforms: 0.0 if core and shell already
    share a site, 2.0 if they never join."""
    order = np.argsort(uniforms)
    first, _ = filtration(n, eu, ev, order, core, shell, _NO_CUTS)
    if first < 0:
        return 0.0
    if first == len(order):
        return 2.0
    return uniforms[order[first]]


def site_reach_threshold(n, eu, ev, uniforms, core, shell):
    """Level at which some core site first joins some shell site when
    sites open in increasing uniforms, 2.0 if they never join.

    A site in both core and shell reaches as soon as it opens.  The other
    core sites reach through edges, which are usable once both of their
    ends are open: the bond threshold on the edge levels max(u_a, u_b).
    """
    both = core & shell
    best = float(uniforms[both].min()) if both.any() else 2.0
    rest = core & ~shell
    if rest.any():
        levels = np.maximum(uniforms[eu], uniforms[ev])
        best = min(best, bond_reach_threshold(n, eu, ev, levels, rest, shell))
    return best


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
