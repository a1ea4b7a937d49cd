"""Winding-cycle detector for dual configurations on tiling balls.

A dual cycle separating the center from the shell must wind around the
center, hence cross any fixed center-to-boundary primal path a nonzero
net number of times.  Crossings are detected as potential inconsistency:
assign each dual edge crossing the cut weight +-1 (sign from the
left-face orientation) and BFS a potential over the open dual subgraph;
a cycle with nonzero net crossing makes the potential inconsistent.
"""

from collections import deque

from hyperperc.graphs import bfs_distances
from hyperperc.tilinggraph import left_face_of


def center_to_boundary_cut(ball, center=0):
    """A shortest primal path from the center to some boundary vertex."""
    dist = bfs_distances(ball.n_vertices, ball.edges, center)
    target = max(ball.boundary, key=lambda v: dist[v])
    # walk back along decreasing distance
    adj = [[] for _ in range(ball.n_vertices)]
    for u, v in ball.edges:
        adj[int(u)].append(int(v))
        adj[int(v)].append(int(u))
    path = [int(target)]
    while path[-1] != center:
        v = path[-1]
        path.append(min(u for u in adj[v] if dist[u] == dist[v] - 1))
    path.reverse()
    return path


def winding_dual_cycle_exists(ball, dual, dual_open, cut_path):
    """True iff the open dual subgraph has a cycle winding around the center."""
    left = left_face_of(ball)
    eidx = {(int(u), int(v)): k for k, (u, v) in enumerate(ball.edges)}
    # weight per dual edge: +1 when traversed left-to-right across the cut
    weight = {}
    for a, b in zip(cut_path, cut_path[1:]):
        f_left = left.get((a, b))
        f_right = left.get((b, a))
        if f_left is None or f_right is None:
            continue
        k = dual.dual_edge_of[eidx[(min(a, b), max(a, b))]]
        if k >= 0:
            weight[int(k)] = (f_left, f_right)

    adj = [[] for _ in range(dual.n_vertices)]
    for k, (f1, f2) in enumerate(dual.edges):
        if not dual_open[k]:
            continue
        f1, f2 = int(f1), int(f2)
        w = 0
        if k in weight:
            lf, rf = weight[k]
            w = 1 if (f1, f2) == (lf, rf) else -1
        adj[f1].append((f2, w))
        adj[f2].append((f1, -w))

    potential = {}
    for s in range(dual.n_vertices):
        if s in potential or not adj[s]:
            continue
        potential[s] = 0
        queue = deque([s])
        while queue:
            v = queue.popleft()
            for u, w in adj[v]:
                x = potential[v] + w
                if u not in potential:
                    potential[u] = x
                    queue.append(u)
                elif potential[u] != x:
                    return True
    return False
