from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from hyperperc import _kernels as K
from hyperperc.graphs import csr_adjacency
from hyperperc.hypvoronoi import (
    LocalStars,
    Window,
    core_cell_mask,
    shell_cell_mask,
)
from hyperperc.percolation import (
    label_clusters,
    tiling_instance,
    voronoi_replica,
    voronoi_sample,
    voronoi_threshold,
    voronoi_thresholds,
)
from hyperperc.tilinggraph import build_ball, dual_ball

from oracle_perc import (
    bfs_labels,
    heap_invade,
    reach_at_level,
    site_reach_at_level,
    whole_complex_voronoi_threshold,
)


def random_instance(rng, max_n=60, min_n=2):
    n = int(rng.integers(min_n, max_n))
    m = int(rng.integers(1, 3 * n))
    edges = rng.integers(0, n, size=(m, 2))
    edges = edges[edges[:, 0] != edges[:, 1]]
    if len(edges) == 0:
        edges = np.array([[0, 1]])
    edges = np.sort(edges, axis=1)
    edges = np.unique(edges, axis=0)
    return n, edges


def bond_neighbours(n, edges, shell):
    """The bond invasion's neighbours over the CSR adjacency of edges."""
    indptr, indices, edge_id = csr_adjacency(n, edges)
    return K.csr_neighbours(indptr, indices, edge_id, shell)


class TestLabelKernel:
    @pytest.mark.parametrize("trial", range(25))
    def test_matches_bfs_oracle(self, trial):
        rng = np.random.default_rng(100 + trial)
        n, edges = random_instance(rng)
        edge_open = rng.random(len(edges)) < 0.5
        site_open = rng.random(n) < 0.7
        got = K.label_clusters_kernel(
            n, np.ascontiguousarray(edges[:, 0]), np.ascontiguousarray(edges[:, 1]),
            edge_open, site_open,
        )
        want = bfs_labels(n, edges, edge_open, site_open)
        assert np.array_equal(got, want)


def k_proxy(labels, core, shell):
    """Clusters that meet both the core and the shell, from BFS labels."""
    meets_core = set(labels[core & (labels >= 0)].tolist())
    meets_shell = set(labels[shell & (labels >= 0)].tolist())
    return len(meets_core & meets_shell)


class TestFiltration:
    @pytest.mark.parametrize("trial", range(20))
    def test_counts_match_bfs_oracle(self, trial):
        # forward: the first cut edges in ascending level are those with
        # level < p; reverse: the first m - cut in descending level are
        # those with level >= p
        rng = np.random.default_rng(400 + trial)
        n, edges = random_instance(rng, max_n=40)
        m = len(edges)
        eu = np.ascontiguousarray(edges[:, 0])
        ev = np.ascontiguousarray(edges[:, 1])
        core = rng.random(n) < 0.2
        shell = rng.random(n) < 0.3
        if trial % 4 == 0:
            core[0] = shell[0] = True    # overlap: count positive at start
        levels = rng.random(m)
        p = rng.random(6)
        order = np.argsort(levels)
        cuts = np.searchsorted(levels[order], p, side="left")
        for reverse in (False, True):
            o = np.ascontiguousarray(order[::-1]) if reverse else order
            c = m - cuts if reverse else cuts
            counts = K.filtration(n, eu, ev, o, core, shell, c)
            for j, pj in enumerate(p):
                edge_open = levels >= pj if reverse else levels < pj
                labels = bfs_labels(n, edges, edge_open, np.ones(n, bool))
                assert counts[j] == k_proxy(labels, core, shell)
        # the threshold is the level of the edge that ends the shortest
        # prefix of the ascending order with a positive count
        prefix = [k_proxy(bfs_labels(n, edges, np.isin(np.arange(m), order[:i]),
                                     np.ones(n, bool)), core, shell)
                  for i in range(m + 1)]
        positive = [i for i, k in enumerate(prefix) if k > 0]
        if not positive:
            want = 2.0
        elif positive[0] == 0:
            want = 0.0
        else:
            want = levels[order[positive[0] - 1]]
        got = K.bond_reach_threshold(bond_neighbours(n, edges, shell), levels,
                                     core)
        assert got == want
        if (core & shell).any():
            assert got == 0.0

    def test_path_by_hand(self):
        # a path 0-1-2-3 with the core at 0 and the shell at 3; the edge
        # (1, 2), third in the order, joins them
        edges = np.array([[0, 1], [1, 2], [2, 3]])
        eu, ev = edges[:, 0], edges[:, 1]
        core = np.array([True, False, False, False])
        shell = np.array([False, False, False, True])
        levels = np.array([0.5, 0.75, 0.25])
        order = np.argsort(levels)
        assert order.tolist() == [2, 0, 1]
        counts = K.filtration(4, eu, ev, order, core, shell,
                              np.array([3, 0, 2, 1]))
        assert counts.tolist() == [1, 0, 0, 0]
        assert K.bond_reach_threshold(bond_neighbours(4, edges, shell),
                                      levels, core) == 0.75
        # only the edge (2, 3): never joined
        assert K.bond_reach_threshold(bond_neighbours(4, edges[2:], shell),
                                      levels[2:], core) == 2.0

    def case(self, seed):
        rng = np.random.default_rng(seed)
        n, edges = random_instance(rng, max_n=40, min_n=10)
        core = rng.random(n) < 0.2
        shell = rng.random(n) < 0.3
        core[0] = True
        shell[n - 1] = True
        return rng, n, edges, core, shell

    def check(self, n, edges, order, core, shell, cuts, dtype=np.int64):
        """filtration's counts against k_proxy after opening the first
        cut edges of `order`, per cut."""
        eu, ev = (np.ascontiguousarray(edges[:, i], dtype=dtype)
                  for i in (0, 1))
        counts = K.filtration(n, eu, ev, order, core, shell, cuts)
        for c, k in zip(cuts.tolist(), counts.tolist()):
            edge_open = np.zeros(len(edges), dtype=bool)
            edge_open[order[:c]] = True
            labels = bfs_labels(n, edges, edge_open, np.ones(n, bool))
            assert k == k_proxy(labels, core, shell)

    @pytest.mark.parametrize("trial", range(8))
    def test_duplicate_boundary_and_unsorted_cuts(self, trial):
        rng, n, edges, core, shell = self.case(500 + trial)
        m = len(edges)
        inner = rng.integers(0, m + 1, size=3)
        cuts = np.array([m, inner[0], 0, inner[1], m, 0, inner[0], inner[2]])
        rng.shuffle(cuts)
        self.check(n, edges, rng.permutation(m), core, shell, cuts)

    @pytest.mark.parametrize("trial", range(8))
    def test_reversed_view_order(self, trial):
        rng, n, edges, core, shell = self.case(600 + trial)
        m = len(edges)
        order = np.argsort(rng.random(m))[::-1]
        assert not order.flags.c_contiguous
        self.check(n, edges, order, core, shell,
                   rng.integers(0, m + 1, size=5))

    @pytest.mark.parametrize("trial", range(8))
    def test_int32_edges(self, trial):
        rng, n, edges, core, shell = self.case(700 + trial)
        m = len(edges)
        self.check(n, edges, rng.permutation(m).astype(np.int32), core,
                   shell, rng.integers(0, m + 1, size=5), dtype=np.int32)

    @pytest.mark.parametrize("trial", range(8))
    def test_tied_levels(self, trial):
        # a cell is white iff u < p: an edge joins two white cells iff
        # max(u_a, u_b) < p and two black cells iff min(u_a, u_b) >= p;
        # edges through one cell share its uniform, so levels tie, and
        # some p sit exactly on a level.  A ring plus chords has at least
        # as many edges as sites, while max levels never take the smallest
        # uniform and min levels never the largest, so both must tie
        rng, n, _, core, shell = self.case(800 + trial)
        ring = np.stack([np.arange(n), (np.arange(n) + 1) % n], axis=1)
        chords = rng.integers(0, n, size=(n, 2))
        edges = np.concatenate([ring, chords[chords[:, 0] != chords[:, 1]]])
        edges = np.unique(np.sort(edges, axis=1), axis=0)
        m = len(edges)
        u = rng.random(n)
        eu, ev = edges[:, 0], edges[:, 1]
        p = np.concatenate([rng.random(3), rng.choice(u, 3), [0.0, 1.0]])
        for levels, reverse in ((np.maximum(u[eu], u[ev]), False),
                                (np.minimum(u[eu], u[ev]), True)):
            assert len(np.unique(levels)) < m
            order = np.argsort(levels)
            cuts = np.searchsorted(levels[order], p, side="left")
            if reverse:
                order, cuts = order[::-1], m - cuts
            counts = K.filtration(n, eu, ev, order, core, shell, cuts)
            for j, pj in enumerate(p):
                edge_open = levels >= pj if reverse else levels < pj
                labels = bfs_labels(n, edges, edge_open, np.ones(n, bool))
                assert counts[j] == k_proxy(labels, core, shell)

    @pytest.mark.parametrize("trial", range(3))
    @pytest.mark.parametrize("p_gon, q_deg", [(3, 7), (7, 3)])
    def test_shuffle_within_segments_keeps_the_counts(self, p_gon, q_deg,
                                                      trial):
        # a count depends only on the set of edges before its cut
        inst = tiling_instance(build_ball(p_gon, q_deg, 4), 1)
        m = len(inst.edges)
        eu, ev = inst.edges[:, 0], inst.edges[:, 1]
        rng = np.random.default_rng(900 + trial)
        order = rng.permutation(m)
        cuts = rng.integers(0, m + 1, size=6)
        shuffled = order.copy()
        bounds = [0, *np.sort(cuts).tolist(), m]
        for a, b in zip(bounds, bounds[1:]):
            rng.shuffle(shuffled[a:b])
        assert not np.array_equal(shuffled, order)
        np.testing.assert_array_equal(
            K.filtration(inst.n, eu, ev, shuffled, inst.core, inst.shell,
                         cuts),
            K.filtration(inst.n, eu, ev, order, inst.core, inst.shell, cuts))


def oracle_prefix(n, edges, order, core, shell, c):
    """(count, joined) after opening the first c edges of order: joined
    when one cluster holds every core site and meets the shell."""
    edge_open = np.zeros(len(edges), dtype=bool)
    edge_open[order[:c]] = True
    labels = bfs_labels(n, edges, edge_open, np.ones(n, bool))
    k = k_proxy(labels, core, shell)
    return k, k == 1 and len(set(labels[core].tolist())) == 1


class TestEarlyStop:
    """Once one cluster holds the whole core and meets the shell, every
    later count is 1 and the filtration reads no further edge."""

    @pytest.fixture(scope="class")
    def inst(self):
        return tiling_instance(build_ball(3, 7, 4), 2)

    def masks(self, inst, kind):
        core, shell = inst.core.copy(), inst.shell.copy()
        if kind == "one-site":
            core[:] = False
            core[0] = True
        elif kind == "overlap":
            core[np.flatnonzero(shell)[:3]] = True
        elif kind == "one-site-in-shell":
            core[:] = False
            core[np.flatnonzero(shell)[0]] = True
        return core, shell

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize(
        "kind", ["radius-2", "one-site", "overlap", "one-site-in-shell"])
    def test_never_reads_an_edge_after_the_join(self, inst, kind, seed):
        n, edges = inst.n, inst.edges
        core, shell = self.masks(inst, kind)
        m = len(edges)
        rng = np.random.default_rng(seed)
        levels = rng.random(m)
        order = np.argsort(levels)
        cuts = np.searchsorted(levels[order], np.linspace(0, 1, 101))
        want = [oracle_prefix(n, edges, order, core, shell, c)
                for c in range(m + 1)]
        join = min(c for c, (_, joined) in enumerate(want) if joined)
        # the poisoned edge, whose ends lie outside the graph, opens at
        # the first cut that the join precedes; past the largest cut the
        # order names an edge that does not exist
        stop = int(cuts[cuts >= join].min())
        assert stop < cuts.max()
        eu = np.append(edges[:, 0], n)
        ev = np.append(edges[:, 1], n + 1)
        poisoned = np.append(np.insert(order, stop, m), m + 1)
        counts = K.filtration(n, eu, ev, poisoned, core, shell,
                              cuts + (cuts > stop))
        assert counts.tolist() == [want[c][0] for c in cuts.tolist()]

    def test_empty_core_counts_zero(self, inst):
        m = len(inst.edges)
        core = np.zeros(inst.n, dtype=bool)
        counts = K.filtration(inst.n, inst.edges[:, 0], inst.edges[:, 1],
                              np.random.default_rng(1).permutation(m), core,
                              inst.shell, np.arange(m + 1))
        assert counts.tolist() == [0] * (m + 1)


class TestReachKernels:
    def brute_bond_threshold(self, n, edges, u, core, shell):
        levels = np.concatenate([[0.0], np.sort(u)])
        for lvl in levels:
            if reach_at_level(n, edges, u, core, shell, lvl):
                return lvl
        return 2.0

    def brute_site_threshold(self, n, edges, u, core, shell):
        for lvl in np.sort(u):
            if site_reach_at_level(n, edges, u, core, shell, lvl):
                return lvl
        return 2.0

    @pytest.mark.parametrize("trial", range(15))
    def test_bond_threshold_matches_brute_force(self, trial):
        rng = np.random.default_rng(200 + trial)
        n, edges = random_instance(rng, max_n=30)
        u = rng.random(len(edges))
        core = np.zeros(n, dtype=bool)
        shell = np.zeros(n, dtype=bool)
        core[0] = True
        shell[n - 1] = True
        got = K.bond_reach_threshold(bond_neighbours(n, edges, shell), u, core)
        want = self.brute_bond_threshold(n, edges, u, core, shell)
        assert got == pytest.approx(want)

    @pytest.mark.parametrize("trial", range(25))
    def test_site_threshold_matches_brute_force(self, trial):
        rng = np.random.default_rng(300 + trial)
        n, edges = random_instance(rng, max_n=30)
        u = rng.random(n)
        core = np.zeros(n, dtype=bool)
        shell = np.zeros(n, dtype=bool)
        core[0] = True
        shell[n - 1] = True
        if trial >= 15:
            # overlapping masks: a site in both reaches as soon as it opens
            core |= rng.random(n) < 0.2
            shell |= rng.random(n) < 0.2
            k = int(rng.integers(n))
            core[k] = shell[k] = True
            if trial % 5 == 0:
                shell |= core    # no core site outside the shell
        indptr, indices, _ = csr_adjacency(n, edges)
        got = K.site_reach_threshold(
            K.csr_neighbours(indptr, indices, indices, shell), u, core)
        want = self.brute_site_threshold(n, edges, u, core, shell)
        assert got == pytest.approx(want)


def filtration_threshold(n, edges, levels, core, shell):
    """The level at the first positive entry of a full filtration: 0.0 if
    the count is positive before any edge, 2.0 if it never is."""
    m = len(edges)
    order = np.argsort(levels)
    counts = K.filtration(n, np.ascontiguousarray(edges[:, 0]),
                          np.ascontiguousarray(edges[:, 1]), order, core,
                          shell, np.arange(m + 1))
    positive = np.flatnonzero(counts > 0)
    if len(positive) == 0:
        return 2.0
    if positive[0] == 0:
        return 0.0
    return levels[order[positive[0] - 1]]


def site_filtration_threshold(n, edges, u, core, shell):
    """The site threshold from the filtration on the edge levels
    max(u_a, u_b), with a site in both core and shell reaching at u."""
    both = core & shell
    best = float(u[both].min()) if both.any() else 2.0
    levels = np.maximum(u[edges[:, 0]], u[edges[:, 1]])
    return min(best, filtration_threshold(n, edges, levels, core & ~shell,
                                          shell))


class TestInvasionEqualsFiltration:
    """The invasion threshold is the filtration's first event, exactly."""

    @pytest.mark.parametrize("p_gon,q_deg,dual",
                             [(3, 7, False), (3, 7, True), (7, 3, False)])
    def test_tiling_bond(self, p_gon, q_deg, dual):
        ball = build_ball(p_gon, q_deg, 6)
        inst = tiling_instance(dual_ball(ball) if dual else ball, 0)
        neighbours = bond_neighbours(inst.n, inst.edges, inst.shell)
        rng = np.random.default_rng(500 + 10 * p_gon + dual)
        for _ in range(50):
            u = rng.random(len(inst.edges))
            want = filtration_threshold(inst.n, inst.edges, u, inst.core,
                                        inst.shell)
            assert K.bond_reach_threshold(neighbours, u, inst.core) == want

    def test_tiling_site(self):
        inst = tiling_instance(build_ball(3, 7, 6), 0)
        indptr, indices, _ = csr_adjacency(inst.n, inst.edges)
        rng = np.random.default_rng(537)
        for _ in range(50):
            u = rng.random(inst.n)
            want = site_filtration_threshold(inst.n, inst.edges, u, inst.core,
                                             inst.shell)
            got = K.site_reach_threshold(
                K.csr_neighbours(indptr, indices, indices, inst.shell), u,
                inst.core)
            assert got == want

    @pytest.mark.parametrize("replica", range(2))
    def test_voronoi_site(self, replica):
        window = Window.with_margin(3.5)
        V, u = voronoi_replica(1.0, window, 42, "invasion-test", replica)
        core = core_cell_mask(V, 0.0)
        shell = shell_cell_mask(V, window.R_window)
        edges = V.delaunay_edges
        want = site_filtration_threshold(V.n_nuclei, edges, u, core, shell)
        indptr, indices, _ = csr_adjacency(V.n_nuclei, edges)
        got = K.site_reach_threshold(
            K.csr_neighbours(indptr, indices, indices, shell), u, core)
        assert got == want
        assert 0.0 < got < 1.0

    def ring(self):
        """A 6-cycle plus the isolated pair 6-7, with fixed edge levels."""
        edges = np.array([[0, 1], [1, 2], [2, 3], [3, 4], [4, 5], [0, 5],
                          [6, 7]])
        levels = np.array([0.9, 0.2, 0.4, 0.6, 0.3, 0.8, 0.1])
        return 8, edges, levels

    def masks(self, n, core_sites, shell_sites):
        core = np.zeros(n, dtype=bool)
        shell = np.zeros(n, dtype=bool)
        core[core_sites] = True
        shell[shell_sites] = True
        return core, shell

    @pytest.mark.parametrize("core_sites,shell_sites,want", [
        ([0], [3], 0.8),           # 0-5-4-3 beats 0-1-2-3
        ([0, 2], [3], 0.4),        # a multi-site core: the best source wins
        ([0, 1], [1, 4], 0.0),     # core and shell overlap
        ([0], [6, 7], 2.0),        # the shell is in another component
        ([6], [7], 0.1),
    ])
    def test_bond_edge_cases(self, core_sites, shell_sites, want):
        n, edges, levels = self.ring()
        core, shell = self.masks(n, core_sites, shell_sites)
        got = K.bond_reach_threshold(bond_neighbours(n, edges, shell), levels,
                                     core)
        assert got == want
        assert got == filtration_threshold(n, edges, levels, core, shell)

    @pytest.mark.parametrize("core_sites,shell_sites,want", [
        ([0], [3], 0.7),           # through 5 and 4, whose levels are lower
        ([0, 2], [3], 0.7),        # a multi-site core: the best source wins
        ([0, 1], [1, 4], 0.2),     # overlap: site 1 reaches when it opens
        ([0], [6, 7], 2.0),        # the shell is in another component
        ([2], [3], 0.8),           # the core site's level is the bottleneck
        ([2, 4], [3], 0.7),        # core sites enter at different levels
    ])
    def test_site_edge_cases(self, core_sites, shell_sites, want):
        n, edges, _ = self.ring()
        u = np.array([0.3, 0.2, 0.8, 0.7, 0.4, 0.5, 0.1, 0.6])
        core, shell = self.masks(n, core_sites, shell_sites)
        indptr, indices, _ = csr_adjacency(n, edges)
        got = K.site_reach_threshold(
            K.csr_neighbours(indptr, indices, indices, shell), u, core)
        assert got == want
        assert got == site_filtration_threshold(n, edges, u, core, shell)


class TestInvasionStopLevel:
    """An invasion from vertex 0 stopped at level p takes exactly vertex
    0's cluster of the edges with u <= p, each site at its minimax level."""

    STOPS = (0.0, 0.1, 0.2, 0.35, 0.6)

    @pytest.mark.parametrize("p_gon,q_deg", [(3, 7), (7, 3)])
    def test_taken_sites_are_the_center_cluster(self, p_gon, q_deg):
        ball = build_ball(p_gon, q_deg, 6)
        n, edges = ball.n_vertices, ball.edges
        indptr, indices, edge_id = csr_adjacency(n, edges)
        center = np.arange(n) == 0
        no_shell = np.zeros(n, dtype=bool)
        rng = np.random.default_rng(600 + p_gon)
        for _ in range(50):
            u = rng.random(len(edges))
            neighbours = K.csr_neighbours(indptr, indices, edge_id, no_shell)
            _, record = K._invade(neighbours, u, K._at_zero(center),
                                  max(self.STOPS))
            for p in self.STOPS:
                top, taken = K._invade(neighbours, u, K._at_zero(center), p)
                labels = label_clusters(n, edges, edge_open=u <= p).labels
                want = set(np.flatnonzero(labels == labels[0]).tolist())
                assert top == 2.0
                assert set(taken) == want
                assert all(level <= p for level in taken.values())
                # the record of one invasion holds every lower stop's cluster
                assert taken == {w: lv for w, lv in record.items()
                                 if lv <= p}
                assert K.bond_cluster(neighbours, u, center, p) == taken
                if p == 0.0:
                    assert taken == {0: 0.0}


def site_start(u, core):
    """site_reach_threshold's start: each core site at its own uniform."""
    sites = np.flatnonzero(core).tolist()
    return list(zip(u[sites].tolist(), sites))


class TestShellStop:
    """A reach invasion told which sites are shell ends at a slot into one
    at a level <= its running maximum.  Its threshold is bitwise the one
    of the invasion that runs on to the shell, and it takes a prefix of
    that invasion's sites."""

    def check(self, neighbours, marks, start, shell):
        """The masked and unmasked invasions agree; True if the masked one
        took fewer sites."""
        full, everything = K._invade(neighbours, marks, start)
        top, taken = K._invade(neighbours, marks, start, shell=shell)
        assert top == full
        assert taken == {w: everything[w] for w in taken}
        return len(taken) < len(everything)

    @pytest.mark.parametrize("mode", ["bond", "site"])
    @pytest.mark.parametrize("dual", [False, True])
    @pytest.mark.parametrize("p_gon,q_deg", [(3, 7), (7, 3), (4, 5)])
    def test_tiling_balls(self, p_gon, q_deg, dual, mode):
        rng = np.random.default_rng(
            [700, p_gon, q_deg, dual, mode == "site"])
        early = 0
        for layers in (3, 4, 5, 6):
            ball = build_ball(p_gon, q_deg, layers)
            inst = tiling_instance(dual_ball(ball) if dual else ball,
                                   layers // 3)
            indptr, indices, edge_id = csr_adjacency(inst.n, inst.edges)
            shell = inst.shell.tolist()
            ids = edge_id if mode == "bond" else indices
            neighbours = K.csr_neighbours(indptr, indices, ids, shell)
            reach = (K.bond_reach_threshold if mode == "bond"
                     else K.site_reach_threshold)
            for _ in range(50):
                if mode == "bond":
                    u = rng.random(len(inst.edges))
                    start = K._at_zero(inst.core)
                else:
                    u = rng.random(inst.n)
                    start = site_start(u, inst.core)
                early += self.check(neighbours, u, start, shell)
                assert (reach(neighbours, u, inst.core, shell)
                        == reach(neighbours, u, inst.core))
        assert early > 0

    @pytest.mark.parametrize("lam,R_window", [(0.25, 4.5), (1.0, 3.5),
                                              (4.0, 2.5)])
    def test_voronoi_windows(self, lam, R_window):
        """The mask voronoi_threshold passes: the cells beyond R_window."""
        window = Window.with_margin(R_window)
        tag = f"shell-stop-lam{lam:g}"
        early = 0
        for rep in range(200):
            pts, u = voronoi_sample(lam, window.R_sample, 42, tag, rep)
            stars = LocalStars(pts)

            def neighbours(w):
                return stars.neighbours(w, R_window)

            start = site_start(u, stars.core_mask())
            early += self.check(neighbours, u, start, pts.rho > R_window)
            assert (voronoi_threshold(lam, window, 42, tag, rep)
                    == K._invade(neighbours, u, start)[0])
        assert early > 0

    def ring(self):
        return TestInvasionEqualsFiltration().ring()

    def masks(self, n, core_sites, shell_sites):
        return TestInvasionEqualsFiltration().masks(n, core_sites,
                                                    shell_sites)

    def test_core_site_in_the_shell(self):
        n, edges, levels = self.ring()
        core, shell = self.masks(n, [0, 1, 3], [1, 3])
        flags = shell.tolist()
        bond = bond_neighbours(n, edges, flags)
        assert K.bond_reach_threshold(bond, levels, core, flags) == 0.0
        # the least uniform over core and shell: site 1's 0.2, below the
        # level 0.3 of core site 0's path into site 1
        u = np.array([0.3, 0.2, 0.8, 0.7, 0.4, 0.5, 0.1, 0.6])
        indptr, indices, _ = csr_adjacency(n, edges)
        site = K.csr_neighbours(indptr, indices, indices, flags)
        assert K.site_reach_threshold(site, u, core, flags) == 0.2
        assert K.site_reach_threshold(site, u, core) == 0.2

    def test_shell_slot_at_the_running_maximum(self):
        """Taking site 1 raises the maximum to 0.5, and its slot into the
        shell site 2 costs 0.5 too: the invasion ends before site 2."""
        n = 4
        edges = np.array([[0, 1], [0, 3], [1, 2]])
        levels = np.array([0.5, 0.1, 0.5])
        shell = [False, False, True, False]
        neighbours = bond_neighbours(n, edges, shell)
        start = [(0.0, 0)]
        top, taken = K._invade(neighbours, levels, start, shell=shell)
        assert (top, taken) == (0.5, {0: 0.0, 3: 0.1, 1: 0.5})
        # without the mask the invasion takes the shell site as well
        assert K._invade(neighbours, levels, start) == (
            0.5, {0: 0.0, 3: 0.1, 1: 0.5, 2: 0.5})
        # a slot above the running maximum is taken only when popped
        top, taken = K._invade(neighbours, np.array([0.5, 0.1, 0.6]), start,
                               shell=shell)
        assert (top, taken) == (0.6, {0: 0.0, 3: 0.1, 1: 0.5, 2: 0.6})

    def test_empty_heap(self):
        n, edges, levels = self.ring()
        core, shell = self.masks(n, [0], [6, 7])
        flags = shell.tolist()
        neighbours = bond_neighbours(n, edges, flags)
        assert K.bond_reach_threshold(neighbours, levels, core, flags) == 2.0
        top, taken = K._invade(neighbours, levels, K._at_zero(core),
                               shell=flags)
        assert top == 2.0 and sorted(taken) == [0, 1, 2, 3, 4, 5]

    def test_bond_cluster_runs_to_its_stop(self):
        """bond_cluster takes no shell mask: a slot into a shell site below
        the running maximum ends nothing, and the shell site is taken."""
        n = 4
        edges = np.array([[0, 1], [1, 2], [1, 3]])
        levels = np.array([0.5, 0.3, 0.4])
        shell = [False, False, True, False]
        center = np.arange(n) == 0
        neighbours = bond_neighbours(n, edges, shell)
        assert K.bond_cluster(neighbours, levels, center, 0.6) == {
            0: 0.0, 1: 0.5, 3: 0.5, 2: 0.5}
        whole = bond_neighbours(n, edges, [False] * n)
        assert K.bond_cluster(whole, levels, center, 0.6) == {
            0: 0.0, 1: 0.5, 2: 0.5, 3: 0.5}
        assert K.bond_cluster(whole, levels, center, 0.45) == {0: 0.0}


class TestFlood:
    """The priority flood takes each site at the level the heap-only
    invasion (oracle_perc.heap_invade) gives it: thresholds are bitwise
    equal with and without a shell mask, clusters are equal at every
    stop, and the levels are taken in non-decreasing order."""

    def check(self, neighbours, marks, start, shell):
        for mask in (shell, None):
            top, taken = K._invade(neighbours, marks, start, shell=mask)
            want, record = heap_invade(neighbours, marks, start, shell=mask)
            assert top == want
            levels = list(taken.values())
            assert levels == sorted(levels)
            # a site both take has one minimax level
            assert all(record[w] == level for w, level in taken.items()
                       if w in record)

    @pytest.mark.parametrize("mode", ["bond", "site"])
    @pytest.mark.parametrize("dual", [False, True])
    @pytest.mark.parametrize("p_gon,q_deg", [(3, 7), (7, 3), (4, 5)])
    def test_tiling_balls(self, p_gon, q_deg, dual, mode):
        rng = np.random.default_rng(
            [800, p_gon, q_deg, dual, mode == "site"])
        for layers in (3, 4, 5, 6):
            ball = build_ball(p_gon, q_deg, layers)
            inst = tiling_instance(dual_ball(ball) if dual else ball,
                                   layers // 3)
            indptr, indices, edge_id = csr_adjacency(inst.n, inst.edges)
            shell = inst.shell.tolist()
            ids = edge_id if mode == "bond" else indices
            neighbours = K.csr_neighbours(indptr, indices, ids, shell)
            for _ in range(30):
                if mode == "bond":
                    u = rng.random(len(inst.edges))
                    start = K._at_zero(inst.core)
                else:
                    u = rng.random(inst.n)
                    start = site_start(u, inst.core)
                self.check(neighbours, u, start, shell)

    @pytest.mark.parametrize("lam,R_window", [(0.25, 6.5), (1.0, 4.5),
                                              (4.0, 3.0)])
    def test_voronoi_windows(self, lam, R_window):
        window = Window.with_margin(R_window)
        tag = f"flood-lam{lam:g}"
        for rep in range(60):
            pts, u = voronoi_sample(lam, window.R_sample, 42, tag, rep)
            stars = LocalStars(pts)

            def neighbours(w):
                return stars.neighbours(w, R_window)

            self.check(neighbours, u, site_start(u, stars.core_mask()),
                       pts.rho > R_window)

    @pytest.mark.parametrize("p_gon,q_deg", [(3, 7), (7, 3)])
    def test_bond_clusters_at_every_stop(self, p_gon, q_deg):
        ball = build_ball(p_gon, q_deg, 6)
        n = ball.n_vertices
        whole = bond_neighbours(n, ball.edges, [False] * n)
        center = np.arange(n) == 0
        rng = np.random.default_rng(810 + p_gon)
        for _ in range(30):
            u = rng.random(len(ball.edges))
            for p in (0.0, 0.1, 0.2, 0.35, 0.6):
                got = K.bond_cluster(whole, u, center, p)
                assert got == heap_invade(whole, u, K._at_zero(center), p)[1]
                levels = list(got.values())
                assert levels == sorted(levels)

    def test_heap_entry_at_the_running_maximum(self):
        """Sites 1 and 2 both wait on the heap at 0.5.  Taking site 1
        raises the maximum to 0.5 and stacks site 3, whose slot costs 0.2;
        site 3 is taken at 0.5 before site 2 leaves the heap, at the
        maximum it equals."""
        n = 4
        edges = np.array([[0, 1], [0, 2], [1, 3]])
        levels = np.array([0.5, 0.5, 0.2])
        neighbours = bond_neighbours(n, edges, [False] * n)
        top, taken = K._invade(neighbours, levels, [(0.0, 0)], 0.5)
        assert top == 2.0
        assert list(taken.items()) == [(0, 0.0), (1, 0.5), (3, 0.5),
                                       (2, 0.5)]
        assert taken == heap_invade(neighbours, levels, [(0.0, 0)], 0.5)[1]

    def test_shell_slot_from_a_stacked_site(self):
        """Site 2 is stacked from site 1 below the running maximum 0.5, and
        its slot into the shell site 3 costs 0.4: the invasion returns 0.5
        before it takes site 3."""
        n = 4
        edges = np.array([[0, 1], [1, 2], [2, 3]])
        levels = np.array([0.5, 0.2, 0.4])
        shell = [False, False, False, True]
        neighbours = bond_neighbours(n, edges, shell)
        top, taken = K._invade(neighbours, levels, [(0.0, 0)], shell=shell)
        assert (top, taken) == (0.5, {0: 0.0, 1: 0.5, 2: 0.5})
        assert K._invade(neighbours, levels, [(0.0, 0)]) == (
            0.5, {0: 0.0, 1: 0.5, 2: 0.5, 3: 0.5})


class TestSharedAdapter:
    """One csr_neighbours serving every replica of a ball, as in
    bond_thresholds and site_thresholds, gives the thresholds of a fresh
    adapter per replica."""

    @pytest.mark.parametrize("mode,dual", [("bond", False), ("site", False),
                                           ("bond", True)])
    def test_equals_a_fresh_adapter_per_replica(self, mode, dual):
        ball = build_ball(3, 7, 6)
        inst = tiling_instance(dual_ball(ball) if dual else ball, 0)
        indptr, indices, edge_id = csr_adjacency(inst.n, inst.edges)
        if mode == "bond":
            reach, ids, m = K.bond_reach_threshold, edge_id, len(inst.edges)
        else:
            reach, ids, m = K.site_reach_threshold, indices, inst.n
        shared = K.csr_neighbours(indptr, indices, ids, inst.shell)
        rng = np.random.default_rng(620 + dual)
        got = []
        for _ in range(100):
            u = rng.random(m)
            fresh = K.csr_neighbours(indptr, indices, ids, inst.shell)
            got.append(reach(shared, u, inst.core))
            assert got[-1] == reach(fresh, u, inst.core)
        assert 0.0 < min(got) and max(got) < 1.0


class CountingMarks(np.ndarray):
    """Marks that count the elements fetched through __getitem__."""

    def __getitem__(self, key):
        out = np.asarray(super().__getitem__(key))
        self.reads += out.size
        return out


def counting(marks):
    out = marks.view(CountingMarks)
    out.reads = 0
    return out


class TestMarkReads:
    """A bond invasion gathers the marks of the sites it takes only, not
    one mark per slot of the whole adjacency."""

    def test_reads_at_most_the_degrees_of_the_taken_sites(self):
        ball = build_ball(3, 7, 6)
        inst = tiling_instance(ball, 0)
        degree = np.diff(csr_adjacency(inst.n, inst.edges)[0])
        center = np.arange(inst.n) == 0
        # one adapter of each kind serves every replica, as in
        # bond_thresholds and connectivity_decay
        reach = bond_neighbours(inst.n, inst.edges, inst.shell)
        whole = bond_neighbours(inst.n, inst.edges, np.zeros(inst.n, bool))
        rng = np.random.default_rng(610)
        for _ in range(20):
            u = rng.random(len(inst.edges))
            marks = counting(u)
            taken = K.bond_cluster(whole, marks, center, 0.2)
            assert 0 < marks.reads <= degree[list(taken)].sum()
            # every site of the threshold invasion is in the core's
            # cluster at the threshold
            marks = counting(u)
            top = K.bond_reach_threshold(reach, marks, inst.core)
            cluster = K.bond_cluster(whole, u, inst.core, top)
            assert 0 < marks.reads <= degree[list(cluster)].sum()
            assert marks.reads < 2 * len(inst.edges)


# criterion 5's ladders (tests/test_acceptance.py)
PC_LADDERS = {
    0.25: (4.5, 5.5, 6.5),
    0.5: (4.0, 5.0, 6.0),
    1.0: (3.5, 4.5, 5.5),
    2.0: (3.0, 4.0, 5.0),
}


class TestLocalVoronoiThreshold:
    """voronoi_threshold, which invades over local stars, gives the
    threshold of the whole complex."""

    @pytest.mark.parametrize("lam", sorted(PC_LADDERS))
    def test_equals_whole_complex_on_the_ladders(self, lam):
        for R_window in PC_LADDERS[lam]:
            window = Window.with_margin(R_window)
            tag = f"vorpc-lam{lam:g}-Rw{R_window:g}"
            for rep in range(20):
                want = whole_complex_voronoi_threshold(lam, window, 42, tag,
                                                       rep)
                assert voronoi_threshold(lam, window, 42, tag, rep) == want

    def test_thread_mapper_gives_the_serial_result(self):
        def threaded(fn, items):
            with ThreadPoolExecutor(max_workers=2) as ex:
                return list(ex.map(fn, items))

        window = Window.with_margin(4.5)
        serial = voronoi_thresholds(1.0, window, 12, 7, "threads")
        assert np.array_equal(
            voronoi_thresholds(1.0, window, 12, 7, "threads",
                               mapper=threaded), serial)
        assert np.array_equal(serial, [
            whole_complex_voronoi_threshold(1.0, window, 7, "threads", rep)
            for rep in range(12)])
