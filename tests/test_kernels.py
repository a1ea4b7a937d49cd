import numpy as np
import pytest

from hyperperc import _kernels as K

from oracle_perc import bfs_labels, reach_at_level, site_reach_at_level


def random_instance(rng, max_n=60):
    n = int(rng.integers(2, max_n))
    m = int(rng.integers(1, 3 * n))
    edges = rng.integers(0, n, size=(m, 2))
    edges = edges[edges[:, 0] != edges[:, 1]]
    if len(edges) == 0:
        edges = np.array([[0, 1]])
    edges = np.sort(edges, axis=1)
    edges = np.unique(edges, axis=0)
    return n, edges


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
            first, counts = K.filtration(n, eu, ev, o, core, shell, c)
            for j, pj in enumerate(p):
                edge_open = levels >= pj if reverse else levels < pj
                labels = bfs_labels(n, edges, edge_open, np.ones(n, bool))
                assert counts[j] == k_proxy(labels, core, shell)
            # first: the edge that ends the shortest prefix of the order
            # with a positive count, looked for up to the largest cut
            prefix = [k_proxy(bfs_labels(n, edges, np.isin(np.arange(m), o[:i]),
                                         np.ones(n, bool)), core, shell)
                      for i in range(c.max() + 1)]
            positive = [i for i, k in enumerate(prefix) if k > 0]
            assert first == (positive[0] - 1 if positive else m)
            if (core & shell).any():
                assert first == -1
                assert K.bond_reach_threshold(
                    n, eu, ev, levels, core, shell) == 0.0

    def test_path_by_hand(self):
        # a path 0-1-2-3 with the core at 0 and the shell at 3; the edge
        # (1, 2), third in the order, joins them
        eu = np.array([0, 1, 2])
        ev = np.array([1, 2, 3])
        core = np.array([True, False, False, False])
        shell = np.array([False, False, False, True])
        order = np.array([2, 0, 1])
        first, counts = K.filtration(4, eu, ev, order, core, shell, K._NO_CUTS)
        assert first == 2 and len(counts) == 0
        first, counts = K.filtration(4, eu, ev, order, core, shell,
                                     np.array([3, 0, 2, 1]))
        assert first == 2 and counts.tolist() == [1, 0, 0, 0]
        first, _ = K.filtration(4, eu, ev, order[:1], core, shell, K._NO_CUTS)
        assert first == 1    # never joined: len(order)


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
        got = K.bond_reach_threshold(
            n, np.ascontiguousarray(edges[:, 0]), np.ascontiguousarray(edges[:, 1]),
            u, core, shell,
        )
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
        got = K.site_reach_threshold(
            n, np.ascontiguousarray(edges[:, 0]),
            np.ascontiguousarray(edges[:, 1]), u, core, shell,
        )
        want = self.brute_site_threshold(n, edges, u, core, shell)
        assert got == pytest.approx(want)
