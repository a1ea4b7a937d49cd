import numpy as np
import pytest

from hyperperc import _kernels as K
from hyperperc.graphs import csr_adjacency

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

    def test_backends_agree(self):
        rng = np.random.default_rng(7)
        for trial in range(10):
            n, edges = random_instance(rng)
            edge_open = rng.random(len(edges)) < 0.5
            site_open = rng.random(n) < 0.7
            eu = np.ascontiguousarray(edges[:, 0])
            ev = np.ascontiguousarray(edges[:, 1])
            a = K.label_clusters_kernel(n, eu, ev, edge_open, site_open)
            b = K.label_clusters_py(n, eu, ev, edge_open, site_open)
            assert np.array_equal(a, b)


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
            u, np.argsort(u), core, shell,
        )
        want = self.brute_bond_threshold(n, edges, u, core, shell)
        assert got == pytest.approx(want)

    @pytest.mark.parametrize("trial", range(15))
    def test_site_threshold_matches_brute_force(self, trial):
        rng = np.random.default_rng(300 + trial)
        n, edges = random_instance(rng, max_n=30)
        u = rng.random(n)
        core = np.zeros(n, dtype=bool)
        shell = np.zeros(n, dtype=bool)
        core[0] = True
        shell[n - 1] = True
        indptr, indices, _ = csr_adjacency(n, edges)
        got = K.site_reach_threshold(
            n, indptr, indices, u, np.argsort(u), core, shell
        )
        want = self.brute_site_threshold(n, edges, u, core, shell)
        assert got == pytest.approx(want)

    def test_reach_backends_agree(self):
        rng = np.random.default_rng(11)
        for trial in range(8):
            n, edges = random_instance(rng, max_n=40)
            ub = rng.random(len(edges))
            us = rng.random(n)
            core = np.zeros(n, dtype=bool)
            shell = np.zeros(n, dtype=bool)
            core[0] = True
            shell[n - 1] = True
            eu = np.ascontiguousarray(edges[:, 0])
            ev = np.ascontiguousarray(edges[:, 1])
            assert K.bond_reach_threshold(
                n, eu, ev, ub, np.argsort(ub), core, shell
            ) == K.bond_reach_threshold_py(n, eu, ev, ub, np.argsort(ub), core, shell)
            indptr, indices, _ = csr_adjacency(n, edges)
            assert K.site_reach_threshold(
                n, indptr, indices, us, np.argsort(us), core, shell
            ) == K.site_reach_threshold_py(
                n, indptr, indices, us, np.argsort(us), core, shell
            )

