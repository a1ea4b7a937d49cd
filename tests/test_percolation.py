import numpy as np
import pytest

from hyperperc.hypvoronoi import Window
from hyperperc.percolation import (
    BondConfig,
    InsufficientData,
    NoCrossing,
    bernoulli_bond,
    bond_thresholds,
    connectivity_decay,
    dual_config,
    estimate_pc,
    label_clusters,
    reach_curve,
    tiling_instance,
    tiling_signature_sweep,
    voronoi_instance,
    voronoi_signature_sweep,
    wilson_interval,
    SWEEP_HEADER,
    voronoi_replica,
)
from hyperperc.pointprocess import replica_rng, sample_colored
from hyperperc.tilinggraph import build_ball, dual_ball

from oracle_duality import center_to_boundary_cut, winding_dual_cycle_exists
from oracle_perc import bfs_labels


class TestBernoulli:
    def test_extremes(self):
        b = build_ball(3, 7, 3)
        assert bernoulli_bond(b, 1.0, 1).open_edges.all()
        assert not bernoulli_bond(b, 0.0, 1).open_edges.any()

    def test_open_fraction_concentrates(self):
        b = build_ball(3, 7, 5)
        c = bernoulli_bond(b, 0.3, 123)
        m = b.n_edges
        sd = np.sqrt(0.3 * 0.7 / m)
        assert abs(c.open_edges.mean() - 0.3) < 3 * sd

    def test_deterministic(self):
        b = build_ball(3, 7, 4)
        a = bernoulli_bond(b, 0.4, 9, replica=3)
        c = bernoulli_bond(b, 0.4, 9, replica=3)
        assert np.array_equal(a.open_edges, c.open_edges)

    def test_bad_p(self):
        b = build_ball(3, 7, 3)
        with pytest.raises(ValueError):
            bernoulli_bond(b, 1.5, 1)


class TestDualConfig:
    def test_empty_primal_gives_full_dual(self):
        b = build_ball(3, 7, 3)
        c = BondConfig(b, np.zeros(b.n_edges, dtype=bool), 0.0, 0)
        dc = dual_config(c)
        assert dc.open_edges.all()
        assert dc.p == 1.0

    def test_involution_on_dualizable_edges(self):
        b = build_ball(4, 5, 3)
        d = dual_ball(b)
        c = bernoulli_bond(b, 0.4, 7)
        back = dual_config(dual_config(c, d))
        has_dual = d.dual_edge_of >= 0
        assert np.array_equal(back.open_edges[has_dual], c.open_edges[has_dual])

    def test_dual_open_fraction(self):
        b = build_ball(3, 7, 5)
        d = dual_ball(b)
        c = bernoulli_bond(b, 0.3, 11)
        dc = dual_config(c, d)
        m = len(dc.open_edges)
        sd = np.sqrt(0.3 * 0.7 / m)
        assert abs(dc.open_edges.mean() - 0.7) < 3 * sd


class TestLabelClusters:
    def test_all_open_single_cluster(self):
        b = build_ball(3, 7, 3)
        lab = label_clusters(b.n_vertices, b.edges)
        assert (lab.labels == 0).all()
        assert lab.sizes == {0: b.n_vertices}

    def test_no_open_edge_all_singletons(self):
        b = build_ball(3, 7, 3)
        lab = label_clusters(
            b.n_vertices, b.edges, edge_open=np.zeros(b.n_edges, dtype=bool)
        )
        assert np.array_equal(lab.labels, np.arange(b.n_vertices))

    def test_closed_sites_unlabeled(self):
        b = build_ball(3, 7, 3)
        site_open = np.zeros(b.n_vertices, dtype=bool)
        lab = label_clusters(b.n_vertices, b.edges, site_open=site_open)
        assert (lab.labels == -1).all()
        assert lab.sizes == {}

    @pytest.mark.parametrize("trial", range(10))
    def test_matches_bfs_oracle(self, trial):
        rng = np.random.default_rng(1000 + trial)
        b = build_ball(3, 7, 4)
        edge_open = rng.random(b.n_edges) < 0.4
        site_open = rng.random(b.n_vertices) < 0.8
        lab = label_clusters(b.n_vertices, b.edges, edge_open, site_open)
        assert np.array_equal(
            lab.labels, bfs_labels(b.n_vertices, b.edges, edge_open, site_open)
        )

    def test_monotone_coupling_refines(self):
        # every cluster at p1 sits inside one cluster at p2 >= p1
        rng = np.random.default_rng(5)
        b = build_ball(3, 7, 4)
        u = rng.random(b.n_edges)
        lab1 = label_clusters(b.n_vertices, b.edges, edge_open=u < 0.2).labels
        lab2 = label_clusters(b.n_vertices, b.edges, edge_open=u < 0.5).labels
        parent_of = {}
        for l1, l2 in zip(lab1.tolist(), lab2.tolist()):
            assert parent_of.setdefault(l1, l2) == l2


class TestPhaseSignature:
    # per replica, (k, k_dual) at p = 0 and p = 1: nothing open on one
    # side means everything open on the other
    def test_full_and_empty(self):
        outputs = []
        tiling_signature_sweep(3, 7, 4, [0.0, 1.0], 5, 3,
                               mapper=TestSweeps.recording(outputs))
        assert outputs == [[(0, 1), (1, 0)]] * 5

    def test_voronoi_extremes(self):
        outputs = []
        voronoi_signature_sweep(1.0, [0.0, 1.0], Window.with_margin(4.0), 3, 3,
                                mapper=TestSweeps.recording(outputs))
        assert outputs == [[(0, 1), (1, 0)]] * 3


class TestReach:
    def test_extreme_levels(self):
        b = build_ball(3, 7, 4)
        inst = tiling_instance(b, core_radius=2)
        t = bond_thresholds(inst, 50, 77, "reach-test")
        f0, f1 = reach_curve(t, [0.0, 1.0])
        assert f0 == 0.0
        assert f1 == 1.0
        _, lo1, _ = wilson_interval(int(f1 * len(t)), len(t))
        assert lo1 > 0.9

    def test_curve_monotone(self):
        b = build_ball(3, 7, 4)
        inst = tiling_instance(b, core_radius=2)
        t = bond_thresholds(inst, 100, 78, "curve-test")
        grid = np.linspace(0, 1, 21)
        c = reach_curve(t, grid)
        assert (np.diff(c) >= 0).all()
        assert c[0] == 0.0 and c[-1] == 1.0

    def test_wilson_bounds(self):
        ph, lo, hi = wilson_interval(8, 10)
        assert 0 <= lo < ph < hi <= 1


class TestEstimatePc:
    def test_requires_ladder(self):
        with pytest.raises(ValueError):
            estimate_pc([(1, np.array([0.5]))], np.linspace(0, 1, 5))

    def test_smoke_on_tiling(self):
        pairs = []
        for L in (4, 5, 6):
            inst = tiling_instance(build_ball(3, 7, L), core_radius=0)
            pairs.append((L, bond_thresholds(inst, 250, 42, f"pc-smoke-{L}")))
        grid = np.arange(0.04, 0.62, 0.02)
        est = estimate_pc(pairs, grid, bootstrap_seed=1)
        assert 0.05 < est.value < 0.45
        assert est.ci_lo <= est.value <= est.ci_hi
        assert len(est.crossings) == 2

    def test_no_crossing_raises(self):
        pairs = []
        for L in (4, 5, 6):
            inst = tiling_instance(build_ball(3, 7, L), core_radius=0)
            pairs.append((L, bond_thresholds(inst, 100, 42, f"pc-smoke-{L}")))
        # deep supercritical grid: all curves saturated, no sign change
        with pytest.raises(NoCrossing, match="sizes 4 and 5 do not cross"
                           r".*difference runs from 1 to 1;"):
            estimate_pc(pairs, np.arange(0.7, 0.96, 0.05), bootstrap_seed=1)

    def test_unstable_bootstrap_names_the_count(self):
        pairs = [(1, np.array([0.64, 0.27, 0.04])),
                 (2, np.array([0.02, 0.81, 0.91])),
                 (3, np.array([0.61, 0.73, 0.54]))]
        with pytest.raises(NoCrossing, match="87 of 200 resamples cross"):
            estimate_pc(pairs, np.linspace(0, 1, 11), bootstrap_seed=1)


class TestPrimalDualExclusivity:
    @pytest.mark.parametrize("p", [0.15, 0.35, 0.5, 0.65, 0.85])
    def test_no_coexistence(self, p):
        # an open primal center-to-shell path and an open dual cycle
        # winding around the center exclude each other
        ball = build_ball(3, 7, 3)
        dual = dual_ball(ball)
        inst = tiling_instance(ball, core_radius=0)
        cut = center_to_boundary_cut(ball)
        for rep in range(120):
            c = bernoulli_bond(ball, p, 321, "exclusivity", rep)
            lab = label_clusters(inst.n, inst.edges, edge_open=c.open_edges,
                                 core=inst.core, shell=inst.shell)
            primal_reach = lab.k_proxy >= 1
            dc = dual_config(c, dual)
            winding = winding_dual_cycle_exists(ball, dual, dc.open_edges, cut)
            assert not (primal_reach and winding)


class TestSweeps:
    def test_tiling_sweep_rows(self):
        sw = tiling_signature_sweep(3, 7, 6, [0.05, 0.5, 0.95], 30, 99)
        text = sw.to_csv()
        lines = text.splitlines()
        assert lines[0] == SWEEP_HEADER
        assert len(lines) == 4
        rows = {r.p: r for r in sw.rows}
        assert rows[0.95].kw >= 0.9
        assert rows[0.95].kb <= 0.1
        assert rows[0.05].kb >= 0.9
        assert rows[0.05].theta <= 0.2

    def test_voronoi_sweep_rows(self):
        sw = voronoi_signature_sweep(1.0, [0.1, 0.9], Window.with_margin(4.0), 15, 99)
        rows = {r.p: r for r in sw.rows}
        assert rows[0.9].kw >= 0.9
        assert rows[0.1].kb >= 0.9
        assert all(0 <= r.theta <= 1 for r in sw.rows)

    @staticmethod
    def recording(outputs):
        def mapper(fn, items):
            for item in items:
                outputs.append(fn(item))
                yield outputs[-1]
        return mapper

    P_UNSORTED = [0.5, 0.1, 0.3]

    def test_tiling_sweep_matches_labels(self):
        # the forward and reverse filtration passes give, per replica and
        # in the caller's p order, the counts of fresh labelings at each p
        outputs = []
        tiling_signature_sweep(3, 7, 4, self.P_UNSORTED, 6, 17,
                               mapper=self.recording(outputs))
        ball = build_ball(3, 7, 4)
        dual = dual_ball(ball)
        inst = tiling_instance(ball, 2)
        dinst = tiling_instance(dual, 2)
        for rep, got in enumerate(outputs):
            u = replica_rng(17, "sweep-3-7-L4", rep).random(len(inst.edges))
            want = [
                (label_clusters(inst.n, inst.edges, edge_open=u < p,
                                core=inst.core, shell=inst.shell).k_proxy,
                 label_clusters(dinst.n, dinst.edges,
                                edge_open=u[dual.primal_edge] >= p,
                                core=dinst.core, shell=dinst.shell).k_proxy)
                for p in self.P_UNSORTED
            ]
            assert got == want
        assert any(k != (0, 0) for got in outputs for k in got)

    def test_voronoi_sweep_matches_labels(self):
        window = Window.with_margin(3.5)
        outputs = []
        voronoi_signature_sweep(1.0, self.P_UNSORTED, window, 4, 17,
                                mapper=self.recording(outputs))
        for rep, got in enumerate(outputs):
            V, u = voronoi_replica(1.0, window, 17, "vorsweep-lam1-Rw3.5", rep)
            inst = voronoi_instance(V, window.R_window)
            want = [
                tuple(label_clusters(inst.n, inst.edges, site_open=side,
                                     core=inst.core, shell=inst.shell).k_proxy
                      for side in (u < p, u >= p))
                for p in self.P_UNSORTED
            ]
            assert got == want
        assert any(k != (0, 0) for got in outputs for k in got)

    def test_sweep_deterministic(self):
        a = tiling_signature_sweep(3, 7, 3, [0.3], 10, 5).to_csv()
        b = tiling_signature_sweep(3, 7, 3, [0.3], 10, 5).to_csv()
        assert a == b

    def test_voronoi_replica_reads_the_sample_colored_stream(self):
        window = Window.with_margin(3.0)
        V, u = voronoi_replica(1.0, window, 42, "stream", 3)
        assert len(u) == V.n_nuclei
        for p in (0.3, 0.5, 1.0):
            pts = sample_colored(1.0, p, window.R_sample, 42, "stream", 3)
            assert np.array_equal(V.points.rho, pts.rho)
            assert np.array_equal(V.points.theta, pts.theta)
            assert np.array_equal(pts.white, u < p)


class TestDecay:
    def test_distance_zero_is_certain(self):
        b = build_ball(3, 7, 5)
        fit = connectivity_decay(b, 0.3, [0, 1, 2], 200, 7)
        assert fit.tau[0] == 1.0

    def test_p_zero_insufficient(self):
        b = build_ball(3, 7, 5)
        with pytest.raises(InsufficientData):
            connectivity_decay(b, 0.0, [1, 2, 3], 50, 7)

    def test_subcritical_fit(self):
        b = build_ball(3, 7, 7)
        fit = connectivity_decay(b, 0.15, range(1, 6), 3000, 11)
        assert fit.slope < 0
        assert fit.a_hat < 1
        assert fit.r_squared > 0.9
