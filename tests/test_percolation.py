import numpy as np
import pytest

from hyperperc.hypgeo import InvalidInput
from hyperperc.hypvoronoi import Window
from hyperperc.percolation import (
    InsufficientData,
    NoCrossing,
    _bootstrap_draws,
    _crossings,
    _median,
    _pass_counts,
    _percentiles,
    bond_thresholds,
    connectivity_decay,
    estimate_pc,
    label_clusters,
    pu_from_dual_pc,
    reach_curve,
    tiling_instance,
    tiling_pc,
    tiling_signature_sweep,
    voronoi_instance,
    voronoi_pc,
    voronoi_signature_sweep,
    voronoi_thresholds,
    wilson_interval,
    SWEEP_HEADER,
    voronoi_replica,
)
from hyperperc.graphs import bfs_distances
from hyperperc.pointprocess import replica_rng
from hyperperc.tilinggraph import build_ball, dual_ball

from oracle_duality import center_to_boundary_cut, winding_dual_cycle_exists
from oracle_perc import (
    bfs_labels,
    bootstrap_draws_loop,
    crossing_loop,
    estimate_pc_loop,
    reach_at_level,
)
from oracle_tree import tree_theta


def one_crossing(curve_small, curve_large, p_grid):
    """_crossings on the one row curve_large - curve_small: the crossing,
    or None where it has none."""
    d = np.asarray(curve_large) - np.asarray(curve_small)
    x = _crossings(d[None], np.asarray(p_grid))[0]
    return None if np.isnan(x) else float(x)


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


class TestTilingInstance:
    @pytest.mark.parametrize("p_gon,q_deg", [(3, 7), (7, 3), (4, 5)])
    @pytest.mark.parametrize("dual", [False, True])
    def test_masks_equal_the_full_bfs(self, p_gon, q_deg, dual):
        # the BFS stops at the core radius; a full one gives the same core
        ball = build_ball(p_gon, q_deg, 5)
        host = dual_ball(ball) if dual else ball
        dist = bfs_distances(host.n_vertices, host.edges, 0)
        shell = ~host.interior_vertex_mask
        for radius in range(4):
            inst = tiling_instance(host, radius)
            core = (dist >= 0) & (dist <= radius) & ~shell
            np.testing.assert_array_equal(inst.core, core)
            np.testing.assert_array_equal(inst.shell, shell)


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

    def test_counts_never_reached_and_bootstrap_acceptance(self):
        # 2.0 marks a replica whose core never reached the shell
        pairs = [(1, np.array([0.94, 0.13, 0.78, 0.08, 0.42, 0.07, 2.0])),
                 (2, np.array([0.55, 0.76, 0.25, 0.93, 0.74, 0.18])),
                 (3, np.array([0.35, 0.58, 0.7, 0.88, 0.03, 0.57, 2.0, 2.0]))]
        est = estimate_pc(pairs, np.linspace(0, 1, 11), bootstrap_seed=1)
        assert est.never_reached == (1, 0, 2)
        assert est.bootstrap_accepted == 107 / 200
        pu = pu_from_dual_pc(est)
        assert pu.value == 1.0 - est.value
        assert pu.never_reached == est.never_reached
        assert pu.bootstrap_accepted == est.bootstrap_accepted

    @pytest.mark.parametrize("order", ["reversed", "shuffled", "repeated"])
    def test_refuses_a_grid_that_is_not_strictly_increasing(self, order):
        # the crossing interpolates between neighbouring grid points
        pairs = [(1, np.array([0.94, 0.13, 0.78, 0.08, 0.42, 0.07])),
                 (2, np.array([0.55, 0.76, 0.25, 0.93, 0.74, 0.18])),
                 (3, np.array([0.35, 0.58, 0.7, 0.88, 0.03, 0.57]))]
        grid = np.linspace(0, 1, 11)
        bad = {"reversed": grid[::-1],
               "shuffled": np.random.default_rng(1).permutation(grid),
               "repeated": np.concatenate([grid[:5], grid[4:]])}[order]
        with pytest.raises(ValueError, match="strictly increasing"):
            estimate_pc(pairs, bad, bootstrap_seed=1)


LADDER_GRID = np.arange(0.1, 0.9, 0.1)


@pytest.mark.parametrize("layers,radii,grid,message", [
    ((7, 6, 5), (5.5, 4.5, 3.5), LADDER_GRID,
     r"at least 3 strictly increasing sizes, got (7,6,5|5\.5,4\.5,3\.5)$"),
    ((5, 6), (3.5, 4.5), LADDER_GRID,
     r"at least 3 strictly increasing sizes, got (5,6|3\.5,4\.5)$"),
    ((5, 6, 7), (3.5, 4.5, 5.5), [0.1, 0.3, 0.2],
     "p-grid must be strictly increasing, got 0.3 then 0.2"),
    ((5, 6, 7), (3.5, 4.5, 5.5), [0.1, 0.2, 0.2, 0.3],
     "p-grid must be strictly increasing, got 0.2 then 0.2"),
], ids=["decreasing", "two-sizes", "grid-down", "grid-repeats"])
def test_estimates_refuse_a_bad_ladder_before_the_first_replica(
        layers, radii, grid, message):
    calls = []

    def counting(fn, items):
        calls.append(fn)
        return map(fn, items)

    with pytest.raises(InvalidInput, match=message):
        tiling_pc(3, 7, layers, grid, 5, 1, mapper=counting)
    with pytest.raises(InvalidInput, match=message):
        voronoi_pc(1.0, radii, grid, 5, 1, mapper=counting)
    assert calls == []


def test_estimates_refuse_an_oversized_top_rung_before_the_first_build(
        monkeypatch):
    # the top rung's vertex budget and nuclei budget are checked before
    # any ball is built or any sample drawn
    import hyperperc.percolation as P
    from hyperperc.hypgeo import CapExceeded
    from hyperperc.tilinggraph import TooLarge

    built = []

    def spy(name):
        fn = getattr(P, name)

        def call(*args, **kwargs):
            built.append(name)
            return fn(*args, **kwargs)
        return call

    for name in ("build_ball", "dual_ball", "sample_poisson_ball"):
        monkeypatch.setattr(P, name, spy(name))
    with pytest.raises(TooLarge, match=r"round 15 of the \{3,7\} ball"):
        tiling_pc(3, 7, (5, 6, 40), LADDER_GRID, 400, 42)
    with pytest.raises(TooLarge, match=r"of the \{3,7\} ball"):
        P.tiling_pu(3, 7, (5, 6, 40), LADDER_GRID, 400, 42)
    with pytest.raises(CapExceeded, match="got R=12.5$"):
        voronoi_pc(1.0, (3.5, 4.5, 10.5), LADDER_GRID, 100, 42)
    with pytest.raises(CapExceeded, match="nuclei budget"):
        voronoi_pc(8.0, (3.5, 4.5, 9.5), LADDER_GRID, 100, 42)
    assert built == []


class TestBootstrapOracle:
    """estimate_pc against the loop over resamples of
    tests/oracle_perc.py: same draws, same crossings, same floats."""

    GRID = np.round(np.arange(0.02, 0.98, 0.02), 2)

    @staticmethod
    def outcome(estimate, pairs, grid, seed):
        try:
            e = estimate(pairs, grid, seed)
        except NoCrossing as exc:
            return str(exc)
        if isinstance(e, tuple):
            return e
        return (e.value, e.ci_lo, e.ci_hi, e.crossings, e.bootstrap_accepted)

    @staticmethod
    def ladder(rng):
        # 3-5 sizes with their own replica counts; thresholds rounded to
        # the grid's step (ties with grid points) and some never reached
        sizes = np.sort(rng.choice(np.arange(2, 12), rng.integers(3, 6),
                                   replace=False))
        pairs = []
        for j, size in enumerate(sizes):
            n = int(rng.integers(20, 121))
            t = np.round(rng.beta(1.5 + 0.5 * j, 4.0, n), 2)
            t[rng.random(n) < 0.05] = 2.0
            pairs.append((int(size), t))
        return pairs

    def test_equals_loop_on_random_ladders(self):
        rng = np.random.default_rng(2024)
        kinds = []
        for _ in range(40):
            pairs = self.ladder(rng)
            seed = int(rng.integers(1000))
            got = self.outcome(estimate_pc, pairs, self.GRID, seed)
            assert got == self.outcome(estimate_pc_loop, pairs, self.GRID,
                                       seed)
            kinds.append(got[4] if isinstance(got, tuple) else "raised")
        # crossing ladders with and without rejected resamples, and
        # ladders that raise
        assert 1.0 in kinds and "raised" in kinds
        assert sum(0.5 <= k < 0.9 for k in kinds if k != "raised") >= 5

    @pytest.mark.parametrize("seed", [0, 7, 42])
    @pytest.mark.parametrize("counts", [(100, 100, 100), (20, 20, 20),
                                        (20, 37, 64), (3, 7, 101)])
    def test_one_draw_equals_the_loop_draws(self, seed, counts):
        # one integers call for all resamples and sizes reads the stream
        # of the loop that draws resample by resample, size by size
        rng = np.random.default_rng(seed + sum(counts))
        pairs = [(j + 2, np.round(rng.beta(1.5 + 0.5 * j, 4.0, n), 2))
                 for j, n in enumerate(counts)]
        draws = _bootstrap_draws(seed, [t for _, t in pairs])
        loop = bootstrap_draws_loop(seed, counts)
        assert [d.shape for d in draws] == [(200, n) for n in counts]
        for s, d in enumerate(draws):
            np.testing.assert_array_equal(d, [draw[s] for draw in loop])
        assert (self.outcome(estimate_pc, pairs, self.GRID, seed)
                == self.outcome(estimate_pc_loop, pairs, self.GRID, seed))

    @pytest.mark.parametrize("pairs,grid,message", [
        ([(4, np.full(30, 0.05)), (5, np.full(40, 0.05)),
          (6, np.full(50, 0.05))],
         np.arange(0.7, 0.96, 0.05), "sizes 4 and 5 do not cross"),
        ([(1, np.array([0.64, 0.27, 0.04])),
          (2, np.array([0.02, 0.81, 0.91])),
          (3, np.array([0.61, 0.73, 0.54]))],
         np.linspace(0, 1, 11), "87 of 200 resamples cross"),
    ])
    def test_each_no_crossing_message_equals_loop(self, pairs, grid,
                                                  message):
        got = self.outcome(estimate_pc, pairs, grid, 1)
        assert message in got
        assert got == self.outcome(estimate_pc_loop, pairs, grid, 1)

    @pytest.mark.parametrize("p,q,dual,grid", [
        (3, 7, False, np.arange(0.04, 0.62, 0.02)),
        (3, 7, True, np.arange(0.3, 0.96, 0.02)),
        (7, 3, False, np.arange(0.3, 0.96, 0.02)),
    ])
    def test_equals_loop_on_tiling_thresholds(self, p, q, dual, grid):
        # the p_c and p_u estimates of criterion 6, scaled down: bins
        # gathered per resample give the loop's curves
        pairs = []
        for L in (5, 6, 7):
            ball = build_ball(p, q, L)
            inst = tiling_instance(dual_ball(ball) if dual else ball, 0)
            pairs.append((L, bond_thresholds(inst, 60, 42, f"boot-{L}")))
        for seed in (0, 42):
            got = self.outcome(estimate_pc, pairs, grid, seed)
            assert isinstance(got, tuple)
            assert got == self.outcome(estimate_pc_loop, pairs, grid, seed)

    def test_equals_loop_on_voronoi_thresholds(self):
        grid = np.round(np.arange(0.04, 0.72, 0.02), 2)
        pairs = [(w, voronoi_thresholds(1.0, Window.with_margin(w), 20, 42,
                                        f"boot-{w:g}"))
                 for w in (3.5, 4.5, 5.5)]
        for seed in (0, 42):
            got = self.outcome(estimate_pc, pairs, grid, seed)
            assert isinstance(got, tuple) and got[4] < 1.0
            assert got == self.outcome(estimate_pc_loop, pairs, grid, seed)

    def test_one_pair_crossing_equals_loop(self):
        rng = np.random.default_rng(5)
        grid = self.GRID
        for _ in range(200):
            small, large = np.round(rng.random((2, len(grid))), 1)
            assert (one_crossing(small, large, grid)
                    == crossing_loop(small, large, grid))


class TestMedianPercentiles:
    """estimate_pc's median and CI percentiles against np.median and
    np.percentile, bit for bit."""

    @staticmethod
    def samples(rng, shape):
        # continuous values, and values on a coarse grid with ties, as
        # crossings interpolated on a p-grid tie
        yield rng.random(shape)
        yield rng.normal(size=shape)
        yield np.round(rng.random(shape) * 4) / 7 - 2 / 7

    def test_one_sample_equals_numpy(self):
        rng = np.random.default_rng(30)
        for n in range(1, 210):
            for x in self.samples(rng, n):
                assert _median(x).tobytes() == np.median(x).tobytes()
                assert (_percentiles(x, (2.5, 97.5)).tobytes()
                        == np.percentile(x, [2.5, 97.5]).tobytes())

    def test_rows_equal_numpy(self):
        rng = np.random.default_rng(31)
        for n in range(1, 210):
            for x in self.samples(rng, (5, n)):
                assert (_median(x).tobytes()
                        == np.median(x, axis=1).tobytes())
        assert _median(np.empty((0, 3))).shape == (0,)

    def test_signed_zeros(self):
        # np.mean sums from +0.0, so a median of zeros is +0.0 whichever
        # zeros the sort puts in the middle; a percentile is the same
        # value as numpy's, but np.sort and numpy's partition may place
        # 0.0 and -0.0 in different orders
        rng = np.random.default_rng(32)
        for n in range(1, 210):
            x = rng.choice([-0.0, 0.0, 0.5], (5, n))
            assert (_median(x).tobytes()
                    == np.median(x, axis=1).tobytes())
            for row in x:
                assert _median(row).tobytes() == np.median(row).tobytes()
                np.testing.assert_array_equal(
                    _percentiles(row, (2.5, 97.5)),
                    np.percentile(row, [2.5, 97.5]))


def tree_edges(d, L):
    """The d-regular tree to depth L: the root 0 has d children, every
    other vertex d - 1.  Returns (n, edges, depth)."""
    edges, depth, frontier = [], [0], [0]
    for k in range(1, L + 1):
        nxt = []
        for v in frontier:
            for _ in range(d if v == 0 else d - 1):
                edges.append((v, len(depth)))
                nxt.append(len(depth))
                depth.append(k)
        frontier = nxt
    return len(depth), np.array(edges), np.array(depth)


class TestTreeOracle:
    """Exact reach curves of the d-regular tree (tests/oracle_tree.py)
    and the bias of the L * theta_L crossing on them."""

    # 0.05:0.95:0.005
    GRID = np.linspace(0.05, 0.95, 181)

    @pytest.mark.parametrize("d,L", [(3, 1), (3, 2), (4, 1)])
    def test_recursion_equals_enumeration(self, d, L):
        # sum over every open/closed configuration of the tree's edges
        n, edges, depth = tree_edges(d, L)
        core, shell = depth == 0, depth == L
        m = len(edges)
        p = np.array([0.2, 0.5, 0.7])
        want = np.zeros_like(p)
        for bits in range(2 ** m):
            closed = (bits >> np.arange(m)) & 1
            if reach_at_level(n, edges, closed.astype(float), core, shell,
                              0.5):
                k = m - int(closed.sum())
                want += p ** k * (1 - p) ** (m - k)
        np.testing.assert_allclose(tree_theta(d, L, p), want, rtol=1e-12)

    @pytest.mark.parametrize("d,want", [
        (3, [0.4171, 0.4352, 0.4477, 0.4567, 0.4635, 0.4687]),
        (4, [0.2844, 0.2957, 0.3033, 0.3088, 0.3128, 0.3159]),
    ])
    def test_crossing_is_biased_low(self, d, want):
        # pairs (4, 5) ... (9, 10): every crossing lies below the tree's
        # p_c = 1/(d - 1) and rises towards it with L
        grid = self.GRID
        got = [one_crossing(L * tree_theta(d, L, grid),
                            (L + 1) * tree_theta(d, L + 1, grid), grid)
               for L in range(4, 10)]
        assert got == pytest.approx(want, abs=5e-5)
        assert all(c < 1.0 / (d - 1) for c in got)
        assert all(a < b for a, b in zip(got, got[1:]))


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
            u = replica_rng(321, "exclusivity", rep).random(ball.n_edges)
            open_edges = u < p
            lab = label_clusters(inst.n, inst.edges, edge_open=open_edges,
                                 core=inst.core, shell=inst.shell)
            primal_reach = lab.k_proxy >= 1
            # a dual edge is open iff its primal edge is closed
            dual_open = ~open_edges[dual.primal_edge]
            winding = winding_dual_cycle_exists(ball, dual, dual_open, cut)
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

    @pytest.mark.parametrize("p_gon, q_deg", [(3, 7), (7, 3)])
    def test_dual_pass_takes_the_primal_order(self, p_gon, q_deg):
        # the primal edges in ascending u, restricted to those with a dual
        # edge, give the dual pass the counts of the dual's own sort
        ball = build_ball(p_gon, q_deg, 5)
        dual = dual_ball(ball)
        dinst = tiling_instance(dual, 2)
        p = np.linspace(0.05, 0.95, 19)
        rng = np.random.default_rng(19)
        for _ in range(100):
            u = rng.random(ball.n_edges)
            order = np.argsort(u)
            dual_order = dual.dual_edge_of[order]
            crossed = dual_order >= 0
            got = _pass_counts(dinst, dual_order[crossed], u[order][crossed],
                               p, reverse=True)
            du = u[dual.primal_edge]
            own = np.argsort(du)
            want = _pass_counts(dinst, own, du[own], p, reverse=True)
            np.testing.assert_array_equal(got, want)

    def test_sweep_deterministic(self):
        a = tiling_signature_sweep(3, 7, 3, [0.3], 10, 5).to_csv()
        b = tiling_signature_sweep(3, 7, 3, [0.3], 10, 5).to_csv()
        assert a == b

    def test_repeated_p_gets_the_row_of_a_single_p_sweep(self):
        # each position of the grid is its own row: the copies of a
        # repeated p must not pool their replicas
        grid = [0.1, 0.3, 0.3, 0.5]
        rows = tiling_signature_sweep(3, 7, 5, grid, 20, 42).rows
        for p, row in zip(grid, rows):
            alone = tiling_signature_sweep(3, 7, 5, [p], 20, 42).rows[0]
            assert row.replicas == 20
            assert row.to_line() == alone.to_line()
            assert (row.theta_b, row.unique_b) == (alone.theta_b,
                                                   alone.unique_b)


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

    def test_trials_cover_the_whole_sphere(self):
        b = build_ball(3, 7, 5)
        dist = bfs_distances(b.n_vertices, b.edges, 0)
        fit = connectivity_decay(b, 0.3, range(0, 5), 40, 7)
        sphere = np.array([np.count_nonzero(dist == d) for d in range(5)])
        assert fit.trials.tolist() == (40 * sphere).tolist()
        assert (fit.counts <= fit.trials).all()
        assert fit.counts[0] == 40
