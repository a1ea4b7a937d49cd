"""Acceptance suite: one test per release criterion.

Each test prints a single [PASS]/[FAIL] line (to the real stderr, so it
shows under pytest capture) and asserts the criterion.  Tolerances are
pinned here and nowhere else.
"""

import math
import sys
import time

import numpy as np
import pytest

from hyperperc.cli import main, make_mapper, pc_upper_bound
from hyperperc.densities import density_experiment
from hyperperc.hypgeo import (
    DegenerateError,
    GeodesicPolygon,
    HPoint,
    Isometry,
    apply,
    circumcenter,
    dist,
    polygon_area,
)
from hyperperc.hypvoronoi import Window, delaunay
from hyperperc.percolation import (
    ClusterLabeling,
    connectivity_decay,
    label_clusters,
    tiling_instance,
    tiling_pc,
    tiling_pu,
    voronoi_pc,
    voronoi_signature_sweep,
)
from hyperperc._kernels import label_clusters_kernel
from hyperperc.pointprocess import replica_rng
from hyperperc.tilinggraph import build_ball, dual_ball

from oracle_perc import bfs_labels
from test_hypvoronoi import brute_force_delaunay_faces, small_sample

SEED = 42
MAPPER = make_mapper(4)


def report(name, checks, capfd=None):
    ok = all(c for c, _ in checks)
    detail = "; ".join(m for _, m in checks)
    line = f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}"
    if capfd is not None:
        with capfd.disabled():
            print(line, file=sys.stderr, flush=True)
    else:
        print(line, file=sys.__stderr__, flush=True)
    assert ok, line


def _oriented(points):
    try:
        poly = GeodesicPolygon(points)
        return polygon_area(poly)
    except DegenerateError:
        return polygon_area(GeodesicPolygon(points[::-1]))


def _midpoint(a: HPoint, b: HPoint) -> HPoint:
    t = Isometry(1.0 + 0j, -a.disk)
    w = t.apply_disk(b.disk)
    r = abs(w)
    m_local = (w / r) * math.tanh(0.5 * math.atanh(r))
    return HPoint.from_disk(t.inverse().apply_disk(m_local))


def test_criterion_1_geometry_exactness(capfd):
    rng = np.random.default_rng(1)
    t0 = time.monotonic()
    tol = 1e-8
    worst = {"tri": 0.0, "iso": 0.0, "equi": 0.0, "subdiv": 0.0}
    cases = 0
    while cases < 1000:
        pts = [HPoint(rng.uniform(0.05, 6.0), rng.uniform(0.0, 2 * math.pi))
               for _ in range(3)]
        a, b, c = pts
        g = (Isometry.rotation(rng.uniform(0, 2 * math.pi))
             @ Isometry.translation_to(
                 HPoint(rng.uniform(0, 3), rng.uniform(0, 2 * math.pi))))
        try:
            worst["tri"] = max(
                worst["tri"], dist(a, c) - dist(a, b) - dist(b, c))
            worst["iso"] = max(
                worst["iso"], abs(dist(apply(g, a), apply(g, b)) - dist(a, b)))
            cc = circumcenter(a, b, c)
            if cc is not None:
                d3 = [dist(cc, x) for x in pts]
                worst["equi"] = max(worst["equi"], max(d3) - min(d3))
            m = _midpoint(b, c)
            whole = _oriented([a, b, c])
            parts = _oriented([a, b, m]) + _oriented([a, m, c])
            worst["subdiv"] = max(worst["subdiv"], abs(whole - parts))
        except DegenerateError:
            continue
        cases += 1
    elapsed = time.monotonic() - t0
    report("criterion-1 geometry-exactness", [
        (worst["tri"] <= tol, f"triangle-inequality worst {worst['tri']:.2e}"),
        (worst["iso"] <= tol, f"isometry-invariance worst {worst['iso']:.2e}"),
        (worst["equi"] <= tol, f"circumcenter-equidistance worst {worst['equi']:.2e}"),
        (worst["subdiv"] <= tol, f"area-subdivision worst {worst['subdiv']:.2e}"),
        (elapsed < 10.0, f"{cases} cases in {elapsed:.1f}s < 10s"),
    ], capfd)


def test_criterion_2_delaunay_oracle_equivalence(capfd):
    t0 = time.monotonic()
    mismatches = 0
    for rep in range(50):
        pts = small_sample(1.0, rep)
        V = delaunay(pts)
        oracle_faces = brute_force_delaunay_faces(pts.disk_xy)
        oracle_edges = set()
        for f in oracle_faces:
            i, j, k = sorted(f)
            oracle_edges |= {(i, j), (i, k), (j, k)}
        got = {tuple(sorted(e)) for e in V.delaunay_edges.tolist()}
        if got != oracle_edges:
            mismatches += 1
    elapsed = time.monotonic() - t0
    report("criterion-2 delaunay-oracle", [
        (mismatches == 0, f"50 samples, {mismatches} edge-set mismatches"),
        (elapsed < 60.0, f"{elapsed:.1f}s < 60s"),
    ], capfd)


def test_criterion_3_density_identities(capfd):
    checks = []
    for lam in (0.5, 1.0):
        est = density_experiment(lam, Window(R_sample=7.0, R_window=5.0),
                                 300, SEED, mapper=MAPPER)
        dv_target = 2 * lam + 1 / math.pi
        checks += [
            (abs(est.D_V_hat - dv_target) < 3 * est.D_V_se,
             f"lam={lam} DV {est.D_V_hat:.4f} vs {dv_target:.4f} "
             f"(3SE {3 * est.D_V_se:.4f})"),
            (abs(est.D_F_hat_count - lam) < 3 * est.D_F_count_se,
             f"DF-count {est.D_F_hat_count:.4f} vs {lam}"),
            (abs(est.D_F_hat_inverse_area - lam) < 3 * est.D_F_inv_se,
             f"DF-invarea {est.D_F_hat_inverse_area:.4f} vs {lam}"),
            (abs(est.euler + 1.0) < 3 * est.euler_se,
             f"euler {est.euler:.4f} vs -1 (3SE {3 * est.euler_se:.4f})"),
        ]
    report("criterion-3 density-identities", checks, capfd)


def test_criterion_4_half_is_critical(capfd):
    sw = voronoi_signature_sweep(1.0, [0.5], Window.with_margin(6.0), 200,
                                 SEED, mapper=MAPPER)
    r = sw.rows[0]
    report("criterion-4 half-critical", [
        (r.theta >= 0.9, f"white reach {r.theta:.3f} >= 0.9"),
        (r.theta_b >= 0.9, f"black reach {r.theta_b:.3f} >= 0.9"),
        (r.kw >= 2.0, f"mean white crossings {r.kw:.2f} >= 2"),
        (r.kb >= 2.0, f"mean black crossings {r.kb:.2f} >= 2"),
    ], capfd)


# ladder of window radii per intensity: windows sized so each rung holds
# a comparable expected number of cells across intensities
PC_LADDERS = {
    0.25: (4.5, 5.5, 6.5),
    0.5: (4.0, 5.0, 6.0),
    1.0: (3.5, 4.5, 5.5),
    2.0: (3.0, 4.0, 5.0),
}


def test_criterion_5_pc_lambda_bounds(capfd):
    t0 = time.monotonic()
    grid = np.arange(0.04, 0.72, 0.02)
    ests = {}
    checks = []
    for lam, ladder in sorted(PC_LADDERS.items()):
        est = voronoi_pc(lam, ladder, grid, 400, SEED, mapper=MAPPER)
        ests[lam] = est
        bound = pc_upper_bound(lam)
        checks += [
            (est.ci_hi <= bound + 0.02,
             f"lam={lam} ci_hi {est.ci_hi:.3f} <= bound {bound:.3f}+0.02"),
            (est.ci_lo >= 0.02, f"ci_lo {est.ci_lo:.3f} >= 0.02"),
        ]
    lams = sorted(ests)
    for lo, hi in zip(lams, lams[1:]):
        ratio = lo / hi
        a, b = ests[lo], ests[hi]
        checks.append((
            a.ci_lo * ratio <= b.ci_hi
            and b.ci_lo <= 1.0 - (1.0 - a.ci_hi) * ratio,
            f"sandwich {lo}->{hi} ok",
        ))
    elapsed = time.monotonic() - t0
    checks.append((elapsed < 3600.0, f"{elapsed:.0f}s < 1h"))
    report("criterion-5 pc-lambda-bounds", checks, capfd)


@pytest.fixture(scope="module")
def heptagonal_estimates():
    pc37 = tiling_pc(3, 7, (5, 6, 7), np.arange(0.04, 0.62, 0.02), 600,
                     SEED, mapper=MAPPER)
    pu37 = tiling_pu(3, 7, (5, 6, 7), np.arange(0.3, 0.96, 0.02), 600,
                     SEED, mapper=MAPPER)
    pc73 = tiling_pc(7, 3, (5, 6, 7), np.arange(0.3, 0.96, 0.02), 600,
                     SEED, mapper=MAPPER)
    return pc37, pu37, pc73


def _signature_frequencies(p_values, replicas):
    """Per-replica joint (k, k_dual) frequencies on the {3,7} layer-7 ball,
    with coupled uniforms across p."""
    ball = build_ball(3, 7, 7)
    dual = dual_ball(ball)
    inst = tiling_instance(ball, core_radius=2)
    dinst = tiling_instance(dual, core_radius=2)
    eu = np.ascontiguousarray(inst.edges[:, 0])
    ev = np.ascontiguousarray(inst.edges[:, 1])
    deu = np.ascontiguousarray(dinst.edges[:, 0])
    dev = np.ascontiguousarray(dinst.edges[:, 1])
    ones = np.ones(inst.n, dtype=bool)
    dones = np.ones(dinst.n, dtype=bool)

    def one(rep):
        rng = replica_rng(SEED, "acceptance-signature", rep)
        u = rng.random(len(eu))
        ud = u[dual.primal_edge]
        out = []
        for p in p_values:
            k = ClusterLabeling(
                label_clusters_kernel(inst.n, eu, ev, u < p, ones),
                core=inst.core, shell=inst.shell).k_proxy
            kd = ClusterLabeling(
                label_clusters_kernel(dinst.n, deu, dev, ud >= p, dones),
                core=dinst.core, shell=dinst.shell).k_proxy
            out.append((k, kd))
        return out

    pairs = {p: [] for p in p_values}
    for row in MAPPER(one, range(replicas)):
        for p, pair in zip(p_values, row):
            pairs[p].append(pair)
    return pairs


def test_criterion_6_trichotomy_and_duality(heptagonal_estimates, capfd):
    pc37, pu37, pc73 = heptagonal_estimates
    checks = [
        (pc37.ci_hi >= 1 / 6,
         f"pc {pc37.value:.4f} CI[{pc37.ci_lo:.3f},{pc37.ci_hi:.3f}] "
         f"reaches 1/6"),
        (pc37.ci_hi < pu37.ci_lo,
         f"pc CI < pu CI ({pc37.ci_hi:.3f} < {pu37.ci_lo:.3f}), "
         f"pu {pu37.value:.4f}"),
        (abs(pc73.value + pu37.value - 1.0) <= 0.05,
         f"|pc(dual tiling) + pu - 1| = "
         f"{abs(pc73.value + pu37.value - 1.0):.4f} <= 0.05"),
    ]
    grid = np.arange(0.04, 0.62, 0.02)
    p_mid = float(grid[np.argmin(np.abs(grid - (pc37.value + pu37.value) / 2))])
    pairs = _signature_frequencies([0.05, p_mid, 0.9], 200)
    f_01 = np.mean([kk == (0, 1) for kk in pairs[0.05]])
    f_10 = np.mean([kk == (1, 0) for kk in pairs[0.9]])
    f_many = np.mean([k >= 2 and kd >= 2 for k, kd in pairs[p_mid]])
    checks += [
        (f_10 >= 0.9, f"freq(1,0) at p=0.9: {f_10:.3f} >= 0.9"),
        (f_01 >= 0.9, f"freq(0,1) at p=0.05: {f_01:.3f} >= 0.9"),
        (f_many >= 0.5,
         f"both-many at p={p_mid:.2f} (mid of pc,pu): {f_many:.3f} >= 0.5"),
    ]
    report("criterion-6 trichotomy-duality", checks, capfd)


def test_criterion_7_connectivity_decay(capfd):
    fit = connectivity_decay(build_ball(3, 7, 8), 0.15, range(1, 9), 10_000,
                             SEED, mapper=MAPPER)
    report("criterion-7 connectivity-decay", [
        (fit.slope < 0, f"slope {fit.slope:.3f} < 0"),
        (fit.r_squared >= 0.95, f"R^2 {fit.r_squared:.4f} >= 0.95"),
    ], capfd)


def test_criterion_8_engineering_determinism(tmp_path, capfd):
    def run(d, threads):
        d.mkdir()
        out = d / "out.csv"
        rc = main(["phase-sweep", "--lambda", "1", "--p", "0.3,0.6",
                   "--R", "3.5", "--replicas", "20", "--seed", str(SEED),
                   "--threads", str(threads), "-o", str(out)])
        assert rc == 0
        return out.read_bytes()

    runs = [run(tmp_path / name, threads)
            for name, threads in (("a", 1), ("b", 1), ("c", 4))]
    identical = runs[0] == runs[1] == runs[2]

    rng = np.random.default_rng(8)
    mismatches = 0
    for _ in range(100):
        n = int(rng.integers(2, 501))
        m = int(rng.integers(1, 4 * n))
        edges = rng.integers(0, n, size=(m, 2))
        edges = edges[edges[:, 0] != edges[:, 1]]
        if len(edges) == 0:
            edges = np.array([[0, 1]])
        edge_open = rng.random(len(edges)) < rng.uniform(0.1, 0.9)
        site_open = rng.random(n) < rng.uniform(0.5, 1.0)
        got = label_clusters(n, edges, edge_open, site_open).labels
        want = bfs_labels(n, edges, edge_open, site_open)
        if not np.array_equal(got, want):
            mismatches += 1
    report("criterion-8 engineering-determinism", [
        (identical, "CLI byte-identical across reruns and threads {1,4}"),
        (mismatches == 0,
         f"union-find vs BFS: {mismatches} mismatches on 100 instances"),
    ], capfd)
