"""Bernoulli percolation on tiling balls and Voronoi complexes.

Each replica draws one uniform mark per edge (or site), coupling all
levels p.  One union-find filtration (see _kernels) adds the edges in
order of their levels and counts the clusters joining the core to the
shell: its first event is the reach threshold p*, which gives the whole
reach curve theta_hat(p) = P[p* <= p] from one pass, and a forward and a
reverse pass give the phase signatures on a whole p-grid.  Critical
points are located where size-weighted reach curves of successive window
sizes cross: at criticality the center-to-shell reach probability decays
like 1/L (tree-like mean-field scaling), so L * theta_L(p) tends to 0
below, to a constant at, and to infinity above the critical level, and
successive sizes cross near it.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass

import numpy as np

from ._kernels import (
    bond_reach_threshold,
    filtration,
    label_clusters_kernel,
    site_reach_threshold,
)
from .graphs import bfs_distances, csr_adjacency
from .hypvoronoi import Window, core_cell_mask, delaunay, shell_cell_mask
from .pointprocess import ColoredPointSet, replica_rng, sample_poisson_ball
from .tilinggraph import DualBall, TilingBall, build_ball, dual_ball


class NoCrossing(RuntimeError):
    """Raised when reach curves of successive sizes never cross in the grid."""


class InsufficientData(RuntimeError):
    """Raised when too few positive connectivity frequencies remain to fit."""


# ---------------------------------------------------------------------------
# configurations


@dataclass
class BondConfig:
    """One realization of Bernoulli bond percolation on a (dual) tiling ball."""

    host: object               # TilingBall or DualBall
    open_edges: np.ndarray     # bool per edge
    p: float
    seed: int

    def __post_init__(self):
        if len(self.open_edges) != len(self.host.edges):
            raise ValueError("open_edges length must match host edge count")


def bernoulli_bond(host, p: float, seed: int, experiment: str = "bond",
                   replica: int = 0) -> BondConfig:
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must lie in [0, 1]")
    rng = replica_rng(seed, experiment, replica)
    return BondConfig(host, rng.random(len(host.edges)) < p, p, seed)


def dual_config(c: BondConfig, dual: DualBall | None = None) -> BondConfig:
    """Dual configuration: the dual edge is open iff its primal edge is closed."""
    if isinstance(c.host, DualBall):
        # back to the primal: primal edge open iff its dual (when present)
        # is closed; edges with no dual keep their mark unset (closed)
        primal = c.host.primal
        open_primal = np.zeros(len(primal.edges), dtype=bool)
        open_primal[c.host.primal_edge] = ~c.open_edges
        return BondConfig(primal, open_primal, 1.0 - c.p, c.seed)
    d = dual if dual is not None else dual_ball(c.host)
    return BondConfig(d, ~c.open_edges[d.primal_edge], 1.0 - c.p, c.seed)


# ---------------------------------------------------------------------------
# cluster labeling


@dataclass
class ClusterLabeling:
    """Union-find labels, with optional core/shell window bookkeeping.

    labels[i] is the cluster id of site i (-1 for closed sites); ids are
    the minimal member index of the cluster.
    """

    labels: np.ndarray
    core: np.ndarray = None
    shell: np.ndarray = None

    @property
    def sizes(self) -> dict:
        live = self.labels[self.labels >= 0]
        ids, counts = np.unique(live, return_counts=True)
        return dict(zip(ids.tolist(), counts.tolist()))

    @property
    def k_proxy(self) -> int:
        if self.core is None or self.shell is None:
            raise ValueError("labeling carries no window masks")
        lc = self.labels[self.core]
        lc = np.unique(lc[lc >= 0])
        ls = self.labels[self.shell]
        ls = np.unique(ls[ls >= 0])
        return int(len(np.intersect1d(lc, ls, assume_unique=True)))


def _endpoints(edges):
    """The two endpoint columns of an edge array, each contiguous."""
    return (np.ascontiguousarray(edges[:, 0]),
            np.ascontiguousarray(edges[:, 1]))


def label_clusters(n: int, edges: np.ndarray, edge_open=None, site_open=None,
                   core=None, shell=None) -> ClusterLabeling:
    """Connected components of the open subgraph.

    edge_open defaults to all open (site percolation), site_open to all
    open (bond percolation); closed sites get label -1.
    """
    edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    if edge_open is None:
        edge_open = np.ones(len(edges), dtype=bool)
    if site_open is None:
        site_open = np.ones(n, dtype=bool)
    labels = label_clusters_kernel(
        n,
        *_endpoints(edges),
        np.asarray(edge_open, dtype=bool),
        np.asarray(site_open, dtype=bool),
    )
    return ClusterLabeling(labels, core=core, shell=shell)


# ---------------------------------------------------------------------------
# core/shell instances


@dataclass
class PercInstance:
    """A finite graph with distinguished core and shell site masks."""

    n: int
    edges: np.ndarray
    core: np.ndarray
    shell: np.ndarray

    def __post_init__(self):
        if (self.core & self.shell).any():
            raise ValueError("core and shell must be disjoint")
        if not self.core.any() or not self.shell.any():
            raise ValueError("core and shell must be nonempty")


def tiling_instance(ball, core_radius: int) -> PercInstance:
    """Core/shell instance on a TilingBall or DualBall.

    The core is the complete vertices within graph distance core_radius
    of vertex 0; the shell is the set of combinatorially incomplete
    vertices (degree below the regular value).
    """
    dist = bfs_distances(ball.n_vertices, ball.edges, 0)
    shell = ~ball.interior_vertex_mask
    core = (dist >= 0) & (dist <= core_radius) & ~shell
    return PercInstance(ball.n_vertices, ball.edges, core, shell)


def voronoi_instance(V, R_window: float) -> PercInstance:
    """Core/shell instance on a Voronoi complex: the core is the cells
    meeting the ball of radius 2 that do not touch the shell."""
    shell = shell_cell_mask(V, R_window)
    core = core_cell_mask(V, 2.0) & ~shell
    return PercInstance(V.n_nuclei, V.delaunay_edges, core, shell)


# ---------------------------------------------------------------------------
# reach thresholds and curves


def bond_thresholds(inst: PercInstance, replicas: int, master_seed: int,
                    experiment: str, mapper=map) -> np.ndarray:
    """Per-replica levels p* at which the core first reaches the shell.

    mapper lets callers substitute an order-preserving parallel map
    (replicas are independent, so any such mapper reproduces the serial
    result bit for bit).
    """
    eu, ev = _endpoints(inst.edges)

    def one(rep):
        rng = replica_rng(master_seed, experiment, rep)
        u = rng.random(len(eu))
        return bond_reach_threshold(inst.n, eu, ev, u, inst.core, inst.shell)

    return np.fromiter(mapper(one, range(replicas)), dtype=float, count=replicas)


def site_thresholds(inst: PercInstance, replicas: int, master_seed: int,
                    experiment: str, mapper=map) -> np.ndarray:
    eu, ev = _endpoints(inst.edges)

    def one(rep):
        rng = replica_rng(master_seed, experiment, rep)
        u = rng.random(inst.n)
        return site_reach_threshold(inst.n, eu, ev, u, inst.core, inst.shell)

    return np.fromiter(mapper(one, range(replicas)), dtype=float, count=replicas)


def voronoi_replica(lam: float, window: Window, master_seed: int,
                    experiment: str, replica: int):
    """One Voronoi replica: the complex V and its per-cell uniforms u.

    The one builder of a Voronoi replica, for the thresholds, the sweeps
    and the density estimates.

    Nuclei and uniforms come from one replica stream in the order
    sample_colored draws them, so a cell is white at level p iff
    u < p; the uniforms couple all p at once.  V carries the colouring
    at p = 1/2.
    """
    rng = replica_rng(master_seed, experiment, replica)
    rho, theta = sample_poisson_ball(lam, window.R_sample, rng)
    u = rng.random(len(rho))
    pts = ColoredPointSet(
        rho=rho, theta=theta, white=u < 0.5, lam=lam, p=0.5,
        R=window.R_sample, seed=master_seed,
    )
    return delaunay(pts), u


def voronoi_threshold(lam: float, window: Window, master_seed: int,
                      experiment: str, replica: int) -> float:
    """One replica of the level at which the cell containing the origin
    first joins the shell through white cells."""
    V, u = voronoi_replica(lam, window, master_seed, experiment, replica)
    shell = shell_cell_mask(V, window.R_window)
    core = core_cell_mask(V, 0.0)
    eu, ev = _endpoints(V.delaunay_edges)
    return float(site_reach_threshold(V.n_nuclei, eu, ev, u, core, shell))


def voronoi_thresholds(lam: float, window: Window, replicas: int,
                       master_seed: int, experiment: str,
                       mapper=map) -> np.ndarray:
    def one(rep):
        return voronoi_threshold(lam, window, master_seed, experiment, rep)

    return np.fromiter(mapper(one, range(replicas)), dtype=float, count=replicas)


def reach_curve(thresholds: np.ndarray, p_grid: np.ndarray) -> np.ndarray:
    """Empirical reach probability theta_hat(p) = fraction of p* <= p."""
    t = np.sort(np.asarray(thresholds))
    return np.searchsorted(t, np.asarray(p_grid), side="right") / len(t)


def wilson_interval(k: int, n: int, z: float = 1.96):
    """Wilson score interval for a binomial frequency."""
    if n == 0:
        return 0.0, 0.0, 1.0
    ph = k / n
    denom = 1.0 + z * z / n
    center = (ph + z * z / (2 * n)) / denom
    half = (z / denom) * math.sqrt(ph * (1 - ph) / n + z * z / (4 * n * n))
    return ph, max(0.0, center - half), min(1.0, center + half)


# ---------------------------------------------------------------------------
# critical point estimation


@dataclass
class PcEstimate:
    value: float
    ci_lo: float
    ci_hi: float
    crossings: tuple
    sizes: tuple
    p_grid: np.ndarray
    curves: tuple              # theta_hat arrays, one per size


def _crossing(curve_small, curve_large, p_grid):
    """First upward zero of curve_large - curve_small after its minimum.

    With size-weighted curves the difference is negative in the
    subcritical stretch and positive past the critical level.
    """
    d = np.asarray(curve_large) - np.asarray(curve_small)
    i0 = int(np.argmin(d))
    if d[i0] >= 0:
        return None
    for i in range(i0 + 1, len(d)):
        if d[i] >= 0:
            d0, d1 = d[i - 1], d[i]
            if d1 == d0:
                return float(p_grid[i])
            t = -d0 / (d1 - d0)
            return float(p_grid[i - 1] + t * (p_grid[i] - p_grid[i - 1]))
    return None


BOOTSTRAP_RESAMPLES = 200


def estimate_pc(thresholds_by_size, p_grid,
                bootstrap_seed: int = 0) -> PcEstimate:
    """Critical level from crossings of size-weighted reach curves.

    thresholds_by_size: list of (size, thresholds array), ordered by
    increasing window size; needs at least 3 sizes.  Curves are weighted
    by their size before intersecting (see module docstring).  The
    estimate is the median pairwise crossing; the CI is a bootstrap
    percentile interval over replica resampling.
    """
    if len(thresholds_by_size) < 3:
        raise ValueError("need a ladder of at least 3 window sizes")
    p_grid = np.asarray(p_grid, dtype=float)
    sizes = tuple(float(s) for s, _ in thresholds_by_size)
    samples = [np.asarray(t, dtype=float) for _, t in thresholds_by_size]
    curves = tuple(reach_curve(t, p_grid) for t in samples)

    def crossings_of(curve_list):
        scaled = [s * c for s, c in zip(sizes, curve_list)]
        return [_crossing(small, large, p_grid)
                for small, large in zip(scaled, scaled[1:])]

    crossings = crossings_of(curves)
    if None in crossings:
        i = crossings.index(None)
        d = sizes[i + 1] * curves[i + 1] - sizes[i] * curves[i]
        raise NoCrossing(
            f"reach curves of sizes {sizes[i]:g} and {sizes[i + 1]:g} do not "
            f"cross within the p-grid [{p_grid[0]:g}, {p_grid[-1]:g}]: their "
            f"size-weighted difference runs from {d.min():.4g} to "
            f"{d.max():.4g}; widen the grid or the ladder"
        )
    value = float(np.median(crossings))

    rng = np.random.default_rng(bootstrap_seed)
    boots = []
    for _ in range(BOOTSTRAP_RESAMPLES):
        resampled = [t[rng.integers(0, len(t), len(t))] for t in samples]
        cs = crossings_of([reach_curve(t, p_grid) for t in resampled])
        if None not in cs:
            boots.append(np.median(cs))
    if len(boots) < BOOTSTRAP_RESAMPLES // 2:
        raise NoCrossing(
            "crossing unstable under bootstrap resampling: "
            f"{len(boots)} of {BOOTSTRAP_RESAMPLES} resamples cross"
        )
    lo, hi = np.percentile(boots, [2.5, 97.5])
    return PcEstimate(
        value=value,
        ci_lo=float(min(lo, value)),
        ci_hi=float(max(hi, value)),
        crossings=tuple(crossings),
        sizes=sizes,
        p_grid=p_grid,
        curves=curves,
    )


def pu_from_dual_pc(pc: PcEstimate) -> PcEstimate:
    """Uniqueness level via planar duality: p_u = 1 - p_c(dual)."""
    return PcEstimate(
        value=1.0 - pc.value,
        ci_lo=1.0 - pc.ci_hi,
        ci_hi=1.0 - pc.ci_lo,
        crossings=tuple(1.0 - c for c in pc.crossings),
        sizes=pc.sizes,
        p_grid=pc.p_grid,
        curves=pc.curves,
    )


def tiling_pc(p_gon: int, q_deg: int, ladder, p_grid, replicas: int,
              master_seed: int, mode: str = "bond",
              use_dual: bool = False, mapper=map) -> PcEstimate:
    """Crossing estimate of p_c for bond/site percolation on a {p,q} ball."""
    if mode not in ("bond", "site"):
        raise ValueError("mode must be bond or site")
    pairs = []
    for L in ladder:
        ball = build_ball(p_gon, q_deg, L)
        host = dual_ball(ball) if use_dual else ball
        inst = tiling_instance(host, core_radius=0)
        tag = f"pc-{p_gon}-{q_deg}-L{L}-{mode}" + ("-dual" if use_dual else "")
        if mode == "bond":
            t = bond_thresholds(inst, replicas, master_seed, tag, mapper=mapper)
        else:
            t = site_thresholds(inst, replicas, master_seed, tag, mapper=mapper)
        pairs.append((L, t))
    return estimate_pc(pairs, p_grid, bootstrap_seed=master_seed)


def tiling_pu(p_gon: int, q_deg: int, ladder, p_grid, replicas: int,
              master_seed: int, mapper=map) -> PcEstimate:
    """p_u of the {p,q} ball from bond p_c of its dual."""
    return pu_from_dual_pc(
        tiling_pc(p_gon, q_deg, ladder, p_grid, replicas, master_seed,
                  mode="bond", use_dual=True, mapper=mapper)
    )


def voronoi_pc(lam: float, window_ladder, p_grid, replicas: int,
               master_seed: int, mapper=map) -> PcEstimate:
    """Crossing estimate of p_c(lambda) for Voronoi color percolation."""
    pairs = []
    for w in window_ladder:
        window = w if isinstance(w, Window) else Window.with_margin(float(w))
        tag = f"vorpc-lam{lam:g}-Rw{window.R_window:g}"
        t = voronoi_thresholds(lam, window, replicas, master_seed, tag,
                               mapper=mapper)
        pairs.append((window.R_window, t))
    return estimate_pc(pairs, p_grid, bootstrap_seed=master_seed)


def voronoi_pu(lam: float, window_ladder, p_grid, replicas: int,
               master_seed: int, mapper=map) -> PcEstimate:
    """p_u(lambda) = 1 - p_c(lambda) by white/black color symmetry."""
    return pu_from_dual_pc(
        voronoi_pc(lam, window_ladder, p_grid, replicas, master_seed,
                   mapper=mapper)
    )


# ---------------------------------------------------------------------------
# sweeps


SWEEP_HEADER = (
    "model,p,lambda,pgon,qdeg,R,replicas,theta,theta_lo,theta_hi,"
    "kw,kb,unique_freq,seed"
)


@dataclass
class SweepRow:
    model: str
    p: float
    lam: float = float("nan")
    pgon: int = 0
    qdeg: int = 0
    R: float = 0.0
    replicas: int = 0
    theta: float = 0.0
    theta_lo: float = 0.0
    theta_hi: float = 0.0
    kw: float = 0.0
    kb: float = 0.0
    unique_freq: float = 0.0
    seed: int = 0
    # black/dual-side frequencies; carried for phase labeling, not in the CSV
    theta_b: float = 0.0
    unique_b: float = 0.0

    def to_line(self) -> str:
        return (
            f"{self.model},{self.p:.6f},{self.lam:g},{self.pgon},{self.qdeg},"
            f"{self.R:g},{self.replicas},{self.theta:.6f},{self.theta_lo:.6f},"
            f"{self.theta_hi:.6f},{self.kw:.6f},{self.kb:.6f},"
            f"{self.unique_freq:.6f},{self.seed}"
        )


@dataclass
class SweepResult:
    rows: list

    def to_csv(self) -> str:
        buf = io.StringIO()
        buf.write(SWEEP_HEADER + "\n")
        for row in self.rows:
            buf.write(row.to_line() + "\n")
        return buf.getvalue()


def _aggregate_rows(model, p_values, replica_pairs, meta):
    """Turn per-replica lists of (k, k_dual/black) pairs, one pair per p,
    into SweepRows."""
    k_pairs = {p: [] for p in p_values}
    for rep_pairs in replica_pairs:
        for p, pair in zip(p_values, rep_pairs):
            k_pairs[p].append(pair)
    rows = []
    for p in p_values:
        pairs = k_pairs[p]
        n = len(pairs)
        kw = np.array([a for a, _ in pairs], dtype=float)
        kb = np.array([b for _, b in pairs], dtype=float)
        reach = int(np.count_nonzero(kw >= 1))
        theta, lo, hi = wilson_interval(reach, n)
        rows.append(
            SweepRow(
                model=model,
                p=float(p),
                theta=theta,
                theta_lo=lo,
                theta_hi=hi,
                kw=float(kw.mean()),
                kb=float(kb.mean()),
                unique_freq=float(np.count_nonzero(kw == 1) / n),
                theta_b=float(np.count_nonzero(kb >= 1) / n),
                unique_b=float(np.count_nonzero(kb == 1) / n),
                replicas=n,
                **meta,
            )
        )
    return rows


def _pass_counts(inst: PercInstance, eu, ev, levels, p, reverse: bool):
    """Core-to-shell cluster counts at each p, in the order of p, with the
    edges of level < p open (forward) or those of level >= p (reverse)."""
    order = np.argsort(levels)
    cuts = np.searchsorted(levels[order], p, side="left")
    if reverse:
        order = np.ascontiguousarray(order[::-1])
        cuts = len(order) - cuts
    return filtration(inst.n, eu, ev, order, inst.core, inst.shell, cuts)[1]


def tiling_signature_sweep(p_gon: int, q_deg: int, layers: int, p_values,
                           replicas: int, master_seed: int,
                           mapper=map) -> SweepResult:
    """Bond percolation sweep on one {p,q} ball with coupled uniforms per
    replica: an edge is open at p iff u < p, its dual edge iff u >= p.
    Both cores have radius 2."""
    ball = build_ball(p_gon, q_deg, layers)
    dual = dual_ball(ball)
    inst = tiling_instance(ball, 2)
    dinst = tiling_instance(dual, 2)
    eu, ev = _endpoints(inst.edges)
    deu, dev = _endpoints(dinst.edges)
    p = np.asarray(p_values, dtype=float)
    tag = f"sweep-{p_gon}-{q_deg}-L{layers}"

    def one(rep):
        rng = replica_rng(master_seed, tag, rep)
        u = rng.random(len(eu))
        k = _pass_counts(inst, eu, ev, u, p, reverse=False)
        kd = _pass_counts(dinst, deu, dev, u[dual.primal_edge], p,
                          reverse=True)
        return list(zip(k.tolist(), kd.tolist()))

    meta = dict(pgon=p_gon, qdeg=q_deg, R=float(layers), seed=master_seed)
    return SweepResult(_aggregate_rows(
        "tiling-bond", p_values, mapper(one, range(replicas)), meta))


def voronoi_signature_sweep(lam: float, p_values, window: Window,
                            replicas: int, master_seed: int,
                            mapper=map) -> SweepResult:
    """Color percolation sweep over Voronoi replicas with coupled uniforms:
    a cell is white at p iff u < p, so an edge joins two white cells iff
    max(u_a, u_b) < p and two black cells iff min(u_a, u_b) >= p."""
    tag = f"vorsweep-lam{lam:g}-Rw{window.R_window:g}"
    p = np.asarray(p_values, dtype=float)

    def one(rep):
        V, u = voronoi_replica(lam, window, master_seed, tag, rep)
        inst = voronoi_instance(V, window.R_window)
        eu, ev = _endpoints(inst.edges)
        kw = _pass_counts(inst, eu, ev, np.maximum(u[eu], u[ev]), p,
                          reverse=False)
        kb = _pass_counts(inst, eu, ev, np.minimum(u[eu], u[ev]), p,
                          reverse=True)
        return list(zip(kw.tolist(), kb.tolist()))

    meta = dict(lam=lam, R=window.R_window, seed=master_seed)
    return SweepResult(_aggregate_rows(
        "voronoi", p_values, mapper(one, range(replicas)), meta))


# ---------------------------------------------------------------------------
# connectivity decay


@dataclass
class DecayFit:
    p: float
    distances: np.ndarray
    tau: np.ndarray
    counts: np.ndarray
    trials: np.ndarray
    slope: float
    intercept: float
    a_hat: float
    r_squared: float


DECAY_TARGETS = 8


def connectivity_decay(ball: TilingBall, p: float, distances, replicas: int,
                       master_seed: int, mapper=map) -> DecayFit:
    """Two-point connectivity tau_hat(d) and its exponential-decay fit.

    Edges are sampled lazily while exploring the open cluster of vertex 0
    (the center), so subcritical replicas cost only the cluster size.
    For each d, up to DECAY_TARGETS vertices at graph distance d serve as
    endpoints; the fit regresses log tau_hat on d over positive entries.
    A d with no vertex raises ValueError before any replica runs.
    """
    distances = np.asarray(sorted(set(int(d) for d in distances)))
    dist = bfs_distances(ball.n_vertices, ball.edges, 0)
    far = int(dist.max())
    targets = []
    for d in distances:
        cand = np.flatnonzero(dist == d)
        if len(cand) == 0:
            raise ValueError(f"no vertex at distance {d} from the center: "
                             f"{far} is the largest distance in this ball")
        targets.append(cand[:DECAY_TARGETS])

    indptr, indices, edge_id = csr_adjacency(ball.n_vertices, ball.edges)
    tag = f"decay-{ball.p_gon}-{ball.q_deg}-p{p:g}"

    def one(rep):
        rng = replica_rng(master_seed, tag, rep)
        edge_state = {}
        visited = {0}
        stack = [0]
        while stack:
            v = stack.pop()
            for j in range(indptr[v], indptr[v + 1]):
                k = edge_id[j]
                st = edge_state.get(k)
                if st is None:
                    st = bool(rng.random() < p)
                    edge_state[k] = st
                if not st:
                    continue
                w = int(indices[j])
                if w not in visited:
                    visited.add(w)
                    stack.append(w)
        return np.array(
            [sum(1 for t in tg if int(t) in visited) for tg in targets],
            dtype=np.int64,
        )

    counts = np.zeros(len(distances), dtype=np.int64)
    for c in mapper(one, range(replicas)):
        counts += c

    trials = np.array([replicas * len(tg) for tg in targets], dtype=np.int64)
    tau = counts / trials
    pos = tau > 0
    if int(pos.sum()) < 2:
        raise InsufficientData(
            "fewer than two distances with positive connectivity"
        )
    x = distances[pos].astype(float)
    y = np.log(tau[pos])
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 - float(np.sum(resid**2)) / ss_tot if ss_tot > 0 else 0.0
    return DecayFit(
        p=p,
        distances=distances,
        tau=tau,
        counts=counts,
        trials=trials,
        slope=float(slope),
        intercept=float(intercept),
        a_hat=float(math.exp(slope)),
        r_squared=r2,
    )
