"""Bernoulli percolation on tiling balls and Voronoi complexes.

Each replica draws one uniform mark per edge (or site), coupling all
levels p.  The reach threshold p*, the level at which the core first
joins the shell, is found by invasion from the core (see _kernels); every
core site enters at its own opening level (0 for bond, its uniform for
site).  On a tiling ball the invasion walks a CSR adjacency built once
per ball.  On a Voronoi replica it asks for the Delaunay star of each cell
it takes (hypvoronoi.LocalStars), so it never triangulates the whole
sample.  The thresholds give the whole reach curve
theta_hat(p) = P[p* <= p].  The phase signatures, one row per position
of a p-grid, come from a forward and a reverse union-find filtration
pass, which count the clusters joining the core to the shell.  Critical
points are located where size-weighted reach curves of successive window
sizes cross: at criticality the center-to-shell reach probability decays
like 1/L (tree-like mean-field scaling), so L * theta_L(p) tends to 0
below, to a constant at, and to infinity above the critical level, and
successive sizes cross near it.  The connectivity decay stops the same
invasion at level p, where it has taken exactly the center's p-cluster.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass, replace

import numpy as np

from ._kernels import (
    bond_cluster,
    bond_reach_threshold,
    csr_neighbours,
    filtration,
    label_clusters_kernel,
    site_reach_threshold,
)
from .graphs import bfs_distances, csr_adjacency, sorted_distinct
from .hypgeo import InvalidInput, NumericFailure
from .hypvoronoi import (
    LocalStars,
    Window,
    core_cell_mask,
    delaunay,
    shell_cell_mask,
)
from .pointprocess import (
    ColoredPointSet,
    check_sample_size,
    replica_rng,
    sample_poisson_ball,
)
from .tilinggraph import TilingBall, ball_vertices, build_ball, dual_ball


class NoCrossing(NumericFailure):
    """Raised when reach curves of successive sizes never cross in the grid."""


class InsufficientData(NumericFailure):
    """Raised when too few positive connectivity frequencies remain to fit."""


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
        lc = sorted_distinct(lc[lc >= 0])
        ls = self.labels[self.shell]
        ls = sorted_distinct(ls[ls >= 0])
        return int(len(np.intersect1d(lc, ls, assume_unique=True)))


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
        edges[:, 0],
        edges[:, 1],
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


def check_layers(layers: int, core_radius: int) -> None:
    """tiling_instance's rule, which needs only the layer count: a ball of
    one layer has no complete vertex, and from two layers on the center
    is complete, so the core is empty exactly when layers < 2."""
    if layers < 2:
        raise InvalidInput(
            f"layer count must be at least 2, got {layers}: the core, the "
            f"complete vertices within {core_radius} of the center, is empty")


def tiling_instance(ball, core_radius: int) -> PercInstance:
    """Core/shell instance on a TilingBall or DualBall.

    The core is the complete vertices within graph distance core_radius
    of vertex 0; the shell is the set of combinatorially incomplete
    vertices (degree below the regular value).  A ball of one layer has
    no complete vertex, and is refused (check_layers).
    """
    check_layers(getattr(ball, "primal", ball).layers, core_radius)
    dist = bfs_distances(ball.n_vertices, ball.edges, 0, core_radius)
    shell = ~ball.interior_vertex_mask
    core = (dist >= 0) & ~shell
    return PercInstance(ball.n_vertices, ball.edges, core, shell)


def voronoi_instance(V, R_window: float) -> PercInstance:
    """Core/shell instance on a Voronoi complex: the core is the cells
    meeting the ball of radius 2 that do not touch the shell.  A window
    that leaves no core cell is refused."""
    shell = shell_cell_mask(V, R_window)
    core = core_cell_mask(V, 2.0) & ~shell
    if not core.any():
        raise InvalidInput(
            f"window radius {R_window:g} leaves no core cell: every cell "
            f"meeting the ball of radius 2 touches the shell")
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
    indptr, indices, edge_id = csr_adjacency(inst.n, inst.edges)
    shell = inst.shell.tolist()
    neighbours = csr_neighbours(indptr, indices, edge_id)

    def one(rep):
        rng = replica_rng(master_seed, experiment, rep)
        u = rng.random(len(inst.edges))
        return bond_reach_threshold(neighbours, u, inst.core, shell)

    return np.fromiter(mapper(one, range(replicas)), dtype=float, count=replicas)


def site_thresholds(inst: PercInstance, replicas: int, master_seed: int,
                    experiment: str, mapper=map) -> np.ndarray:
    indptr, indices, _ = csr_adjacency(inst.n, inst.edges)
    shell = inst.shell.tolist()
    neighbours = csr_neighbours(indptr, indices, indices)

    def one(rep):
        rng = replica_rng(master_seed, experiment, rep)
        u = rng.random(inst.n)
        return site_reach_threshold(neighbours, u, inst.core, shell)

    return np.fromiter(mapper(one, range(replicas)), dtype=float, count=replicas)


def voronoi_sample(lam: float, R: float, master_seed: int, experiment: str,
                   replica: int, p: float = 0.5):
    """The one Voronoi sampler: Poisson nuclei in the ball of radius R,
    then one uniform u per cell, both from the replica stream.

    A cell is white at level p iff u < p, so the uniforms couple all p at
    once; the returned point set carries the colouring at the given p.
    Returns (points, u).
    """
    if not 0.0 <= p <= 1.0:
        raise InvalidInput(f"p must lie in [0, 1], got {p:g}")
    rng = replica_rng(master_seed, experiment, replica)
    # sample_poisson_ball is looked up in this module, where perfbench
    # traces it
    rho, theta = sample_poisson_ball(lam, R, rng)
    u = rng.random(len(rho))
    pts = ColoredPointSet(rho=rho, theta=theta, white=u < p, lam=lam, p=p,
                          R=R, seed=master_seed)
    return pts, u


def voronoi_replica(lam: float, window: Window, master_seed: int,
                    experiment: str, replica: int):
    """One Voronoi replica: the whole complex V of voronoi_sample's nuclei
    and their uniforms u."""
    pts, u = voronoi_sample(lam, window.R_sample, master_seed, experiment,
                            replica)
    return delaunay(pts), u


def voronoi_threshold(lam: float, window: Window, master_seed: int,
                      experiment: str, replica: int) -> float:
    """One replica of the level at which the cell containing the origin
    first joins the shell through white cells.  The invasion builds only
    the stars of the cells it takes (hypvoronoi.LocalStars); a cell
    beyond R_window is known to be shell without its star.  The core is
    the origin's cell, that of the nucleus nearest the origin."""
    pts, u = voronoi_sample(lam, window.R_sample, master_seed, experiment,
                            replica)
    # LocalStars refuses a sample of fewer than 3 nuclei first
    stars = LocalStars(pts)
    core = np.zeros(len(pts), dtype=bool)
    core[np.argmin(pts.rho)] = True
    return site_reach_threshold(stars.neighbours, u, core,
                                pts.rho > window.R_window)


def voronoi_thresholds(lam: float, window: Window, replicas: int,
                       master_seed: int, experiment: str,
                       mapper=map) -> np.ndarray:
    def one(rep):
        return voronoi_threshold(lam, window, master_seed, experiment, rep)

    return np.fromiter(mapper(one, range(replicas)), dtype=float, count=replicas)


def reach_curve(thresholds: np.ndarray, p_grid: np.ndarray) -> np.ndarray:
    """Empirical reach probability theta_hat(p) = fraction of p* <= p; one
    curve per row of a 2-D thresholds array."""
    t = np.atleast_2d(thresholds)
    curves = _binned_curves(np.searchsorted(p_grid, t, side="left"),
                            len(p_grid))
    return curves if np.ndim(thresholds) == 2 else curves[0]


def _binned_curves(bins: np.ndarray, n_grid: int) -> np.ndarray:
    """reach_curve of thresholds given by their bins, the searchsorted
    index into a p-grid of n_grid points; one curve per row of bins."""
    g = n_grid + 1
    # p* <= p_grid[k] exactly for k from p*'s bin on; row r counts its
    # thresholds in bins r*g .. r*g + g - 1
    flat = (bins + g * np.arange(len(bins))[:, None]).ravel()
    counts = np.bincount(flat, minlength=len(bins) * g).reshape(-1, g)
    return counts[:, :-1].cumsum(axis=1) / bins.shape[1]


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
    never_reached: tuple       # thresholds of 2.0, one count per size
    bootstrap_accepted: float  # share of bootstrap resamples that cross


def _crossings(d, p_grid):
    """First upward zero of each row of d after the row's minimum, nan
    where the row has none.

    A row is curve_large - curve_small of size-weighted curves: negative
    in the subcritical stretch and positive past the critical level.  The
    zero lies between the first entry d1 >= 0 after the minimum and the
    entry d0 < 0 before it, linearly interpolated.
    """
    i0 = d.argmin(axis=1)
    up = (d >= 0) & (np.arange(d.shape[1]) > i0[:, None])
    rows = np.flatnonzero((d[np.arange(len(d)), i0] < 0) & up.any(axis=1))
    i = up[rows].argmax(axis=1)
    d0, d1 = d[rows, i - 1], d[rows, i]
    t = -d0 / (d1 - d0)
    x = np.full(len(d), np.nan)
    x[rows] = p_grid[i - 1] + t * (p_grid[i] - p_grid[i - 1])
    return x


def _ladder_crossings(sizes, curves, p_grid):
    """Crossings of the size-weighted curves of successive sizes: one
    column per pair, one row per row of the curves, nan where none."""
    scaled = [s * c for s, c in zip(sizes, curves)]
    return np.stack([_crossings(large - small, p_grid)
                     for small, large in zip(scaled, scaled[1:])], axis=1)


BOOTSTRAP_RESAMPLES = 200


def _bootstrap_draws(seed, samples):
    """Replica indices of every resample, one (resamples, n) array per
    sample of n replicas.

    One integers call gives the stream of a loop that draws each sample's
    n indices resample by resample: a bound below 2**32 draws 32-bit
    halves from the generator, which keeps an unused half between calls,
    so the loop and the batch read the same bits.  A 1-D bound, one entry
    per column, serves samples of unequal sizes."""
    ns = [len(t) for t in samples]
    high = ns[0] if len(set(ns)) == 1 else np.repeat(ns, ns)
    draws = np.random.default_rng(seed).integers(
        0, high, size=(BOOTSTRAP_RESAMPLES, sum(ns)))
    return np.split(draws, np.cumsum(ns)[:-1], axis=1)


# np.median and np.percentile import numpy.ma on their first call, a tenth
# of a fresh process's start-up; these give their values by one sort


def _median(x: np.ndarray) -> np.ndarray:
    """np.median(x, axis=-1) of NaN-free floats: the mean of the two middle
    entries, or of the middle one, taken by np.mean as numpy does."""
    s = np.sort(x, axis=-1)
    n = s.shape[-1]
    return s[..., (n - 1) // 2:n // 2 + 1].mean(axis=-1)


def _percentiles(x: np.ndarray, q) -> np.ndarray:
    """np.percentile(x, q) of NaN-free 1-D floats by numpy's linear method:
    virtual index v = (n - 1) q / 100 between entries a and b, g its
    fraction, a + (b - a) g, or b - (b - a)(1 - g) once g >= 0.5.  At
    v >= n - 1 numpy takes a = b = the last entry and g = v + 1.  Only
    the sign of a zero may differ: numpy partitions instead of sorting,
    which may order 0.0 and -0.0 otherwise."""
    s = np.sort(x)
    n = len(s)
    v = (n - 1) * (np.asarray(q, dtype=float) / 100)
    i = np.where(v >= n - 1, -1.0, np.floor(v))
    g = v - i
    a = s[i.astype(np.intp)]
    b = s[np.where(i < 0, -1, i + 1).astype(np.intp)]
    d = b - a
    return np.where(g >= 0.5, b - d * (1 - g), a + d * g)


def _check_ladder(sizes, p_grid) -> np.ndarray:
    """estimate_pc's rules on its sizes and grid, which tiling_pc and
    voronoi_pc check before their first replica: at least 3 strictly
    increasing sizes and a strictly increasing p-grid, since a crossing is
    interpolated between neighbouring grid points.  Returns the grid as
    floats."""
    if len(sizes) < 3 or any(b <= a for a, b in zip(sizes, sizes[1:])):
        raise InvalidInput("a ladder needs at least 3 strictly increasing "
                           "sizes, got " + ",".join(f"{s:g}" for s in sizes))
    p_grid = np.asarray(p_grid, dtype=float)
    down = np.flatnonzero(np.diff(p_grid) <= 0)
    if len(down):
        i = down[0]
        raise InvalidInput(f"the p-grid must be strictly increasing, got "
                           f"{p_grid[i]:g} then {p_grid[i + 1]:g}")
    return p_grid


def estimate_pc(thresholds_by_size, p_grid,
                bootstrap_seed: int = 0) -> PcEstimate:
    """Critical level from crossings of size-weighted reach curves.

    thresholds_by_size: list of (size, thresholds array).  The sizes must
    be at least 3 and strictly increasing, and p_grid strictly
    increasing; InvalidInput refuses any other (see _check_ladder).
    Curves are weighted by their size before intersecting (see module
    docstring).  The estimate is the median pairwise crossing; the CI is
    a bootstrap percentile interval over replica resampling.
    """
    sizes = tuple(float(s) for s, _ in thresholds_by_size)
    p_grid = _check_ladder(sizes, p_grid)
    samples = [np.asarray(t, dtype=float) for _, t in thresholds_by_size]
    curves = tuple(reach_curve(t, p_grid) for t in samples)
    crossings = _ladder_crossings(sizes, [c[None] for c in curves], p_grid)[0]
    missing = np.flatnonzero(np.isnan(crossings))
    if len(missing):
        i = missing[0]
        d = sizes[i + 1] * curves[i + 1] - sizes[i] * curves[i]
        raise NoCrossing(
            f"reach curves of sizes {sizes[i]:g} and {sizes[i + 1]:g} do not "
            f"cross within the p-grid [{p_grid[0]:g}, {p_grid[-1]:g}]: their "
            f"size-weighted difference runs from {d.min():.4g} to "
            f"{d.max():.4g}; widen the grid or the ladder"
        )
    value = float(_median(crossings))

    # searchsorted is elementwise: bin each sample once and gather the
    # bins of every resample
    cs = _ladder_crossings(
        sizes, [_binned_curves(np.searchsorted(p_grid, t)[idx], len(p_grid))
                for t, idx in
                zip(samples, _bootstrap_draws(bootstrap_seed, samples))],
        p_grid)
    boots = _median(cs[~np.isnan(cs).any(axis=1)])
    if len(boots) < BOOTSTRAP_RESAMPLES // 2:
        raise NoCrossing(
            "crossing unstable under bootstrap resampling: "
            f"{len(boots)} of {BOOTSTRAP_RESAMPLES} resamples cross"
        )
    lo, hi = _percentiles(boots, (2.5, 97.5))
    return PcEstimate(
        value=value,
        ci_lo=float(min(lo, value)),
        ci_hi=float(max(hi, value)),
        crossings=tuple(crossings.tolist()),
        sizes=sizes,
        p_grid=p_grid,
        curves=curves,
        never_reached=tuple(int(np.count_nonzero(t == 2.0)) for t in samples),
        bootstrap_accepted=len(boots) / BOOTSTRAP_RESAMPLES,
    )


def pu_from_dual_pc(pc: PcEstimate) -> PcEstimate:
    """Uniqueness level via planar duality: p_u = 1 - p_c(dual)."""
    return replace(pc, value=1.0 - pc.value, ci_lo=1.0 - pc.ci_hi,
                   ci_hi=1.0 - pc.ci_lo,
                   crossings=tuple(1.0 - c for c in pc.crossings))


def tiling_pc(p_gon: int, q_deg: int, ladder, p_grid, replicas: int,
              master_seed: int, mode: str = "bond",
              use_dual: bool = False, mapper=map) -> PcEstimate:
    """Crossing estimate of p_c for bond/site percolation on a {p,q} ball;
    the ladder of layer counts, the grid and the top rung's vertex budget
    are checked first."""
    if mode not in ("bond", "site"):
        raise InvalidInput(f"mode must be bond or site, got {mode!r}")
    _check_ladder(ladder, p_grid)
    # the smaller balls are the largest's first rounds
    ball_vertices(p_gon, q_deg, max(ladder))
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
    """Crossing estimate of p_c(lambda) for Voronoi color percolation;
    the ladder of window radii, the grid and each window's nuclei budget
    are checked first."""
    windows = [w if isinstance(w, Window) else Window.with_margin(float(w))
               for w in window_ladder]
    _check_ladder([w.R_window for w in windows], p_grid)
    for w in windows:
        check_sample_size(lam, w.R_sample)
    pairs = []
    for window in windows:
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
    into SweepRows, one per position in p_values."""
    k = np.array(list(replica_pairs), dtype=np.int64).reshape(
        -1, len(p_values), 2)
    n = len(k)
    rows = []
    for p, (kw, kb) in zip(p_values, k.transpose(1, 2, 0)):
        theta, lo, hi = wilson_interval(int(np.count_nonzero(kw >= 1)), n)
        rows.append(SweepRow(
            model=model, p=float(p), theta=theta, theta_lo=lo, theta_hi=hi,
            kw=float(kw.mean()), kb=float(kb.mean()),
            unique_freq=float(np.count_nonzero(kw == 1) / n),
            theta_b=float(np.count_nonzero(kb >= 1) / n),
            unique_b=float(np.count_nonzero(kb == 1) / n),
            replicas=n, **meta))
    return rows


def _pass_counts(inst: PercInstance, order, levels, p, reverse: bool):
    """Core-to-shell cluster counts at each p, in the order of p, with the
    edges of level < p open (forward) or those of level >= p (reverse).
    order lists the edges in ascending level and levels holds their levels
    in that order."""
    cuts = np.searchsorted(levels, p, side="left")
    if reverse:
        order = order[::-1]
        cuts = len(order) - cuts
    return filtration(inst.n, inst.edges[:, 0], inst.edges[:, 1], order,
                      inst.core, inst.shell, cuts)


# core radius of both instances of a tiling sweep
SWEEP_CORE = 2


def tiling_signature_sweep(p_gon: int, q_deg: int, layers: int, p_values,
                           replicas: int, master_seed: int,
                           mapper=map) -> SweepResult:
    """Bond percolation sweep on one {p,q} ball with coupled uniforms per
    replica: an edge is open at p iff u < p, its dual edge iff u >= p.
    Both cores have radius SWEEP_CORE."""
    ball = build_ball(p_gon, q_deg, layers)
    dual = dual_ball(ball)
    inst = tiling_instance(ball, SWEEP_CORE)
    dinst = tiling_instance(dual, SWEEP_CORE)
    p = np.asarray(p_values, dtype=float)
    tag = f"sweep-{p_gon}-{q_deg}-L{layers}"

    def one(rep):
        rng = replica_rng(master_seed, tag, rep)
        u = rng.random(len(inst.edges))
        # one sort serves both passes: a cut's count depends only on the
        # set of edges before it, and the dual edges in ascending primal
        # level are in ascending dual level
        order = np.argsort(u)
        levels = u[order]
        k = _pass_counts(inst, order, levels, p, reverse=False)
        dual_order = dual.dual_edge_of[order]
        crossed = dual_order >= 0
        kd = _pass_counts(dinst, dual_order[crossed], levels[crossed], p,
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
        eu, ev = inst.edges[:, 0], inst.edges[:, 1]
        white, black = np.maximum(u[eu], u[ev]), np.minimum(u[eu], u[ev])
        ow, ob = np.argsort(white), np.argsort(black)
        kw = _pass_counts(inst, ow, white[ow], p, reverse=False)
        kb = _pass_counts(inst, ob, black[ob], p, reverse=True)
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


def connectivity_decay(ball: TilingBall, p: float, distances, replicas: int,
                       master_seed: int, mapper=map) -> DecayFit:
    """Two-point connectivity tau_hat(d) and its exponential-decay fit.

    Each replica draws one uniform per edge and invades from vertex 0 (the
    center) up to p, which takes exactly the center's open cluster of the
    edges with u <= p, so subcritical replicas walk only that cluster.
    tau_hat(d) is the fraction of the sites of the sphere S_d (every ball
    vertex at graph distance d) that the cluster holds, over all replicas;
    the fit regresses log tau_hat on d over positive entries.  A d with
    no vertex, such as one that is not an integer, raises InvalidInput
    before any replica runs.
    """
    dist = bfs_distances(ball.n_vertices, ball.edges, 0)
    sphere = np.bincount(dist)
    for d in distances:
        if not 0 <= d < len(sphere) or d != int(d):
            raise InvalidInput(
                f"no vertex at distance {d:g} from the center: the "
                f"distances in this ball are the integers 0 to "
                f"{len(sphere) - 1}")
    distances = np.asarray(sorted(set(int(d) for d in distances)))

    indptr, indices, edge_id = csr_adjacency(ball.n_vertices, ball.edges)
    neighbours = csr_neighbours(indptr, indices, edge_id)
    center = np.arange(ball.n_vertices) == 0
    tag = f"decay-{ball.p_gon}-{ball.q_deg}-p{p:g}"

    def one(rep):
        rng = replica_rng(master_seed, tag, rep)
        u = rng.random(len(ball.edges))
        cluster = bond_cluster(neighbours, u, center, p)
        return np.bincount(dist[list(cluster)], minlength=len(sphere))

    counts = sum(mapper(one, range(replicas)))[distances]
    trials = replicas * sphere[distances]
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
