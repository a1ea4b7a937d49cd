"""Command-line experiment driver.

Subcommands generate tilings and point samples, run density and
percolation experiments, and emit CSV/JSON/SVG artifacts.  Runs are
fully deterministic for a fixed master seed: replica tasks are
independent, the worker pool (--threads, default 1) maps them in
replica-index order, and output files are written atomically
(temp file + rename).

Each input rule is checked once, by the library function that uses the
value; this module adds only the rules of its own options.  Exit codes:
0 success; 2 invalid input, any hypgeo.InvalidInput (a bad option or
file, or a value the library refuses); 3 numeric failure, any
hypgeo.NumericFailure (an estimator did not converge or a cross-check
failed).  Either prints one line; a traceback means a bug.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import scipy

from . import svg
from ._kernels import BACKEND
from .densities import density_experiment
from .hypgeo import WORKING_RADIUS, InvalidInput, NumericFailure
from .hypvoronoi import MARGIN, Window, delaunay
from .percolation import (
    SWEEP_CORE,
    NoCrossing,
    SweepResult,
    check_layers,
    connectivity_decay,
    tiling_pc,
    tiling_pu,
    tiling_signature_sweep,
    voronoi_pc,
    voronoi_pu,
    voronoi_sample,
    voronoi_signature_sweep,
)
from .pointprocess import ColoredPointSet, check_sample_size, replica_rng
from .tilinggraph import ball_vertices, build_ball

PHASE_HEADER = ("model,p,lambda,pgon,qdeg,R,replicas,label,"
                "theta_w,theta_b,unique_w,unique_b,kw,kb,seed")

PC_CURVE_HEADER = ("lambda,pc,ci_lo,ci_hi,upper_bound,bound_ok,positive_ok,"
                   "sandwich_ok,guess_half_minus_lam23")


class ConfigError(InvalidInput):
    """A bad option, grid, config file or input file."""


class _Parser(argparse.ArgumentParser):
    """Reports a usage error as a ConfigError (one `error:` line, exit 2);
    subparsers are built from the same class.  A token made of `-` and a
    digit or `.` is a value, so `--p -0.1,0.5` reaches the range checks."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-[\d.]")

    def error(self, message):
        raise ConfigError(f"{self.prog}: {message}")


# ---------------------------------------------------------------------------
# config files, grids, atomic output


def parse_config(text: str) -> dict:
    """Line-oriented `key = value` format; '#' starts a comment."""
    out = {}
    for ln, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {ln}: expected 'key = value', got {raw!r}")
        key, value = line.split("=", 1)
        key = key.strip()
        if not key:
            raise ConfigError(f"line {ln}: empty key")
        out[key] = value.strip()
    return out


# the largest grid README or the tests use has 51 points
MAX_GRID_POINTS = 10**5


def parse_grid(s: str) -> list:
    """`start:stop:step` (inclusive of stop up to rounding) or comma list
    of finite values, 1 to MAX_GRID_POINTS of them; a colon grid's size is
    checked before it is built."""
    s = s.strip()
    colon = ":" in s
    bad = ConfigError(f"bad grid {s!r}: want start:stop:step or a,b,c")
    try:
        if colon:
            start, stop, step = parts = [float(x) for x in s.split(":")]
        else:
            parts = [float(x) for x in s.split(",") if x.strip()]
    except ValueError:
        raise bad
    if not all(math.isfinite(x) for x in parts):
        raise ConfigError(f"bad grid {s!r}: values must be finite")
    if not colon:
        n = len(parts)
    elif step <= 0 or stop < start:
        raise bad
    else:
        # capped as a float: a tiny step's count may not even fit an int
        n = math.floor(min((stop - start) / step, MAX_GRID_POINTS) + 0.5) + 1
    if n == 0:
        raise ConfigError(f"bad grid {s!r}: no values")
    if n > MAX_GRID_POINTS:
        raise ConfigError(
            f"bad grid {s!r}: more than {MAX_GRID_POINTS} points")
    return [start + i * step for i in range(n)] if colon else parts


def parse_int_list(s: str) -> list:
    """A non-empty comma list of integers."""
    try:
        vals = [int(x) for x in str(s).split(",") if x.strip()]
    except ValueError:
        vals = []
    if not vals:
        raise ConfigError(f"bad integer list {s!r}")
    return vals


def parse_pq(s: str):
    """Two integers; build_ball checks that they make a hyperbolic tiling."""
    vals = parse_int_list(s)
    if len(vals) != 2:
        raise ConfigError("--pq wants two integers, e.g. 3,7")
    return tuple(vals)


def _check_radius(name: str, R: float):
    if not 0 < R <= WORKING_RADIUS:
        raise ConfigError(
            f"{name} must lie in (0, {WORKING_RADIUS:g}], got {R:g}")


def _check_unit(name: str, *values):
    for v in values:
        if not 0.0 <= v <= 1.0:
            raise ConfigError(f"{name} must lie in [0, 1], got {v:g}")


# mkstemp creates 0600 files; outputs keep the mode open() would give them
_UMASK = os.umask(0)
os.umask(_UMASK)


def atomic_write(path: str, text: str) -> None:
    """Write through a temp file unique to this call, then rename it."""
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(os.path.abspath(path)),
                               prefix=os.path.basename(path) + ".",
                               suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
            fh.flush()
            os.fchmod(fh.fileno(), 0o666 & ~_UMASK)
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def _git_describe():
    try:
        out = subprocess.run(
            ["git", "describe", "--always", "--dirty"],
            capture_output=True, text=True, timeout=10,
            cwd=os.path.dirname(os.path.abspath(__file__)),
        )
        if out.returncode == 0:
            return out.stdout.strip()
    except OSError:
        pass
    return None


def write_summary(path: str, config: dict, results, wall_time) -> None:
    doc = {
        "backend": BACKEND,
        "config": config,
        "git_describe": _git_describe(),
        "versions": {"numpy": np.__version__, "scipy": scipy.__version__},
        "wall_time": wall_time,
        "results": results,
    }
    atomic_write(path, json.dumps(doc, indent=2, sort_keys=True) + "\n")


def make_mapper(n_threads: int):
    """Order-preserving replica mapper; identical output for any pool size."""
    if n_threads <= 1:
        return map

    def mapper(fn, items):
        with ThreadPoolExecutor(max_workers=n_threads) as ex:
            return list(ex.map(fn, items))

    return mapper


# ---------------------------------------------------------------------------
# phase classification


def classify_phase(row, unique_threshold: float = 0.9,
                   many_threshold: float = 0.5) -> str:
    """Phase label from signature frequencies at one parameter point.

    "unique" needs reach and uniqueness frequency above unique_threshold
    for one color only; "both-many" needs both colors reaching with
    frequency above many_threshold and mean crossing-cluster counts >= 2.
    """
    w_unique = (row.theta >= unique_threshold
                and row.unique_freq >= unique_threshold)
    b_unique = (row.theta_b >= unique_threshold
                and row.unique_b >= unique_threshold)
    if w_unique and not b_unique:
        return "W-unique"
    if b_unique and not w_unique:
        return "B-unique"
    if (row.theta >= many_threshold and row.theta_b >= many_threshold
            and row.kw >= 2.0 and row.kb >= 2.0):
        return "both-many"
    return "subcritical-ambiguous"


def phase_table_csv(rows, unique_threshold: float,
                    many_threshold: float) -> str:
    lines = [PHASE_HEADER]
    for r in rows:
        label = classify_phase(r, unique_threshold, many_threshold)
        lines.append(
            f"{r.model},{r.p:.6f},{r.lam:g},{r.pgon},{r.qdeg},{r.R:g},"
            f"{r.replicas},{label},{r.theta:.6f},{r.theta_b:.6f},"
            f"{r.unique_freq:.6f},{r.unique_b:.6f},{r.kw:.6f},{r.kb:.6f},"
            f"{r.seed}"
        )
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# p_c(lambda) curve with bound checks


def pc_upper_bound(lam: float) -> float:
    return 0.5 - 1.0 / (4.0 * lam * math.pi + 2.0)


def estimate_pc_curve(lams, ladder, p_grid, replicas, master_seed,
                      mapper=map) -> tuple[list, list]:
    """p_c estimates over a lambda grid with bound/sandwich flags.

    Checks, CI-adjusted: (i) the upper bound 1/2 - 1/(4*lambda*pi + 2),
    (ii) positivity, (iii) for adjacent grid points lam < lam' the
    sandwich pc(lam)*lam/lam' <= pc(lam') <= 1 - (1-pc(lam))*lam/lam'.
    The half-minus-lambda^(-2/3) column is informational only.  Returns
    the rows of the lambdas that cross, whose sandwich flags compare
    adjacent rows, and one message per lambda that does not.
    """
    lams = sorted(float(x) for x in lams)
    rows, failed = [], []
    for lam in lams:
        try:
            est = voronoi_pc(lam, ladder, p_grid, replicas, master_seed,
                             mapper=mapper)
        except NoCrossing as e:
            failed.append(f"lambda={lam:g}: {e}")
            continue
        bound = pc_upper_bound(lam)
        rows.append({
            "lambda": lam,
            "pc": est.value,
            "ci_lo": est.ci_lo,
            "ci_hi": est.ci_hi,
            "upper_bound": bound,
            "bound_ok": est.ci_hi <= bound + 0.02,
            "positive_ok": est.ci_lo >= 0.02,
            "sandwich_ok": True,
            "guess_half_minus_lam23": 0.5 - lam ** (-2.0 / 3.0),
            "never_reached": list(est.never_reached),
            "bootstrap_accepted": est.bootstrap_accepted,
        })
    for prev, cur in zip(rows, rows[1:]):
        ratio = prev["lambda"] / cur["lambda"]
        lower_ok = prev["ci_lo"] * ratio <= cur["ci_hi"]
        upper_ok = cur["ci_lo"] <= 1.0 - (1.0 - prev["ci_hi"]) * ratio
        cur["sandwich_ok"] = bool(lower_ok and upper_ok)
    return rows, failed


def pc_curve_csv(rows) -> str:
    lines = [PC_CURVE_HEADER]
    for r in rows:
        lines.append(
            f"{r['lambda']:g},{r['pc']:.6f},{r['ci_lo']:.6f},"
            f"{r['ci_hi']:.6f},{r['upper_bound']:.6f},{int(r['bound_ok'])},"
            f"{int(r['positive_ok'])},{int(r['sandwich_ok'])},"
            f"{r['guess_half_minus_lam23']:.6f}"
        )
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# subcommands


def _windows(lams, radii) -> list:
    """Windows of the given radii and the default margin, every (lambda,
    window) pair checked by check_sample_size before the first replica."""
    windows = [Window.with_margin(float(r)) for r in radii]
    for lam in lams:
        for w in windows:
            check_sample_size(lam, w.R_sample)
    return windows


def cmd_gen_tiling(args, mapper):
    p, q = parse_pq(args.pq)
    ball = build_ball(p, q, args.layers)
    atomic_write(args.out, ball.serialize())
    return {"p_gon": p, "q_deg": q, "layers": args.layers,
            "n_vertices": ball.n_vertices, "n_edges": int(ball.n_edges),
            "n_faces": len(ball.faces)}


def cmd_voronoi_sample(args, mapper):
    if args.replica < 0:
        raise ConfigError(f"--replica must be non-negative, got {args.replica}")
    pts, _ = voronoi_sample(args.lam, args.R, args.seed, "voronoi-sample",
                            args.replica, args.p)
    atomic_write(args.out, pts.serialize())
    return {"n_points": len(pts), "lambda": args.lam, "p": args.p,
            "R": args.R, "replica": args.replica}


def cmd_densities(args, mapper):
    Rw = args.Rw if args.Rw is not None else args.R - MARGIN
    window = Window(R_sample=args.R, R_window=Rw)
    est = density_experiment(args.lam, window, args.replicas, args.seed,
                             mapper=mapper)
    est.validate()
    atomic_write(args.out, est.to_csv())
    return {
        "DV": est.D_V_hat, "DV_se": est.D_V_se, "DE": est.D_E_hat,
        "DF_count": est.D_F_hat_count, "DF_inv": est.D_F_hat_inverse_area,
        "euler": est.euler, "euler_se": est.euler_se,
        "replicas_used": est.replicas_used,
        "replicas_discarded": est.replicas_discarded,
    }


def cmd_phase_sweep(args, mapper):
    p_values = parse_grid(args.p)
    _check_unit("--p", *p_values)
    _check_unit("--unique-threshold", args.unique_threshold)
    _check_unit("--many-threshold", args.many_threshold)
    rows = []
    if args.pq:
        p, q = parse_pq(args.pq)
        layer_counts = parse_int_list(args.layers or "5")
        for L in layer_counts:    # every ball, before the first sweep
            check_layers(L, SWEEP_CORE)
        # the smaller balls are the largest's first rounds
        ball_vertices(p, q, max(layer_counts))
        for L in layer_counts:
            sw = tiling_signature_sweep(p, q, L, p_values, args.replicas,
                                        args.seed, mapper=mapper)
            rows.extend(sw.rows)
    else:
        for window in _windows([args.lam], parse_grid(args.R)):
            sw = voronoi_signature_sweep(args.lam, p_values, window,
                                         args.replicas, args.seed,
                                         mapper=mapper)
            rows.extend(sw.rows)
    atomic_write(args.out, phase_table_csv(rows, args.unique_threshold,
                                           args.many_threshold))
    if args.curves:
        atomic_write(args.curves, SweepResult(rows).to_csv())
    labels = [classify_phase(r, args.unique_threshold, args.many_threshold)
              for r in rows]
    return {"rows": len(rows),
            "label_counts": {lb: labels.count(lb) for lb in sorted(set(labels))}}


def _pc_like(args, mapper, pu: bool):
    """Shared body of pc-estimate and pu-estimate (pu=True)."""
    p_grid = np.asarray(parse_grid(args.p))
    _check_unit("--p", *p_grid)
    if args.pq:
        p, q = parse_pq(args.pq)
        try:
            ladder = parse_int_list(args.ladder)
        except ConfigError:
            raise ConfigError(
                f"a tiling's --ladder takes integer layer counts, e.g. 5,6,7; "
                f"got {args.ladder!r}")
        # p_u of a tiling is read from bond percolation on its dual
        mode = "bond" if pu else args.mode
        if pu:
            est = tiling_pu(p, q, ladder, p_grid, args.replicas, args.seed,
                            mapper=mapper)
        else:
            est = tiling_pc(p, q, ladder, p_grid, args.replicas, args.seed,
                            mode=mode, mapper=mapper)
        meta = {"model": f"tiling-{mode}", "pgon": p, "qdeg": q}
    else:
        lams = parse_grid(args.lam)
        ladder = _windows(lams, parse_grid(args.ladder))
        if len(lams) > 1:
            rows, failed = estimate_pc_curve(lams, ladder, p_grid,
                                             args.replicas, args.seed,
                                             mapper=mapper)
            if args.out:
                atomic_write(args.out, pc_curve_csv(rows))
            results = {"model": "voronoi-curve", "rows": rows}
            if failed:
                results["failed"] = failed
            return results
        est = (voronoi_pu if pu else voronoi_pc)(
            lams[0], ladder, p_grid, args.replicas, args.seed, mapper=mapper)
        meta = {"model": "voronoi", "lambda": lams[0]}
    if args.out:
        lines = ["size,p,theta"]
        for size, curve in zip(est.sizes, est.curves):
            for pv, th in zip(est.p_grid, curve):
                lines.append(f"{size:g},{pv:.6f},{th:.6f}")
        atomic_write(args.out, "\n".join(lines) + "\n")
    meta.update({
        "value": est.value, "ci_lo": est.ci_lo, "ci_hi": est.ci_hi,
        "crossings": list(est.crossings), "sizes": list(est.sizes),
        "never_reached": list(est.never_reached),
        "bootstrap_accepted": est.bootstrap_accepted,
    })
    return meta


def cmd_pc_estimate(args, mapper):
    return _pc_like(args, mapper, pu=False)


def cmd_pu_estimate(args, mapper):
    if not args.pq and len(parse_grid(args.lam)) > 1:
        raise ConfigError("pu-estimate takes a single lambda")
    return _pc_like(args, mapper, pu=True)


def cmd_decay(args, mapper):
    p, q = parse_pq(args.pq)
    _check_unit("--p", args.p)
    distances = parse_grid(args.distances)
    # the option's syntax, checked before the ball is built
    if any(d != int(d) for d in distances):
        raise ConfigError(
            f"--d takes integer distances, got {args.distances!r}")
    ball = build_ball(p, q, args.layers)
    fit = connectivity_decay(ball, args.p, distances, args.replicas,
                             args.seed, mapper=mapper)
    lines = ["d,tau,count,trials"]
    for d, tau, c, t in zip(fit.distances, fit.tau, fit.counts, fit.trials):
        lines.append(f"{d},{tau:.6f},{c},{t}")
    atomic_write(args.out, "\n".join(lines) + "\n")
    return {"slope": fit.slope, "intercept": fit.intercept,
            "a_hat": fit.a_hat, "r_squared": fit.r_squared}


def cmd_render(args, mapper):
    if args.Rw is not None:
        _check_radius("--Rw", args.Rw)
    if args.sample:
        try:
            with open(args.sample, encoding="utf-8") as fh:
                pts = ColoredPointSet.deserialize(fh.read())
        except (OSError, KeyError, ValueError) as e:
            raise ConfigError(f"cannot read --sample {args.sample} as a "
                              f"#hpp v1 point-set file: {e}")
        _check_radius(f"the R of --sample {args.sample}", pts.R)
        V = delaunay(pts) if len(pts) >= 3 else None
        doc = svg.render_voronoi(V, R_window=args.Rw)
        meta = {"kind": "voronoi", "n_points": len(pts)}
    elif args.pq:
        p, q = parse_pq(args.pq)
        if args.p is not None:
            _check_unit("--p", args.p)
        ball = build_ball(p, q, args.layers)
        open_edges = None
        if args.p is not None:
            u = replica_rng(args.seed, "bond", 0).random(ball.n_edges)
            open_edges = u < args.p
        doc = svg.render_tiling(ball, open_edges)
        meta = {"kind": "tiling", "n_vertices": ball.n_vertices}
    else:
        doc = svg.render_voronoi(None)
        meta = {"kind": "empty"}
    atomic_write(args.out, doc)
    return meta


# ---------------------------------------------------------------------------
# argument plumbing


def _add_common(sp, out_default="out.csv"):
    sp.add_argument("--seed", type=int, default=42, help="master seed")
    sp.add_argument("--replicas", type=int, default=100)
    sp.add_argument("--out", "-o", default=out_default, help="output path")
    sp.add_argument("--json", default=None, help="JSON run-summary path")
    sp.add_argument("--threads", type=int, default=None,
                    help="worker pool size (default 1)")
    sp.add_argument("--timing", action="store_true",
                    help="record wall time in the JSON summary (breaks "
                         "byte-identical reruns)")
    sp.add_argument("--config", default=None, help=argparse.SUPPRESS)


def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(
        prog="hyperperc",
        description="Percolation experiments on hyperbolic tessellations",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("gen-tiling", help="serialize a {p,q} tiling ball")
    sp.add_argument("--pq", required=True)
    sp.add_argument("--L", dest="layers", type=int, required=True)
    _add_common(sp, "tiling.txt")
    sp.set_defaults(fn=cmd_gen_tiling)

    sp = sub.add_parser("voronoi-sample", help="serialize one colored sample")
    sp.add_argument("--lambda", dest="lam", type=float, required=True)
    sp.add_argument("--p", type=float, default=0.5)
    sp.add_argument("--R", type=float, default=7.0, help="sample radius")
    sp.add_argument("--replica", type=int, default=0)
    _add_common(sp, "sample.txt")
    sp.set_defaults(fn=cmd_voronoi_sample)

    sp = sub.add_parser("densities", help="tessellation density estimates")
    sp.add_argument("--lambda", dest="lam", type=float, required=True)
    sp.add_argument("--R", type=float, default=7.0, help="sample radius")
    sp.add_argument("--Rw", type=float, default=None,
                    help="window radius (default R - 2)")
    _add_common(sp, "densities.csv")
    sp.set_defaults(fn=cmd_densities)

    sp = sub.add_parser("phase-sweep", help="phase table over a p-grid")
    sp.add_argument("--lambda", dest="lam", type=float, default=1.0)
    sp.add_argument("--p", required=True, help="p grid")
    sp.add_argument("--R", default="5", help="window radius list (voronoi)")
    sp.add_argument("--pq", default=None, help="tiling instead of voronoi")
    sp.add_argument("--L", dest="layers", default=None, help="layer list")
    sp.add_argument("--curves", default=None, help="also write raw sweep CSV")
    sp.add_argument("--unique-threshold", type=float, default=0.9)
    sp.add_argument("--many-threshold", type=float, default=0.5)
    _add_common(sp, "phases.csv")
    sp.set_defaults(fn=cmd_phase_sweep)

    pu_about = (
        "p_u is 1 minus the p_c of the dual ball (bond, tilings) or of the "
        "black cells (Voronoi).  --p is the grid on which that p_c is "
        "searched, and --out gets the dual's (or the black cells') reach "
        "curves on their own levels.")
    for name, fn, hlp, about, p_help in (
        ("pc-estimate", cmd_pc_estimate, "critical level estimate", None,
         "p grid"),
        ("pu-estimate", cmd_pu_estimate, "uniqueness level estimate",
         pu_about, "grid on which p_c of the dual (or of the black cells) "
                   "is searched"),
    ):
        sp = sub.add_parser(name, help=hlp, description=about)
        sp.add_argument("--lambda", dest="lam", default="1",
                        help="lambda or lambda grid (voronoi)")
        sp.add_argument("--pq", default=None, help="tiling instead of voronoi")
        sp.add_argument("--ladder", default="3.5,4.5,5.5",
                        help="window radii, or a tiling's integer layer "
                             "counts, strictly increasing")
        sp.add_argument("--p", default="0.04:0.72:0.02", help=p_help)
        if name == "pc-estimate":
            sp.add_argument("--mode", choices=("bond", "site"), default="bond")
        _add_common(sp, out_default=None)
        sp.set_defaults(fn=fn)

    sp = sub.add_parser("decay", help="two-point connectivity decay fit")
    sp.add_argument("--pq", required=True)
    sp.add_argument("--L", dest="layers", type=int, required=True)
    sp.add_argument("--p", type=float, required=True)
    sp.add_argument("--d", dest="distances", default="1:8:1")
    _add_common(sp, "decay.csv")
    sp.set_defaults(fn=cmd_decay)

    sp = sub.add_parser("render", help="SVG picture of a tessellation")
    sp.add_argument("--sample", default=None, help="colored point-set file")
    sp.add_argument("--Rw", type=float, default=None)
    sp.add_argument("--pq", default=None)
    sp.add_argument("--L", dest="layers", type=int, default=3)
    sp.add_argument("--p", type=float, default=None)
    _add_common(sp, "render.svg")
    sp.set_defaults(fn=cmd_render)

    return ap


def _inject_config(argv: list) -> list:
    """Expand `--config FILE` into option tokens placed right after the
    subcommand, so explicit command-line flags still win."""
    if "--config" not in argv:
        return argv
    i = argv.index("--config")
    if i + 1 >= len(argv):
        raise ConfigError("--config needs a file path")
    path = argv[i + 1]
    rest = argv[:i] + argv[i + 2:]
    if not rest:
        raise ConfigError("--config requires a subcommand")
    try:
        with open(path, encoding="utf-8") as fh:
            cfg = parse_config(fh.read())
    except OSError as e:
        raise ConfigError(f"cannot read config {path}: {e}")
    tokens = []
    for k, v in sorted(cfg.items()):
        flag = "--" + k.replace("_", "-")
        if v.lower() in ("true", "false"):
            if v.lower() == "true":
                tokens.append(flag)
        else:
            tokens.extend([flag, v])
    return [rest[0]] + tokens + rest[1:]


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        argv = _inject_config(argv)
        ap = build_parser()
        args = ap.parse_args(argv)
        n_threads = 1 if args.threads is None else args.threads
        if n_threads < 1:
            raise ConfigError("thread count must be >= 1")
        if args.replicas < 1:
            raise ConfigError("need at least one replica")
        if args.seed < 0 or args.seed >= 2**64:
            raise ConfigError("seed must fit in 64 bits")
        mapper = make_mapper(n_threads)
        t0 = time.monotonic()
        results = args.fn(args, mapper)
        wall = time.monotonic() - t0 if args.timing else None
        if args.json:
            config = {k: v for k, v in sorted(vars(args).items())
                      if k not in ("fn", "json", "config", "timing")
                      and v is not None}
            write_summary(args.json, config, results, wall)
        if results.get("failed"):
            # a lambda-curve whose other lambdas were written
            print("numeric failure: " + "; ".join(results["failed"]),
                  file=sys.stderr)
            return 3
        return 0
    except InvalidInput as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except NumericFailure as e:
        print(f"numeric failure: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
