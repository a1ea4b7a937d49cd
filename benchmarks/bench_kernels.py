"""Benchmark the filtration kernel under both backends.

Runs itself twice in subprocesses with HYPERPERC_BACKEND set to numba
and numpy (the backend is fixed at import time), then prints a
side-by-side table of per-call times and the speedup for the bond and
site reach thresholds and the sweep counts, all read from the one
union-find filtration.

Usage: python3 benchmarks/bench_kernels.py [--layers 8] [--repeats 20]
"""

import argparse
import json
import os
import subprocess
import sys
import time

import numpy as np

# the checkout's package, ahead of any installed copy
SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                   "src")


def run_kernels(layers: int, repeats: int) -> dict:
    from hyperperc._kernels import (
        BACKEND,
        bond_reach_threshold,
        filtration,
        site_reach_threshold,
    )
    from hyperperc.percolation import tiling_instance
    from hyperperc.tilinggraph import build_ball

    ball = build_ball(3, 7, layers)
    inst = tiling_instance(ball, core_radius=0)
    eu = np.ascontiguousarray(inst.edges[:, 0])
    ev = np.ascontiguousarray(inst.edges[:, 1])
    rng = np.random.default_rng(0)
    u_edges = rng.random(len(eu))
    u_sites = rng.random(inst.n)
    order = np.argsort(u_edges)
    # the forward pass of a signature sweep on a 21-point grid
    cuts = np.searchsorted(u_edges[order], np.linspace(0.1, 0.5, 21))

    cases = {
        "bond_reach_threshold": lambda: bond_reach_threshold(
            inst.n, eu, ev, u_edges, order, inst.core, inst.shell),
        "site_reach_threshold": lambda: site_reach_threshold(
            inst.n, eu, ev, u_sites, inst.core, inst.shell),
        "sweep_counts": lambda: filtration(
            inst.n, eu, ev, order, inst.core, inst.shell, cuts),
    }
    out = {"backend": BACKEND, "n": inst.n, "m": len(eu), "times": {}}
    for name, fn in cases.items():
        fn()  # warmup / jit compile
        t0 = time.perf_counter()
        for _ in range(repeats):
            fn()
        out["times"][name] = (time.perf_counter() - t0) / repeats
    return out


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--layers", type=int, default=8)
    ap.add_argument("--repeats", type=int, default=20)
    ap.add_argument("--single", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args()

    if args.single:
        print(json.dumps(run_kernels(args.layers, args.repeats)))
        return 0

    results = {}
    for backend in ("numba", "numpy"):
        path = [SRC] + ([os.environ["PYTHONPATH"]]
                        if os.environ.get("PYTHONPATH") else [])
        env = dict(os.environ, HYPERPERC_BACKEND=backend,
                   PYTHONPATH=os.pathsep.join(path))
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--single",
             "--layers", str(args.layers), "--repeats", str(args.repeats)],
            env=env, capture_output=True, text=True,
        )
        if proc.returncode != 0:
            print(f"{backend}: unavailable ({proc.stderr.strip().splitlines()[-1]})")
            continue
        results[backend] = json.loads(proc.stdout.splitlines()[-1])

    if not results:
        return 1
    any_res = next(iter(results.values()))
    print(f"{{3,7}} ball, {any_res['n']} vertices / {any_res['m']} edges, "
          f"{args.repeats} repeats\n")
    print(f"{'kernel':<24}" + "".join(f"{b + ' (ms)':>14}" for b in results)
          + ("      speedup" if len(results) == 2 else ""))
    for name in any_res["times"]:
        row = f"{name:<24}"
        vals = [results[b]["times"][name] for b in results]
        row += "".join(f"{v * 1e3:>14.3f}" for v in vals)
        if len(vals) == 2:
            row += f"{vals[1] / vals[0]:>12.1f}x"
        print(row)
    return 0


if __name__ == "__main__":
    sys.exit(main())
