"""One benchmark job in a fresh process: import, one workload call, report.

Usage: python3 perfbench/job.py --workload NAME --seed N --size normal|tiny
       [--trace]

Prints one JSON object: timings, peak RSS, the digest of every output and
any invariant that failed.  ``run.py`` starts this once per job, so the
import time is measured cold in every job and nothing is cached between
jobs.  The checkout's ``src`` must come first on PYTHONPATH.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import resource
import statistics
import time
from pathlib import Path

import hostspeed
import spans

# Replicas per call.  "tiny" only feeds the self-check.
SIZES = {
    "voronoi-pc": {"normal": 20, "tiny": 2},
    "tiling-sweep": {"normal": 10, "tiny": 1},
    "tiling-thresholds": {"normal": 100, "tiny": 3},
}

# Replica tasks per replica: one per rung, or one per grid sweep.
TASKS_PER_REPLICA = {"voronoi-pc": 3, "tiling-sweep": 1, "tiling-thresholds": 9}

VORONOI_GRID = [0.04 + 0.02 * i for i in range(34)]    # 0.04:0.70:0.02
SWEEP_GRID = [0.10 + 0.02 * i for i in range(21)]      # 0.10:0.50:0.02


def tasks(workload, size):
    return TASKS_PER_REPLICA[workload] * SIZES[workload][size]


def _calls(P, workload, replicas, seed, mapper):
    """(label, thunk) per library call of the workload.

    Grids and ladders are those of the acceptance suite (criteria 5 and 6)
    and of ``hyperperc pc-estimate --lambda 1`` / ``phase-sweep --pq 3,7``.
    """
    import numpy as np  # only after the timed import of hyperperc

    if workload == "voronoi-pc":
        return [("voronoi_pc", lambda: P.voronoi_pc(
            1.0, (3.5, 4.5, 5.5), VORONOI_GRID, replicas, seed,
            mapper=mapper))]
    if workload == "tiling-sweep":
        return [("sweep", lambda: P.tiling_signature_sweep(
            3, 7, 7, SWEEP_GRID, replicas, seed, mapper=mapper))]
    if workload == "tiling-thresholds":
        lo = np.arange(0.04, 0.62, 0.02)
        hi = np.arange(0.3, 0.96, 0.02)
        ladder = (5, 6, 7)
        return [
            ("pc37", lambda: P.tiling_pc(3, 7, ladder, lo, replicas, seed,
                                         mapper=mapper)),
            ("pu37", lambda: P.tiling_pu(3, 7, ladder, hi, replicas, seed,
                                         mapper=mapper)),
            ("pc73", lambda: P.tiling_pc(7, 3, ladder, hi, replicas, seed,
                                         mapper=mapper)),
        ]
    raise ValueError(f"unknown workload {workload!r}")


def _plain(x):
    """JSON-ready copy of a replica output (floats keep every digit)."""
    if isinstance(x, (list, tuple)):
        return [_plain(v) for v in x]
    if isinstance(x, (bool, int)):
        return x
    if hasattr(x, "item"):
        return x.item()
    return float(x)


def _check(P, label, result, violations):
    """Invariants that hold at every size and seed."""
    if isinstance(result, P.PcEstimate):
        if not result.ci_lo <= result.value <= result.ci_hi:
            violations.append(f"{label}: ci_lo <= value <= ci_hi fails")
        return {"value": result.value, "ci_lo": result.ci_lo,
                "ci_hi": result.ci_hi, "crossings": list(result.crossings)}
    rows = result.rows
    for a, b in zip(rows, rows[1:]):
        if b.theta < a.theta:
            violations.append(f"{label}: theta falls at p={b.p:.2f}")
        if b.theta_b > a.theta_b:
            violations.append(f"{label}: theta_b rises at p={b.p:.2f}")
    return {"csv": result.to_csv(),
            "theta_b": [r.theta_b for r in rows],
            "unique_b": [r.unique_b for r in rows]}


def run_job(workload, seed, size, trace, src):
    clock = hostspeed.Clock()
    clock.sample()
    t0 = time.perf_counter()
    P = importlib.import_module("hyperperc.percolation")
    t1 = time.perf_counter()
    clock.sample()
    if not Path(P.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"hyperperc imported from {P.__file__}, not {src}")

    # samples go between top-level steps, never inside a span
    rec = spans.Recorder(before_top=clock.maybe_sample)
    outputs = []

    def mapper(fn, items):
        for item in items:
            clock.maybe_sample()
            if trace:
                with rec.span(spans.REPLICA):
                    out = fn(item)
            else:
                out = fn(item)
            outputs.append(out)
            yield out

    calls = _calls(P, workload, SIZES[workload][size], seed, mapper)
    n_tasks = tasks(workload, size)
    targets = spans.SETUP_TARGETS + (spans.LAYER_TARGETS if trace else [])
    results = []
    with rec.installed(targets, k_proxy=trace):
        start = time.perf_counter()
        for label, thunk in calls:
            try:
                results.append((label, thunk()))
            except P.NoCrossing as exc:
                results.append((label, exc))
        clock.sample()
        end = clock.samples[-1][0]

    violations = []
    record = []
    no_crossing = 0
    for label, res in results:
        if isinstance(res, P.NoCrossing):
            no_crossing += 1
            record.append([label, "NoCrossing", str(res)])
        else:
            record.append([label, _check(P, label, res, violations)])
    replica_out = [_plain(o) for o in outputs]
    if len(replica_out) != n_tasks:
        violations.append(f"{len(replica_out)} replica outputs, want {n_tasks}")
    never_reached = 0
    if workload != "tiling-sweep":
        never_reached = sum(1 for t in replica_out if t == 2.0)
        if any(not (0.0 <= t <= 1.0 or t == 2.0) for t in replica_out):
            violations.append("threshold outside [0, 1] and not 2.0")
    record.append(["replicas", replica_out])
    digest = hashlib.sha256(json.dumps(record).encode()).hexdigest()

    setup_names = {name for _, _, name in spans.SETUP_TARGETS}
    builds = [(a, b) for n, a, b, _ in rec.spans if n in setup_names]
    slow = [(b - a) / hostspeed.REF_S for a, b in clock.samples]
    out = {
        "workload": workload,
        "tasks": n_tasks,
        # wall times leave the reference samples out; *_ref are in
        # reference seconds (hostspeed.py)
        "wall_s": end - start - clock.sampling_s(start, end),
        "wall_ref": clock.scaled(start, end),
        "import_s": t1 - t0,
        "setup_s": t1 - t0 + sum(b - a for a, b in builds),
        "setup_ref": clock.scaled(t0, t1) + sum(clock.scaled(a, b) for a, b in builds),
        "host_slowdown": statistics.median(slow),
        "host_samples": len(slow),
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "digest": digest,
        "violations": violations,
        "no_crossing": no_crossing,
        "never_reached": never_reached,
        "trace": None,
    }
    if trace:
        self_s, calls_n = rec.self_times()
        out["trace"] = {
            "self_ms": {n: 1e3 * s for n, s in self_s.items()},
            "calls": calls_n,
            "counts": dict(rec.counts),
            "replica_ms": [1e3 * d for d in rec.durations(spans.REPLICA)],
            "covered_s": rec.covered_s(),
        }
    return out


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(SIZES))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--size", choices=("normal", "tiny"), default="normal")
    ap.add_argument("--trace", action="store_true")
    args = ap.parse_args(argv)
    src = (Path(__file__).resolve().parent.parent / "src").resolve()
    out = run_job(args.workload, args.seed, args.size, args.trace, src)
    print(json.dumps(out))


if __name__ == "__main__":
    main()
