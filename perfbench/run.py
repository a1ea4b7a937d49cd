"""hyperperc replica-throughput benchmark.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload voronoi-pc --seed 42 --seconds 40 --trace 0

Starts one serial job process after another (``job.py``) until
``--seconds`` is spent, checks every job's output and prints the
environment, then, as the last line, one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, timed in reference seconds (``hostspeed.py``) and preceded
by a line with their wall-clock values, the per-layer metrics with
``--trace 1``.  Workloads, sizes
and host noise are described in perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import job as jobspec

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("voronoi-pc", "tiling-sweep", "tiling-thresholds")
DEFAULT_SEED = 42
MIN_JOBS = 3           # untraced jobs per run; traced runs make MIN_JOBS pairs
JOB_TIMEOUT_S = 150

# Output digests at the default seed and normal size, numpy backend,
# numpy 2.4.6 / scipy 1.17.1.  A mismatch fails the run: a change that is
# meant to alter results must say so and re-pin these.
PINNED = {
    "voronoi-pc": "55b9f4ec8881cbdabfa34748403461918742eaedd96638e3d8834f1fa125f4d7",
    "tiling-sweep": "0835b4ed726185f24bf5e71c4d478b2d99aed1c0b11d8f6d028dffd1199d9f00",
    "tiling-thresholds": "20d5e40e4df010525d544d708922e54951822e18be3d1ad511e4f9d8581a3cd4",
}

END_TO_END_UNITS = {"replicas_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MB"}


def environment() -> dict:
    """Versions and machine; the import in the child also writes the
    package's bytecode, so that no timed import compiles it."""
    code = ("import json, sys, numpy, scipy, hyperperc.percolation, "
            "hyperperc._kernels as k, importlib.util as u; "
            "print(json.dumps({'backend': k.BACKEND, "
            "'python': sys.version.split()[0], 'numpy': numpy.__version__, "
            "'scipy': scipy.__version__, "
            "'numba': u.find_spec('numba') is not None}))")
    out = subprocess.run([sys.executable, "-c", code], env=_job_env(),
                         capture_output=True, text=True, timeout=120,
                         check=True)
    env = json.loads(out.stdout)
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        cpu = platform.processor() or "unknown"
    env.update(nproc=len(os.sched_getaffinity(0)), cpu=cpu,
               platform=platform.platform())
    return env


def _job_env():
    env = dict(os.environ)
    # jobs import compiled bytecode, as an installed package would
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def _job(workload, seed, size, trace):
    cmd = [sys.executable, str(HERE / "job.py"), "--workload", workload,
           "--seed", str(seed), "--size", size] + (["--trace"] if trace else [])
    failed = {"tasks": jobspec.tasks(workload, size)}
    t0 = time.perf_counter()
    try:
        proc = subprocess.run(cmd, env=_job_env(), capture_output=True,
                              text=True, timeout=JOB_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return dict(failed, error=f"job timed out after {JOB_TIMEOUT_S} s"), JOB_TIMEOUT_S
    elapsed = time.perf_counter() - t0
    if proc.returncode != 0:
        tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
        return dict(failed, error=f"job exited {proc.returncode}: {tail[0]}"), elapsed
    return json.loads(proc.stdout.strip().splitlines()[-1]), elapsed


def run_jobs(workload, seed, seconds, trace, size):
    """Jobs until the time is spent; traced runs alternate plain/traced."""
    pattern = (False, True) if trace else (False,)
    jobs = []
    start = time.perf_counter()
    last = 0.0
    while True:
        elapsed = time.perf_counter() - start
        if len(jobs) >= MIN_JOBS * len(pattern) and elapsed + last > seconds:
            break
        round_s = 0.0
        for traced in pattern:
            job, job_s = _job(workload, seed, size, traced)
            job["traced"] = traced
            jobs.append(job)
            round_s += job_s
        last = round_s
    return jobs


def tail_percentile(n: int) -> float:
    """Highest of 50/75/90/95/99/99.9 with at least ten samples beyond it."""
    best = 50.0
    for q in (75.0, 90.0, 95.0, 99.0, 99.9):
        if n * (1.0 - q / 100.0) >= 10.0:
            best = q
    return best


def percentile(values, q):
    xs = sorted(values)
    pos = (len(xs) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def end_to_end(jobs, clock="ref"):
    """Medians over the jobs; times in reference seconds (hostspeed.py),
    or in wall seconds with ``clock="wall"``."""
    wall, setup = ("wall_ref", "setup_ref") if clock == "ref" else ("wall_s", "setup_s")
    return {
        "replicas_per_s": statistics.median(j["tasks"] / j[wall] for j in jobs),
        "setup_s": statistics.median(j[setup] for j in jobs),
        "peak_rss_mb": statistics.median(j["rss_mb"] for j in jobs),
    }


def per_layer(plain, traced):
    """Per-job medians over the traced jobs, pooled replica percentiles."""
    med = statistics.median

    def self_ms(name):
        return med(j["trace"]["self_ms"].get(name, 0.0) for j in traced)

    def calls(name):
        return med(j["trace"]["calls"].get(name, 0) for j in traced)

    def count(name):
        return med(j["trace"]["counts"].get(name, 0) for j in traced)

    replica = [d for j in traced for d in j["trace"]["replica_ms"]]
    q = tail_percentile(len(replica))
    simplices = count("hypvoronoi.simplices")
    plain_wall = med(j["wall_s"] for j in plain)
    uncovered = med(j["wall_s"] - j["trace"]["covered_s"] for j in traced)
    m = {}
    for name in ("hypvoronoi.delaunay", "hypvoronoi.qhull", "hypvoronoi.masks",
                 "hypgeo.circumcenters", "graphs.csr", "kernels.site_reach",
                 "pointprocess.sample", "kernels.label", "percolation.k_proxy",
                 "kernels.bond_reach", "percolation.estimate",
                 "tilinggraph.build_ball", "tilinggraph.dual_ball",
                 "percolation.instance", "graphs.bfs"):
        m[name + "_ms"] = (self_ms(name), "ms")
    for name in ("kernels.site_reach", "kernels.label", "kernels.bond_reach"):
        m[name + "_calls"] = (calls(name), "count")
    m["hypvoronoi.faces_kept_ratio"] = (
        count("hypvoronoi.faces_kept") / simplices if simplices else 0.0, "ratio")
    m["pointprocess.nuclei"] = (count("pointprocess.nuclei"), "count")
    m["tilinggraph.vertices"] = (count("tilinggraph.vertices"), "count")
    m["percolation.replica_p50_ms"] = (percentile(replica, 50.0), "ms")
    m["percolation.replica_tail_ms"] = (percentile(replica, q), "ms")
    m["percolation.replica_tail_pct"] = (q, "%")
    m["percolation.replica_n"] = (len(replica), "count")
    m["percolation.never_reached"] = (med(j["never_reached"] for j in traced), "count")
    m["percolation.no_crossing"] = (med(j["no_crossing"] for j in traced), "count")
    m["trace.overhead_s"] = (med(j["wall_s"] for j in traced) - plain_wall, "s")
    m["trace.coverage"] = (1.0 - uncovered / plain_wall, "ratio")
    return m


def verify(jobs, workload, seed, size):
    """Indices of failed jobs and why; a failed job fails all its tasks.

    Every job of a run repeats the same call, so all digests must equal
    the first one, or the pinned one at the default seed and size.
    """
    ref = PINNED[workload] if seed == DEFAULT_SEED and size == "normal" else None
    problems = {}
    for i, j in enumerate(jobs):
        if "error" in j:
            problems[i] = [j["error"]]
            continue
        if ref is None:
            ref = j["digest"]
        why = list(j["violations"])
        if j["digest"] != ref:
            why.append(f"digest {j['digest'][:16]} != {ref[:16]}")
        if why:
            problems[i] = why
    return problems


def main(argv=None):
    ap = argparse.ArgumentParser(description="hyperperc replica-throughput benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("normal", "tiny"), default="normal",
                    help="tiny: the self-check's sizes; digests are not pinned")
    ap.add_argument("--save", default=None,
                    help="also write environment, jobs and result to this JSON file")
    args = ap.parse_args(argv)

    if not (SRC / "hyperperc" / "__init__.py").is_file():
        print(f"no hyperperc source under {SRC}", file=sys.stderr)
        return 2
    env = environment()
    print("env " + json.dumps(env, sort_keys=True))

    jobs = run_jobs(args.workload, args.seed, args.seconds, bool(args.trace),
                    args.size)
    problems = verify(jobs, args.workload, args.seed, args.size)
    for i, why in problems.items():
        print(f"FAIL job {i}: " + "; ".join(why), file=sys.stderr)
    attempted = sum(j["tasks"] for j in jobs)
    failed = sum(jobs[i]["tasks"] for i in problems)

    # timings of a job whose output failed a check are still measurements
    ran = [j for j in jobs if "error" not in j]
    plain = [j for j in ran if not j["traced"]]
    traced = [j for j in ran if j["traced"]]
    metrics = {}
    if plain and (traced or not args.trace):
        if args.trace:
            values = per_layer(plain, traced)
        else:
            wall = end_to_end(plain, clock="wall")
            slow = statistics.median(j["host_slowdown"] for j in plain)
            print(f"wall-clock replicas_per_s {wall['replicas_per_s']:.4f} "
                  f"setup_s {wall['setup_s']:.4f}; host slowdown {slow:.3f}")
            values = {k: (v, END_TO_END_UNITS[k]) for k, v in end_to_end(plain).items()}
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in values.items()}
    result = {"correct": not problems, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    if args.save:
        with open(args.save, "w") as fh:
            json.dump({"workload": args.workload, "seed": args.seed,
                       "seconds": args.seconds, "trace": args.trace,
                       "size": args.size, "env": env, "jobs": jobs,
                       "result": result}, fh, indent=1)
    print(json.dumps(result))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
