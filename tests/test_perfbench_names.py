"""The library names that perfbench reads must keep resolving.

perfbench/spans.py wraps functions by (module, attribute) and
perfbench/job.py calls hyperperc.percolation through `P.<name>`; a name
that disappears from the library breaks a traced benchmark run.  Each
workload also runs once, tiny and traced, so a kernel that leaves the
traced path fails here rather than in the benchmark.
"""

import importlib
import importlib.util
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from hyperperc import _kernels, percolation

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _spans():
    spec = importlib.util.spec_from_file_location(
        "perfbench_spans", PERFBENCH / "spans.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


SPANS = _spans()


@pytest.mark.parametrize(
    "module,attr",
    [(m, a) for m, a, _ in SPANS.SETUP_TARGETS + SPANS.LAYER_TARGETS])
def test_wrapped_names_resolve(module, attr):
    assert callable(getattr(importlib.import_module(module), attr))


def test_k_proxy_is_a_property_of_cluster_labeling():
    assert isinstance(percolation.ClusterLabeling.__dict__["k_proxy"], property)


def test_backend_is_numpy():
    assert _kernels.BACKEND == "numpy"


def test_job_calls_exist():
    names = set(re.findall(r"\bP\.(\w+)", (PERFBENCH / "job.py").read_text()))
    assert names
    missing = sorted(n for n in names if not hasattr(percolation, n))
    assert not missing


# the span each workload's thresholds must pass through
TRACED_KERNEL = {
    "voronoi-pc": "kernels.site_reach",
    "tiling-sweep": None,
    "tiling-thresholds": "kernels.bond_reach",
}


@pytest.mark.parametrize("workload", sorted(TRACED_KERNEL))
def test_traced_job_runs_through_the_kernels(workload):
    src = str(PERFBENCH.parent / "src")
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1",
               PYTHONPATH=os.pathsep.join(
                   [src] + ([os.environ["PYTHONPATH"]]
                            if os.environ.get("PYTHONPATH") else [])))
    proc = subprocess.run(
        [sys.executable, str(PERFBENCH / "job.py"), "--workload", workload,
         "--seed", "42", "--size", "tiny", "--trace"],
        env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    assert out["violations"] == []
    kernel = TRACED_KERNEL[workload]
    if kernel is not None:
        assert out["trace"]["calls"].get(kernel, 0) > 0
