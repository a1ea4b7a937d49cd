"""The library names that perfbench reads must keep resolving.

perfbench/spans.py wraps functions by (module, attribute) and
perfbench/job.py calls hyperperc.percolation through `P.<name>`; a name
that disappears from the library breaks a traced benchmark run.
"""

import importlib
import importlib.util
import re
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
