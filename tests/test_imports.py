"""What importing hyperperc loads, and what its replica paths load later.

Every threshold and sweep path is numpy-only: scipy is imported by whole
complexes (scipy.spatial) and cluster labels (scipy.sparse) alone, when
they are first built.  numpy loads some submodules of its own only when
they are first used, which would put their import inside the first
replica.  numpy.ma is not needed at all: np.median, np.percentile and a
plain np.unique would load it, so the package takes medians, percentiles
and distinct values without them.  Each check runs in a fresh
interpreter, since this session has scipy loaded already.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def _run(code):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC)] + ([os.environ["PYTHONPATH"]]
                      if os.environ.get("PYTHONPATH") else [])))
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_percolation_loads_no_scipy():
    loaded = _run("import json, sys\n"
                  "import hyperperc.percolation\n"
                  "print(json.dumps(sorted(sys.modules)))\n")
    assert [m for m in loaded if m.split(".")[0] == "scipy"] == []


def test_cli_loads_no_scipy():
    loaded = _run("import json, sys\n"
                  "import hyperperc.cli\n"
                  "print(json.dumps(sorted(sys.modules)))\n")
    assert [m for m in loaded if m.split(".")[0] == "scipy"] == []


def test_cli_loads_no_spatial_or_sparse():
    loaded = _run("import json, sys\n"
                  "import hyperperc.cli\n"
                  "print(json.dumps(sorted(sys.modules)))\n")
    assert [m for m in loaded
            if m.startswith(("scipy.spatial", "scipy.sparse"))] == []


# one small call of each threshold and sweep path, each crossing, so that
# the estimator stage runs too; the windows are wide enough that every
# star is local
CALLS = """
import json, sys
import hyperperc.cli
before = set(sys.modules)
import numpy as np
from hyperperc import percolation as P
grid = np.arange(0.02, 0.99, 0.02)
gained = {}
for name, call in [
        ("voronoi_pc", lambda: P.voronoi_pc(1.0, (2.5, 3.0, 3.5), grid, 8, 1)),
        ("tiling_pc", lambda: P.tiling_pc(3, 7, (3, 4, 5), grid, 20, 1)),
        ("tiling_pu", lambda: P.tiling_pu(3, 7, (3, 4, 5), grid, 20, 1)),
        ("tiling_signature_sweep",
         lambda: P.tiling_signature_sweep(3, 7, 3, grid, 1, 1))]:
    call()
    gained[name] = sorted(set(sys.modules) - before)
print(json.dumps(gained))
"""


def test_replica_paths_import_nothing():
    gained = _run(CALLS)
    assert gained == {name: [] for name in gained}
    assert len(gained) == 4


def _masked(modules):
    return [m for m in modules if m.split(".")[:2] == ["numpy", "ma"]]


def test_imports_load_no_numpy_ma():
    for module in ("hyperperc.percolation", "hyperperc.cli"):
        loaded = _run("import json, sys\n"
                      f"import {module}\n"
                      "print(json.dumps(sorted(sys.modules)))\n")
        assert _masked(loaded) == [], module


def test_replica_paths_load_no_numpy_ma():
    # _run reads the last line printed: every module held after all calls
    loaded = _run(CALLS + "print(json.dumps(sorted(sys.modules)))\n")
    assert _masked(loaded) == []
