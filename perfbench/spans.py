"""Spans recorded from outside hyperperc, around the calls into each module.

A wrapper is installed where the *calling* module looks a name up (for
example ``hyperperc.percolation.csr_adjacency``, not
``hyperperc.graphs.csr_adjacency``), so only the calls the workload makes
through that module are timed.  Every wrapper is removed on exit.  Spans
live in memory; self time is a span's duration minus its direct
children's durations.
"""

from __future__ import annotations

import importlib
import time
from collections import defaultdict
from contextlib import contextmanager

# (module, attribute, span name).  The setup targets are timed in every job,
# because setup_s counts the replica-independent builds inside the library
# call; the layer targets only in traced jobs.
SETUP_TARGETS = [
    ("hyperperc.percolation", "build_ball", "tilinggraph.build_ball"),
    ("hyperperc.percolation", "dual_ball", "tilinggraph.dual_ball"),
    ("hyperperc.percolation", "tiling_instance", "percolation.instance"),
]
LAYER_TARGETS = [
    ("hyperperc.percolation", "bfs_distances", "graphs.bfs"),
    ("hyperperc.percolation", "sample_poisson_ball", "pointprocess.sample"),
    ("hyperperc.percolation", "delaunay", "hypvoronoi.delaunay"),
    ("hyperperc.hypvoronoi", "_EuclideanDelaunay", "hypvoronoi.qhull"),
    ("hyperperc.hypvoronoi", "circumcenters_arrays", "hypgeo.circumcenters"),
    ("hyperperc.percolation", "shell_cell_mask", "hypvoronoi.masks"),
    ("hyperperc.percolation", "core_cell_mask", "hypvoronoi.masks"),
    ("hyperperc.percolation", "csr_adjacency", "graphs.csr"),
    ("hyperperc.percolation", "site_reach_threshold", "kernels.site_reach"),
    ("hyperperc.percolation", "bond_reach_threshold", "kernels.bond_reach"),
    ("hyperperc.percolation", "label_clusters_kernel", "kernels.label"),
    ("hyperperc.percolation", "estimate_pc", "percolation.estimate"),
]
REPLICA = "percolation.replica"


class Recorder:
    """In-memory spans of one job: (name, start, end, parent index).

    ``before_top`` is called before each top-level span opens, outside it.
    """

    def __init__(self, before_top=None):
        self.spans = []
        self._stack = []
        self.counts = defaultdict(int)
        self._before_top = before_top

    @contextmanager
    def span(self, name):
        if not self._stack and self._before_top is not None:
            self._before_top()
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent])
        self._stack.append(idx)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[idx][2] = time.perf_counter()

    def wrap(self, fn, name):
        def wrapper(*args, **kwargs):
            with self.span(name):
                out = fn(*args, **kwargs)
            self._count(name, out)
            return out

        return wrapper

    def _count(self, name, out):
        if name == "pointprocess.sample":
            self.counts["pointprocess.nuclei"] += len(out[0])
        elif name == "hypvoronoi.qhull":
            self.counts["hypvoronoi.simplices"] += len(out.simplices)
        elif name == "hypvoronoi.delaunay":
            self.counts["hypvoronoi.faces_kept"] += len(out.faces)
        elif name in ("tilinggraph.build_ball", "tilinggraph.dual_ball"):
            self.counts["tilinggraph.vertices"] += out.n_vertices

    @contextmanager
    def installed(self, targets, k_proxy=False):
        """Swap the wrappers in for the duration of the block."""
        saved = []
        try:
            for mod_name, attr, name in targets:
                mod = importlib.import_module(mod_name)
                orig = getattr(mod, attr)
                saved.append((mod, attr, orig))
                setattr(mod, attr, self.wrap(orig, name))
            if k_proxy:
                cls = importlib.import_module("hyperperc.percolation").ClusterLabeling
                prop = cls.__dict__["k_proxy"]
                saved.append((cls, "k_proxy", prop))
                cls.k_proxy = property(self.wrap(prop.fget, "percolation.k_proxy"))
            yield
        finally:
            for owner, attr, orig in reversed(saved):
                setattr(owner, attr, orig)

    def durations(self, name):
        return [end - start for n, start, end, _ in self.spans if n == name]

    def self_times(self):
        """Total self time (s) and call count per span name."""
        total = defaultdict(float)
        calls = defaultdict(int)
        for n, start, end, _ in self.spans:
            total[n] += end - start
            calls[n] += 1
        for n, start, end, parent in self.spans:
            if parent >= 0:
                total[self.spans[parent][0]] -= end - start
        return dict(total), dict(calls)

    def covered_s(self):
        """Wall time inside top-level spans (they never overlap)."""
        return sum(end - start for _, start, end, parent in self.spans
                   if parent < 0)
