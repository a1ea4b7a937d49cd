"""Hot Monte Carlo kernels: union-find labeling and percolation filtrations.

Each kernel is written as a plain function over numpy arrays and compiled
with numba's @njit when available.  Set HYPERPERC_BACKEND=numpy to force
the uncompiled pure-Python/numpy path (used as a correctness reference
and on platforms without numba); HYPERPERC_BACKEND=numba fails loudly if
numba is missing.  benchmarks/bench_kernels.py compares the two.
"""

from __future__ import annotations

import os

import numpy as np

_CHOICE = os.environ.get("HYPERPERC_BACKEND", "auto").lower()
if _CHOICE not in ("auto", "numba", "numpy"):
    raise ValueError("HYPERPERC_BACKEND must be auto, numba or numpy")

if _CHOICE == "numpy":
    USE_NUMBA = False
else:
    try:
        from numba import njit  # noqa: F401

        USE_NUMBA = True
    except ImportError:
        if _CHOICE == "numba":
            raise
        USE_NUMBA = False

BACKEND = "numba" if USE_NUMBA else "numpy"


def _maybe_jit(fn):
    if USE_NUMBA:
        return njit(cache=True, nogil=True)(fn)
    return fn


def _find(parent, i):
    root = i
    while parent[root] != root:
        root = parent[root]
    while parent[i] != root:
        nxt = parent[i]
        parent[i] = root
        i = nxt
    return root


_find = _maybe_jit(_find)


def _label_clusters_impl(n, eu, ev, edge_open, site_open):
    """Union-find labels over open edges between open sites.

    Returns an array where labels[i] is the root index of i's cluster,
    or -1 for closed sites.
    """
    parent = np.arange(n)
    for k in range(len(eu)):
        if not edge_open[k]:
            continue
        u, v = eu[k], ev[k]
        if not (site_open[u] and site_open[v]):
            continue
        ru = _find(parent, u)
        rv = _find(parent, v)
        if ru != rv:
            if ru < rv:
                parent[rv] = ru
            else:
                parent[ru] = rv
    labels = np.empty(n, dtype=np.int64)
    for i in range(n):
        labels[i] = _find(parent, i) if site_open[i] else -1
    return labels


def _bond_reach_threshold_impl(n, eu, ev, uniforms, order, core, shell):
    """Bottleneck threshold of core-to-shell connectivity for bond filtration.

    Edges open in increasing order of their uniform mark; returns the
    uniform at which some core site first joins some shell site (2.0 when
    that never happens, e.g. disconnected masks).
    """
    parent = np.arange(n)
    has_core = core.copy()
    has_shell = shell.copy()
    for i in range(n):
        if has_core[i] and has_shell[i]:
            return 0.0
    for idx in range(len(order)):
        k = order[idx]
        ru = _find(parent, eu[k])
        rv = _find(parent, ev[k])
        if ru == rv:
            continue
        if rv < ru:
            ru, rv = rv, ru
        parent[rv] = ru
        hc = has_core[ru] or has_core[rv]
        hs = has_shell[ru] or has_shell[rv]
        has_core[ru] = hc
        has_shell[ru] = hs
        if hc and hs:
            return uniforms[k]
    return 2.0


def _site_reach_threshold_impl(n, indptr, indices, uniforms, order, core, shell):
    """Like the bond version, but sites activate at their uniform mark.

    A site joins the cluster structure when activated and unions with
    already-active neighbors; returns the activation value at which some
    active core site first connects to some active shell site.
    """
    parent = np.arange(n)
    active = np.zeros(n, dtype=np.bool_)
    has_core = np.zeros(n, dtype=np.bool_)
    has_shell = np.zeros(n, dtype=np.bool_)
    for idx in range(len(order)):
        v = order[idx]
        active[v] = True
        has_core[v] = core[v]
        has_shell[v] = shell[v]
        for j in range(indptr[v], indptr[v + 1]):
            u = indices[j]
            if not active[u]:
                continue
            ru = _find(parent, u)
            rv = _find(parent, v)
            if ru == rv:
                continue
            if rv < ru:
                ru, rv = rv, ru
            parent[rv] = ru
            has_core[ru] = has_core[ru] or has_core[rv]
            has_shell[ru] = has_shell[ru] or has_shell[rv]
        rv = _find(parent, v)
        if has_core[rv] and has_shell[rv]:
            return uniforms[v]
    return 2.0


label_clusters_kernel = _maybe_jit(_label_clusters_impl)
bond_reach_threshold = _maybe_jit(_bond_reach_threshold_impl)
site_reach_threshold = _maybe_jit(_site_reach_threshold_impl)

# Uncompiled references, for the backend-equivalence tests and benchmarks.
label_clusters_py = _label_clusters_impl
bond_reach_threshold_py = _bond_reach_threshold_impl
site_reach_threshold_py = _site_reach_threshold_impl
