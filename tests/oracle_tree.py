"""Exact reach curves of the d-regular tree under bond percolation.

The root has d children and every other vertex d - 1.  With q_k the
chance that a non-root vertex joins depth k below it, q_0 = 1 and
q_k = 1 - (1 - p q_{k-1})^(d-1), so the root joins depth L with chance
theta_L(p) = 1 - (1 - p q_{L-1})^d.  Bond p_c of the tree is 1/(d - 1).
"""

import numpy as np


def tree_theta(d, L, p):
    """theta_L(p) on the d-regular tree, elementwise in p, for L >= 1."""
    p = np.asarray(p, dtype=float)
    q = np.ones_like(p)
    for _ in range(L - 1):
        q = 1.0 - (1.0 - p * q) ** (d - 1)
    return 1.0 - (1.0 - p * q) ** d
