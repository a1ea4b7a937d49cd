"""Hyperbolic plane primitives: ball and polygon areas, geodesic
directions and vectorized circumcenters, with the errors the package
raises.

Samples keep points in hyperbolic polar coordinates (rho, theta), with
curvature -1, and derive the Poincare disk coordinate on demand; keeping
rho as the primary coordinate avoids catastrophic cancellation near the
ideal boundary (at rho = 12 the disk radius is already within ~1e-5 of
1).  Polygons and geodesic directions take their points as disk
coordinates, complex numbers.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

# Working radius cap: beyond this, double precision in disk coordinates
# degrades too far for the geometric predicates used downstream.
WORKING_RADIUS = 12.0

TWO_PI = 2.0 * math.pi


class InvalidInput(ValueError):
    """Base of every refusal of an input, raised by the function that uses
    the value, before it does any work with it."""


class NumericFailure(RuntimeError):
    """Base of every estimate that valid input failed to give (no
    crossing, too little data, a failed cross-check)."""


class DegenerateError(ValueError):
    """Raised for geometrically degenerate input (collinear, collapsed...)."""


class CapExceeded(InvalidInput):
    """Raised when a requested radius or sample size exceeds its cap."""


def ball_area(r: float) -> float:
    """Area of a hyperbolic disk of radius r: 2*pi*(cosh r - 1)."""
    if r < 0:
        raise ValueError("radius must be nonnegative")
    return 4.0 * math.pi * math.sinh(r / 2.0) ** 2


def geodesic_direction(at: complex, toward: complex) -> float:
    """Direction at `at` of the geodesic toward `toward` (disk coordinates).

    The disk isometry w = (z - at) / (1 - conj(at) z) sends `at` to the
    origin and the geodesic to a diameter; its direction is arg w(toward).
    """
    w = (toward - at) / (1.0 - at.conjugate() * toward)
    if w == 0:
        raise DegenerateError("coincident polygon vertices")
    return cmath.phase(w)


def polygon_area(zs) -> float:
    """Gauss-Bonnet area of a geodesic polygon, its corners zs given
    counter-clockwise as disk coordinates: sum of angle defects minus 2*pi.

    For a geodesic polygon the boundary curvature is carried entirely by
    the vertices, so area = sum_i (pi - alpha_i) - 2*pi.
    """
    n = len(zs)
    if n < 3:
        raise DegenerateError(f"a polygon needs at least 3 corners, got {n}")
    angles = []
    for i in range(n):
        u, v, w = zs[i - 1], zs[i], zs[(i + 1) % n]
        angles.append((geodesic_direction(v, u) - geodesic_direction(v, w))
                      % TWO_PI)
    area = sum(math.pi - a for a in angles) - TWO_PI
    if area <= 0:
        raise DegenerateError(
            "angle sum >= (n-2)*pi: not a hyperbolic polygon (or wrong orientation)"
        )
    return area


def circumcenters_arrays(cx, cy, r):
    """Vectorized hyperbolic circumcenters (rho, theta) of triangles, from
    the Euclidean circumcircles of their Poincare images: centres (cx, cy)
    and radii r, each circle inside the open unit disk.

    A hyperbolic circle is a Euclidean circle of the disk, symmetric about
    the diameter through its Euclidean centre c, which it crosses at the
    signed disk radii |c| + r and |c| - r.  Its hyperbolic centre lies on
    that diameter halfway between them in hyperbolic distance:
    rho = artanh(|c| + r) + artanh(|c| - r), theta = arg c.
    """
    a = np.hypot(cx, cy)
    rho = np.arctanh(a + r) + np.arctanh(a - r)
    theta = np.arctan2(cy, cx) % TWO_PI
    return rho, theta
