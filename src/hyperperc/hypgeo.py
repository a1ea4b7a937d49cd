"""Hyperbolic plane primitives: points, ball and polygon areas, geodesic
directions and vectorized circumcenters.

Points live in hyperbolic polar coordinates (rho, theta) with curvature -1.
The Poincare disk coordinate is derived on demand; keeping rho as the
primary coordinate avoids catastrophic cancellation near the ideal
boundary (at rho = 12 the disk radius is already within ~1e-5 of 1).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

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


@dataclass(frozen=True)
class HPoint:
    """A point of the hyperbolic plane in polar form.

    rho is the hyperbolic distance from the origin (>= 0), theta the
    angle in [0, 2*pi).
    """

    rho: float
    theta: float

    def __post_init__(self):
        if self.rho < 0:
            raise ValueError("rho must be nonnegative")
        t = self.theta % TWO_PI
        object.__setattr__(self, "theta", t)

    @staticmethod
    def origin() -> "HPoint":
        return HPoint(0.0, 0.0)

    @staticmethod
    def from_disk(z: complex) -> "HPoint":
        """Build from a Poincare disk coordinate |z| < 1."""
        r = abs(z)
        if r >= 1.0:
            raise ValueError("disk coordinate must satisfy |z| < 1")
        rho = 2.0 * math.atanh(r)
        return HPoint(rho, cmath.phase(z) % TWO_PI)

    @property
    def disk(self) -> complex:
        """Poincare disk coordinate tanh(rho/2) * e^{i theta}."""
        return math.tanh(self.rho / 2.0) * cmath.exp(1j * self.theta)


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


@dataclass(frozen=True)
class GeodesicPolygon:
    """Simple geodesic polygon given by counterclockwise-ordered vertices."""

    vertices: tuple

    def __post_init__(self):
        if len(self.vertices) < 3:
            raise ValueError("polygon needs at least 3 vertices")
        object.__setattr__(self, "vertices", tuple(self.vertices))

    def interior_angles(self) -> list:
        zs = [v.disk for v in self.vertices]
        n = len(zs)
        angles = []
        for i in range(n):
            u, v, w = zs[i - 1], zs[i], zs[(i + 1) % n]
            a = (geodesic_direction(v, u) - geodesic_direction(v, w)) % TWO_PI
            angles.append(a)
        return angles


def polygon_area(poly: GeodesicPolygon) -> float:
    """Gauss-Bonnet area of a geodesic polygon: sum of angle defects minus 2*pi.

    For a geodesic polygon the boundary curvature is carried entirely by
    the vertices, so area = sum_i (pi - alpha_i) - 2*pi.
    """
    angles = poly.interior_angles()
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
