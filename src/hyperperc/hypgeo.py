"""Hyperbolic plane primitives: points, distances, isometries, polygon areas.

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


class DegenerateError(ValueError):
    """Raised for geometrically degenerate input (collinear, collapsed...)."""


class CapExceeded(ValueError):
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

    @property
    def hyperboloid(self) -> np.ndarray:
        """Minkowski hyperboloid lift (sinh rho cos t, sinh rho sin t, cosh rho)."""
        s = math.sinh(self.rho)
        return np.array(
            [s * math.cos(self.theta), s * math.sin(self.theta), math.cosh(self.rho)]
        )


def dist(a: HPoint, b: HPoint) -> float:
    """Hyperbolic distance between two points.

    Uses the half-angle rearrangement of the hyperbolic law of cosines,
        sinh^2(d/2) = sinh^2((ra-rb)/2) + sinh(ra) sinh(rb) sin^2(dt/2),
    which is numerically stable for nearby points.
    """
    dt = a.theta - b.theta
    s = math.sinh(0.5 * (a.rho - b.rho)) ** 2 + (
        math.sinh(a.rho) * math.sinh(b.rho) * math.sin(0.5 * dt) ** 2
    )
    return 2.0 * math.asinh(math.sqrt(s))


def dist_arrays(rho1, theta1, rho2, theta2):
    """Vectorized hyperbolic distance for numpy arrays of polar coordinates."""
    s = np.sinh(0.5 * (rho1 - rho2)) ** 2 + (
        np.sinh(rho1) * np.sinh(rho2) * np.sin(0.5 * (theta1 - theta2)) ** 2
    )
    return 2.0 * np.arcsinh(np.sqrt(s))


def ball_area(r: float) -> float:
    """Area of a hyperbolic disk of radius r: 2*pi*(cosh r - 1)."""
    if r < 0:
        raise ValueError("radius must be nonnegative")
    return 4.0 * math.pi * math.sinh(r / 2.0) ** 2


@dataclass(frozen=True)
class Isometry:
    """Orientation-preserving or -reversing isometry of the Poincare disk.

    Acts as z -> (a z + b) / (conj(b) z + conj(a)), with z conjugated
    first when flip is set.  The (a, b) pair is kept normalized to
    |a|^2 - |b|^2 = 1.
    """

    a: complex
    b: complex
    flip: bool = False

    def __post_init__(self):
        n = abs(self.a) ** 2 - abs(self.b) ** 2
        if n <= 0:
            raise ValueError("not a disk automorphism: need |a| > |b|")
        s = 1.0 / math.sqrt(n)
        object.__setattr__(self, "a", self.a * s)
        object.__setattr__(self, "b", self.b * s)

    @staticmethod
    def identity() -> "Isometry":
        return Isometry(1.0 + 0j, 0j)

    @staticmethod
    def rotation(phi: float) -> "Isometry":
        return Isometry(cmath.exp(0.5j * phi), 0j)

    @staticmethod
    def translation_to(m: HPoint) -> "Isometry":
        """The hyperbolic translation moving the origin to m along their geodesic."""
        return Isometry(1.0 + 0j, m.disk)

    @staticmethod
    def reflection_across(p: HPoint, q: HPoint) -> "Isometry":
        """Reflection across the geodesic through two distinct points."""
        zp, zq = p.disk, q.disk
        if abs(zp - zq) < 1e-15:
            raise DegenerateError("reflection axis needs two distinct points")
        # Conjugate by the translation sending p to the origin; the axis
        # becomes a diameter with direction phi, and the reflection is
        # z -> e^{2 i phi} conj(z).
        t = Isometry(1.0 + 0j, -zp)
        w = t.apply_disk(zq)
        phi = cmath.phase(w)
        r = Isometry(cmath.exp(1j * phi), 0j, flip=True)
        return t.inverse() @ (r @ t)

    def apply_disk(self, z: complex) -> complex:
        if self.flip:
            z = z.conjugate()
        return (self.a * z + self.b) / (self.b.conjugate() * z + self.a.conjugate())

    def inverse(self) -> "Isometry":
        if not self.flip:
            return Isometry(self.a.conjugate(), -self.b)
        # (g r)^{-1} = r g^{-1} r r = conjugate-then-Mobius with adjusted entries.
        return Isometry(self.a, -self.b.conjugate(), flip=True)

    def __matmul__(self, other: "Isometry") -> "Isometry":
        """Composition: (self @ other)(z) = self(other(z))."""
        a1, b1 = self.a, self.b
        a2, b2 = other.a, other.b
        if self.flip:
            a2, b2 = a2.conjugate(), b2.conjugate()
        return Isometry(
            a1 * a2 + b1 * b2.conjugate(),
            a1 * b2 + b1 * a2.conjugate(),
            flip=self.flip ^ other.flip,
        )


def apply(g: Isometry, a: HPoint) -> HPoint:
    """Apply an isometry to a point, renormalizing to polar form."""
    return HPoint.from_disk(g.apply_disk(a.disk))


def geodesic_direction(at: complex, toward: complex) -> float:
    """Direction at `at` of the geodesic toward `toward` (disk coordinates)."""
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


def circumcenter(a: HPoint, b: HPoint, c: HPoint):
    """Point equidistant from three points, or None when no finite center exists.

    Computed via the Minkowski hyperboloid lift: the center is the unit
    timelike vector orthogonal (in the Euclidean sense) to eta*(A-B) and
    eta*(B-C).  A spacelike or lightlike solution means the Euclidean
    circumcircle of the disk images escapes the unit disk, i.e. the
    triple has no hyperbolic circumscribed circle ("Unbounded").
    """
    A, B, C = a.hyperboloid, b.hyperboloid, c.hyperboloid
    # Points on one geodesic span a plane through the origin of the lift.
    det = float(np.linalg.det(np.stack([A, B, C])))
    scale = np.linalg.norm(A) * np.linalg.norm(B) * np.linalg.norm(C)
    if abs(det) < 1e-10 * scale:
        raise DegenerateError("collinear or coincident points")
    eta = np.array([-1.0, -1.0, 1.0])
    m = np.cross(eta * (A - B), eta * (B - C))
    s = m[2] ** 2 - m[0] ** 2 - m[1] ** 2
    if s <= 0:
        return None
    m /= math.sqrt(s)
    if m[2] < 0:
        m = -m
    rho = math.acosh(max(m[2], 1.0))
    theta = math.atan2(m[1], m[0]) % TWO_PI
    return HPoint(rho, theta)


def circumcenters_arrays(ax, ay, az, bx, by, bz, cx, cy, cz):
    """Vectorized hyperboloid circumcenters for triangles given by lifts.

    Returns (rho, theta, finite_mask); rho/theta are only meaningful
    where finite_mask is set.
    """
    ux, uy, uz = -(ax - bx), -(ay - by), (az - bz)
    vx, vy, vz = -(bx - cx), -(by - cy), (bz - cz)
    mx = uy * vz - uz * vy
    my = uz * vx - ux * vz
    mz = ux * vy - uy * vx
    s = mz * mz - mx * mx - my * my
    finite = s > 0
    s_safe = np.where(finite, s, 1.0)
    inv = 1.0 / np.sqrt(s_safe)
    sign = np.where(mz < 0, -1.0, 1.0)
    mx, my, mz = mx * inv * sign, my * inv * sign, mz * inv * sign
    rho = np.arccosh(np.maximum(mz, 1.0))
    theta = np.arctan2(my, mx) % TWO_PI
    return rho, theta, finite
