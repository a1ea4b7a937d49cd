"""Reference hyperbolic geometry: distances, the isometry group of the
Poincare disk and the hyperboloid circumcenter, in floats and in decimal
arithmetic of any precision.

The library computes with closed forms and array code; these scalar
constructions check it.  Points are `HPoint`s, polar pairs with their
disk coordinate derived in `math`/`cmath`.  `cell_polygon` is the
Voronoi cell as the library first built it, from `HPoint`s, the
reference for `hypvoronoi.cell_outline`.
"""

import cmath
import decimal
import math
from dataclasses import dataclass

import numpy as np

from hyperperc.hypgeo import TWO_PI, DegenerateError, geodesic_direction


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


def cell_polygon(V, i: int) -> list:
    """The Voronoi cell of interior nucleus i of the complex V, its
    vertices as HPoints, ordered ccw by their geodesic directions at the
    nucleus."""
    verts = [HPoint(float(V.vor_rho[j]), float(V.vor_theta[j]))
             for j in V.cell_faces(i)]
    zn = HPoint(float(V.points.rho[i]), float(V.points.theta[i])).disk
    verts.sort(key=lambda v: geodesic_direction(zn, v.disk))
    return verts


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


def bisector_ideal_points(zi: complex, zj: complex) -> tuple:
    """Both ideal endpoints of the bisector of disk points zi, zj.

    Conjugating by the translation that sends the hyperbolic midpoint of
    zi, zj to the origin turns the bisector into the diameter orthogonal
    to the axis through the images.
    """
    t = Isometry(1.0 + 0j, -zi)
    w = t.apply_disk(zj)
    r = abs(w)
    m_local = (w / r) * math.tanh(0.5 * math.atanh(r))
    t2 = Isometry(1.0 + 0j, -m_local)
    phi = cmath.phase(t2.apply_disk(w))
    back = t.inverse() @ t2.inverse()
    return (back.apply_disk(cmath.exp(1j * (phi + math.pi / 2))),
            back.apply_disk(cmath.exp(1j * (phi - math.pi / 2))))


def hyperboloid(p: HPoint) -> np.ndarray:
    """Minkowski hyperboloid lift (sinh rho cos t, sinh rho sin t, cosh rho)."""
    s = math.sinh(p.rho)
    return np.array(
        [s * math.cos(p.theta), s * math.sin(p.theta), math.cosh(p.rho)]
    )


def circumcenter(a: HPoint, b: HPoint, c: HPoint):
    """Point equidistant from three points, or None when no finite center exists.

    Computed via the Minkowski hyperboloid lift: the center is the unit
    timelike vector orthogonal (in the Euclidean sense) to eta*(A-B) and
    eta*(B-C).  A spacelike or lightlike solution means the Euclidean
    circumcircle of the disk images escapes the unit disk, i.e. the
    triple has no hyperbolic circumscribed circle ("Unbounded").
    """
    A, B, C = hyperboloid(a), hyperboloid(b), hyperboloid(c)
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


def circumcenter_decimal(corners, digits: int = 50):
    """`circumcenter`'s construction in `digits`-digit decimal arithmetic,
    from three disk points (x, y) given as floats, whose decimal values
    are exact.  Returns (rho, mx, my) as Decimals, (mx, my) pointing
    along the direction theta, or None when no finite center exists.

    The lift of a disk point z, (2x, 2y, 1 + |z|^2) / (1 - |z|^2), is a
    quotient of the exact inputs, so every digit that the float routines
    lose near the rim is kept here.
    """
    with decimal.localcontext() as ctx:
        ctx.prec = digits
        lifts = []
        for x, y in corners:
            x, y = decimal.Decimal(x), decimal.Decimal(y)
            s = x * x + y * y
            lifts.append((2 * x / (1 - s), 2 * y / (1 - s), (1 + s) / (1 - s)))
        (ax, ay, az), (bx, by, bz), (cx, cy, cz) = lifts
        # eta (A - B) x eta (B - C), eta = diag(-1, -1, 1)
        ux, uy, uz = bx - ax, by - ay, az - bz
        vx, vy, vz = cx - bx, cy - by, bz - cz
        mx = uy * vz - uz * vy
        my = uz * vx - ux * vz
        mz = ux * vy - uy * vx
        s = mz * mz - mx * mx - my * my
        if s <= 0:
            return None
        if mz < 0:
            mx, my, mz = -mx, -my, -mz
        cosh = mz / s.sqrt()
        rho = (cosh + (cosh * cosh - 1).sqrt()).ln()
        return rho, mx, my
