"""Poincare-disk geometric kernel.

Points are complex numbers z with |z| < 1.  Orientation-preserving
isometries are stored in the disk-preserving normal form

    z  |->  (a z + b) / (conj(b) z + conj(a)),      |a|^2 - |b|^2 = 1,

so composition is 2x2 complex matrix multiplication on the pair (a, b).
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from .errors import DegenerateTriangle, DomainError, NoCompactCircumdisk

BOUNDARY_GUARD = 1e-12


# circumdisk calls three points collinear below this normalized euclidean
# area; the star builder then grows its ball instead of trusting the disk
GEOM_TOL = 1e-9
PARABOLIC_TOL = 1e-12  # classify: |trace| this close to 2 is parabolic


def check_in_disk(z: complex) -> complex:
    if abs(z) >= 1.0 - BOUNDARY_GUARD:
        raise DomainError(f"point {z} not strictly inside the unit disk")
    return z


def dist(p: complex, q: complex) -> float:
    """Hyperbolic distance between two disk points."""
    check_in_disk(p)
    check_in_disk(q)
    dp = 1.0 - (p.real * p.real + p.imag * p.imag)
    dq = 1.0 - (q.real * q.real + q.imag * q.imag)
    w = p - q
    s = (w.real * w.real + w.imag * w.imag) / (dp * dq)
    if s < 1e-6:
        # acosh(1 + 2s) loses all of s below the rounding unit of 1
        return 2.0 * math.asinh(math.sqrt(s))
    return math.acosh(1.0 + 2.0 * s)


def dist_many(p: complex | np.ndarray, qs: np.ndarray) -> np.ndarray:
    """Vectorized dist(p, q) for an array of complex points qs; p may be an
    array too, broadcast against qs elementwise."""
    dp = 1.0 - (p.real * p.real + p.imag * p.imag)
    dq = 1.0 - np.abs(qs) ** 2
    s = np.abs(qs - p) ** 2 / (dp * dq)
    d = np.arccosh(np.maximum(1.0 + 2.0 * s, 1.0))
    small = s < 1e-6
    if small.any():
        # as in dist: acosh(1 + 2s) loses all of s below the rounding unit
        d[small] = 2.0 * np.arcsinh(np.sqrt(s[small]))
    return d


def normalized(a: complex, b: complex) -> tuple[complex, complex]:
    """(a, b) scaled to |a|^2 - |b|^2 = 1."""
    n = abs(a) ** 2 - abs(b) ** 2
    if n <= 0:
        raise DomainError("coefficients do not define a disk isometry")
    s = 1.0 / math.sqrt(n)
    return a * s, b * s


def compose(a1: complex, b1: complex, a2: complex,
            b2: complex) -> tuple[complex, complex]:
    """Normalized coefficients of the map (a1, b1) after (a2, b2)."""
    return normalized(a1 * a2 + b1 * b2.conjugate(),
                      a1 * b2 + b1 * a2.conjugate())


class Mobius:
    """Disk-preserving Mobius map z -> (a z + b)/(conj(b) z + conj(a))."""

    __slots__ = ("a", "b")

    def __init__(self, a: complex, b: complex, normalize: bool = True):
        if normalize:
            a, b = normalized(a, b)
        self.a = a
        self.b = b

    @staticmethod
    def identity() -> "Mobius":
        return Mobius(1.0, 0.0, normalize=False)

    @staticmethod
    def rotation(theta: float) -> "Mobius":
        return Mobius(cmath.exp(0.5j * theta), 0.0, normalize=False)

    @staticmethod
    def translation_x(t: float) -> "Mobius":
        """Translation by hyperbolic distance t along the real axis."""
        return Mobius(math.cosh(0.5 * t), math.sinh(0.5 * t), normalize=False)

    @staticmethod
    def translate_to(p: complex) -> "Mobius":
        """The transvection moving 0 to p along the geodesic through both."""
        check_in_disk(p)
        s = 1.0 / math.sqrt(1.0 - abs(p) ** 2)
        return Mobius(s, p * s, normalize=False)

    @staticmethod
    def frame(p: complex, theta: float) -> "Mobius":
        """Map taking (0, +x direction) to (p, direction theta)."""
        return Mobius.translate_to(p) @ Mobius.rotation(theta)

    def __matmul__(self, other: "Mobius") -> "Mobius":
        return Mobius(*compose(self.a, self.b, other.a, other.b),
                      normalize=False)

    def inverse(self) -> "Mobius":
        return Mobius(self.a.conjugate(), -self.b, normalize=False)

    def __call__(self, z: complex) -> complex:
        return (self.a * z + self.b) / (self.b.conjugate() * z + self.a.conjugate())

    def apply_many(self, zs: np.ndarray) -> np.ndarray:
        return (self.a * zs + self.b) / (np.conjugate(self.b) * zs + np.conjugate(self.a))

    def trace(self) -> float:
        return 2.0 * self.a.real

    def is_identity(self, tol: float = 1e-9) -> bool:
        return abs(abs(self.a.real) - 1.0) < tol and abs(self.a.imag) < tol and abs(self.b) < tol

    def key(self) -> tuple:
        """Sign-normalized coefficient tuple ((a, b) ~ (-a, -b))."""
        a, b = self.a, self.b
        for v in (a.real, a.imag, b.real, b.imag):
            if abs(v) > 1e-9:
                if v < 0:
                    a, b = -a, -b
                break
        return (a.real, a.imag, b.real, b.imag)

    def __repr__(self):
        return f"Mobius(a={self.a!r}, b={self.b!r})"


def direction(p: complex, q: complex) -> float:
    """Angle of the initial tangent at p of the geodesic from p to q."""
    w = Mobius.translate_to(p).inverse()(q)
    if abs(w) < 1e-300:
        raise DomainError("direction undefined for coincident points")
    return cmath.phase(w)


def segment_map(p: complex, q: complex, r: complex, s: complex) -> Mobius:
    """The isometry sending the directed segment (p, q) to (r, s).

    Requires dist(p, q) == dist(r, s); no check is made here.
    """
    return Mobius.frame(r, direction(r, s)) @ Mobius.frame(p, direction(p, q)).inverse()


def classify(m: Mobius):
    """Classify an isometry by |trace|: (kind, translation length); a
    |trace| within PARABOLIC_TOL of 2 is parabolic."""
    t = abs(m.trace())
    if m.is_identity():
        return "identity", 0.0
    if t > 2.0 + PARABOLIC_TOL:
        return "hyperbolic", 2.0 * math.acosh(0.5 * t)
    if t > 2.0 - PARABOLIC_TOL:
        return "parabolic", 0.0
    return "elliptic", 0.0


def translation_length(m: Mobius) -> float:
    """Translation length; 0 for elliptic/parabolic/identity elements."""
    return classify(m)[1]


def axis_frame(m: Mobius) -> Mobius:
    """Frame whose x-axis is the oriented axis of m (repelling -> attracting).

    The returned frame F satisfies: F^-1 m F is translation along the real
    axis in the positive direction.
    """
    kind, _ = classify(m)
    if kind != "hyperbolic":
        raise DomainError("axis only defined for hyperbolic elements")
    # The euclidean arc carrying the axis has center i*b/Im(a); the point of
    # the axis nearest 0 and the tangent there then come out in closed form
    # with no cancellation (stable even when the axis runs through 0).
    i_a = m.a.imag
    ab = abs(m.b)
    s = math.sqrt(max(ab * ab - i_a * i_a, 0.0))
    mid = 1j * m.b * (i_a / (ab * (ab + s)))
    tang = m.b / ab
    f = Mobius.frame(mid, cmath.phase(tang))
    if (f.inverse() @ m @ f).b.real < 0:
        f = Mobius.frame(mid, cmath.phase(-tang))
    return f


class HypCircle:
    """A hyperbolic circle, with its Euclidean realization cached."""

    __slots__ = ("center", "radius", "eu_center", "eu_radius")

    def __init__(self, center: complex, radius: float):
        check_in_disk(center)
        if radius < 0:
            raise DomainError("negative radius")
        self.center = center
        self.radius = radius
        self.eu_center, self.eu_radius = _hyp_to_euclid(center, radius)

    @staticmethod
    def from_euclidean(ec: complex, er: float) -> "HypCircle":
        if abs(ec) + er >= 1.0 - BOUNDARY_GUARD:
            raise NoCompactCircumdisk("circle not contained in unit disk")
        c, r = _euclid_to_hyp(ec, er)
        obj = HypCircle.__new__(HypCircle)
        obj.center = c
        obj.radius = r
        obj.eu_center = ec
        obj.eu_radius = er
        return obj

    def __repr__(self):
        return f"HypCircle(center={self.center!r}, radius={self.radius!r})"


def _radial_param(rho: float) -> float:
    """Signed hyperbolic distance of the point rho*u (u unit) from 0."""
    return 2.0 * math.atanh(rho)


def _hyp_to_euclid(center: complex, radius: float) -> tuple[complex, float]:
    ac = abs(center)
    u = center / ac if ac > 1e-300 else 1.0 + 0j
    t = _radial_param(ac)
    r1 = math.tanh(0.5 * (t - radius))
    r2 = math.tanh(0.5 * (t + radius))
    return u * 0.5 * (r1 + r2), 0.5 * (r2 - r1)


def _euclid_to_hyp(ec: complex, er: float) -> tuple[complex, float]:
    ac = abs(ec)
    u = ec / ac if ac > 1e-300 else 1.0 + 0j
    t1 = _radial_param(ac - er)
    t2 = _radial_param(ac + er)
    return u * math.tanh(0.25 * (t1 + t2)), 0.5 * (t2 - t1)


def triangle_area_normalized(p1: complex, p2: complex, p3: complex) -> float:
    """Euclidean triangle area normalized by the squared diameter."""
    area = abs((p2 - p1).real * (p3 - p1).imag - (p2 - p1).imag * (p3 - p1).real)
    d = max(abs(p2 - p1), abs(p3 - p1), abs(p3 - p2))
    if d < 1e-150:
        return 0.0
    return area / (d * d)


def circumdisk(p1: complex, p2: complex, p3: complex) -> HypCircle:
    """Circumscribed hyperbolic circle of three disk points.

    Computed through the Euclidean circumcircle: hyperbolic circles are
    exactly the Euclidean circles contained in the disk.
    """
    for p in (p1, p2, p3):
        check_in_disk(p)
    if triangle_area_normalized(p1, p2, p3) < GEOM_TOL:
        raise DegenerateTriangle(f"collinear points {p1}, {p2}, {p3}")
    ax, ay = p1.real, p1.imag
    bx, by = p2.real, p2.imag
    cx, cy = p3.real, p3.imag
    d = 2.0 * (ax * (by - cy) + bx * (cy - ay) + cx * (ay - by))
    ux = ((ax * ax + ay * ay) * (by - cy) + (bx * bx + by * by) * (cy - ay)
          + (cx * cx + cy * cy) * (ay - by)) / d
    uy = ((ax * ax + ay * ay) * (cx - bx) + (bx * bx + by * by) * (ax - cx)
          + (cx * cx + cy * cy) * (bx - ax)) / d
    ec = complex(ux, uy)
    er = abs(p1 - ec)
    return HypCircle.from_euclidean(ec, er)


# ---------------------------------------------------------------------------
# trig toolkit
# ---------------------------------------------------------------------------

def hexagon_orthogeodesic(l1: float, l2: float, l3: float) -> float:
    """Distance between boundary geodesics 1 and 2 of a pair of pants.

    l1, l2, l3 are the full cuff lengths; the returned length is the side of
    the right-angled hexagon between the half-cuffs l1/2 and l2/2.
    """
    if min(l1, l2, l3) <= 0:
        raise DomainError("cuff lengths must be positive")
    num = math.cosh(0.5 * l3) + math.cosh(0.5 * l1) * math.cosh(0.5 * l2)
    den = math.sinh(0.5 * l1) * math.sinh(0.5 * l2)
    return math.acosh(num / den)


def equilateral_side(alpha: float) -> float:
    """Side of the equilateral hyperbolic triangle with angle alpha."""
    if not (0.0 < alpha <= math.pi / 3.0):
        raise DomainError("angle must be in (0, pi/3]")
    c = math.cos(alpha)
    return math.acosh(c / (1.0 - c))


# ---------------------------------------------------------------------------
# point / geodesic helpers used by the tiling machinery
# ---------------------------------------------------------------------------

def dist_to_diameter(z: complex) -> tuple[float, float]:
    """(distance, foot parameter) from z to the real-axis geodesic.

    The real axis is parametrized by arc length as t -> tanh(t/2).
    Uses the right half-plane model w = (1+z)/(1-z) where the geodesic is
    the positive real axis: cosh d = |w| / Re w, foot at parameter ln|w|.
    The distance is read as sinh d = |Im w| / Re w, which keeps its
    precision near d = 0, where acosh of a number near 1 loses about
    1e-16 / d.
    """
    w = (1.0 + z) / (1.0 - z)
    if w.real <= 0:
        raise DomainError("point on the wrong side of the ideal boundary")
    return math.asinh(abs(w.imag) / w.real), math.log(abs(w))


def dist_to_segment(z: complex, frame: Mobius, length: float) -> float:
    """Distance from z to the geodesic segment frame([0, length] on x-axis)."""
    return dist_to_axis_segment(frame.inverse()(z), length)


def dist_to_axis_segment(w: complex, length: float) -> float:
    """Distance from w to the segment [0, length] of the real-axis geodesic."""
    d, t = dist_to_diameter(w)
    if t < 0.0:
        return dist(w, 0.0)
    if t > length:
        return dist(w, math.tanh(0.5 * length))
    return d
