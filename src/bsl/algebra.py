"""Quaternion and compact-group arithmetic plus Haar quadrature rules.

Conventions used throughout the package:

* Quaternions are Hamilton quaternions w + x*i + y*j + z*k stored as four
  components (floats, or arrays for a batch), with i*j = k.  Identifying
  C^2 with the quaternions via q = z1 + z2*j, the circle subgroup {exp(i*theta)} acts by complex
  multiplication on both legs.
* Group elements form a tagged union over the three groups the catalog
  needs: the circle "s1" (stored as an angle in [0, 2pi)), unit
  quaternions "s3", and 2x2 quaternionic symplectic matrices "sp2"
  (stored row-wise as ((a, c), (b, d)), rows of unit norm with
  a*conj(b) + c*conj(d) = 0).
* Haar rules integrate against the bi-invariant volume normalised to the
  round group volume: 2*pi for the circle and 2*pi**2 for S3.

All values are immutable and every operation is a pure function, so this
module is safe to share across threads.
"""

import math
from dataclasses import dataclass

import numpy as np

TWO_PI = 2.0 * math.pi


class GroupMismatch(ValueError):
    """Combining elements that live in different groups."""


class UnsupportedGroup(ValueError):
    """No quadrature rule is available for the requested group."""


# ---------------------------------------------------------------------------
# quaternions


@dataclass(frozen=True)
class Quaternion:
    """w + x*i + y*j + z*k with float components, or a batch held as a
    struct of arrays: components may mix floats and arrays that broadcast
    together, and every operation then acts on the whole batch."""

    w: float = 0.0
    x: float = 0.0
    y: float = 0.0
    z: float = 0.0

    def __add__(self, other):
        return Quaternion(self.w + other.w, self.x + other.x,
                          self.y + other.y, self.z + other.z)

    def __sub__(self, other):
        return Quaternion(self.w - other.w, self.x - other.x,
                          self.y - other.y, self.z - other.z)

    def __neg__(self):
        return Quaternion(-self.w, -self.x, -self.y, -self.z)

    def __mul__(self, other):
        if isinstance(other, (int, float)):
            return Quaternion(self.w * other, self.x * other,
                              self.y * other, self.z * other)
        return quat_mul(self, other)

    def __rmul__(self, other):
        if isinstance(other, (int, float)):
            return self * other
        return NotImplemented

    def conj(self):
        return Quaternion(self.w, -self.x, -self.y, -self.z)

    def norm(self):
        sq = self.w * self.w + self.x * self.x + self.y * self.y + self.z * self.z
        return math.sqrt(sq) if isinstance(sq, float) else np.sqrt(sq)

    def normalized(self):
        n = self.norm()
        zero = not n.all() if isinstance(n, np.ndarray) else n == 0.0
        if zero:
            raise ZeroDivisionError("cannot normalise the zero quaternion")
        return Quaternion(self.w / n, self.x / n, self.y / n, self.z / n)

    def as_array(self):
        return np.array([self.w, self.x, self.y, self.z])

    @staticmethod
    def from_array(a):
        return Quaternion(float(a[0]), float(a[1]), float(a[2]), float(a[3]))


QUAT_ONE = Quaternion(1.0, 0.0, 0.0, 0.0)
QUAT_I = Quaternion(0.0, 1.0, 0.0, 0.0)
QUAT_J = Quaternion(0.0, 0.0, 1.0, 0.0)
QUAT_K = Quaternion(0.0, 0.0, 0.0, 1.0)


def quat_mul(p, q):
    """Hamilton product p*q."""
    return Quaternion(
        p.w * q.w - p.x * q.x - p.y * q.y - p.z * q.z,
        p.w * q.x + p.x * q.w + p.y * q.z - p.z * q.y,
        p.w * q.y - p.x * q.z + p.y * q.w + p.z * q.x,
        p.w * q.z + p.x * q.y - p.y * q.x + p.z * q.w,
    )


def quat_dot(p, q):
    """Euclidean inner product of the coefficient vectors, Re(p*conj(q))."""
    return p.w * q.w + p.x * q.x + p.y * q.y + p.z * q.z


def circle_quat(theta):
    """The unit quaternion cos(theta) + sin(theta)*i, for an angle or an
    array of angles."""
    trig = np if isinstance(theta, np.ndarray) else math
    return Quaternion(trig.cos(theta), trig.sin(theta), 0.0, 0.0)


# ---------------------------------------------------------------------------
# group elements

GROUPS = ("s1", "s3", "sp2")


@dataclass(frozen=True)
class GroupElement:
    """Tagged union over the catalog groups.

    data holds an angle for "s1", a Quaternion for "s3" and a row-wise
    2x2 quaternion matrix ((a, c), (b, d)) for "sp2".
    """

    group: str
    data: object

    def __post_init__(self):
        if self.group not in GROUPS:
            raise UnsupportedGroup(f"unknown group {self.group!r}")


def identity(group):
    if group == "s1":
        return GroupElement("s1", 0.0)
    if group == "s3":
        return GroupElement("s3", QUAT_ONE)
    if group == "sp2":
        return GroupElement("sp2", ((QUAT_ONE, Quaternion()),
                                    (Quaternion(), QUAT_ONE)))
    raise UnsupportedGroup(f"unknown group {group!r}")


def sp2_rows(m):
    """Unpack ((a, c), (b, d)) from an sp2 payload."""
    (a, c), (b, d) = m
    return a, c, b, d


def sp2_membership_defect(m):
    """Max violation of the symplectic conditions: unit rows and
    a*conj(b) + c*conj(d) = 0."""
    a, c, b, d = sp2_rows(m)
    r1 = abs(math.sqrt(a.norm() ** 2 + c.norm() ** 2) - 1.0)
    r2 = abs(math.sqrt(b.norm() ** 2 + d.norm() ** 2) - 1.0)
    orth = (quat_mul(a, b.conj()) + quat_mul(c, d.conj())).norm()
    return max(r1, r2, orth)


def membership_defect(g):
    """Distance of an element's payload from its group's defining set."""
    if g.group == "s1":
        return 0.0
    if g.group == "s3":
        return abs(g.data.norm() - 1.0)
    return sp2_membership_defect(g.data)


def _sp2_orthonormalize(m):
    # Gram-Schmidt on the quaternionic columns (a, b), (c, d); restores
    # membership to rounding level after a product.
    a, c, b, d = sp2_rows(m)
    n1 = math.sqrt(a.norm() ** 2 + b.norm() ** 2)
    a, b = a * (1.0 / n1), b * (1.0 / n1)
    s = quat_mul(a.conj(), c) + quat_mul(b.conj(), d)
    c = c - quat_mul(a, s)
    d = d - quat_mul(b, s)
    n2 = math.sqrt(c.norm() ** 2 + d.norm() ** 2)
    c, d = c * (1.0 / n2), d * (1.0 / n2)
    return ((a, c), (b, d))


def sp2_mul(m1, m2):
    a1, c1, b1, d1 = sp2_rows(m1)
    a2, c2, b2, d2 = sp2_rows(m2)
    a = quat_mul(a1, a2) + quat_mul(c1, b2)
    c = quat_mul(a1, c2) + quat_mul(c1, d2)
    b = quat_mul(b1, a2) + quat_mul(d1, b2)
    d = quat_mul(b1, c2) + quat_mul(d1, d2)
    return ((a, c), (b, d))


def group_mul(g, h):
    """Group product with renormalisation of the unit constraints."""
    if g.group != h.group:
        raise GroupMismatch(f"cannot multiply {g.group!r} by {h.group!r}")
    if g.group == "s1":
        return GroupElement("s1", (g.data + h.data) % TWO_PI)
    if g.group == "s3":
        return GroupElement("s3", quat_mul(g.data, h.data).normalized())
    return GroupElement("sp2", _sp2_orthonormalize(sp2_mul(g.data, h.data)))


def group_inverse(g):
    if g.group == "s1":
        return GroupElement("s1", (-g.data) % TWO_PI)
    if g.group == "s3":
        return GroupElement("s3", g.data.conj())
    # symplectic inverse = conjugate transpose
    a, c, b, d = sp2_rows(g.data)
    return GroupElement("sp2", ((a.conj(), b.conj()), (c.conj(), d.conj())))


def payload_distance(group, a, b):
    """Euclidean distance between two payloads of one group in the
    ambient embedding (an angle as a point of the unit circle)."""
    if group == "s1":
        return math.hypot(math.cos(a) - math.cos(b), math.sin(a) - math.sin(b))
    if group == "s3":
        return (a - b).norm()
    (a1, c1), (b1, d1) = a
    (a2, c2), (b2, d2) = b
    return math.sqrt((a1 - a2).norm() ** 2 + (c1 - c2).norm() ** 2
                     + (b1 - b2).norm() ** 2 + (d1 - d2).norm() ** 2)


def element_distance(g, h):
    """Euclidean distance between payloads in the ambient embedding."""
    if g.group != h.group:
        raise GroupMismatch(f"cannot compare {g.group!r} with {h.group!r}")
    return payload_distance(g.group, g.data, h.data)


def random_element(group, rng):
    """Haar-ish random element (exact for s1 and s3, column-orthonormalised
    Gaussian for sp2)."""
    if group == "s1":
        return GroupElement("s1", float(rng.uniform(0.0, TWO_PI)))
    if group == "s3":
        v = rng.standard_normal(4)
        v /= np.linalg.norm(v)
        return GroupElement("s3", Quaternion.from_array(v))
    if group == "sp2":
        cols = rng.standard_normal((4, 4))
        a, b = Quaternion.from_array(cols[0]), Quaternion.from_array(cols[1])
        c, d = Quaternion.from_array(cols[2]), Quaternion.from_array(cols[3])
        return GroupElement("sp2", _sp2_orthonormalize(((a, c), (b, d))))
    raise UnsupportedGroup(f"unknown group {group!r}")


# ---------------------------------------------------------------------------
# Haar quadrature


@dataclass(frozen=True)
class HaarRule:
    """Quadrature rule for the bi-invariant (Haar) volume of a group.

    nodes are GroupElements, weights are positive and sum to the group
    volume (2*pi for s1, 2*pi**2 for s3).
    """

    group: str
    nodes: tuple
    weights: np.ndarray

    def integrate(self, f):
        return float(sum(w * f(n) for n, w in zip(self.nodes, self.weights)))

    def total(self):
        return float(np.sum(self.weights))


def haar_rule(group, order):
    """Build a Haar quadrature rule.

    For the circle this is the uniform trapezoid rule (exact for
    trigonometric polynomials of degree < order).  For S3 it is a product
    rule in Hopf coordinates q = (cos(eta)e^{i xi1}, sin(eta)e^{i xi2}):
    the volume element factors as cos(eta)sin(eta) d(eta) d(xi1) d(xi2),
    so substituting s = sin(eta)^2 gives a flat measure in s handled by
    Gauss-Legendre, with uniform angular grids in xi1, xi2.
    """
    if order < 1:
        raise ValueError("order must be >= 1")
    if group == "s1":
        angles = TWO_PI * np.arange(order) / order
        nodes = tuple(GroupElement("s1", float(a)) for a in angles)
        weights = np.full(order, TWO_PI / order)
        return HaarRule("s1", nodes, weights)
    if group == "s3":
        xi = TWO_PI * np.arange(order) / order
        n_s = max(1, (order + 1) // 2)
        gl_x, gl_w = np.polynomial.legendre.leggauss(n_s)
        s = 0.5 * (gl_x + 1.0)           # Gauss nodes on (0, 1)
        ws = 0.5 * gl_w                  # weights summing to 1
        eta = np.arcsin(np.sqrt(s))
        nodes = []
        weights = []
        wxi = TWO_PI / order
        for ei, wi in zip(eta, ws):
            ce, se = math.cos(ei), math.sin(ei)
            for x1 in xi:
                for x2 in xi:
                    q = Quaternion(ce * math.cos(x1), ce * math.sin(x1),
                                   se * math.cos(x2), se * math.sin(x2))
                    nodes.append(GroupElement("s3", q))
                    # total = (2pi)^2 * 1/2 = 2*pi^2
                    weights.append(0.5 * wxi * wxi * wi)
        return HaarRule("s3", tuple(nodes), np.array(weights))
    raise UnsupportedGroup(f"no Haar rule for group {group!r}")
