"""Quaternion arithmetic, the catalog groups' random elements, and the
circle's Haar quadrature rule.

Conventions used throughout the package:

* Quaternions are Hamilton quaternions w + x*i + y*j + z*k stored as four
  components (floats, or arrays for a batch), with i*j = k.  Identifying
  C^2 with the quaternions via q = z1 + z2*j, the circle subgroup {exp(i*theta)} acts by complex
  multiplication on both legs.
* A group element is its payload: an angle for the circle "s1" (an array
  of angles for a batch), a unit Quaternion for "s3" (a Quaternion of
  arrays for a batch), and for "sp2" a 2x2 quaternionic symplectic
  matrix stored row-wise as ((a, c), (b, d)), rows of unit norm with
  a*conj(b) + c*conj(d) = 0.
* The circle's Haar rule integrates against the bi-invariant volume
  normalised to the round length 2*pi.

All values are immutable and every operation is a pure function, so this
module is safe to share across threads.
"""

import math
from dataclasses import dataclass

import numpy as np

TWO_PI = 2.0 * math.pi


class UnsupportedGroup(ValueError):
    """The requested group is not one of the catalog groups."""


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
        # anything but a quaternion (a float, an array) scales
        if isinstance(other, Quaternion):
            return quat_mul(self, other)
        return Quaternion(self.w * other, self.x * other,
                          self.y * other, self.z * other)

    def __rmul__(self, other):
        return self * other

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

    @staticmethod
    def from_array(a):
        return Quaternion(float(a[0]), float(a[1]), float(a[2]), float(a[3]))


QUAT_ONE = Quaternion(1.0, 0.0, 0.0, 0.0)
QUAT_I = Quaternion(0.0, 1.0, 0.0, 0.0)
QUAT_J = Quaternion(0.0, 0.0, 1.0, 0.0)


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


def _hopf_quat(eta, xi1, xi2):
    """Unit quaternions in Hopf coordinates, cos(eta) e^{i xi1} +
    sin(eta) e^{i xi2} j, elementwise over coordinate arrays."""
    ce, se = np.cos(eta), np.sin(eta)
    return Quaternion(ce * np.cos(xi1), ce * np.sin(xi1),
                      se * np.cos(xi2), se * np.sin(xi2))


# ---------------------------------------------------------------------------
# group elements


def sp2_membership_defect(m):
    """Max violation of the symplectic conditions: unit rows and
    a*conj(b) + c*conj(d) = 0."""
    (a, c), (b, d) = m
    r1 = abs(math.sqrt(a.norm() ** 2 + c.norm() ** 2) - 1.0)
    r2 = abs(math.sqrt(b.norm() ** 2 + d.norm() ** 2) - 1.0)
    orth = (quat_mul(a, b.conj()) + quat_mul(c, d.conj())).norm()
    return max(r1, r2, orth)


def _sp2_orthonormalize(m):
    # Gram-Schmidt on the quaternionic columns (a, b), (c, d)
    (a, c), (b, d) = m
    n1 = math.sqrt(a.norm() ** 2 + b.norm() ** 2)
    a, b = a * (1.0 / n1), b * (1.0 / n1)
    s = quat_mul(a.conj(), c) + quat_mul(b.conj(), d)
    c = c - quat_mul(a, s)
    d = d - quat_mul(b, s)
    n2 = math.sqrt(c.norm() ** 2 + d.norm() ** 2)
    c, d = c * (1.0 / n2), d * (1.0 / n2)
    return ((a, c), (b, d))


def random_element(group, rng):
    """Haar-ish random element (exact for s1 and s3, column-orthonormalised
    Gaussian for sp2)."""
    if group == "s1":
        return float(rng.uniform(0.0, TWO_PI))
    if group == "s3":
        v = rng.standard_normal(4)
        v /= np.linalg.norm(v)
        return Quaternion.from_array(v)
    if group == "sp2":
        cols = rng.standard_normal((4, 4))
        a, b = Quaternion.from_array(cols[0]), Quaternion.from_array(cols[1])
        c, d = Quaternion.from_array(cols[2]), Quaternion.from_array(cols[3])
        return _sp2_orthonormalize(((a, c), (b, d)))
    raise UnsupportedGroup(f"unknown group {group!r}")


# ---------------------------------------------------------------------------
# Haar quadrature


def circle_rule(order):
    """The uniform trapezoid rule on the circle, as (angles, weights):
    exact for trigonometric polynomials of degree < order, with positive
    weights summing to the circle's length 2*pi."""
    if order < 1:
        raise ValueError("order must be >= 1")
    return TWO_PI * np.arange(order) / order, np.full(order, TWO_PI / order)
