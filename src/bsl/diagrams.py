"""Catalog of star-diagrams: one total space carrying two commuting free
group actions and both quotient projections.

Conventions used everywhere downstream: proj_bullet is the quotient map
of the bullet action (its image is called M) and proj_star the quotient
map of the star action (image M').  Because the actions commute, star
descends to M and bullet descends to M'; those residual actions are what
the isotropy and transport verifiers exercise.

Catalog identifiers are stable strings:

* "trivial-s2"  P = S2 x S1 with a rotate-and-translate pair of circle
                actions; both quotients are the round 2-sphere.
* "hopf"        P = unit quaternions with the left and right circle
                multiplications; quotients are 2-spheres reached by the
                two conjugation maps p -> p i conj(p) and p -> conj(p) i p.
* "gm"          P = Sp(2) with the Gromoll-Meyer pair of S3 actions;
                proj_bullet is the first matrix column (a point of S7),
                proj_star picks a canonical representative of the star
                orbit.
"""

import math
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .algebra import (
    TWO_PI,
    GroupElement,
    QUAT_I,
    QUAT_J,
    QUAT_ONE,
    Quaternion,
    _hopf_quat,
    circle_quat,
    payload_distance,
    quat_dot,
    quat_mul,
    random_element,
    sp2_membership_defect,
)

FIXED_POINT_TOL = 1e-9


class UnknownId(LookupError):
    """Identifier not present in the catalog."""


class NotInvariant(ValueError):
    """Function failed the sampled invariance check."""


class IllDefined(ValueError):
    """Two preimages of the same quotient point gave different values."""


@dataclass(frozen=True)
class CatalogEntry:
    id: str
    description: str
    group: str
    cohomogeneity_one: bool


@dataclass(frozen=True)
class StarDiagram:
    """A total space with two commuting free actions, fully wired.

    All callables are pure.  Sections are right inverses of the matching
    projection and are used to lift quotient points; each one covers the
    whole base with a two-chart fallback where a single formula would be
    singular.  On every entry the actions, projections, residual actions
    and sections also map a batch of points (and of group elements) at
    once, with the same floating-point operations as one point at a
    time, and the distances measure a batch against one point; the
    orbit-volume profiles and the isotropy probes are computed through
    them.
    """

    entry: CatalogEntry
    bullet_action: Callable
    star_action: Callable
    proj_bullet: Callable
    proj_star: Callable
    residual_star: Callable    # star action pushed down to M
    residual_bullet: Callable  # bullet action pushed down to M'
    section_bullet: Callable   # M -> P
    section_star: Callable     # M' -> P
    random_point: Callable
    point_distance: Callable
    dist_m: Callable
    dist_mprime: Callable
    membership: Callable

    @property
    def id(self):
        return self.entry.id

    @property
    def group(self):
        return self.entry.group

    @property
    def cohomogeneity_one(self):
        return self.entry.cohomogeneity_one


# ---------------------------------------------------------------------------
# shared small helpers: a point of R^3 is a (3,) array or a (..., 3)
# batch; one point stays on Python floats, several times faster than
# numpy scalars


def _coords(v):
    """The coordinates of one point (floats) or of a batch (arrays)."""
    v = np.asarray(v, dtype=float)
    if v.ndim == 1:
        return v.tolist()
    return v[..., 0], v[..., 1], v[..., 2]


def _vec(a, b, c):
    """Inverse of _coords: a (3,) array, or (..., 3) for a batch."""
    if (isinstance(a, np.ndarray) or isinstance(b, np.ndarray)
            or isinstance(c, np.ndarray)):
        return np.stack(np.broadcast_arrays(a, b, c), axis=-1)
    return np.array([a, b, c])


def _rot_z(theta, x):
    trig = np if isinstance(theta, np.ndarray) else math
    c, s = trig.cos(theta), trig.sin(theta)
    x0, x1, x2 = _coords(x)
    return _vec(c * x0 - s * x1, s * x0 + c * x1, x2)


def _pure(v):
    x, y, z = _coords(v)
    return Quaternion(0.0, x, y, z)


def _imag_vec(q):
    return _vec(q.x, q.y, q.z)


def _where(mask, a, b):
    """Quaternion a where mask holds, else b; mask is a bool or bool array."""
    if isinstance(mask, np.ndarray):
        return Quaternion(np.where(mask, a.w, b.w), np.where(mask, a.x, b.x),
                          np.where(mask, a.y, b.y), np.where(mask, a.z, b.z))
    return a if mask else b


def _vec_dist(a, b):
    return np.linalg.norm(np.asarray(a) - np.asarray(b), axis=-1)


# ---------------------------------------------------------------------------
# trivial product entry: P = S2 x S1, a point is (x, phi)


def _triv_bullet(g, p):
    x, phi = p
    return (x, (phi - g.data) % TWO_PI)


def _triv_star(g, p):
    x, phi = p
    return (_rot_z(g.data, x), (g.data + phi) % TWO_PI)


def _triv_proj_bullet(p):
    return p[0]


def _triv_proj_star(p):
    x, phi = p
    return _rot_z(-phi, x)


def _triv_residual(g, y):
    # both residual actions rotate the sphere about the z axis
    return _rot_z(g.data, y)


def _triv_section(x):
    x = np.asarray(x, dtype=float)
    return (x, 0.0 if x.ndim == 1 else np.zeros(x.shape[:-1]))


def _triv_point_dist(p, q):
    return np.hypot(_vec_dist(p[0], q[0]), payload_distance("s1", p[1], q[1]))


def _triv_random(rng):
    x = rng.standard_normal(3)
    x /= np.linalg.norm(x)
    return (x, float(rng.uniform(0.0, TWO_PI)))


def _triv_membership(p):
    return abs(float(np.linalg.norm(p[0])) - 1.0)


# ---------------------------------------------------------------------------
# hopf entry: P = unit quaternions


def _hopf_bullet(g, p):
    return quat_mul(p, circle_quat(-g.data))


def _hopf_star(g, p):
    return quat_mul(circle_quat(g.data), p)


def _hopf_proj_bullet(p):
    return _imag_vec(quat_mul(quat_mul(p, QUAT_I), p.conj()))


def _hopf_proj_star(p):
    return _imag_vec(quat_mul(quat_mul(p.conj(), QUAT_I), p))


def _hopf_residual(g, y):
    # both residual actions are conjugation by the circle element, a
    # rotation by twice the angle about the first axis
    q = circle_quat(g.data)
    return _imag_vec(quat_mul(q, quat_mul(_pure(y), q.conj())))


def _hopf_section_bullet(x):
    # p with p i conj(p) = X; 1 - X i vanishes at x = (-1, 0, 0), so the
    # lower cap takes a second chart, chosen before normalising so no
    # off-chart value is divided by its norm
    X = _pure(x)
    upper = X.x > -0.5
    xi = quat_mul(X, QUAT_I)
    s = _where(upper, QUAT_ONE - xi, QUAT_ONE + xi).normalized()
    return _where(upper, s, quat_mul(s, QUAT_J))


def _hopf_section_star(y):
    # proj_star(conj(q)) = proj_bullet(q): conjugate the bullet section
    return _hopf_section_bullet(y).conj()


def _hopf_random(rng):
    return random_element("s3", rng).data


def _hopf_point_dist(p, q):
    return (p - q).norm()


def _hopf_membership(p):
    return abs(p.norm() - 1.0)


# ---------------------------------------------------------------------------
# Gromoll-Meyer entry: P = Sp(2), stored row-wise ((a, c), (b, d))


def _gm_bullet(g, A):
    qc = g.data.conj()
    (a, c), (b, d) = A
    return ((a, quat_mul(c, qc)), (b, quat_mul(d, qc)))


def _gm_star(g, A):
    q = g.data
    qc = q.conj()
    (a, c), (b, d) = A
    return ((quat_mul(quat_mul(q, a), qc), quat_mul(q, c)),
            (quat_mul(quat_mul(q, b), qc), quat_mul(q, d)))


def _gm_proj_bullet(A):
    (a, _), (b, _) = A
    return (a, b)


def _gm_canon(A):
    # star-invariant representative: rotate the larger second-column
    # entry onto the positive real axis; |c|^2 + |d|^2 = 1 keeps the
    # chosen divisor at least 1/sqrt(2)
    (_, c), (_, d) = A
    u = _where(c.norm() >= d.norm(), c, d)
    return _gm_star(GroupElement("s3", u.conj() * (1.0 / u.norm())), A)


def _gm_residual_star(g, col):
    q = g.data
    qc = q.conj()
    a, b = col
    return (quat_mul(quat_mul(q, a), qc), quat_mul(quat_mul(q, b), qc))


def _gm_residual_bullet(g, Y):
    return _gm_canon(_gm_bullet(g, Y))


def _gm_section_bullet(col):
    # complete a first column (a, b) to a symplectic matrix; two charts
    # cover S7 since max(|a|, |b|) >= 1/sqrt(2); u is the larger entry
    a, b = col
    upper = a.norm() >= b.norm()
    u, v = _where(upper, a, b), _where(upper, b, a)
    s = quat_mul(quat_mul(u, v.conj()), u.conj()) * (-1.0 / quat_dot(u, u))
    return ((a, _where(upper, s, u.conj())), (b, _where(upper, u.conj(), s)))


def _gm_section_star(Y):
    return Y


def _sp2_dist(A, B):
    return payload_distance("sp2", A, B)


def _gm_dist_m(p, q):
    return np.sqrt((p[0] - q[0]).norm() ** 2 + (p[1] - q[1]).norm() ** 2)


def _gm_random(rng):
    return random_element("sp2", rng).data


# ---------------------------------------------------------------------------
# catalog


CATALOG_IDS = ("trivial-s2", "hopf", "gm")

_ENTRIES = {
    "trivial-s2": CatalogEntry(
        id="trivial-s2",
        description="product S2 x S1 with rotate-and-translate circle actions",
        group="s1",
        cohomogeneity_one=True,
    ),
    "hopf": CatalogEntry(
        id="hopf",
        description="unit quaternions with left and right circle multiplication",
        group="s1",
        cohomogeneity_one=True,
    ),
    "gm": CatalogEntry(
        id="gm",
        description="Sp(2) with the Gromoll-Meyer pair of S3 actions",
        group="s3",
        cohomogeneity_one=False,
    ),
}


def catalog_entries():
    return tuple(_ENTRIES[i] for i in CATALOG_IDS)


def catalog(id: str) -> StarDiagram:
    """Build the fully wired diagram for a catalog identifier."""
    if id not in _ENTRIES:
        raise UnknownId(f"unknown diagram {id!r}; known: {', '.join(CATALOG_IDS)}")
    e = _ENTRIES[id]
    if id == "trivial-s2":
        return StarDiagram(
            entry=e,
            bullet_action=_triv_bullet,
            star_action=_triv_star,
            proj_bullet=_triv_proj_bullet,
            proj_star=_triv_proj_star,
            residual_star=_triv_residual,
            residual_bullet=_triv_residual,
            section_bullet=_triv_section,
            section_star=_triv_section,
            random_point=_triv_random,
            point_distance=_triv_point_dist,
            dist_m=_vec_dist,
            dist_mprime=_vec_dist,
            membership=_triv_membership,
        )
    if id == "hopf":
        return StarDiagram(
            entry=e,
            bullet_action=_hopf_bullet,
            star_action=_hopf_star,
            proj_bullet=_hopf_proj_bullet,
            proj_star=_hopf_proj_star,
            residual_star=_hopf_residual,
            residual_bullet=_hopf_residual,
            section_bullet=_hopf_section_bullet,
            section_star=_hopf_section_star,
            random_point=_hopf_random,
            point_distance=_hopf_point_dist,
            dist_m=_vec_dist,
            dist_mprime=_vec_dist,
            membership=_hopf_membership,
        )
    return StarDiagram(
        entry=e,
        bullet_action=_gm_bullet,
        star_action=_gm_star,
        proj_bullet=_gm_proj_bullet,
        proj_star=_gm_canon,
        residual_star=_gm_residual_star,
        residual_bullet=_gm_residual_bullet,
        section_bullet=_gm_section_bullet,
        section_star=_gm_section_star,
        random_point=_gm_random,
        point_distance=_sp2_dist,
        dist_m=_gm_dist_m,
        dist_mprime=_sp2_dist,
        membership=sp2_membership_defect,
    )


def swap(d: StarDiagram) -> StarDiagram:
    """The same diagram with the roles of the two actions exchanged."""
    return replace(
        d,
        bullet_action=d.star_action,
        star_action=d.bullet_action,
        proj_bullet=d.proj_star,
        proj_star=d.proj_bullet,
        residual_star=d.residual_bullet,
        residual_bullet=d.residual_star,
        section_bullet=d.section_star,
        section_star=d.section_bullet,
        dist_m=d.dist_mprime,
        dist_mprime=d.dist_m,
    )


# ---------------------------------------------------------------------------
# verifiers


def check_commute(d: StarDiagram, samples: int, rng=None) -> float:
    """Max distance between the two composition orders on random samples.

    Floating-point angle addition is not associative, so even the product
    entry returns a residual at rounding level rather than an exact zero.
    """
    if rng is None:
        rng = np.random.default_rng(0)
    worst = 0.0
    for _ in range(samples):
        g = random_element(d.group, rng)
        h = random_element(d.group, rng)
        p = d.random_point(rng)
        a = d.star_action(g, d.bullet_action(h, p))
        b = d.bullet_action(h, d.star_action(g, p))
        worst = max(worst, d.point_distance(a, b))
    return worst


def group_net(group: str, grid: int) -> GroupElement:
    """Deterministic net over the group, identity first, held as one
    GroupElement whose payload is an array of angles (s1) or a
    Quaternion of arrays (s3).

    The circle net is the uniform angle grid.  The S3 net is a lattice in
    Hopf coordinates q = (cos(eta) e^{i xi1}, sin(eta) e^{i xi2} j) that
    contains the identity, the antipode -1, and the circle subgroup
    through the identity (the eta = 0 ring), which is what the isotropy
    dimension patterns key on.
    """
    if grid < 2:
        raise ValueError("net grid must be >= 2")
    angles = TWO_PI * np.arange(grid) / grid
    if group == "s1":
        return GroupElement("s1", angles)
    if group == "s3":
        etas = np.linspace(0.0, math.pi / 2.0, grid // 4 + 2)
        eta, xi1, xi2 = np.meshgrid(etas, angles, angles, indexing="ij")
        # each end ring keeps one value of the angle that is void there
        keep = (((eta < etas[-1]) | (xi1 == 0.0))
                & ((eta > 0.0) | (xi2 == 0.0)))
        return GroupElement("s3", _hopf_quat(eta[keep], xi1[keep], xi2[keep]))
    raise ValueError(f"no net for group {group!r}")


def _probe(action, dist, p, net, tol):
    # one batched action and distance; the mask has one entry per net
    # element even when the distance does not depend on the element
    size = np.size(net.data.w if isinstance(net.data, Quaternion) else net.data)
    return np.broadcast_to(dist(action(net, p), p) <= tol, (size,))


def isotropy_probe(d: StarDiagram, which: str, p, grid: int = 16,
                   tol: float = FIXED_POINT_TOL) -> np.ndarray:
    """Boolean mask over group_net(d.group, grid): the net elements whose
    action moves p by at most tol.

    The net's first element is the identity, so for a free action only
    the first entry is set.
    """
    if which == "bullet":
        action = d.bullet_action
    elif which == "star":
        action = d.star_action
    else:
        raise ValueError("which must be 'bullet' or 'star'")
    return _probe(action, d.point_distance, p, group_net(d.group, grid), tol)


def _pattern_dim(group, grid, hits, total):
    # match the hit count against the 0/1/3-dimensional subgroup patterns
    # the catalog groups can produce
    if hits >= 0.9 * total:
        return 3 if group == "s3" else 1
    if group == "s3" and hits >= max(4, grid // 2):
        return 1
    return 0


def isotropy_compare(d: StarDiagram, p, grid: int = 16,
                     tol: float = FIXED_POINT_TOL):
    """Estimated isotropy dimensions of the two residual actions at the
    projections of p.  The two numbers agree for every diagram point."""
    net = group_net(d.group, grid)
    m_hits = _probe(d.residual_star, d.dist_m, d.proj_bullet(p), net, tol)
    mp_hits = _probe(d.residual_bullet, d.dist_mprime, d.proj_star(p), net, tol)
    return (_pattern_dim(d.group, grid, np.count_nonzero(m_hits), m_hits.size),
            _pattern_dim(d.group, grid, np.count_nonzero(mp_hits), mp_hits.size))


# ---------------------------------------------------------------------------
# invariant-function transport


def transport_invariant(d: StarDiagram, f, samples: int = 64, rng=None,
                        tol: float = FIXED_POINT_TOL):
    """Carry an invariant function on M over to M'.

    The result evaluates f at the bullet projection of a star-section
    lift, so sums and products transport to sums and products through
    the very same floating evaluations.  Raises NotInvariant when f
    moves under the residual star action on sampled points, IllDefined
    when different preimages of a sampled M'-point disagree.
    """
    if rng is None:
        rng = np.random.default_rng(0)
    pts = [d.random_point(rng) for _ in range(samples)]
    vals = [float(f(d.proj_bullet(p))) for p in pts]
    scale = max(1.0, max(abs(v) for v in vals))
    for p, v in zip(pts, vals):
        g = random_element(d.group, rng)
        moved = float(f(d.residual_star(g, d.proj_bullet(p))))
        if abs(moved - v) > tol * scale:
            raise NotInvariant(
                f"function moved by {abs(moved - v):.3e} under the residual action")
    for _ in range(samples):
        p = d.random_point(rng)
        y = d.proj_star(p)
        q0 = d.section_star(y)
        g = random_element(d.group, rng)
        routes = (float(f(d.proj_bullet(q0))),
                  float(f(d.proj_bullet(d.star_action(g, q0)))),
                  float(f(d.proj_bullet(p))))
        if max(routes) - min(routes) > tol * scale:
            raise IllDefined(
                f"preimage routes disagree by {max(routes) - min(routes):.3e}")

    def transported(y):
        return f(d.proj_bullet(d.section_star(y)))

    return transported
