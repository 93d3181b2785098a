"""Invariant connection metrics on the catalog diagrams and their
reduction to one-dimensional orbit-space weight profiles.

The metric on a total space P is built from three pieces: a round base
metric of radius r on M (the bullet quotient), a connection one-form nu
normalised so the bullet generator W has nu(W) = 1, and a vertical scale

    g(v, u) = g_M(dpi v, dpi u) + E(t) * B0 * nu(v) nu(u),

where B0 is the squared fiber speed and E = exp(2 c u(t)) is the warp
factor (E = 1 unwarped, t the arc-length coordinate on the orbit space).
Each entry ships a connection calibrated so that at the default radius
and fiber scale the two quotients carry identical weight profiles: the
hopf entry uses the round connection (default fiber scale r^2 makes the
total space the round 3-sphere), the trivial product entry bends its
horizontal distribution so the star orbits keep constant length, which
needs fiber scale above r^2.

Quotient orbit-volume profiles are computed by pushing Haar quadrature
nodes through the diagram's own maps (the catalog's residual actions,
projections and sections, evaluated on whole batches) and summing metric
Jacobians at the pushed points.  On P the two circle actions commute and
act by isometries, so the Gram matrix of their generators is constant on
each torus orbit and one point per orbit gives the Haar integral.  Each
entry hands out the metric at a point as its three Kaluza-Klein factors,
the fiber term E B0, the connection component nu of the star generator
and the base term r^2 |dpi Z|^2.  The Jacobians are products and
quotients of these with no cancelling difference, so they hold to
rounding wherever the fiber term is finite.  This module holds only the
metric in that factored form; the metric evaluated on tangent vectors,
and the closed forms the profiles reproduce, live only in the test suite.
It writes no files: the command line formats and writes profile dumps.
"""

import hashlib
import math
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Optional, Union

import numpy as np

from .algebra import QUAT_I, Quaternion, circle_rule, quat_dot, quat_mul
from .diagrams import CATALOG_IDS, StarDiagram, _ENTRIES, catalog

SIDES = ("P", "M", "Mprime")

_SIDE_ALIASES = {"p": "P", "m": "M", "mprime": "Mprime", "m'": "Mprime"}

# Haar nodes per residual circle orbit on the quotient sides
_HAAR_ORDER = 8

_DEFAULTS = {
    "hopf": (0.5, 0.25),
    "trivial-s2": (1.0, 4.0),
    "gm": (1.0, 1.0),
}


class UnknownDiagram(LookupError):
    """Metric requested for an identifier outside the catalog."""


class GridMismatch(ValueError):
    """Sampled data does not fit the orbit-space grid."""


class NotCohomogeneityOne(ValueError):
    """Entry has no one-dimensional orbit space; profiles are undefined."""


@dataclass(frozen=True, eq=False)
class MetricSpec:
    """Parameters of one invariant metric on a catalog total space."""

    entry_id: str
    radius: float
    fiber_scale: float
    warp_u: Optional[np.ndarray] = None  # values on a uniform grid over [0, L]
    warp_scale: float = 1.0

    def fingerprint(self) -> str:
        h = hashlib.sha256()
        h.update(self.entry_id.encode())
        h.update(repr((self.radius, self.fiber_scale, self.warp_scale)).encode())
        if self.warp_u is not None:
            h.update(self.warp_u.tobytes())
        return h.hexdigest()[:16]

    @cached_property
    def _warp_spline(self):
        # built once per metric; scipy's interpolate module loads only
        # here, when a warp is present
        from scipy.interpolate import CubicSpline

        L = orbit_space_length(self)
        return CubicSpline(np.linspace(0.0, L, self.warp_u.size), self.warp_u)


@dataclass(frozen=True, eq=False)
class OrbitProfile:
    """Weight profile of one diagram side over the shared orbit space."""

    entry_id: str
    side: str
    L: float
    t: np.ndarray
    w: np.ndarray
    endpoints: tuple
    n: int
    fingerprint: str

    @property
    def dt(self) -> float:
        return self.L / self.n


# ---------------------------------------------------------------------------
# per-entry metric hooks: points and curves of P are in the diagram's own
# representation, batched.  gram(m, p) returns the metric's Kaluza-Klein
# factors (b, nu, mm) at p: the warped fiber term b = E B0, the connection
# component nu = nu(Z) of the star generator Z (the bullet generator W has
# nu(W) = 1) and the base term mm = r^2 |dpi Z|^2.  The Gram matrix of
# (W, Z) is [[b, b nu], [b nu, mm + b nu^2]].


class _HopfGeometry:
    entry_id = "hopf"

    def b0(self, m):
        # the connection form gives the bullet generator speed 1, while
        # the residual rotation on the base runs at twice the group rate;
        # the squared fiber speed that matches the catalog calibration is
        # 4 * fiber_scale (fiber scale r^2 recovers the round total space)
        return 4.0 * m.fiber_scale

    def curve_P(self, m, t):
        half = np.asarray(t) / (2.0 * m.radius)
        return Quaternion(np.cos(half), 0.0, np.sin(half), 0.0)

    def t_of_P(self, m, p):
        return 2.0 * m.radius * np.arctan2(np.hypot(p.y, p.z), np.hypot(p.w, p.x))

    def t_of_base(self, m, x):
        # both quotients are unit spheres with the pole on the first axis
        return m.radius * np.arctan2(np.hypot(x[..., 1], x[..., 2]), x[..., 0])

    def jac_M(self, m, pushed):
        return 2.0 * m.radius * np.hypot(pushed[..., 1], pushed[..., 2])

    def gram(self, m, p):
        # dpi and nu at Z = i p written out, with p i formed once
        pi = quat_mul(p, QUAT_I)
        z = quat_mul(QUAT_I, p)
        nuz = quat_dot(z, -pi)
        dz = quat_mul(quat_mul(z, QUAT_I), p.conj()) + quat_mul(pi, z.conj())
        mm = m.radius ** 2 * (dz.x * dz.x + dz.y * dz.y + dz.z * dz.z)
        # unwarped, E is ones and t is not needed
        b = (np.full(np.shape(nuz), self.b0(m)) if m.warp_u is None
             else _warp_factor(m, self.t_of_P(m, p)) * self.b0(m))
        return b, nuz, mm


class _TrivialGeometry:
    entry_id = "trivial-s2"

    def curve_P(self, m, t):
        tt = np.asarray(t) / m.radius
        x = np.stack([np.sin(tt), np.zeros_like(tt), np.cos(tt)], axis=-1)
        return (x, np.zeros_like(tt))

    def t_of_base(self, m, x):
        # a point (x, phi) of P sits at the parameter of x
        return m.radius * np.arctan2(np.hypot(x[..., 0], x[..., 1]), x[..., 2])

    def jac_M(self, m, pushed):
        return m.radius * np.hypot(pushed[..., 0], pushed[..., 1])

    def _nu_z(self, m, x):
        # vertical component of the star generator under the adapted
        # connection; constant star-orbit length forces this closed form
        # and requires fiber_scale > radius^2
        s2 = x[..., 0] ** 2 + x[..., 1] ** 2
        return -np.sqrt(np.maximum(1.0 - m.radius ** 2 * s2 / m.fiber_scale, 0.0))

    def gram(self, m, p):
        x = p[0]
        s2 = x[..., 0] ** 2 + x[..., 1] ** 2
        nuz = self._nu_z(m, x)
        b = (np.full(np.shape(s2), m.fiber_scale) if m.warp_u is None
             else _warp_factor(m, self.t_of_base(m, x)) * m.fiber_scale)
        return b, nuz, m.radius ** 2 * s2


_GEOMS = {"hopf": _HopfGeometry(), "trivial-s2": _TrivialGeometry()}


# ---------------------------------------------------------------------------
# metric construction


def _entry_id_of(d: Union[StarDiagram, str]) -> str:
    eid = d.id if isinstance(d, StarDiagram) else str(d)
    if eid not in _ENTRIES:
        raise UnknownDiagram(f"unknown diagram {eid!r}; known: {', '.join(CATALOG_IDS)}")
    return eid


def kaluza_klein(d, radius: Optional[float] = None,
                 fiber_scale: Optional[float] = None) -> MetricSpec:
    """Unwarped connection metric with the entry's calibrated defaults."""
    eid = _entry_id_of(d)
    r0, q0 = _DEFAULTS[eid]
    r = r0 if radius is None else float(radius)
    q = q0 if fiber_scale is None else float(fiber_scale)
    if not (0.0 < r < math.inf) or not (0.0 < q < math.inf):
        raise ValueError("radius and fiber scale must be positive and finite")
    if eid == "trivial-s2" and q <= r * r:
        raise ValueError(
            "the trivial-s2 connection keeps star orbits at constant length "
            "only for fiber_scale > radius^2")
    return MetricSpec(entry_id=eid, radius=r, fiber_scale=q)


def warp(m: MetricSpec, u, c: float) -> MetricSpec:
    """Scale fiber lengths by exp(c * u(t)); the base metric is untouched.

    u is a value table on a uniform grid over [0, L]; between nodes it is
    interpolated with a cubic spline, so profiles may later be sampled on
    any grid.
    """
    arr = np.asarray(u, dtype=float)
    if arr.ndim != 1 or arr.size < 4 or not np.all(np.isfinite(arr)):
        raise GridMismatch("warp table must be a finite 1-D array with >= 4 nodes")
    if not (math.isfinite(c) and c >= 0.0):
        raise ValueError(f"warp scale must be finite and >= 0, got {c!r}")
    arr = arr.copy()
    arr.flags.writeable = False
    return replace(m, warp_u=arr, warp_scale=float(c))


def orbit_space_length(m: MetricSpec) -> float:
    return math.pi * m.radius


def _warp_factor(m: MetricSpec, t):
    if m.warp_u is None:
        return np.ones_like(np.asarray(t, dtype=float))
    L = orbit_space_length(m)
    return np.exp(2.0 * m.warp_scale * m._warp_spline(np.clip(t, 0.0, L)))


def _geom(m: MetricSpec):
    _entry_id_of(m.entry_id)
    if not _ENTRIES[m.entry_id].cohomogeneity_one:
        raise NotCohomogeneityOne(
            f"entry {m.entry_id!r} has no one-dimensional orbit space; "
            "basic spectra are not defined for it")
    return _GEOMS[m.entry_id]


def normalize_side(side: str) -> str:
    key = str(side).strip().lower()
    if key not in _SIDE_ALIASES:
        raise ValueError(f"side must be one of {SIDES}")
    return _SIDE_ALIASES[key]


# ---------------------------------------------------------------------------
# profiles


def orbit_profile(m: MetricSpec, side: str, n: int) -> OrbitProfile:
    """Orbit-volume weight w(t_i) on the uniform orbit-space grid.

    On a quotient side every value is a Haar-quadrature sum of metric
    Jacobians at points pushed through the diagram's own maps: the
    residual action (lifted back to P by the star section on M').  On P
    the two circle actions commute and act by isometries, so the Gram
    matrix of their generators is constant on each torus orbit, and the
    weight is the torus Haar volume (2 pi)^2 times the Jacobian at the
    orbit's point on the section curve.  Orbit volumes count the
    parameterisation with multiplicity, so a residual action that wraps
    its orbit twice reports twice the geometric length; all ratios used
    downstream are insensitive to that convention.
    """
    geom = _geom(m)
    d = catalog(m.entry_id)
    side = normalize_side(side)
    n = int(n)
    if n < 16:
        raise ValueError("profile grid needs n >= 16")
    L = orbit_space_length(m)
    t = np.linspace(0.0, L, n + 1)
    g, wts = circle_rule(_HAAR_ORDER)

    # the generators' Gram determinant is b mm, and the star quotient's
    # Jacobian is the determinant over the star term, b mm / (mm + b nu^2):
    # both without a cancelling difference.  A warp scale that overflows
    # the fiber term still makes b inf and the weights inf or NaN
    # (inf / inf); assemble reports those as NonpositiveWeight, so numpy
    # need not warn about them here
    with np.errstate(over="ignore", invalid="ignore"):
        if side == "M":
            x = d.proj_bullet(geom.curve_P(m, t))
            w = geom.jac_M(m, d.residual_star(g, x[:, None, :])) @ wts
        elif side == "Mprime":
            y = d.proj_star(geom.curve_P(m, t))
            lifts = d.section_star(d.residual_bullet(g, y[:, None, :]))
            b, nu, mm = geom.gram(m, lifts)
            w = np.sqrt(b * mm / (mm + b * nu * nu)) @ wts
        else:
            b, nu, mm = geom.gram(m, geom.curve_P(m, t))
            w = (2.0 * math.pi) ** 2 * np.sqrt(b * mm)

    # the endpoint orbits collapse, so their volume is exactly zero; pinned
    # here because the base term mm there is zero only up to rounding
    w[0] = 0.0
    w[-1] = 0.0
    t.flags.writeable = False
    w.flags.writeable = False
    return OrbitProfile(entry_id=m.entry_id, side=side, L=L, t=t, w=w,
                        endpoints=("collapsing", "collapsing"), n=n,
                        fingerprint=m.fingerprint())


def star_orbit_volumes(m: MetricSpec, n: int):
    """Volumes of the star orbits along the section curve."""
    geom = _geom(m)
    t = np.linspace(0.0, orbit_space_length(m), int(n) + 1)
    b, nu, mm = geom.gram(m, geom.curve_P(m, t))
    return t, 2.0 * math.pi * np.sqrt(mm + b * nu * nu)


def quotient_curve(m: MetricSpec, side: str, t):
    """The horizontal section curve pushed to the requested side, in the
    diagram's own point representation."""
    p = _geom(m).curve_P(m, np.asarray(t, dtype=float))
    side = normalize_side(side)
    if side == "M":
        return catalog(m.entry_id).proj_bullet(p)
    if side == "Mprime":
        return catalog(m.entry_id).proj_star(p)
    return p


def base_parameter(m: MetricSpec, x):
    """Orbit-space parameter of a quotient point (either side)."""
    return _geom(m).t_of_base(m, np.asarray(x, dtype=float))


def mean_curvature(p: OrbitProfile) -> np.ndarray:
    """h = -d/dt log w, centered inside, one-sided at the ends.

    At a collapsing endpoint the log slope diverges; the one-sided value
    there is only a large finite surrogate and tests ignore it.
    """
    w = np.maximum(p.w, 1e-300)
    lw = np.log(w)
    dt = p.dt
    h = np.empty_like(lw)
    h[1:-1] = -(lw[2:] - lw[:-2]) / (2.0 * dt)
    h[0] = -(lw[1] - lw[0]) / dt
    h[-1] = -(lw[-1] - lw[-2]) / dt
    return h


def laplacian_identity_residual(m: MetricSpec, phi, n: int) -> float:
    """Max defect of the reduction identity relating the P-side and
    M-side operators through the fiber mean-curvature drift term.

    Evaluated on interior nodes, excluding a 5% band at each collapsing
    end where the log-derivative of the weight degenerates.
    """
    from .sturm import apply_stiffness, assemble

    prof_p = orbit_profile(m, "P", n)
    prof_m = orbit_profile(m, "M", n)
    f = np.asarray(phi(prof_p.t) if callable(phi) else phi, dtype=float)
    if f.shape != prof_p.t.shape:
        raise GridMismatch(f"phi must have {prof_p.t.size} nodes")
    op_p = assemble(prof_p)
    op_m = assemble(prof_m)
    dt = prof_p.dt
    # end masses vanish at collapsing orbits; those nodes sit outside the
    # comparison band, so a guarded division is enough
    lhs = apply_stiffness(op_p, f) / np.maximum(op_p.mass, 1e-300)
    rhs = apply_stiffness(op_m, f) / np.maximum(op_m.mass, 1e-300)
    log_ratio = np.log(np.maximum(prof_p.w, 1e-300) / np.maximum(prof_m.w, 1e-300))
    drift = np.zeros_like(f)
    drift[1:-1] = (-(log_ratio[2:] - log_ratio[:-2]) / (2.0 * dt)
                   * (f[2:] - f[:-2]) / (2.0 * dt))
    lo = int(math.ceil(0.05 * n)) if prof_p.endpoints[0] == "collapsing" else 1
    hi = int(math.ceil(0.05 * n)) if prof_p.endpoints[1] == "collapsing" else 1
    band = slice(max(lo, 1), n + 1 - max(hi, 1))
    return float(np.max(np.abs(lhs[band] - rhs[band] - drift[band])))

