"""Experiment drivers built on the catalog, geometry and eigensolver.

Four procedures: compare the basic spectra of the two quotients of a
diagram, certify a transported eigenfunction on the far side, run the
vertical warp-break schedule, and check the quadrature version of the
fiber-integration identity.  Every spectrum here comes from one
Richardson step, `_richardson`: one grid-n profile, solved on its even
nodes (grid n/2) and on all of them, and extrapolated, so reports carry
per-mode error estimates.
"""

import math
import sys
from dataclasses import dataclass, replace

import numpy as np

from . import diagrams, geometry
from .eigen import BasicSpectrum, eigenpairs
from .sturm import NonpositiveWeight, assemble, mass_quadrature, pencil_residual

DEFAULT_SCALES = tuple(2.0 ** e for e in range(-4, 5))


@dataclass(frozen=True)
class CompareReport:
    entry_id: str
    fingerprint: str
    k: int
    n: int
    lambda_m: tuple
    lambda_mprime: tuple
    err_m: tuple
    err_mprime: tuple
    relgaps: tuple
    max_relgap: float
    tolerance: float
    isospectral: bool


@dataclass(frozen=True)
class WarpReport:
    entry_id: str
    fingerprint: str
    scale: float
    n: int
    lambda1_unwarped: float
    err_unwarped: float
    lambda1_warped: float
    err_warped: float
    star_volume_range: tuple
    broke_isospectrality: bool


def _resolve(d):
    """Accept a diagram or its id; return (StarDiagram, id)."""
    if isinstance(d, str):
        d = diagrams.catalog(d)
    return d, d.id


def _check_matching(entry_id: str, m: geometry.MetricSpec):
    if m.entry_id != entry_id:
        raise ValueError(
            f"metric is for {m.entry_id!r} but the diagram is {entry_id!r}")


def _even_nodes(a):
    h = a[::2].copy()
    h.flags.writeable = False
    return h


def _richardson(profile, k):
    """Richardson-extrapolated spectrum from the grid pair (n/2, n), with
    the grid-n operator and eigenvectors.

    profile is the grid-n profile; the grid-n/2 profile is its even
    nodes, bit for bit what a fresh build at n/2 gives, because the
    grid-n/2 nodes are the even grid-n nodes and each node's weight is
    computed on its own.  The scheme is second order, so
    lambda = (4 l_n - l_{n/2}) / 3 kills the leading error term; the
    per-mode error estimate is |l_n - l_{n/2}| / 3.
    """
    n = profile.n
    if n % 2 != 0 or n // 2 < 16:
        raise ValueError("extrapolation needs an even grid with n/2 >= 16")
    half = replace(profile, t=_even_nodes(profile.t), w=_even_nodes(profile.w),
                   n=n // 2)
    l1 = eigenpairs(assemble(half), k)[0]
    op = assemble(profile)
    l2, vecs = eigenpairs(op, k)
    lam = (4.0 * l2 - l1) / 3.0
    err = np.abs(l2 - l1) / 3.0
    order = np.argsort(lam, kind="stable")
    spec = BasicSpectrum(lambdas=lam[order], errors=err[order], n=n,
                         side=op.side, fingerprint=op.fingerprint)
    return spec, op, vecs


def extrapolated_spectrum(m: geometry.MetricSpec, side: str, k: int,
                          n: int) -> BasicSpectrum:
    """Richardson-extrapolated spectrum from the grid pair (n/2, n)."""
    return _richardson(geometry.orbit_profile(m, side, n), k)[0]


def compare_basic_spectra(d, m: geometry.MetricSpec, k: int, n: int) -> CompareReport:
    """Index-by-index comparison of the two quotient spectra.

    The product entry has identical quotient metrics by construction, so
    its unwarped comparison reuses the bullet-side profile for the star
    side and the gap is exactly zero.
    """
    _diag, entry_id = _resolve(d)
    _check_matching(entry_id, m)
    ext_m = extrapolated_spectrum(m, "M", k, n)
    if entry_id == "trivial-s2" and m.warp_u is None:
        ext_p = replace(ext_m, side="Mprime")
    else:
        ext_p = extrapolated_spectrum(m, "Mprime", k, n)
    lm, em = ext_m.lambdas, ext_m.errors
    lp, ep = ext_p.lambdas, ext_p.errors
    denom = np.maximum(np.maximum(np.abs(lm), np.abs(lp)), 1e-300)
    relgaps = np.abs(lm - lp) / denom
    max_relgap = float(np.max(relgaps))
    tolerance = max(1e-8, 3.0 * float(np.max((em + ep) / denom)))
    return CompareReport(entry_id=entry_id, fingerprint=m.fingerprint(),
                         k=int(k), n=ext_m.n,
                         lambda_m=tuple(float(v) for v in lm),
                         lambda_mprime=tuple(float(v) for v in lp),
                         err_m=tuple(float(v) for v in em),
                         err_mprime=tuple(float(v) for v in ep),
                         relgaps=tuple(float(v) for v in relgaps),
                         max_relgap=max_relgap, tolerance=tolerance,
                         isospectral=bool(max_relgap <= tolerance))


def _transport_table(diag, m, u: np.ndarray, prof_mp) -> np.ndarray:
    """Carry a grid table on M to the M' grid through the diagram maps.

    The transported parameter of every M'-node must land back on the
    same node (the two section curves trace the same orbits), which is
    verified to 1e-9 of the interval; the table is then reused exactly,
    so transport introduces no interpolation error.
    """
    t, n = prof_mp.t, prof_mp.n

    def node(tp):
        return np.clip(np.rint(tp / prof_mp.dt).astype(int), 0, n)

    # the sampled invariance and well-definedness checks of the table
    diagrams.transport_invariant(
        diag, lambda x: u[node(geometry.base_parameter(m, x))], samples=32)
    ys = geometry.quotient_curve(m, "Mprime", t)
    tprime = geometry.base_parameter(m, diag.proj_bullet(diag.section_star(ys)))
    off = np.abs(tprime - t) > 1e-9 * prof_mp.L
    if np.any(off):
        j = int(np.argmax(off))
        raise geometry.GridMismatch(
            f"transported node {j} lands at t={float(tprime[j])!r}, "
            f"expected {float(t[j])!r}")
    return u[node(tprime)]


def joint_eigenfunction_check(d, m: geometry.MetricSpec, index: int, n: int) -> float:
    """Residual of an M-eigenfunction against the M'-side operator.

    index counts nonzero modes from 1; index 0 is the constant with an
    exactly zero residual.  The returned value is ||A'u - lambda B'u|| /
    ||B'u|| with u transported through transport_invariant.
    """
    diag, entry_id = _resolve(d)
    _check_matching(entry_id, m)
    if m.warp_u is not None:
        raise ValueError("joint transport holds for unwarped metrics only")
    n = int(n)
    prof_m = geometry.orbit_profile(m, "M", n)
    op_m = assemble(prof_m)
    if index == 0:
        lam = 0.0
        u = np.ones(n + 1)
    else:
        lams, vecs = eigenpairs(op_m, int(index))
        lam = float(lams[index - 1])
        u = vecs[:, index - 1]
    if entry_id == "trivial-s2" and m.warp_u is None:
        prof_mp = replace(prof_m, side="Mprime")
    else:
        prof_mp = geometry.orbit_profile(m, "Mprime", n)
    op_mp = assemble(prof_mp)
    return pencil_residual(op_mp, lam, _transport_table(diag, m, u, prof_mp))


def warp_break(d, m: geometry.MetricSpec, scales=None, n: int = 512):
    """Vertical warp schedule on the star-side quotient.

    The warp direction u is the first basic eigenfunction of the
    unwarped M' problem, B-normalized, signed so its positive part
    carries at least half the weight (ties broken by the solver's
    largest-node convention).  A leading scale 0 serves as the control;
    broke_isospectrality compares the warped and unwarped first
    eigenvalues against ten times the combined error estimates.  The
    first-order response of lambda1 to a warp along its own
    eigenfunction vanishes, so lambda1 moves as the square of the scale.
    """
    _diag, entry_id = _resolve(d)
    _check_matching(entry_id, m)
    if m.warp_u is not None:
        raise ValueError("the base metric of a warp schedule must be unwarped")
    if scales is None:
        scales = DEFAULT_SCALES
    s_un, op_un, vecs_un = _richardson(geometry.orbit_profile(m, "Mprime", n), 1)
    lam_un, err_un = s_un.lambdas[0], s_un.errors[0]
    u = vecs_un[:, 0].copy()
    pos = float(op_un.mass @ np.maximum(u, 0.0))
    neg = float(op_un.mass @ np.maximum(-u, 0.0))
    if neg > pos * (1.0 + 1e-12):
        u = -u

    reports = []
    for c in [0.0] + [float(s) for s in scales]:
        mw = geometry.warp(m, u, c)
        try:
            s_w = extrapolated_spectrum(mw, "Mprime", 1, n)
        except NonpositiveWeight as exc:
            # the unwarped weights passed, and the warp changes only the
            # fiber term, whose finite positive values keep every weight
            # positive: so exp(2 c u) B0 left the double range
            lo, hi = math.log(math.ulp(0.0)), math.log(sys.float_info.max)
            raise NonpositiveWeight(
                f"warp scale {c!r} takes the fiber term exp(2 c u) B0 out of "
                f"the double range: 2c*max|u| = {2.0 * c * np.max(np.abs(u)):.6g}"
                f", while doubles span e^{lo:.2f} to e^{hi:.2f}; {exc}") from exc
        lam_w, err_w = s_w.lambdas[0], s_w.errors[0]
        _, volz = geometry.star_orbit_volumes(mw, n)
        broke = abs(lam_w - lam_un) > 10.0 * (err_w + err_un)
        reports.append(WarpReport(
            entry_id=entry_id, fingerprint=mw.fingerprint(), scale=c, n=s_w.n,
            lambda1_unwarped=float(lam_un), err_unwarped=float(err_un),
            lambda1_warped=float(lam_w), err_warped=float(err_w),
            star_volume_range=(float(np.min(volz)), float(np.max(volz))),
            broke_isospectrality=bool(broke)))
    return reports


def fubini_defect(d, m: geometry.MetricSpec, f, n: int) -> float:
    """Relative defect of integrating over P against fiber volume times
    the integral over M, for an invariant integrand given on the orbit
    space (callable of t or a node table)."""
    _diag, entry_id = _resolve(d)
    _check_matching(entry_id, m)
    prof_p = geometry.orbit_profile(m, "P", int(n))
    prof_m = geometry.orbit_profile(m, "M", int(n))
    vals = np.asarray(f(prof_p.t) if callable(f) else f, dtype=float)
    if vals.shape != prof_p.t.shape:
        raise geometry.GridMismatch(f"integrand must have {prof_p.t.size} nodes")
    qp = mass_quadrature(assemble(prof_p))
    qm = mass_quadrature(assemble(prof_m))
    fiber = float(np.sum(qp)) / float(np.sum(qm))
    ip = float(qp @ vals)
    im = float(qm @ vals)
    return abs(ip - fiber * im) / max(abs(ip), 1e-300)
