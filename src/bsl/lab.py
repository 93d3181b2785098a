"""Experiment drivers built on the catalog, geometry and eigensolver.

Four procedures: compare the basic spectra of the two quotients of a
diagram, certify a transported eigenfunction on the far side, run the
vertical warp-break schedule with its inequality audit, and check the
quadrature version of the fiber-integration identity.  Every spectrum
here is Richardson-extrapolated from the grid pair (n/2, n) so reports
carry per-mode error estimates.
"""

import math
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from . import diagrams, geometry
from .eigen import BasicSpectrum, eigenpairs, extrapolate, group_modes
from .sturm import apply_stiffness, assemble, mass_quadrature

K_CONSTANT = 1.0
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
    lhs: float
    rhs: Optional[float]          # None when the phi-mean denominator vanishes
    k_constant: float
    int_u_sq_unwarped: float
    int_phi_warped: float
    int_phi_unwarped: float
    int_phi_sq_warped: float
    mean_of_phi: float
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


def _grid_ok(n: int):
    n = int(n)
    if n % 2 != 0 or n // 2 < 16:
        raise ValueError("extrapolation needs an even grid with n/2 >= 16")
    return n


def _solve_grid(prof, k):
    """(spectrum, operator, eigenvectors) on one profile's grid."""
    op = assemble(prof)
    lams, vecs = eigenpairs(op, k)
    spec = BasicSpectrum(values=group_modes(lams), n=op.n, side=op.side,
                         fingerprint=op.fingerprint)
    return spec, op, vecs


def _solve_pair(m, side, k, n, fine=None):
    """Extrapolated spectrum from (n/2, n) plus the fine-grid pieces;
    fine is the grid-n profile when the caller has built it already."""
    coarse, _, _ = _solve_grid(geometry.orbit_profile(m, side, n // 2), k)
    if fine is None:
        fine = geometry.orbit_profile(m, side, n)
    spec, op, vecs = _solve_grid(fine, k)
    return extrapolate(coarse, spec), op, vecs


def extrapolated_spectrum(m: geometry.MetricSpec, side: str, k: int, n: int,
                          include_zero: bool = False) -> BasicSpectrum:
    """Richardson-extrapolated spectrum from the grid pair (n/2, n).

    The zero mode is exact for constants, so include_zero prepends the
    triple (0, 1, 0) instead of solving for it.
    """
    return _extrapolated(m, side, k, n, include_zero)


def _extrapolated(m, side, k, n, include_zero, fine=None):
    # extrapolated_spectrum on a grid-n profile the caller may hold
    # (`spectrum --dump-profile` writes it out)
    n = _grid_ok(n)
    ext, _, _ = _solve_pair(m, side, k, n, fine)
    if include_zero:
        ext = BasicSpectrum(values=((0.0, 1, 0.0),) + ext.values, n=ext.n,
                            side=ext.side, fingerprint=ext.fingerprint)
    return ext


def compare_basic_spectra(d, m: geometry.MetricSpec, k: int, n: int) -> CompareReport:
    """Index-by-index comparison of the two quotient spectra.

    The product entry has identical quotient metrics by construction, so
    its unwarped comparison reuses the bullet-side profile for the star
    side and the gap is exactly zero.
    """
    _diag, entry_id = _resolve(d)
    _check_matching(entry_id, m)
    n = _grid_ok(n)
    ext_m, _, _ = _solve_pair(m, "M", k, n)
    if entry_id == "trivial-s2" and m.warp_u is None:
        ext_p = BasicSpectrum(values=ext_m.values, n=ext_m.n, side="Mprime",
                              fingerprint=ext_m.fingerprint)
    else:
        ext_p, _, _ = _solve_pair(m, "Mprime", k, n)
    lm, em = ext_m.expanded()
    lp, ep = ext_p.expanded()
    if lm.size != lp.size:
        raise RuntimeError("mode counts differ between the two sides")
    denom = np.maximum(np.maximum(np.abs(lm), np.abs(lp)), 1e-300)
    relgaps = np.abs(lm - lp) / denom
    max_relgap = float(np.max(relgaps))
    tolerance = max(1e-8, 3.0 * float(np.max((em + ep) / denom)))
    return CompareReport(entry_id=entry_id, fingerprint=m.fingerprint(),
                         k=int(k), n=n,
                         lambda_m=tuple(float(v) for v in lm),
                         lambda_mprime=tuple(float(v) for v in lp),
                         err_m=tuple(float(v) for v in em),
                         err_mprime=tuple(float(v) for v in ep),
                         relgaps=tuple(float(v) for v in relgaps),
                         max_relgap=max_relgap, tolerance=tolerance,
                         isospectral=bool(max_relgap <= tolerance))


def compare_csv_text(r: CompareReport) -> str:
    lines = ["index,lambda_M,lambda_Mprime,relgap"]
    for i, (a, b, g) in enumerate(zip(r.lambda_m, r.lambda_mprime, r.relgaps), 1):
        lines.append(f"{i},{a!r},{b!r},{g!r}")
    return "\n".join(lines) + "\n"


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
    uprime = _transport_table(diag, m, u, prof_mp)
    bu = op_mp.mass * uprime
    resid = apply_stiffness(op_mp, uprime) - lam * bu
    return float(np.linalg.norm(resid) / np.linalg.norm(bu))


def warp_break(d, m: geometry.MetricSpec, scales=None, k: int = 1,
               n: int = 512):
    """Vertical warp schedule on the star-side quotient.

    The warp direction u is the first basic eigenfunction of the
    unwarped M' problem, B-normalized, signed so its positive part
    carries at least half the weight (ties broken by the solver's
    largest-node convention).  A leading scale 0 serves as the control;
    broke_isospectrality compares the warped and unwarped first
    eigenvalues against ten times the combined error estimates.
    """
    _diag, entry_id = _resolve(d)
    _check_matching(entry_id, m)
    if m.warp_u is not None:
        raise ValueError("the base metric of a warp schedule must be unwarped")
    n = _grid_ok(n)
    if scales is None:
        scales = DEFAULT_SCALES
    s_un, op_un, vecs_un = _solve_pair(m, "Mprime", max(int(k), 1), n)
    lam_un, _, err_un = s_un.values[0]
    u = vecs_un[:, 0].copy()
    pos = float(op_un.mass @ np.maximum(u, 0.0))
    neg = float(op_un.mass @ np.maximum(-u, 0.0))
    if neg > pos * (1.0 + 1e-12):
        u = -u
    qw_un = mass_quadrature(op_un)
    int_u2 = float(qw_un @ (u * u))

    reports = []
    for c in [0.0] + [float(s) for s in scales]:
        mw = geometry.warp(m, u, c)
        s_w, op_w, vecs_w = _solve_pair(mw, "Mprime", 1, n)
        lam_w, _, err_w = s_w.values[0]
        phi = vecs_w[:, 0]
        qw_w = mass_quadrature(op_w)
        int_phi_w = float(qw_w @ phi)
        int_phi2_w = float(qw_w @ (phi * phi))
        norm_phi = math.sqrt(max(int_phi2_w, 0.0))
        mean_phi = int_phi_w / float(np.sum(qw_w))
        lhs = math.sqrt(lam_w / lam_un)
        if abs(int_phi_w) < 1e-10 * norm_phi:
            rhs = None
        else:
            rhs = K_CONSTANT * math.sqrt(int_u2) / int_phi_w * norm_phi
        _, volz = geometry.star_orbit_volumes(mw, n)
        broke = abs(lam_w - lam_un) > 10.0 * (err_w + err_un)
        reports.append(WarpReport(
            entry_id=entry_id, fingerprint=mw.fingerprint(), scale=c, n=n,
            lambda1_unwarped=float(lam_un), err_unwarped=float(err_un),
            lambda1_warped=float(lam_w), err_warped=float(err_w),
            lhs=float(lhs), rhs=None if rhs is None else float(rhs),
            k_constant=K_CONSTANT,
            int_u_sq_unwarped=int_u2,
            int_phi_warped=int_phi_w,
            int_phi_unwarped=float(qw_un @ phi),
            int_phi_sq_warped=int_phi2_w,
            mean_of_phi=mean_phi,
            star_volume_range=(float(np.min(volz)), float(np.max(volz))),
            broke_isospectrality=bool(broke)))
    return reports


def inequality_audit(r: WarpReport) -> dict:
    """Both sides of the warp inequality; no direction is asserted.

    The right-hand side divides by the warped-measure mean of phi, which
    vanishes for any genuine eigenfunction, so "undefined" is the
    expected verdict away from degenerate inputs.
    """
    if r.rhs is None:
        return {"lhs": r.lhs, "rhs": "undefined", "consistent": "undefined"}
    return {"lhs": r.lhs, "rhs": r.rhs, "consistent": bool(r.lhs <= r.rhs)}


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
