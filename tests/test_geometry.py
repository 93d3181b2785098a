"""Connection metrics, orbit-volume profiles, warps, and profile dumps."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import bsl.geometry as geometry
from bsl.algebra import QUAT_I, Quaternion, circle_rule, quat_dot, quat_mul
from bsl.diagrams import _imag_vec, catalog
from bsl.geometry import (
    GridMismatch,
    NotCohomogeneityOne,
    UnknownDiagram,
    kaluza_klein,
    laplacian_identity_residual,
    mean_curvature,
    normalize_side,
    orbit_profile,
    orbit_space_length,
    star_orbit_volumes,
    warp,
)
from bsl.cli import main

TWO_PI = 2.0 * math.pi


def fiber_volume_profile(m, n):
    """Interior ratio w_P / w_M, the bullet-fiber volume along the orbit
    space (constant for unwarped metrics)."""
    wp = orbit_profile(m, "P", n)
    wm = orbit_profile(m, "M", n)
    return wp.t[1:-1], wp.w[1:-1] / wm.w[1:-1]


def closed_form_weight(eid, side, t):
    # hand-derived orbit volumes for the calibrated default metrics
    if eid == "hopf":
        base = TWO_PI * np.sin(2.0 * t)
        return 2.0 * math.pi * base if side == "P" else base
    base = TWO_PI * np.sin(t)
    return 4.0 * math.pi * base if side == "P" else base


# ---------------------------------------------------------------------------
# the metric from its definition, g(v, u) = r^2 <dpi v, dpi u> + E B0 nu(v)
# nu(u), evaluated on tangent vectors: the independent reference that the
# factors geom.gram returns must agree with


def hopf_dpi(p, v):
    return _imag_vec(quat_mul(quat_mul(v, QUAT_I), p.conj())
                     + quat_mul(quat_mul(p, QUAT_I), v.conj()))


def hopf_nu(p, v):
    return quat_dot(v, -quat_mul(p, QUAT_I))


def hopf_metric_inner(m, p, v, u):
    geom = geometry._geom(m)
    dv, du = hopf_dpi(p, v), hopf_dpi(p, u)
    e = geometry._warp_factor(m, geom.t_of_P(m, p))
    return (m.radius ** 2 * np.sum(dv * du, axis=-1)
            + e * geom.b0(m) * hopf_nu(p, v) * hopf_nu(p, u))


def trivial_a2(m, s2):
    r2, q = m.radius ** 2, m.fiber_scale
    lim = r2 / (2.0 * q)
    s2 = np.asarray(s2, dtype=float)
    safe = np.where(s2 > 1e-12, s2, 1.0)
    val = (1.0 - np.sqrt(np.maximum(1.0 - r2 * s2 / q, 0.0))) / safe
    return np.where(s2 > 1e-12, val, lim)


def trivial_nu(m, p, v):
    x, _ = p
    vx, vphi = v
    s2 = x[..., 0] ** 2 + x[..., 1] ** 2
    ez_cross = np.stack([-x[..., 1], x[..., 0], np.zeros_like(x[..., 0])], axis=-1)
    return -vphi + trivial_a2(m, s2) * np.sum(vx * ez_cross, axis=-1)


def trivial_metric_inner(m, p, v, u):
    x, _ = p
    e = geometry._warp_factor(m, geometry._geom(m).t_of_base(m, x))
    return (m.radius ** 2 * np.sum(v[0] * u[0], axis=-1)
            + e * m.fiber_scale * trivial_nu(m, p, v) * trivial_nu(m, p, u))


def gram_matrix(geom, metric, p):
    # the generator Gram entries (a_ww, a_wz, a_zz) from the factors
    b, nu, mm = geom.gram(metric, p)
    return b, b * nu, mm + b * nu * nu


def test_profiles_match_closed_forms():
    for eid in ("trivial-s2", "hopf"):
        m = kaluza_klein(catalog(eid))
        for side in ("M", "Mprime", "P"):
            p = orbit_profile(m, side, 256)
            ref = closed_form_weight(eid, side, p.t)
            assert np.max(np.abs(p.w - ref)) <= 1e-10, (eid, side)
            assert p.endpoints == ("collapsing", "collapsing")
            assert p.w[0] == 0.0 and p.w[-1] == 0.0


def test_quotients_share_one_profile_nodewise():
    # the two quotient weights agree node by node; this is the honest
    # route behind the isospectrality verdict
    for eid in ("trivial-s2", "hopf"):
        m = kaluza_klein(catalog(eid))
        wm = orbit_profile(m, "M", 512).w
        wp = orbit_profile(m, "Mprime", 512).w
        assert np.max(np.abs(wm - wp)) <= 1e-10, eid


def test_orbit_space_lengths():
    assert abs(orbit_space_length(kaluza_klein("trivial-s2")) - math.pi) < 1e-15
    assert abs(orbit_space_length(kaluza_klein("hopf")) - math.pi / 2.0) < 1e-15


def test_fiber_volume_is_constant():
    # bullet fibers have constant volume for the unwarped connection
    for eid, vol in (("trivial-s2", 4.0 * math.pi), ("hopf", TWO_PI)):
        m = kaluza_klein(catalog(eid))
        _, ratio = fiber_volume_profile(m, 256)
        assert np.max(np.abs(ratio - vol)) <= 1e-10, eid


def test_star_orbit_volumes_constant_unwarped():
    for eid, vol in (("trivial-s2", 4.0 * math.pi), ("hopf", TWO_PI)):
        m = kaluza_klein(catalog(eid))
        _, sv = star_orbit_volumes(m, 64)
        assert np.max(np.abs(sv - vol)) <= 1e-12, eid


def test_zero_scale_warp_is_bitwise_inert():
    u = np.sin(np.linspace(0.0, 3.0, 33))
    for eid in ("trivial-s2", "hopf"):
        m = kaluza_klein(catalog(eid))
        mw = warp(m, u, 0.0)
        for side in ("M", "Mprime", "P"):
            w0 = orbit_profile(m, side, 128).w
            w1 = orbit_profile(mw, side, 128).w
            assert np.array_equal(w0, w1), (eid, side)


def test_p_weights_match_the_torus_haar_sum():
    # the reference pushes 8x8 Haar nodes around each torus orbit and sums
    # the Jacobians; one point per orbit must give the same weight, since
    # the Gram matrix is constant along the orbit
    n = 2548
    u = np.sin(np.linspace(0.0, 3.0, 33))
    angles, weights = circle_rule(8)
    for eid in ("trivial-s2", "hopf"):
        d = catalog(eid)
        m = kaluza_klein(d)
        for metric in (m, warp(m, u, 0.7)):
            geom = geometry._geom(metric)
            t = np.linspace(0.0, orbit_space_length(metric), n + 1)
            p = geom.curve_P(metric, t[:, None, None])
            pushed = d.star_action(angles[:, None], d.bullet_action(angles, p))
            gram = gram_matrix(geom, metric, pushed)
            for a in gram:
                assert np.max(np.abs(a - a[:, :1, :1])) <= 1e-12 * np.max(np.abs(a)), eid
            a_ww, a_wz, a_zz = gram
            jac = np.sqrt(np.maximum(a_ww * a_zz - a_wz * a_wz, 0.0))
            ref = np.einsum("ijk,j,k->i", jac, weights, weights)
            ref[0] = ref[-1] = 0.0
            w = orbit_profile(metric, "P", n).w
            assert np.max(np.abs(w - ref)) <= 1e-12 * np.max(ref), eid


@pytest.mark.parametrize("eid", ["trivial-s2", "hopf"])
def test_p_profile_hands_gram_one_point_per_orbit(eid, monkeypatch):
    m = kaluza_klein(catalog(eid))
    geom = geometry._geom(m)
    gram = geom.gram
    points = []

    def counting(metric, p):
        # a point of P is a quaternion batch (hopf) or an (x, phi) pair
        # whose parts broadcast together
        parts = ((p.w, p.x, p.y, p.z) if isinstance(p, Quaternion)
                 else (p[0][..., 0], p[1]))
        points.append(np.broadcast(*parts).size)
        return gram(metric, p)

    monkeypatch.setattr(geom, "gram", counting)
    for metric in (m, warp(m, np.sin(np.linspace(0.0, 3.0, 33)), 0.7)):
        points.clear()
        orbit_profile(metric, "P", 300)
        assert sum(points) == 301, metric.warp_u is None


@pytest.mark.parametrize("eid", ["trivial-s2", "hopf"])
def test_warped_p_profile_builds_one_spline(eid, monkeypatch):
    # the warp spline belongs to the metric: a P profile builds it once
    import scipy.interpolate

    built = []
    spline = scipy.interpolate.CubicSpline

    def counting(*args, **kwargs):
        built.append(args)
        return spline(*args, **kwargs)

    monkeypatch.setattr(scipy.interpolate, "CubicSpline", counting)
    m = warp(kaluza_klein(catalog(eid)), np.sin(np.linspace(0.0, 3.0, 33)), 0.7)
    orbit_profile(m, "P", 389)
    assert len(built) == 1


def test_only_a_warp_loads_scipy_interpolate():
    code = ("import sys, numpy as np, bsl\n"
            "m = bsl.kaluza_klein('hopf')\n"
            "for side in ('M', 'Mprime', 'P'):\n"
            "    bsl.orbit_profile(m, side, 64)\n"
            "print('scipy.interpolate' in sys.modules)\n"
            "bsl.orbit_profile(bsl.warp(m, np.zeros(8), 1.0), 'P', 64)\n"
            "print('scipy.interpolate' in sys.modules)\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, check=True)
    assert proc.stdout.split() == ["False", "True"]


def test_lean_hopf_gram_matches_metric_inner():
    # gram writes dpi and nu at Z = i p out by hand; hopf_metric_inner is
    # the definition it must agree with, at pushed P points
    d = catalog("hopf")
    m = kaluza_klein(d)
    angles, _ = circle_rule(8)
    for metric in (m, warp(m, np.sin(np.linspace(0.0, 3.0, 33)), 0.7)):
        geom = geometry._geom(metric)
        t = np.linspace(0.0, orbit_space_length(metric), 257)
        p = d.star_action(angles[:, None],
                          d.bullet_action(angles, geom.curve_P(metric, t[:, None, None])))
        z = quat_mul(QUAT_I, p)
        w = -quat_mul(p, QUAT_I)
        a_ww, a_wz, a_zz = gram_matrix(geom, metric, p)
        ref_ww, ref_wz, ref_zz = (hopf_metric_inner(metric, p, w, w),
                                  hopf_metric_inner(metric, p, w, z),
                                  hopf_metric_inner(metric, p, z, z))
        assert np.array_equal(a_zz.view(np.uint64), ref_zz.view(np.uint64))
        assert a_ww.shape == a_wz.shape == ref_zz.shape
        assert np.max(np.abs(a_ww - ref_ww) / ref_ww) <= 4e-15
        # a_wz vanishes at some points, so it is measured against its
        # Cauchy-Schwarz bound sqrt(a_ww a_zz)
        assert np.max(np.abs(a_wz - ref_wz) / np.sqrt(ref_ww * ref_zz)) <= 4e-15


def test_trivial_gram_matches_metric_inner():
    # gram takes the star generator's connection component in closed form;
    # trivial_metric_inner evaluates the connection on the generators
    # W = (0, -1) and Z = (e_z x x, 1) themselves, at pushed P points
    d = catalog("trivial-s2")
    m = kaluza_klein(d)
    angles, _ = circle_rule(8)
    for metric in (m, warp(m, np.sin(np.linspace(0.0, 3.0, 33)), 0.7)):
        geom = geometry._geom(metric)
        t = np.linspace(0.0, orbit_space_length(metric), 257)
        p = d.star_action(angles[:, None],
                          d.bullet_action(angles, geom.curve_P(metric, t[:, None, None])))
        x, phi = p
        w = (np.zeros_like(x), -np.ones_like(phi))
        z = (np.stack([-x[..., 1], x[..., 0], np.zeros_like(x[..., 0])], axis=-1),
             np.ones_like(phi))
        a_ww, a_wz, a_zz = gram_matrix(geom, metric, p)
        ref_ww, ref_wz, ref_zz = (trivial_metric_inner(metric, p, w, w),
                                  trivial_metric_inner(metric, p, w, z),
                                  trivial_metric_inner(metric, p, z, z))
        # a point's metric does not depend on its fiber angle phi, so the
        # factors come per x and broadcast against the references
        assert a_ww.shape == a_wz.shape == a_zz.shape == x.shape[:-1]
        assert np.max(np.abs(a_ww - ref_ww) / ref_ww) <= 4e-15
        assert np.max(np.abs(a_zz - ref_zz) / ref_zz) <= 4e-15
        assert np.max(np.abs(a_wz - ref_wz) / np.sqrt(ref_ww * ref_zz)) <= 4e-15


@pytest.mark.parametrize("eid", ["trivial-s2", "hopf"])
def test_weights_hold_the_closed_forms_to_rounding_at_the_finest_grid(eid):
    # the star-quotient and total-space weights are formed from the
    # Kaluza-Klein factors without a cancelling difference, so they stay
    # within rounding of the closed forms on every interior node of the
    # finest grid the command line accepts
    m = kaluza_klein(catalog(eid))
    for side in ("Mprime", "P"):
        p = orbit_profile(m, side, 65536)
        ref = closed_form_weight(eid, side, p.t[1:-1])
        assert np.max(np.abs(p.w[1:-1] - ref) / ref) <= 1e-14, side


def test_warp_never_touches_the_bullet_quotient():
    rng = np.random.default_rng(14)
    u = rng.standard_normal(65)
    for eid in ("trivial-s2", "hopf"):
        m = kaluza_klein(catalog(eid))
        mw = warp(m, u, 1.5)
        assert np.array_equal(orbit_profile(m, "M", 128).w,
                              orbit_profile(mw, "M", 128).w)
        # while the star quotient and the total space do move
        assert np.max(np.abs(orbit_profile(m, "Mprime", 128).w
                             - orbit_profile(mw, "Mprime", 128).w)) > 1e-6
        assert np.max(np.abs(orbit_profile(m, "P", 128).w
                             - orbit_profile(mw, "P", 128).w)) > 1e-6


def test_constant_warp_scales_fiber_volume():
    u0 = np.full(8, 0.3)
    c = 2.0
    factor = math.exp(c * 0.3)
    for eid in ("trivial-s2", "hopf"):
        m = kaluza_klein(catalog(eid))
        mc = warp(m, u0, c)
        _, r0 = fiber_volume_profile(m, 128)
        _, rc = fiber_volume_profile(mc, 128)
        assert np.max(np.abs(rc / r0 - factor)) <= 1e-10 * factor, eid


def test_mean_curvature_closed_forms():
    # h = -dlog(w)/dt: -cot(t) on the product entry, -2cot(2t) on hopf,
    # checked away from the collapsing ends
    m = kaluza_klein(catalog("trivial-s2"))
    p = orbit_profile(m, "M", 512)
    band = slice(52, 461)
    assert np.max(np.abs(mean_curvature(p)[band]
                         + 1.0 / np.tan(p.t[band]))) <= 1e-3
    m = kaluza_klein(catalog("hopf"))
    p = orbit_profile(m, "M", 512)
    assert np.max(np.abs(mean_curvature(p)[band]
                         + 2.0 / np.tan(2.0 * p.t[band]))) <= 2e-3


def test_identity_residual_vanishes_unwarped():
    phi = lambda t: np.cos(3.0 * t) + 0.25 * np.sin(t)
    for eid in ("trivial-s2", "hopf"):
        m = kaluza_klein(catalog(eid))
        assert laplacian_identity_residual(m, phi, 512) <= 1e-10, eid


def test_identity_residual_shrinks_at_second_order():
    m = kaluza_klein(catalog("hopf"))
    rng = np.random.default_rng(3)
    u = rng.standard_normal(65)
    u /= np.max(np.abs(u))
    mw = warp(m, u, 0.5)
    phi = lambda t: np.cos(3.0 * t) + 0.25 * np.sin(t)
    r256 = laplacian_identity_residual(mw, phi, 256)
    r512 = laplacian_identity_residual(mw, phi, 512)
    assert r512 < 0.45 * r256


def test_identity_residual_rejects_bad_table():
    m = kaluza_klein(catalog("hopf"))
    with pytest.raises(GridMismatch):
        laplacian_identity_residual(m, np.zeros(100), 512)


def test_metric_defaults_and_validation():
    m = kaluza_klein("hopf")
    assert (m.radius, m.fiber_scale) == (0.5, 0.25)
    m = kaluza_klein("trivial-s2")
    assert (m.radius, m.fiber_scale) == (1.0, 4.0)
    with pytest.raises(ValueError):
        kaluza_klein("hopf", radius=0.0)
    with pytest.raises(ValueError):
        kaluza_klein("hopf", fiber_scale=-1.0)
    for bad in (math.inf, math.nan):
        with pytest.raises(ValueError):
            kaluza_klein("hopf", radius=bad)
        with pytest.raises(ValueError):
            kaluza_klein("trivial-s2", fiber_scale=bad)
    # the product entry needs enough fiber to keep its connection real
    with pytest.raises(ValueError):
        kaluza_klein("trivial-s2", radius=1.0, fiber_scale=0.5)
    with pytest.raises(UnknownDiagram):
        kaluza_klein("lens")


def test_warp_validation():
    m = kaluza_klein("hopf")
    with pytest.raises(GridMismatch):
        warp(m, np.zeros(3), 1.0)
    with pytest.raises(GridMismatch):
        warp(m, np.zeros((4, 4)), 1.0)
    with pytest.raises(GridMismatch):
        warp(m, np.array([0.0, np.nan, 0.0, 0.0]), 1.0)
    for c in (-0.5, math.nan, math.inf):
        with pytest.raises(ValueError, match="finite and >= 0"):
            warp(m, np.zeros(8), c)


def test_no_profiles_off_the_interval_catalog():
    m = kaluza_klein("gm")
    with pytest.raises(NotCohomogeneityOne):
        orbit_profile(m, "M", 64)


def test_normalize_side():
    assert normalize_side("m'") == "Mprime"
    assert normalize_side("MPRIME") == "Mprime"
    assert normalize_side(" p ") == "P"
    with pytest.raises(ValueError):
        normalize_side("N")


def test_profile_grid_validation():
    m = kaluza_klein("hopf")
    with pytest.raises(ValueError):
        orbit_profile(m, "M", 8)


def test_fingerprints_track_the_metric():
    a = kaluza_klein("hopf")
    b = kaluza_klein("hopf")
    assert a.fingerprint() == b.fingerprint()
    c = kaluza_klein("hopf", radius=0.7)
    assert c.fingerprint() != a.fingerprint()
    w = warp(a, np.zeros(8), 1.0)
    assert w.fingerprint() != a.fingerprint()


def test_write_profile_round_trip(tmp_path):
    # `spectrum --dump-profile` writes the profile it solved, bitwise
    m = kaluza_klein("hopf")
    p = orbit_profile(m, "M", 64)
    csv_path = os.path.join(tmp_path, "prof.csv")
    argv = ["spectrum", "--diagram", "hopf", "--grid", "64", "--modes", "1",
            "--dump-profile", csv_path, "--out", os.path.join(tmp_path, "s.json")]
    assert main(argv) == 0
    lines = Path(csv_path).read_text().strip().splitlines()
    assert lines[0] == "t,w,h"
    assert len(lines) == p.n + 2
    t0, w0, _ = lines[1].split(",")
    assert float(t0) == 0.0 and float(w0) == 0.0
    ti, wi, _ = lines[33].split(",")
    assert float(ti) == p.t[32] and float(wi) == p.w[32]
    meta = json.loads(Path(tmp_path, "prof.json").read_text())
    assert meta["entry"] == "hopf" and meta["side"] == "M"
    assert meta["n"] == 64 and meta["endpoints"] == ["collapsing", "collapsing"]
    # rewriting is atomic and idempotent
    assert main(argv) == 0
    assert Path(csv_path).read_text().strip().splitlines() == lines
    assert sorted(os.listdir(tmp_path)) == ["prof.csv", "prof.json", "s.json"]
