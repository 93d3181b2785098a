"""Connection metrics, orbit-volume profiles, warps, and profile dumps."""

import json
import math
import os
from pathlib import Path

import numpy as np
import pytest

import bsl.geometry as geometry
from bsl.algebra import GroupElement, haar_rule
from bsl.diagrams import catalog
from bsl.geometry import (
    GridMismatch,
    NotCohomogeneityOne,
    UnknownDiagram,
    fiber_volume_profile,
    kaluza_klein,
    laplacian_identity_residual,
    mean_curvature,
    normalize_side,
    orbit_profile,
    orbit_space_length,
    star_orbit_volumes,
    warp,
    write_profile,
)

TWO_PI = 2.0 * math.pi


def closed_form_weight(eid, side, t):
    # hand-derived orbit volumes for the calibrated default metrics
    if eid == "hopf":
        base = TWO_PI * np.sin(2.0 * t)
        return 2.0 * math.pi * base if side == "P" else base
    base = TWO_PI * np.sin(t)
    return 4.0 * math.pi * base if side == "P" else base


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


def test_blocked_p_profile_matches_one_einsum():
    # several full blocks plus a remainder, warped and unwarped
    n = 2 * geometry._P_BLOCK + 500
    u = np.sin(np.linspace(0.0, 3.0, 33))
    rule = haar_rule("s1", 8)
    angles = rule.nodes.data
    for eid in ("trivial-s2", "hopf"):
        d = catalog(eid)
        m = kaluza_klein(d)
        for metric in (m, warp(m, u, 0.7)):
            geom = geometry._geom(metric)
            t = np.linspace(0.0, orbit_space_length(metric), n + 1)
            p = geom.curve_P(metric, t[:, None, None])
            pushed = d.star_action(GroupElement("s1", angles[:, None]),
                                   d.bullet_action(GroupElement("s1", angles), p))
            a_ww, a_wz, a_zz = geom.gram(metric, pushed)
            jac = np.sqrt(np.maximum(a_ww * a_zz - a_wz * a_wz, 0.0))
            ref = np.einsum("ijk,j,k->i", jac, rule.weights, rule.weights)
            ref[0] = ref[-1] = 0.0
            assert np.array_equal(orbit_profile(metric, "P", n).w, ref), eid


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
    with pytest.raises(ValueError):
        warp(m, np.zeros(8), -0.5)


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
    m = kaluza_klein("hopf")
    p = orbit_profile(m, "M", 64)
    csv_path = os.path.join(tmp_path, "prof.csv")
    sidecar = write_profile(p, m, csv_path)
    lines = Path(csv_path).read_text().strip().splitlines()
    assert lines[0] == "t,w,h"
    assert len(lines) == p.n + 2
    t0, w0, _ = lines[1].split(",")
    assert float(t0) == 0.0 and float(w0) == 0.0
    ti, wi, _ = lines[33].split(",")
    assert float(ti) == p.t[32] and float(wi) == p.w[32]
    meta = json.loads(Path(sidecar).read_text())
    assert meta["entry"] == "hopf" and meta["side"] == "M"
    assert meta["n"] == 64 and meta["endpoints"] == ["collapsing", "collapsing"]
    # rewriting is atomic and idempotent
    write_profile(p, m, csv_path)
    assert Path(csv_path).read_text().strip().splitlines() == lines
