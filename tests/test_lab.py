"""Spectrum comparison, joint eigenfunction checks, and warp schedules."""

import math

import numpy as np
import pytest

import bsl.lab as lab
from bsl.cli import main
from bsl.diagrams import catalog
from bsl.eigen import eigenpairs
from bsl.geometry import GridMismatch, kaluza_klein, orbit_profile, warp
from bsl.lab import (
    compare_basic_spectra,
    extrapolated_spectrum,
    fubini_defect,
    joint_eigenfunction_check,
    warp_break,
)
from bsl.sturm import apply_stiffness, assemble

SPHERE_MODES = np.array([2.0, 6.0, 12.0, 20.0])
HALF_SPHERE_MODES = np.array([8.0, 24.0, 48.0, 80.0, 120.0])


def test_product_entry_compares_identically():
    d = catalog("trivial-s2")
    rep = compare_basic_spectra(d, kaluza_klein(d), 4, 512)
    assert rep.max_relgap == 0.0
    assert rep.isospectral
    assert rep.lambda_m == rep.lambda_mprime
    assert np.max(np.abs(np.array(rep.lambda_m) - SPHERE_MODES)
                  / SPHERE_MODES) <= 1e-6


def test_hopf_compare_is_isospectral():
    d = catalog("hopf")
    rep = compare_basic_spectra(d, kaluza_klein(d), 5, 512)
    assert rep.isospectral
    assert rep.max_relgap <= 1e-8
    assert rep.tolerance >= 1e-8
    assert len(rep.relgaps) == 5
    assert np.max(np.abs(np.array(rep.lambda_m) - HALF_SPHERE_MODES)
                  / HALF_SPHERE_MODES) <= 1e-6


def test_strongly_warped_metric_is_not_isospectral():
    d = catalog("hopf")
    m = kaluza_klein(d)
    u = np.sin(np.linspace(0.0, math.pi / 2.0, 33))
    rep = compare_basic_spectra(d, warp(m, u, 1.0), 2, 512)
    assert not rep.isospectral
    assert rep.max_relgap > 1e-2
    # the bullet quotient never feels the warp
    assert abs(rep.lambda_m[0] - 8.0) <= 1e-6


def test_compare_csv_layout(capsys):
    d = catalog("hopf")
    rep = compare_basic_spectra(d, kaluza_klein(d), 2, 128)
    assert main(["compare", "--diagram", "hopf", "--grid", "128", "--modes", "2",
                 "--format", "csv"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "index,lambda_M,lambda_Mprime,relgap"
    assert len(lines) == 3
    idx, a, b, g = lines[1].split(",")
    assert idx == "1" and float(a) > 0.0 and float(b) > 0.0 and float(g) >= 0.0
    # the rows are the report's own values, bitwise
    assert [float(a), float(b), float(g)] == [rep.lambda_m[0], rep.lambda_mprime[0],
                                              rep.relgaps[0]]


def test_joint_eigenfunction_residuals():
    # an M-eigenfunction transported to M' satisfies the M'-side pencil
    # at ten times the native residual or better
    for eid in ("trivial-s2", "hopf"):
        d = catalog(eid)
        m = kaluza_klein(d)
        assert joint_eigenfunction_check(d, m, 0, 512) == 0.0
        for index in range(1, 6):
            assert joint_eigenfunction_check(d, m, index, 512) <= 1e-8, (eid, index)


def test_product_joint_residual_equals_native_residual():
    # the product entry shares one profile object, so the transported
    # residual is the M-side residual, float for float
    d = catalog("trivial-s2")
    m = kaluza_klein(d)
    for index in (1, 3):
        got = joint_eigenfunction_check(d, m, index, 256)
        op = assemble(orbit_profile(m, "M", 256))
        lams, vecs = eigenpairs(op, index)
        u = vecs[:, index - 1]
        bu = op.mass * u
        native = float(np.linalg.norm(apply_stiffness(op, u)
                                      - lams[index - 1] * bu)
                       / np.linalg.norm(bu))
        assert got == native


def test_joint_check_requires_unwarped_metric():
    d = catalog("hopf")
    m = warp(kaluza_klein(d), np.zeros(8), 1.0)
    with pytest.raises(ValueError):
        joint_eigenfunction_check(d, m, 1, 128)


def test_warp_break_control_row():
    d = catalog("hopf")
    reports = warp_break(d, kaluza_klein(d), scales=(0.5,), n=256)
    control = reports[0]
    assert control.scale == 0.0
    assert control.lambda1_warped == control.lambda1_unwarped
    assert not control.broke_isospectrality


def test_warp_break_finds_a_breaking_scale():
    d = catalog("hopf")
    reports = warp_break(d, kaluza_klein(d), scales=(0.25, 0.5, 1.0, 2.0), n=512)
    broke = [r.broke_isospectrality for r in reports]
    assert broke[0] is False
    assert any(broke[1:])
    # the shift grows monotonically with the scale on this schedule
    shifts = [abs(r.lambda1_warped - r.lambda1_unwarped) for r in reports]
    assert shifts == sorted(shifts)
    for r in reports:
        assert r.star_volume_range[0] <= r.star_volume_range[1]


def test_warp_break_product_entry_also_breaks():
    d = catalog("trivial-s2")
    reports = warp_break(d, kaluza_klein(d), scales=(2.0,), n=512)
    assert reports[1].broke_isospectrality


@pytest.mark.parametrize("eid", ["hopf", "trivial-s2"])
def test_warp_moves_lambda1_quadratically(eid):
    # the warp direction is the first eigenfunction itself, so the
    # first-order response of lambda1 vanishes and doubling the scale
    # quadruples the shift
    d = catalog(eid)
    reports = warp_break(d, kaluza_klein(d), scales=(0.01, 0.02, 0.04), n=512)
    shifts = [r.lambda1_warped - r.lambda1_unwarped for r in reports[1:]]
    for small, big in zip(shifts, shifts[1:]):
        assert 3.9 <= big / small <= 4.1, (eid, shifts)


def test_warp_break_rejects_warped_base():
    d = catalog("hopf")
    m = warp(kaluza_klein(d), np.zeros(8), 0.5)
    with pytest.raises(ValueError):
        warp_break(d, m, scales=(1.0,), n=128)


def test_mismatched_diagram_and_metric():
    d = catalog("hopf")
    m = kaluza_klein("trivial-s2")
    with pytest.raises(ValueError):
        compare_basic_spectra(d, m, 1, 128)
    with pytest.raises(ValueError):
        joint_eigenfunction_check(d, m, 1, 128)
    with pytest.raises(ValueError):
        warp_break(d, m, scales=(1.0,), n=128)
    with pytest.raises(ValueError):
        fubini_defect(d, m, lambda t: np.cos(t), 128)


def test_fubini_defect_is_tiny():
    for eid in ("trivial-s2", "hopf"):
        d = catalog(eid)
        m = kaluza_klein(d)
        # nonzero weighted means, so the relative defect is well posed
        for f in (lambda t: 1.0 + 0.0 * t,
                  lambda t: 1.3 + np.cos(t) + 0.2 * np.sin(3.0 * t),
                  lambda t: np.exp(-t) * (1.0 + t)):
            assert fubini_defect(d, m, f, 256) <= 1e-12, eid


def test_fubini_defect_validates_table():
    d = catalog("hopf")
    with pytest.raises(GridMismatch):
        fubini_defect(d, kaluza_klein(d), np.zeros(100), 128)


def test_extrapolated_spectrum_api():
    m = kaluza_klein("hopf")
    spec = extrapolated_spectrum(m, "M", 2, 256)
    assert spec.lambdas.size == spec.errors.size == 2
    assert abs(spec.lambdas[0] - 8.0) <= 1e-5
    # an odd grid, and one whose n/2 grid has fewer than 16 cells
    for n in (101, 30):
        with pytest.raises(ValueError, match=r"even grid with n/2 >= 16"):
            extrapolated_spectrum(m, "M", 2, n)


@pytest.mark.parametrize("eid", ["hopf", "trivial-s2"])
def test_derived_half_profile_equals_a_fresh_build(eid, monkeypatch):
    # the n/2 profile of a Richardson pair is the even nodes of the grid-n
    # build; that rests on linspace subsampling exactly and on every node
    # being evaluated on its own
    seen = []
    orig = lab.assemble

    def recording(prof):
        seen.append(prof)
        return orig(prof)

    monkeypatch.setattr(lab, "assemble", recording)
    m = kaluza_klein(eid)
    for metric in (m, warp(m, np.sin(np.linspace(0.0, 3.0, 33)), 0.7)):
        for side in ("M", "Mprime", "P"):
            for n in (32, 34, 1000, 258, 8192):
                seen.clear()
                extrapolated_spectrum(metric, side, 1, n)
                half = seen[0]
                fresh = orbit_profile(metric, side, n // 2)
                assert (half.n, half.L, half.side, half.entry_id) == \
                    (fresh.n, fresh.L, fresh.side, fresh.entry_id)
                assert (half.fingerprint, half.endpoints) == \
                    (fresh.fingerprint, fresh.endpoints)
                for a, b in ((half.t, fresh.t), (half.w, fresh.w)):
                    assert a.flags.c_contiguous and not a.flags.writeable
                    assert np.array_equal(a.view(np.uint64), b.view(np.uint64)), \
                        (side, n, metric.warp_u is None)
