"""LAPACK tridiagonal eigensolver against exact and dense oracles, and its
backward-error certificate on every side up to the finest grid."""

import math
from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg

import bsl.eigen as eigen
import bsl.lab as lab
from bsl.diagrams import catalog
from bsl.eigen import (
    BasicSpectrum,
    ConvergenceFailure,
    TooManyModes,
    condensed,
    eigenpairs,
)
from bsl.geometry import OrbitProfile, kaluza_klein, orbit_profile, warp
from bsl.lab import extrapolated_spectrum
from bsl.sturm import apply_stiffness, assemble


class ZeroVector(ValueError):
    """Rayleigh quotient of a vector with no zero-mean component."""


def rayleigh(op, u) -> float:
    """Rayleigh quotient of the zero-mean part of u: the reference the
    first eigenvalue minimises."""
    u = np.asarray(u, dtype=float)
    total = float(u @ (op.mass * u))
    v = u - (op.mass @ u) / np.sum(op.mass)
    bnorm2 = float(v @ (op.mass * v))
    if bnorm2 <= 1e-28 * max(total, 1e-300):
        raise ZeroVector("vector has no zero-mean component")
    return float(v @ apply_stiffness(op, v)) / bnorm2


def flat_profile(n, L=math.pi):
    t = np.linspace(0.0, L, n + 1)
    return OrbitProfile(entry_id="synthetic", side="M", L=L, t=t,
                        w=np.ones(n + 1), endpoints=("free", "free"),
                        n=n, fingerprint="synthetic-flat")


def hopf_operator(n, side="M"):
    return assemble(orbit_profile(kaluza_klein(catalog("hopf")), side, n))


def test_flat_cosine_modes_to_machine_precision():
    # unit weight: the discrete pencil has the closed-form eigenvalues
    # 2 (1 - cos(m pi dt / L)) / dt^2 with cosine eigenvectors
    n = 128
    op = assemble(flat_profile(n))
    lams, vecs = eigenpairs(op, 5)
    t = np.linspace(0.0, math.pi, n + 1)
    for j, mode in enumerate(range(1, 6)):
        exact = 2.0 * (1.0 - math.cos(mode * op.dt)) / op.dt ** 2
        assert abs(lams[j] - exact) <= 1e-12 * exact
        ref = np.cos(mode * t)
        ref /= math.sqrt(ref @ (op.mass * ref))
        overlap = abs(vecs[:, j] @ (op.mass * ref))
        assert abs(overlap - 1.0) <= 1e-9


def test_matches_dense_reference():
    # independent route: dense symmetric-definite solve on the condensed
    # pencil; the in-package solver never calls it
    for side in ("M", "Mprime"):
        op = hopf_operator(256, side)
        d, e, b = condensed(op)
        a_dense = np.diag(d) + np.diag(e, 1) + np.diag(e, -1)
        ref = scipy.linalg.eigh(a_dense, np.diag(b), eigvals_only=True)
        lams, _ = eigenpairs(op, 6)
        for j in range(6):
            assert abs(lams[j] - ref[j + 1]) <= 1e-10 * max(1.0, abs(ref[j + 1]))


def test_residual_contract_on_catalog_pencils():
    for eid in ("trivial-s2", "hopf"):
        m = kaluza_klein(catalog(eid))
        for side in ("M", "Mprime", "P"):
            op = assemble(orbit_profile(m, side, 512))
            lams, vecs = eigenpairs(op, 4)
            for j in range(4):
                u = vecs[:, j]
                bu = op.mass * u
                resid = np.linalg.norm(apply_stiffness(op, u) - lams[j] * bu)
                assert resid <= 1e-9 * np.linalg.norm(bu), (eid, side, j)


def test_vectors_are_b_orthonormal_and_signed():
    op = hopf_operator(256)
    lams, vecs = eigenpairs(op, 5)
    assert np.all(np.diff(lams) > 0.0)
    for j in range(5):
        u = vecs[:, j]
        assert abs(u @ (op.mass * u) - 1.0) <= 1e-12
        assert u[np.argmax(np.abs(u))] > 0.0
        for i in range(j):
            assert abs(vecs[:, i] @ (op.mass * u)) <= 1e-7


def test_condensed_folds_preserve_structure():
    op = hopf_operator(128)
    d, e, b = condensed(op)
    assert d.size == op.n - 1 and b.size == op.n - 1 and e.size == op.n - 2
    assert np.all(b > 0.0)
    assert abs(np.sum(b) - np.sum(op.mass)) <= 1e-12 * np.sum(op.mass)
    ones = np.ones(d.size)
    a_ones = d * ones
    a_ones[:-1] += e
    a_ones[1:] += e
    assert np.max(np.abs(a_ones)) <= 1e-6 * np.max(np.abs(d))


def dense_stiffness(op):
    """Full-grid A = G^T diag(faces) G / dt^2, G the n x (n+1) difference
    matrix, built densely from the face weights."""
    g = np.diff(np.eye(op.n + 1), axis=0)
    return g.T @ np.diag(op.faces) @ g / op.dt ** 2


@pytest.mark.parametrize("case", ["trivial-s2", "hopf", "flat", "end-mass"])
def test_condensed_is_the_path_laplacian_of_the_kept_faces(case):
    # independent route: the Galerkin fold P^T A P, P^T B P with P the
    # constant extension from the kept nodes to the full grid
    n = 64
    if case == "flat":
        op = assemble(flat_profile(n))
        keep = np.arange(n + 1)
    elif case == "end-mass":
        # catalog end weights are 0.0; nonzero ones make the mass fold show
        w = 1.0 + np.random.default_rng(24).uniform(0.0, 2.0, size=n + 1)
        op = assemble(replace(flat_profile(n), w=w,
                              endpoints=("collapsing", "collapsing")))
        keep = np.arange(1, n)
    else:
        op = assemble(orbit_profile(kaluza_klein(catalog(case)), "M", n))
        assert op.endpoints == ("collapsing", "collapsing")
        keep = np.arange(1, n)
    ext = np.eye(n + 1)[:, keep]
    ext[0, 0] = ext[-1, -1] = 1.0
    a_ref = ext.T @ dense_stiffness(op) @ ext
    b_ref = ext.T @ np.diag(op.mass) @ ext
    d, e, b = condensed(op)
    scale = np.max(np.abs(a_ref))
    assert np.max(np.abs(np.diag(d) + np.diag(e, 1) + np.diag(e, -1) - a_ref)) \
        <= 1e-13 * scale
    assert np.max(np.abs(np.diag(b) - b_ref)) <= 1e-15 * np.max(b_ref)


def test_rayleigh_quotient():
    op = hopf_operator(128)
    lams, vecs = eigenpairs(op, 2)
    assert abs(rayleigh(op, vecs[:, 0]) - lams[0]) <= 1e-10 * lams[0]
    # admissible trial vectors can only overshoot the first eigenvalue
    rng = np.random.default_rng(31)
    for _ in range(20):
        u = rng.standard_normal(op.n + 1)
        assert rayleigh(op, u) >= lams[0] * (1.0 - 1e-10)
    with pytest.raises(ZeroVector):
        rayleigh(op, np.full(op.n + 1, 4.2))


def test_extrapolation_beats_the_fine_grid():
    m = kaluza_klein(catalog("hopf"))
    oracle = np.array([8.0, 24.0, 48.0])
    fine, _ = eigenpairs(assemble(orbit_profile(m, "M", 256)), 3)
    ext = extrapolated_spectrum(m, "M", 3, 256)
    err_fine = np.abs(fine - oracle) / oracle
    err_ext = np.abs(ext.lambdas - oracle) / oracle
    assert np.all(err_ext < 0.05 * err_fine)
    # and the reported error estimate brackets the truth comfortably
    for lam, est, truth in zip(ext.lambdas, ext.errors, oracle):
        assert abs(lam - truth) <= 10.0 * max(est, 1e-12)


def test_certificate_failure_is_reported(monkeypatch):
    # an unattainable bound on either gate must raise, naming the grid,
    # side, mode, achieved value and bound
    op = hopf_operator(128)
    with monkeypatch.context() as mp:
        mp.setattr(eigen, "_BACKWARD_C", 0.0)
        with pytest.raises(ConvergenceFailure,
                           match=r"backward error .* exceeds 0\.000e\+00 \(0 eps\) "
                                 r"at mode 1 \(n=128, side M\)"):
            eigenpairs(op, 1)
    with monkeypatch.context() as mp:
        mp.setattr(eigen, "_RESIDUAL_REL", 1e-20)
        with pytest.raises(ConvergenceFailure,
                           match=r"relative pencil residual .* exceeds 1e-20 "
                                 r"at mode 1 \(n=128, side M\)"):
            eigenpairs(op, 1)


def backward_error(op, lam, u):
    """eta of a pair of the condensed symmetric matrix, built here from the
    condensed pencil without the package's own helpers."""
    d, e, b = condensed(op)
    sb = np.sqrt(b)
    cd = d / b
    ce = e / (sb[:-1] * sb[1:])
    v = sb * u[1:-1]
    cv = cd * v
    cv[:-1] += ce * v[1:]
    cv[1:] += ce * v[:-1]
    rows = np.abs(cd) + np.r_[np.abs(ce), 0.0] + np.r_[0.0, np.abs(ce)]
    cnorm = np.max(rows)
    return np.linalg.norm(cv - lam * v) / ((cnorm + abs(lam)) * np.linalg.norm(v))


def test_backward_error_certificate_up_to_the_finest_grid():
    bound = eigen._BACKWARD_C * np.finfo(float).eps
    for eid in ("trivial-s2", "hopf"):
        m = kaluza_klein(catalog(eid))
        for side in ("M", "Mprime", "P"):
            for n in (2048, 65536):
                op = assemble(orbit_profile(m, side, n))
                lams, vecs = eigenpairs(op, 5)
                for j in range(5):
                    eta = backward_error(op, lams[j], vecs[:, j])
                    assert eta <= bound, (eid, side, n, j, eta)


def test_extrapolation_keeps_close_modes_apart(monkeypatch):
    # modes are simple: a pair 1e-7 apart stays two modes, each with the
    # error estimate of its own grid pair
    fine_vals = np.array([4.0, 4.0 + 1e-7, 9.0])
    errs = np.array([1e-9, 2e-9, 5e-9])
    synthetic = {64: fine_vals - 3.0 * errs, 128: fine_vals}

    def synthetic_eigenpairs(op, k):
        return synthetic[op.n], np.zeros((op.n + 1, k))

    monkeypatch.setattr(lab, "eigenpairs", synthetic_eigenpairs)
    ext, _, _ = lab._richardson(flat_profile(128), 3)
    assert ext.lambdas.size == 3 and np.all(np.diff(ext.lambdas) > 0.0)
    assert np.allclose(ext.lambdas, fine_vals + errs, rtol=0.0, atol=1e-14)
    assert np.allclose(ext.errors, errs, rtol=1e-5, atol=0.0)


def test_solve_returns_a_basic_spectrum():
    # the Richardson step builds the one BasicSpectrum, on the grid-n
    # operator it returns with its vectors; the exact zero mode is
    # prepended by the CLI only
    prof = orbit_profile(kaluza_klein(catalog("hopf")), "M", 128)
    spec, op, vecs = lab._richardson(prof, 2)
    assert isinstance(spec, BasicSpectrum)
    assert spec.fingerprint == op.fingerprint == prof.fingerprint
    assert (spec.n, spec.side) == (op.n, op.side) == (128, "M")
    assert spec.lambdas.size == 2 and spec.lambdas[0] > 0.0
    assert spec.errors.size == 2 and np.all(spec.errors > 0.0)
    assert vecs.shape == (129, 2)
    assert not spec.lambdas.flags.writeable and not spec.errors.flags.writeable


@pytest.mark.parametrize("n", [1024, 8192])
def test_catalog_spectra_are_simple_and_b_orthonormal(n):
    # what the simple-mode spectrum rests on: distinct values, well apart,
    # and B-orthonormal vectors straight from LAPACK
    u = np.sin(np.linspace(0.0, 3.0, 33))
    for eid in ("trivial-s2", "hopf"):
        m = kaluza_klein(catalog(eid))
        for metric in (m, warp(m, u, 0.7)):
            for side in ("M", "Mprime", "P"):
                op = assemble(orbit_profile(metric, side, n))
                lams, vecs = eigenpairs(op, 64)
                case = (eid, side, n, metric.warp_u is None)
                assert np.all(np.diff(lams) > 0.0), case
                assert np.min(np.diff(lams) / lams[1:]) >= 1e-3, case
                gram = vecs.T @ (op.mass[:, None] * vecs)
                assert np.max(np.abs(gram - np.eye(64))) <= 1e-13, case
                # every mode is B-orthogonal to the constants
                ones_b = np.sqrt(np.sum(op.mass))
                assert np.max(np.abs(op.mass @ vecs)) / ones_b <= 1e-9, case


def test_eigenpairs_validates_requests():
    op = hopf_operator(128)
    with pytest.raises(ValueError):
        eigenpairs(op, 0)
    with pytest.raises(ValueError):
        eigenpairs(op, op.n + 5)
    # both collapsing ends fold away, and the kernel mode takes one more
    eigenpairs(op, op.n - 3)
    with pytest.raises(TooManyModes, match=r"holds at most 125"):
        eigenpairs(op, op.n - 2)
