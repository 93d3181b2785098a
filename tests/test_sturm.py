"""Finite-volume pencil assembly and the discrete operator identities."""

import math

import numpy as np
import pytest

from bsl.diagrams import catalog
from bsl.geometry import OrbitProfile, kaluza_klein, orbit_profile, warp
from bsl.sturm import (
    NonpositiveWeight,
    apply_stiffness,
    assemble,
    mass_quadrature,
)


def zero_mean_project(op, u):
    """Remove the B-weighted mean; idempotent up to rounding."""
    u = np.asarray(u, dtype=float)
    return u - (op.mass @ u) / np.sum(op.mass)


def flat_profile(n, L=math.pi):
    t = np.linspace(0.0, L, n + 1)
    return OrbitProfile(entry_id="synthetic", side="M", L=L, t=t,
                        w=np.ones(n + 1), endpoints=("free", "free"),
                        n=n, fingerprint="synthetic-flat")


def profile_with_weight(w, L=math.pi):
    n = w.size - 1
    t = np.linspace(0.0, L, n + 1)
    return OrbitProfile(entry_id="synthetic", side="M", L=L, t=t, w=w,
                        endpoints=("free", "free"), n=n,
                        fingerprint="synthetic-w")


def test_stiffness_annihilates_constants_bitwise():
    for eid in ("trivial-s2", "hopf"):
        op = assemble(orbit_profile(kaluza_klein(catalog(eid)), "M", 128))
        out = apply_stiffness(op, np.full(op.n + 1, 3.7))
        assert np.all(out == 0.0)


def test_dense_assembly_matches_difference_form():
    rng = np.random.default_rng(21)
    w = 1.0 + rng.uniform(0.0, 2.0, size=65)
    op = assemble(profile_with_weight(w))
    g = np.diff(np.eye(op.n + 1), axis=0)        # the difference matrix
    dense = g.T @ np.diag(op.faces) @ g / op.dt ** 2
    for _ in range(20):
        u = rng.standard_normal(op.n + 1)
        assert np.max(np.abs(dense @ u - apply_stiffness(op, u))) <= 1e-9


def test_stiffness_is_symmetric_and_positive():
    rng = np.random.default_rng(22)
    w = 1.0 + rng.uniform(0.0, 2.0, size=65)
    op = assemble(profile_with_weight(w))
    for _ in range(50):
        u = rng.standard_normal(op.n + 1)
        v = rng.standard_normal(op.n + 1)
        uav = u @ apply_stiffness(op, v)
        vau = v @ apply_stiffness(op, u)
        assert abs(uav - vau) <= 1e-7 * max(1.0, abs(uav))
        # Green identity: u^T A u = sum of face-weighted squared slopes
        energy = np.sum(op.faces * np.diff(u) ** 2) / op.dt ** 2
        uau = u @ apply_stiffness(op, u)
        assert abs(uau - energy) <= 1e-7 * max(1.0, energy)
        assert uau >= -1e-9


def test_flat_neumann_modes_are_exact():
    # with unit weight, cos(m pi t / L) is an exact eigenvector of the
    # discrete pencil at lambda = 2 (1 - cos(m pi dt / L)) / dt^2
    n = 64
    op = assemble(flat_profile(n))
    t = np.linspace(0.0, math.pi, n + 1)
    for mode in (1, 2, 5):
        u = np.cos(mode * t)
        lam = 2.0 * (1.0 - math.cos(mode * op.dt)) / op.dt ** 2
        resid = apply_stiffness(op, u) - lam * op.mass * u
        assert np.max(np.abs(resid)) <= 1e-10 * lam


def test_mass_quadrature_is_trapezoid():
    w = np.linspace(1.0, 2.0, 33)
    op = assemble(profile_with_weight(w))
    q = mass_quadrature(op)
    ref = np.trapezoid(w, dx=op.dt) if hasattr(np, "trapezoid") else np.trapz(w, dx=op.dt)
    assert abs(np.sum(q) - ref) <= 1e-12
    # and end entries carry the half weight
    assert abs(q[0] - 0.5 * w[0] * op.dt) <= 1e-15


def test_zero_mean_projection():
    rng = np.random.default_rng(23)
    w = 1.0 + rng.uniform(0.0, 1.0, size=65)
    op = assemble(profile_with_weight(w))
    u = rng.standard_normal(op.n + 1)
    pu = zero_mean_project(op, u)
    assert abs(op.mass @ pu) <= 1e-10 * np.linalg.norm(op.mass)
    assert np.max(np.abs(zero_mean_project(op, pu) - pu)) <= 1e-12
    assert np.max(np.abs(zero_mean_project(op, np.full(op.n + 1, 2.5)))) <= 1e-12


def test_interior_weight_must_be_positive():
    w = np.ones(33)
    w[10] = 0.0
    with pytest.raises(NonpositiveWeight):
        assemble(profile_with_weight(w))
    # NaN is not positive either; the message names side, grid and node
    w[10] = 1.0
    w[7] = np.nan
    with pytest.raises(NonpositiveWeight, match=r"side M, n=32, node 7 has w=nan"):
        assemble(profile_with_weight(w))
    # nor is an infinite weight, which an overflowing fiber term gives
    w[7] = np.inf
    with pytest.raises(NonpositiveWeight, match=r"side M, n=32, node 7 has w=inf"):
        assemble(profile_with_weight(w))
    # zero end weights are fine: collapsing orbits carry no volume
    w = np.ones(33)
    w[0] = w[-1] = 0.0
    assemble(profile_with_weight(w))


@pytest.mark.parametrize("eid", ["trivial-s2", "hopf"])
def test_overflowing_fiber_term_gives_rejected_p_weights(eid):
    # exp(2 c u) overflows where the warp table is large, and the total
    # space weight sqrt(b mm) with it
    m = warp(kaluza_klein(catalog(eid)), np.sin(np.linspace(0.0, 3.0, 33)), 1e3)
    p = orbit_profile(m, "P", 64)
    assert np.any(np.isinf(p.w[1:-1]))
    with pytest.raises(NonpositiveWeight, match=r"side P, n=64, node 8 has w=inf"):
        assemble(p)


def test_assemble_rejects_inconsistent_arrays():
    p = flat_profile(32)
    bad = OrbitProfile(entry_id=p.entry_id, side=p.side, L=p.L, t=p.t,
                       w=np.ones(30), endpoints=p.endpoints, n=p.n,
                       fingerprint=p.fingerprint)
    with pytest.raises(ValueError):
        assemble(bad)


def test_operator_arrays_are_frozen():
    op = assemble(flat_profile(32))
    for a in (op.faces, op.mass):
        with pytest.raises(ValueError):
            a[0] = 1.0
