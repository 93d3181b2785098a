"""Quaternion arithmetic, group elements, and Haar quadrature."""

import math

import numpy as np
import pytest

from bsl.algebra import (
    QUAT_I,
    QUAT_J,
    QUAT_K,
    QUAT_ONE,
    GroupElement,
    GroupMismatch,
    Quaternion,
    UnsupportedGroup,
    circle_quat,
    element_distance,
    group_inverse,
    group_mul,
    haar_rule,
    identity,
    membership_defect,
    random_element,
)


def test_hamilton_product_oracle():
    # (1 + i)(1 + j) = 1 + i + j + k, worked out by hand
    assert Quaternion(1, 1, 0, 0) * Quaternion(1, 0, 1, 0) == Quaternion(1, 1, 1, 1)
    assert QUAT_I * QUAT_J == QUAT_K
    assert QUAT_J * QUAT_I == -QUAT_K
    assert QUAT_I * QUAT_I == -QUAT_ONE


def test_conjugate_and_norm():
    q = Quaternion(1.0, -2.0, 3.0, 0.5)
    qc = q.conj()
    prod = q * qc
    assert abs(prod.w - q.norm() ** 2) < 1e-12
    assert abs(prod.x) < 1e-12 and abs(prod.y) < 1e-12 and abs(prod.z) < 1e-12


def test_normalized_and_array_round_trip():
    rng = np.random.default_rng(5)
    for _ in range(50):
        q = Quaternion.from_array(rng.standard_normal(4))
        n = q.normalized()
        assert abs(n.norm() - 1.0) < 1e-14
        assert np.allclose(Quaternion.from_array(q.as_array()).as_array(),
                           q.as_array())


def test_circle_quat_is_a_homomorphism():
    rng = np.random.default_rng(6)
    for _ in range(100):
        a, b = rng.uniform(-10, 10, size=2)
        lhs = circle_quat(a) * circle_quat(b)
        rhs = circle_quat(a + b)
        assert (lhs - rhs).norm() < 1e-12


def test_group_mul_inverse_round_trip():
    rng = np.random.default_rng(7)
    for group in ("s1", "s3", "sp2"):
        e = identity(group)
        for _ in range(30):
            g = random_element(group, rng)
            gi = group_inverse(g)
            assert element_distance(group_mul(g, gi), e) < 1e-12
            assert element_distance(group_mul(gi, g), e) < 1e-12


def test_sp2_products_stay_on_the_group():
    rng = np.random.default_rng(8)
    g = identity("sp2")
    for _ in range(60):
        g = group_mul(g, random_element("sp2", rng))
        assert membership_defect(g) < 1e-12


def test_s3_products_stay_unit():
    rng = np.random.default_rng(9)
    g = identity("s3")
    for _ in range(200):
        g = group_mul(g, random_element("s3", rng))
    assert abs(g.data.norm() - 1.0) < 1e-12


def test_group_mismatch_raises():
    rng = np.random.default_rng(10)
    a = random_element("s1", rng)
    b = random_element("s3", rng)
    with pytest.raises(GroupMismatch):
        group_mul(a, b)
    with pytest.raises(GroupMismatch):
        element_distance(a, b)


def test_unknown_group_raises():
    with pytest.raises(UnsupportedGroup):
        identity("so5")
    with pytest.raises(UnsupportedGroup):
        random_element("so5", np.random.default_rng(0))
    with pytest.raises(UnsupportedGroup):
        haar_rule("sp2", 8)
    with pytest.raises(UnsupportedGroup):
        GroupElement("so5", 0.0)


def test_haar_totals():
    # circle group has measure 2*pi, unit quaternions 2*pi^2
    assert abs(haar_rule("s1", 16).total() - 2.0 * math.pi) < 1e-12
    assert abs(haar_rule("s3", 8).total() - 2.0 * math.pi ** 2) < 1e-10


def test_haar_rules_match_the_loop_construction():
    # one node at a time, eta slowest, is the reference for the batched
    # rules: same order, weights paired with their nodes
    order = 6
    xi = 2.0 * math.pi * np.arange(order) / order
    rule = haar_rule("s1", order)
    assert np.array_equal(rule.nodes.data, xi) and rule.weights.shape == (order,)
    gl_x, gl_w = np.polynomial.legendre.leggauss(3)
    eta = np.arcsin(np.sqrt(0.5 * (gl_x + 1.0)))
    wxi = 2.0 * math.pi / order
    nodes, weights = [], []
    for e, w in zip(eta, 0.5 * gl_w):
        for x1 in xi:
            for x2 in xi:
                nodes.append((math.cos(e) * math.cos(x1), math.cos(e) * math.sin(x1),
                              math.sin(e) * math.cos(x2), math.sin(e) * math.sin(x2)))
                weights.append(0.5 * wxi * wxi * w)
    rule = haar_rule("s3", order)
    q = rule.nodes.data
    assert np.max(np.abs(np.stack([q.w, q.x, q.y, q.z], axis=-1) - nodes)) <= 4e-16
    assert np.array_equal(rule.weights, weights)


def test_haar_translation_invariance_s1():
    rule = haar_rule("s1", 32)
    rng = np.random.default_rng(11)

    def f(g):
        th = g.data
        return 1.3 + np.cos(th) - 0.5 * np.sin(3.0 * th)

    base = rule.integrate(f)
    for _ in range(10):
        h = random_element("s1", rng)
        shifted = rule.integrate(lambda g: f(group_mul(h, g)))
        assert abs(shifted - base) < 1e-10 * max(1.0, abs(base))


def test_haar_translation_invariance_s3():
    rule = haar_rule("s3", 12)
    rng = np.random.default_rng(12)

    def f(g):
        q = g.data
        # low-degree polynomial in the embedding coordinates
        return 0.7 + q.x * q.x - 0.4 * q.y * q.w + 0.2 * q.z

    base = rule.integrate(f)
    for _ in range(6):
        h = random_element("s3", rng)
        left = rule.integrate(lambda g: f(group_mul(h, g)))
        right = rule.integrate(lambda g: f(group_mul(g, h)))
        assert abs(left - base) < 1e-9
        assert abs(right - base) < 1e-9
