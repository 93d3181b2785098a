"""Quaternion arithmetic, random group elements, and the circle Haar rule."""

import math

import numpy as np
import pytest

from bsl.algebra import (
    QUAT_I,
    QUAT_J,
    QUAT_ONE,
    TWO_PI,
    Quaternion,
    UnsupportedGroup,
    circle_quat,
    circle_rule,
    random_element,
)

QUAT_K = Quaternion(0.0, 0.0, 0.0, 1.0)


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
        assert Quaternion.from_array([q.w, q.x, q.y, q.z]) == q


def test_circle_quat_is_a_homomorphism():
    rng = np.random.default_rng(6)
    for _ in range(100):
        a, b = rng.uniform(-10, 10, size=2)
        lhs = circle_quat(a) * circle_quat(b)
        rhs = circle_quat(a + b)
        assert (lhs - rhs).norm() < 1e-12


def test_unknown_group_raises():
    with pytest.raises(UnsupportedGroup):
        random_element("so5", np.random.default_rng(0))
    with pytest.raises(ValueError):
        circle_rule(0)


def test_haar_totals():
    # the circle group has measure 2*pi
    assert abs(np.sum(circle_rule(16)[1]) - 2.0 * math.pi) < 1e-12


def test_haar_rules_match_the_loop_construction():
    # one node at a time is the reference for the batched rule: same
    # order, weights paired with their nodes
    order = 6
    angles, weights = circle_rule(order)
    assert np.array_equal(angles, [2.0 * math.pi * i / order for i in range(order)])
    assert np.array_equal(weights, [2.0 * math.pi / order] * order)


def test_haar_translation_invariance_s1():
    angles, weights = circle_rule(32)
    rng = np.random.default_rng(11)

    def f(th):
        return 1.3 + np.cos(th) - 0.5 * np.sin(3.0 * th)

    base = np.sum(weights * f(angles))
    for _ in range(10):
        h = random_element("s1", rng)
        shifted = np.sum(weights * f((h + angles) % TWO_PI))
        assert abs(shifted - base) < 1e-10 * max(1.0, abs(base))
