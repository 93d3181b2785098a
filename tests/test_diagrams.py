"""Catalog diagrams: commuting actions, projections, sections, transport."""

import dataclasses
import math

import numpy as np
import pytest

from bsl.algebra import QUAT_ONE, Quaternion, random_element
from bsl.diagrams import (
    CATALOG_IDS,
    IllDefined,
    NotInvariant,
    UnknownId,
    catalog,
    catalog_entries,
    check_commute,
    group_net,
    isotropy_compare,
    isotropy_probe,
    swap,
    transport_invariant,
)

GM_IDENTITY = ((QUAT_ONE, Quaternion(0.0)), (Quaternion(0.0), QUAT_ONE))

# invariant test functions per entry: constant along the residual star
# orbits on M (rotation about the z axis, about the x axis, conjugation)
INVARIANTS = {
    "trivial-s2": lambda x: float(x[2]) ** 2 + 0.3,
    "hopf": lambda x: math.cos(float(x[0])) + 0.5,
    "gm": lambda col: col[0].w ** 2 + 0.7 * col[1].w,
}


def test_catalog_entries():
    entries = catalog_entries()
    assert tuple(e.id for e in entries) == CATALOG_IDS
    assert [e.group for e in entries] == ["s1", "s1", "s3"]
    assert [e.cohomogeneity_one for e in entries] == [True, True, False]


def test_unknown_id():
    with pytest.raises(UnknownId):
        catalog("mobius")


def test_actions_commute():
    for eid in CATALOG_IDS:
        d = catalog(eid)
        res = check_commute(d, 1000, np.random.default_rng(1))
        assert res <= 1e-12, (eid, res)


def test_actions_preserve_membership():
    rng = np.random.default_rng(2)
    for eid in CATALOG_IDS:
        d = catalog(eid)
        for _ in range(200):
            p = d.random_point(rng)
            g = random_element(d.group, rng)
            # random_element draws the hopf points (s3), the gm points
            # (sp2) and the gm elements (s3): each lies on its group
            assert d.membership(p) <= 1e-12
            if d.group == "s3":
                assert abs(g.norm() - 1.0) <= 1e-12
            assert d.membership(d.bullet_action(g, p)) <= 1e-12
            assert d.membership(d.star_action(g, p)) <= 1e-12


def test_projections_are_orbit_invariants():
    rng = np.random.default_rng(3)
    for eid in CATALOG_IDS:
        d = catalog(eid)
        for _ in range(100):
            p = d.random_point(rng)
            g = random_element(d.group, rng)
            assert d.dist_m(d.proj_bullet(d.bullet_action(g, p)),
                            d.proj_bullet(p)) <= 1e-12
            assert d.dist_mprime(d.proj_star(d.star_action(g, p)),
                                 d.proj_star(p)) <= 1e-12


def test_residual_actions_match_projections():
    # pushing a point by one action then projecting equals acting on
    # the projection by the residual action
    rng = np.random.default_rng(4)
    for eid in CATALOG_IDS:
        d = catalog(eid)
        for _ in range(100):
            p = d.random_point(rng)
            g = random_element(d.group, rng)
            assert d.dist_m(d.proj_bullet(d.star_action(g, p)),
                            d.residual_star(g, d.proj_bullet(p))) <= 1e-12
            assert d.dist_mprime(d.proj_star(d.bullet_action(g, p)),
                                 d.residual_bullet(g, d.proj_star(p))) <= 1e-12


def test_sections_are_right_inverses():
    rng = np.random.default_rng(5)
    for eid in CATALOG_IDS:
        d = catalog(eid)
        for _ in range(100):
            p = d.random_point(rng)
            x = d.proj_bullet(p)
            y = d.proj_star(p)
            qx = d.section_bullet(x)
            qy = d.section_star(y)
            assert d.membership(qx) <= 1e-12
            assert d.membership(qy) <= 1e-12
            assert d.dist_m(d.proj_bullet(qx), x) <= 1e-12
            assert d.dist_mprime(d.proj_star(qy), y) <= 1e-12


def _parts(v):
    """A map's value as a tuple of float arrays, one per stored field
    (nested tuples and quaternions flattened)."""
    if isinstance(v, Quaternion):
        return tuple(np.asarray(c, dtype=float) for c in (v.w, v.x, v.y, v.z))
    if isinstance(v, tuple):
        return sum((_parts(c) for c in v), ())
    return (np.asarray(v, dtype=float),)


def _batch(points):
    """Stack one-point values of a map into the batch form it accepts."""
    if isinstance(points[0], Quaternion):
        return Quaternion(*(np.array(c) for c in zip(*(_parts(q) for q in points))))
    if isinstance(points[0], tuple):
        return tuple(_batch(list(c)) for c in zip(*points))
    return np.array(points)


def _both_sides(first, second):
    """Both outcomes of a chart test |first| >= |second| occur."""
    larger = np.array([f.norm() >= s.norm() for f, s in zip(first, second)])
    return larger.any() and not larger.all()


def test_batched_maps_equal_their_one_point_values_bitwise():
    # the profiles and isotropy probes evaluate the diagram maps on whole
    # batches; every map must give the very same bits as one point at a
    # time
    rng = np.random.default_rng(12)
    for eid in CATALOG_IDS:
        d = catalog(eid)
        ps = [d.random_point(rng) for _ in range(257)]
        gs = [random_element(d.group, rng) for _ in range(257)]
        xs = [d.proj_bullet(p) for p in ps]
        ys = [d.proj_star(p) for p in ps]
        if eid == "gm":
            # both charts of proj_star (|c| >= |d|, on P and on the
            # bullet-moved M' points of residual_bullet) and of
            # section_bullet (|a| >= |b|)
            assert _both_sides([p[0][1] for p in ps], [p[1][1] for p in ps])
            moved = [d.bullet_action(g, y) for g, y in zip(gs, ys)]
            assert _both_sides([m[0][1] for m in moved], [m[1][1] for m in moved])
            assert _both_sides([x[0] for x in xs], [x[1] for x in xs])
        else:
            # the last quotient points sit where the first hopf chart fails
            xs[-1] = ys[-1] = np.array([-1.0, 0.0, 0.0])
            for pts in (xs, ys):
                firsts = np.array([v[0] for v in pts])
                assert np.any(firsts <= -0.5) and np.any(firsts > -0.5)
        g = _batch(gs)
        cases = {
            "bullet_action": (lambda i: (gs[i], ps[i]), (g, _batch(ps))),
            "star_action": (lambda i: (gs[i], ps[i]), (g, _batch(ps))),
            "proj_bullet": (lambda i: (ps[i],), (_batch(ps),)),
            "proj_star": (lambda i: (ps[i],), (_batch(ps),)),
            "residual_star": (lambda i: (gs[i], xs[i]), (g, _batch(xs))),
            "residual_bullet": (lambda i: (gs[i], ys[i]), (g, _batch(ys))),
            "section_bullet": (lambda i: (xs[i],), (_batch(xs),)),
            "section_star": (lambda i: (ys[i],), (_batch(ys),)),
        }
        for name, (one, batch) in cases.items():
            fn = getattr(d, name)
            ref = [_parts(fn(*one(i))) for i in range(257)]
            got = _parts(fn(*batch))
            for k, comp in enumerate(got):
                stacked = np.array([r[k] for r in ref])
                comp = np.broadcast_to(comp, stacked.shape)
                assert np.array_equal(comp.view(np.uint64),
                                      stacked.view(np.uint64)), (eid, name, k)


def test_hopf_sections_cover_the_cut_locus():
    d = catalog("hopf")
    pts = [np.array([-1.0, 0.0, 0.0]), np.array([-0.8, 0.6, 0.0]),
           np.array([-0.6, 0.0, 0.8])]
    for x in pts:
        q = d.section_bullet(x)
        assert d.membership(q) <= 1e-12
        assert d.dist_m(d.proj_bullet(q), x) <= 1e-12
        q2 = d.section_star(x)
        assert d.dist_mprime(d.proj_star(q2), x) <= 1e-12


def test_gm_section_covers_both_column_charts():
    d = catalog("gm")
    small = Quaternion(0.1, 0.0, 0.0, 0.0)
    big = (1.0 - small.norm() ** 2) ** 0.5 * Quaternion(0.0, 0.6, 0.0, 0.8)
    for col in [(small, big), (big, small)]:
        A = d.section_bullet(col)
        assert d.membership(A) <= 1e-12
        assert d.dist_m(d.proj_bullet(A), col) <= 1e-12


def test_gm_canonical_representative():
    d = catalog("gm")
    rng = np.random.default_rng(6)
    for _ in range(100):
        A = d.random_point(rng)
        g = random_element("s3", rng)
        Y = d.proj_star(A)
        # idempotent and constant along star orbits
        assert d.dist_mprime(d.proj_star(Y), Y) <= 1e-12
        assert d.dist_mprime(d.proj_star(d.star_action(g, A)), Y) <= 1e-12
        # the larger second-column entry lands on the positive real axis
        (_, c), (_, dq) = Y
        chosen = c if c.norm() >= dq.norm() else dq
        assert chosen.w > 0.0
        assert math.hypot(chosen.x, math.hypot(chosen.y, chosen.z)) <= 1e-12


def _net_element(net, i):
    """Element i of a batched group net, as a one-point payload."""
    if isinstance(net, Quaternion):
        return Quaternion(*(float(c[i]) for c in (net.w, net.x, net.y, net.z)))
    return float(net[i])


def test_both_actions_are_free():
    rng = np.random.default_rng(7)
    for eid in CATALOG_IDS:
        d = catalog(eid)
        e = QUAT_ONE if d.group == "s3" else 0.0
        net = group_net(d.group, 8)
        for _ in range(50):
            p = d.random_point(rng)
            for which in ("bullet", "star"):
                fixers = np.flatnonzero(isotropy_probe(d, which, p, grid=8))
                assert len(fixers) == 1
                assert _net_element(net, fixers[0]) == e


def test_isotropy_compare_generic_points():
    rng = np.random.default_rng(8)
    for eid in CATALOG_IDS:
        d = catalog(eid)
        for _ in range(5):
            assert isotropy_compare(d, d.random_point(rng)) == (0, 0)


def test_isotropy_compare_special_points():
    # the residual actions do have fixed points even though the lifted
    # actions are free; both sides must report the same dimension
    d = catalog("hopf")
    assert isotropy_compare(d, QUAT_ONE) == (1, 1)
    d = catalog("trivial-s2")
    assert isotropy_compare(d, (np.array([0.0, 0.0, 1.0]), 0.3)) == (1, 1)
    d = catalog("gm")
    assert isotropy_compare(d, GM_IDENTITY) == (3, 3)


def test_group_net_shape():
    net = group_net("s1", 12)
    assert net.shape == (12,)
    assert _net_element(net, 0) == 0.0
    net3 = group_net("s3", 8)
    # the ring-by-ring loop is the reference: at eta = 0 only xi1 runs,
    # at eta = pi/2 only xi2, in between both
    etas = np.linspace(0.0, math.pi / 2.0, 4)
    angles = 2.0 * math.pi * np.arange(8) / 8
    ref = []
    for i, eta in enumerate(etas):
        for x1 in (angles if i < 3 else angles[:1]):
            for x2 in (angles if i > 0 else angles[:1]):
                ref.append((math.cos(eta) * math.cos(x1), math.cos(eta) * math.sin(x1),
                            math.sin(eta) * math.cos(x2), math.sin(eta) * math.sin(x2)))
    got = np.stack([net3.w, net3.x, net3.y, net3.z], axis=-1)
    assert got.shape == (8 + 2 * 64 + 8, 4)
    assert np.max(np.abs(got - ref)) <= 4e-16
    assert _net_element(net3, 0) == QUAT_ONE
    assert np.all(np.abs(net3.norm() - 1.0) < 1e-12)
    with pytest.raises(ValueError):
        group_net("s1", 1)


def test_swap_exchanges_roles():
    rng = np.random.default_rng(9)
    for eid in CATALOG_IDS:
        d = catalog(eid)
        sd = swap(d)
        dd = swap(sd)
        for _ in range(20):
            p = d.random_point(rng)
            g = random_element(d.group, rng)
            assert d.point_distance(sd.bullet_action(g, p),
                                    d.star_action(g, p)) == 0.0
            assert d.dist_mprime(sd.proj_bullet(p), d.proj_star(p)) == 0.0
            assert d.dist_m(dd.proj_bullet(p), d.proj_bullet(p)) == 0.0


def test_transport_is_a_ring_homomorphism():
    # sums and products pass through transport bitwise: the transported
    # function evaluates its input at the very same lifted point
    for eid in CATALOG_IDS:
        d = catalog(eid)
        f1 = INVARIANTS[eid]
        f2 = lambda x: 0.25 * f1(x) ** 2 - 1.0
        t1 = transport_invariant(d, f1)
        t2 = transport_invariant(d, f2)
        t_sum = transport_invariant(d, lambda x: f1(x) + f2(x))
        t_prod = transport_invariant(d, lambda x: f1(x) * f2(x))
        rng = np.random.default_rng(10)
        for _ in range(1000):
            y = d.proj_star(d.random_point(rng))
            assert t_sum(y) == t1(y) + t2(y)
            assert t_prod(y) == t1(y) * t2(y)


def test_transport_round_trip_is_the_identity():
    # carrying an invariant to the other quotient and back reproduces it
    for eid in CATALOG_IDS:
        d = catalog(eid)
        f = INVARIANTS[eid]
        back = transport_invariant(swap(d), transport_invariant(d, f))
        rng = np.random.default_rng(11)
        worst = 0.0
        for _ in range(1000):
            x = d.proj_bullet(d.random_point(rng))
            worst = max(worst, abs(back(x) - f(x)))
        assert worst <= 1e-12, (eid, worst)


def test_transport_rejects_noninvariant_functions():
    d = catalog("hopf")
    with pytest.raises(NotInvariant):
        transport_invariant(d, lambda x: float(x[1]))


def test_transport_rejects_inconsistent_lifts():
    # a section returning lifts from the wrong orbit must be caught by
    # the multi-route consistency check
    d = catalog("hopf")
    orig = d.section_star

    def twisted(y):
        return orig(np.array([y[2], y[0], y[1]]))

    bad = dataclasses.replace(d, section_star=twisted)
    with pytest.raises(IllDefined):
        transport_invariant(bad, INVARIANTS["hopf"])


def test_isotropy_probe_rejects_bad_role():
    d = catalog("hopf")
    with pytest.raises(ValueError):
        isotropy_probe(d, "diagonal", QUAT_ONE)
