"""Tests for the decorated-metric algebra."""

import math

import numpy as np
import pytest

from uniformizer import surfaces
from uniformizer.errors import (
    IncompatibleShear,
    OutOfDomain,
    UnknownVertex,
    WrongLength,
)
from uniformizer.penner import (
    ConeAngleTarget,
    DecoratedMetric,
    PartialDecoration,
    ShearCoordinates,
    arc_lengths,
    fiber_shift,
    horocycle_length,
    lambdas_from_arcs,
    penner_from_shear,
    ptolemy_update,
    shear_from_penner,
)


def test_decorated_metric_validates_shape():
    tri = surfaces.one_vertex_torus().triangulation
    with pytest.raises(WrongLength):
        DecoratedMetric(tri, np.zeros(5))
    with pytest.raises(OutOfDomain):
        DecoratedMetric(tri, np.array([0.0, np.inf, 0.0]))


def test_lengths_are_exp_half_lambda():
    metric = surfaces.square_torus()
    np.testing.assert_allclose(metric.lengths,
                               [1.0, 1.0, math.sqrt(2.0)], rtol=1e-15)


def test_arc_lengths_symmetric_zero():
    assert arc_lengths((0.0, 0.0, 0.0)) == (1.0, 1.0, 1.0)


def test_arc_lengths_direct_substitution():
    a = arc_lengths((2.0 * math.log(2.0), 0.0, 0.0))
    np.testing.assert_allclose(a, (2.0, 0.5, 0.5), rtol=1e-15)


def test_arc_lengths_roundtrip():
    rng = np.random.default_rng(1)
    for _ in range(50):
        lam = tuple(rng.uniform(-4, 4, 3))
        back = lambdas_from_arcs(arc_lengths(lam))
        np.testing.assert_allclose(back, lam, atol=1e-12)


def test_horocycle_length_torus():
    metric = surfaces.one_vertex_torus()
    assert horocycle_length(metric, 0) == pytest.approx(6.0, abs=1e-14)


def test_horocycle_length_three_vertex_sphere():
    metric = surfaces.three_vertex_sphere()
    for v in range(3):
        assert horocycle_length(metric, v) == pytest.approx(2.0, abs=1e-14)


def test_horocycle_length_unknown_vertex():
    with pytest.raises(UnknownVertex):
        horocycle_length(surfaces.one_vertex_torus(), 1)


def test_fiber_shift_identity_and_locality():
    metric = surfaces.three_vertex_sphere()
    same = fiber_shift(metric, np.zeros(3))
    np.testing.assert_array_equal(same.lam, metric.lam)
    shifted = fiber_shift(metric, np.array([1.0, 0.0, 0.0]))
    for e, (a, b) in enumerate(metric.triangulation.edge_verts):
        expect = metric.lam[e] + (a == 0) + (b == 0)
        assert shifted.lam[e] == pytest.approx(expect, abs=1e-15)


def test_fiber_shift_constant_adds_twice_h():
    metric = surfaces.one_vertex_torus()
    h = 0.83
    shifted = fiber_shift(metric, np.array([h]))
    np.testing.assert_allclose(shifted.lam, metric.lam + 2.0 * h,
                               atol=1e-15)


def test_horocycle_length_shift_relation():
    # log c_v of the shifted metric equals log c_v - u_v.
    rng = np.random.default_rng(2)
    metric = surfaces.random_sphere(8, rng)
    n = metric.triangulation.num_vertices
    for _ in range(10):
        u = rng.uniform(-5, 5, n)
        shifted = fiber_shift(metric, u)
        for v in range(n):
            lhs = math.log(horocycle_length(shifted, v))
            rhs = math.log(horocycle_length(metric, v)) - u[v]
            assert lhs == pytest.approx(rhs, abs=1e-10)


def test_partial_decoration_validation():
    for bad in ([np.inf, np.inf], [0.0, -np.inf], [0.0, np.nan]):
        with pytest.raises(OutOfDomain):
            PartialDecoration(bad)
    u = PartialDecoration([0.0, np.inf])
    assert u.is_decorated(0)
    assert not u.is_decorated(1)


def test_cone_angle_target_validation():
    for bad in ([-1.0], [np.nan], [np.inf]):
        with pytest.raises(OutOfDomain):
            ConeAngleTarget(bad)
    t = ConeAngleTarget.uniform(3)
    np.testing.assert_allclose(t.theta, 2.0 * math.pi)


def test_shear_zero_lambda_is_zero():
    metric = surfaces.one_vertex_torus()
    shear = shear_from_penner(metric)
    np.testing.assert_allclose(shear.sigma, 0.0, atol=1e-15)


def test_shear_vertex_sums_vanish():
    rng = np.random.default_rng(3)
    for metric in (surfaces.square_torus(),
                   surfaces.random_sphere(10, rng),
                   surfaces.random_torus(6, rng),
                   surfaces.genus2_one_vertex(rng.uniform(-1, 1, 9))):
        shear = shear_from_penner(metric)
        assert np.max(np.abs(shear.vertex_sums())) < 1e-10


def test_shear_invariant_under_fiber_shift():
    rng = np.random.default_rng(4)
    metric = surfaces.random_torus(5, rng)
    u = rng.uniform(-3, 3, metric.triangulation.num_vertices)
    s1 = shear_from_penner(metric)
    s2 = shear_from_penner(fiber_shift(metric, u))
    np.testing.assert_allclose(s2.sigma, s1.sigma, atol=1e-10)


def test_shear_coordinates_reject_bad_sums():
    tri = surfaces.one_vertex_torus().triangulation
    with pytest.raises(IncompatibleShear):
        ShearCoordinates(tri, np.array([1.0, 0.0, 0.0]))


def test_penner_from_shear_roundtrip():
    rng = np.random.default_rng(5)
    for _ in range(5):
        metric = surfaces.random_torus(4, rng)
        tri = metric.triangulation
        shear = shear_from_penner(metric)
        # Anchor with the arcs of the original metric so the round trip
        # reproduces lambda itself, not just the shear.
        from uniformizer.penner import corner_arc
        anchors = [corner_arc(metric, tri.vertex_corners[v][0])
                   for v in range(tri.num_vertices)]
        back = penner_from_shear(shear, anchors)
        np.testing.assert_allclose(back.lam, metric.lam, atol=1e-8)
        again = shear_from_penner(back)
        np.testing.assert_allclose(again.sigma, shear.sigma, atol=1e-8)


def test_penner_from_shear_rejects_incompatible():
    tri = surfaces.one_vertex_torus().triangulation
    bad = ShearCoordinates(tri, np.array([1.0, 0.0, 0.0]), check=False)
    with pytest.raises(IncompatibleShear):
        penner_from_shear(bad, [1.0])


def test_ptolemy_symmetric_case():
    assert ptolemy_update(0, 0, 0, 0, 0) == pytest.approx(2 * math.log(2),
                                                          abs=1e-15)


def test_ptolemy_involution():
    assert ptolemy_update(0, 0, 0, 0, 2 * math.log(2)) \
        == pytest.approx(0.0, abs=1e-12)
    rng = np.random.default_rng(6)
    for _ in range(100):
        la, lb, lc, ld, le = rng.uniform(-4, 4, 5)
        lf = ptolemy_update(la, lb, lc, ld, le)
        assert ptolemy_update(la, lb, lc, ld, lf) \
            == pytest.approx(le, abs=1e-12)


def test_ptolemy_no_overflow():
    big = 1000.0
    lf = ptolemy_update(big, big, big, big, big)
    # Exact value: 2 log(2 e^1000) - 1000 = 1000 + 2 log 2.
    assert math.isfinite(lf)
    assert lf == pytest.approx(big + 2 * math.log(2), abs=1e-12)
