"""Tests for the decorated-metric algebra."""

import math

import numpy as np
import pytest

from uniformizer import surfaces
from uniformizer.errors import OutOfDomain, WrongLength
from uniformizer.penner import (
    ConeAngleTarget,
    DecoratedMetric,
    PartialDecoration,
    _log_corner_arcs,
    _log_horocycle_lengths,
    fiber_shift,
    ptolemy_update,
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


def _arc_lengths(lam_triple):
    """The arcs of one triangle with sides 0, 1, 2 of the given lambdas,
    in the order of the sides they face: the arc at corner s faces side
    s + 1, so the arc facing side i sits at corner i - 1."""
    return tuple(np.exp(_log_corner_arcs([0, 1, 2], np.array(lam_triple)))
                 [0, [2, 0, 1]].tolist())


def test_arc_lengths_symmetric_zero():
    assert _arc_lengths((0.0, 0.0, 0.0)) == (1.0, 1.0, 1.0)


def test_arc_lengths_direct_substitution():
    # The arc facing side i is exp((lam_i - lam_j - lam_k) / 2).
    a = _arc_lengths((2.0 * math.log(2.0), 0.0, 0.0))
    np.testing.assert_allclose(a, (2.0, 0.5, 0.5), rtol=1e-15)


def test_arc_lengths_roundtrip():
    # lam_i = -log(alpha_j) - log(alpha_k), alpha_i the arc facing side i.
    rng = np.random.default_rng(1)
    for _ in range(50):
        lam = tuple(rng.uniform(-4, 4, 3))
        a1, a2, a3 = np.log(_arc_lengths(lam))
        np.testing.assert_allclose((-a2 - a3, -a3 - a1, -a1 - a2), lam,
                                   atol=1e-12)


def test_horocycle_length_torus():
    metric = surfaces.one_vertex_torus()
    assert math.exp(_log_horocycle_lengths(metric)[0]) \
        == pytest.approx(6.0, abs=1e-14)


def test_horocycle_length_three_vertex_sphere():
    metric = surfaces.three_vertex_sphere()
    np.testing.assert_allclose(np.exp(_log_horocycle_lengths(metric)),
                               2.0, rtol=0, atol=1e-14)


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
        lhs = _log_horocycle_lengths(fiber_shift(metric, u))
        rhs = _log_horocycle_lengths(metric) - u
        np.testing.assert_allclose(lhs, rhs, rtol=0, atol=1e-10)


def test_partial_decoration_validation():
    for bad in ([np.inf, np.inf], [0.0, -np.inf], [0.0, np.nan]):
        with pytest.raises(OutOfDomain):
            PartialDecoration(bad)
    u = PartialDecoration([0.0, np.inf])
    np.testing.assert_array_equal(u.u, [0.0, np.inf])


def test_cone_angle_target_validation():
    for bad in ([-1.0], [np.nan], [np.inf]):
        with pytest.raises(OutOfDomain):
            ConeAngleTarget(bad)
    t = ConeAngleTarget.uniform(3)
    np.testing.assert_allclose(t.theta, 2.0 * math.pi)


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
