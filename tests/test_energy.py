"""Tests for the Lobachevsky function, the triangle potential, and the
two convex energies.

Reference values come from independent oracles: adaptive quadrature of
the defining integral (mpmath) for the Lobachevsky function, and central
finite differences for every gradient and Hessian.
"""

import math
import os
import subprocess
import sys

import mpmath
import numpy as np
import pytest
from scipy.special import zeta

from helpers import dense, fd_gradient, fd_hessian

import uniformizer
from uniformizer import energy, surfaces
from uniformizer.energy import (
    conformal_energy,
    conformal_energy_value,
    crossflip_c2_check,
    euclidean_angles,
    fixed_triangulation_energy,
    lobachevsky,
    punctured_energy,
    punctured_energy_value,
    triangle_potential,
)
from uniformizer.errors import NotNeutral, TriangleInequalityViolated
from uniformizer.penner import ConeAngleTarget, DecoratedMetric, fiber_shift


def quad_lobachevsky(x):
    """Defining integral, evaluated by adaptive quadrature."""
    return float(-mpmath.quad(lambda t: mpmath.log(abs(2 * mpmath.sin(t))),
                              [0, x]))


def test_lobachevsky_coefficients_are_the_zeta_values():
    # The series coefficients are stored as float literals; they must be
    # the values computed from scipy's zeta, bit for bit.
    want = np.array([zeta(2 * k) / (k * (2 * k + 1) * math.pi ** (2 * k))
                     for k in range(1, 31)])
    assert energy._LOB_COEF.tobytes() == want.tobytes()


def test_package_does_not_load_scipy_special():
    src = os.path.dirname(os.path.dirname(os.path.abspath(
        uniformizer.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    code = ("import sys\n"
            "from uniformizer import io_cli, realize\n"
            "sys.exit('scipy.special' in sys.modules)\n")
    run = subprocess.run([sys.executable, "-c", code], env=env)
    assert run.returncode == 0


def test_lobachevsky_special_values():
    assert lobachevsky(0.0) == 0.0
    assert lobachevsky(math.pi / 2) == pytest.approx(0.0, abs=1e-14)
    # Global maximum at pi/6; value frozen from the quadrature oracle.
    assert lobachevsky(math.pi / 6) == pytest.approx(0.50747080320482,
                                                     abs=1e-12)


def test_lobachevsky_matches_quadrature():
    for x in np.linspace(0.05, math.pi - 0.05, 15):
        assert lobachevsky(float(x)) == pytest.approx(quad_lobachevsky(x),
                                                      abs=1e-12)


def test_lobachevsky_periodic_and_odd():
    rng = np.random.default_rng(21)
    for x in rng.uniform(-10, 10, 50):
        assert lobachevsky(x + math.pi) == pytest.approx(lobachevsky(x),
                                                         abs=1e-12)
        assert lobachevsky(-x) == pytest.approx(-lobachevsky(x), abs=1e-12)


def test_euclidean_angles_basic():
    a = euclidean_angles(1.0, 1.0, 1.0)
    np.testing.assert_allclose(a, math.pi / 3, atol=1e-14)
    a = euclidean_angles(1.0, 1.0, math.sqrt(2.0))
    np.testing.assert_allclose(a, (math.pi / 4, math.pi / 4, math.pi / 2),
                               atol=1e-14)


def test_euclidean_angles_near_degenerate_sum():
    a = euclidean_angles(1.0, 1.0, 1.9999999)
    assert sum(a) == pytest.approx(math.pi, abs=1e-9)
    rng = np.random.default_rng(22)
    for _ in range(100):
        l = rng.uniform(0.1, 5.0, 3)
        if max(l) >= sum(l) - max(l):
            continue
        a = euclidean_angles(*l)
        assert sum(a) == pytest.approx(math.pi, abs=1e-12)
        # Law of sines as an independent consistency check.
        ratios = [l[i] / math.sin(a[i]) for i in range(3)]
        assert max(ratios) - min(ratios) < 1e-10 * max(ratios)


def test_euclidean_angles_rejects_bad_sides():
    with pytest.raises(TriangleInequalityViolated):
        euclidean_angles(1.0, 1.0, 3.0)


def test_triangle_potential_symmetric_point():
    value, grad, _ = triangle_potential(0.0, 0.0, 0.0)
    assert value == pytest.approx(3.0 * quad_lobachevsky(math.pi / 3),
                                  abs=1e-12)
    np.testing.assert_allclose(grad, math.pi / 3, atol=1e-14)


def test_triangle_potential_finite_differences():
    rng = np.random.default_rng(23)
    checked = 0
    while checked < 100:
        x = rng.uniform(-1.0, 1.0, 3)
        l = np.exp(x)
        if max(l) >= sum(l) - max(l) - 0.05:
            continue
        checked += 1
        _, grad, hess = triangle_potential(*x)
        g_fd = fd_gradient(lambda y: triangle_potential(*y)[0], x, h=1e-6)
        np.testing.assert_allclose(grad, g_fd, atol=1e-6)
        h_fd = fd_hessian(lambda y: triangle_potential(*y)[1], x, h=1e-5)
        np.testing.assert_allclose(hess, h_fd, atol=1e-4)


def test_triangle_potential_scaling():
    x = np.array([0.3, -0.2, 0.1])
    v0 = triangle_potential(*x)[0]
    for h in (-3.0, 0.7):
        vh = triangle_potential(*(x + h))[0]
        assert vh - v0 == pytest.approx(math.pi * h, abs=1e-11)


def test_fixed_energy_one_vertex_torus():
    metric = surfaces.one_vertex_torus()
    target = ConeAngleTarget.uniform(1)
    f0 = triangle_potential(0.0, 0.0, 0.0)[0]
    expect = 4.0 * f0 - 2.0 * math.pi * math.log(6.0)
    assert fixed_triangulation_energy(metric, target) \
        == pytest.approx(expect, abs=1e-12)


def test_fixed_energy_scaling_relation():
    # Adding h to every lambda adds h pi (T - E + sum(theta)/2pi).
    rng = np.random.default_rng(24)
    metric = surfaces.random_torus(3, rng)
    metric = DecoratedMetric(metric.triangulation, metric.lam * 0.2)
    tri = metric.triangulation
    for theta_scale in (0.0, 1.0):
        target = ConeAngleTarget(
            np.full(tri.num_vertices, theta_scale * 2.0 * math.pi))
        v0 = fixed_triangulation_energy(metric, target)
        h = 0.3
        shifted = DecoratedMetric(tri, metric.lam + h)
        vh = fixed_triangulation_energy(shifted, target)
        expect = h * math.pi * (tri.num_triangles - tri.num_edges
                                + float(np.sum(target.theta))
                                / (2.0 * math.pi))
        assert vh - v0 == pytest.approx(expect, abs=1e-10)


def test_conformal_energy_flat_torus_gradient_zero():
    metric = surfaces.square_torus()
    target = ConeAngleTarget.uniform(1)
    ev = conformal_energy(metric, target, np.zeros(1))
    np.testing.assert_allclose(ev.gradient, 0.0, atol=1e-12)
    np.testing.assert_allclose(ev.theta_tilde, 2.0 * math.pi, atol=1e-12)


def test_conformal_energy_gradient_is_angle_defect():
    rng = np.random.default_rng(25)
    metric = surfaces.random_sphere(8, rng)
    n = metric.triangulation.num_vertices
    target = ConeAngleTarget.uniform(n)
    u = rng.uniform(-0.5, 0.5, n)
    ev = conformal_energy(metric, target, u)
    np.testing.assert_allclose(ev.gradient, target.theta - ev.theta_tilde,
                               atol=1e-14)
    # Gauss-Bonnet holds for the realized angle sums at any u.
    chi = metric.triangulation.euler_characteristic
    assert float(np.sum(2.0 * math.pi - ev.theta_tilde)) \
        == pytest.approx(2.0 * math.pi * chi, abs=1e-9)


def test_conformal_energy_finite_differences():
    rng = np.random.default_rng(26)
    metric = surfaces.random_torus(4, rng)
    n = metric.triangulation.num_vertices
    target = ConeAngleTarget.uniform(n)
    for _ in range(5):
        u = rng.uniform(-0.5, 0.5, n)
        ev = conformal_energy(metric, target, u)
        g_fd = fd_gradient(
            lambda x: conformal_energy_value(metric, target, x), u, h=1e-6)
        np.testing.assert_allclose(ev.gradient, g_fd, atol=1e-6)
        h_fd = fd_hessian(
            lambda x: conformal_energy(metric, target, x).gradient, u,
            h=1e-5)
        np.testing.assert_allclose(dense(ev.hessian), h_fd, atol=1e-4)


def test_conformal_energy_hessian_kernel_is_constants():
    rng = np.random.default_rng(27)
    metric = surfaces.random_sphere(10, rng)
    n = metric.triangulation.num_vertices
    target = ConeAngleTarget.uniform(n)
    ev = conformal_energy(metric, target, np.zeros(n))
    H = dense(ev.hessian)
    np.testing.assert_allclose(H, H.T, atol=1e-12)
    np.testing.assert_allclose(H @ np.ones(n), 0.0, atol=1e-10)
    evals = np.sort(np.linalg.eigvalsh(H))
    assert abs(evals[0]) < 1e-10
    assert evals[1] > 1e-8


def test_conformal_energy_scale_invariance():
    metric = surfaces.square_torus()
    target = ConeAngleTarget.uniform(1)
    v0 = conformal_energy_value(metric, target, np.zeros(1))
    vh = conformal_energy_value(metric, target, np.full(1, 1.7))
    assert vh == pytest.approx(v0, abs=1e-10)


def test_conformal_energy_theta_decomposition():
    # E_theta(u) = E_0(u) - sum theta_v (log c_v - u_v).
    from uniformizer.penner import horocycle_length
    rng = np.random.default_rng(28)
    metric = surfaces.random_sphere(7, rng)
    n = metric.triangulation.num_vertices
    theta = rng.uniform(0.5, 6.0, n)
    target = ConeAngleTarget(theta)
    zero = ConeAngleTarget(np.zeros(n))
    for _ in range(5):
        u = rng.uniform(-1, 1, n)
        lhs = conformal_energy_value(metric, target, u)
        rhs = conformal_energy_value(metric, zero, u)
        for v in range(n):
            rhs -= theta[v] * (math.log(horocycle_length(metric, v)) - u[v])
        assert lhs == pytest.approx(rhs, abs=1e-10)


def test_conformal_energy_relabeling_invariance():
    from uniformizer import mesh_core
    faces1 = [(0, 1, 2), (0, 2, 3), (0, 3, 1), (1, 3, 2)]
    faces2 = [(2, 3, 1), (3, 2, 0), (1, 0, 2), (0, 1, 3)]
    tri1, lab1 = mesh_core.build_from_faces(faces1, genus_hint=0)
    tri2, lab2 = mesh_core.build_from_faces(faces2, genus_hint=0)
    rng = np.random.default_rng(29)
    lam_by_pair = {}
    for e, (k1, _) in enumerate(tri1.edge_sides):
        t, s = divmod(k1, 3)
        a = lab1[tri1.corner_vertex[k1]]
        b = lab1[tri1.corner_vertex[3 * t + (s + 1) % 3]]
        lam_by_pair[frozenset((a, b))] = rng.uniform(-0.5, 0.5)
    def lam_for(tri, lab):
        lam = np.zeros(tri.num_edges)
        for e, (k1, _) in enumerate(tri.edge_sides):
            t, s = divmod(k1, 3)
            a = lab[tri.corner_vertex[k1]]
            b = lab[tri.corner_vertex[3 * t + (s + 1) % 3]]
            lam[e] = lam_by_pair[frozenset((a, b))]
        return lam
    target = ConeAngleTarget.uniform(4)
    v1 = conformal_energy_value(DecoratedMetric(tri1, lam_for(tri1, lab1)),
                                target, np.zeros(4))
    v2 = conformal_energy_value(DecoratedMetric(tri2, lam_for(tri2, lab2)),
                                target, np.zeros(4))
    assert v1 == pytest.approx(v2, abs=1e-12)


def test_conformal_energy_coercive_along_rays():
    rng = np.random.default_rng(30)
    metric = surfaces.random_sphere(6, rng)
    n = metric.triangulation.num_vertices
    target = ConeAngleTarget.uniform(n)
    u = np.zeros(n)
    values = []
    for s in (2.0, 4.0, 6.0, 8.0):
        probe = u.copy()
        probe[1] = s
        values.append(conformal_energy_value(metric, target, probe))
    assert values == sorted(values)
    assert values[-1] > values[0] + 1.0


def test_punctured_energy_scaling_relation():
    rng = np.random.default_rng(31)
    metric = surfaces.random_sphere(7, rng)
    n = metric.triangulation.num_vertices
    v_inf = 0
    u = rng.uniform(-0.3, 0.3, n)
    v0 = punctured_energy_value(metric, v_inf, u)
    h = 0.41
    vh = punctured_energy_value(metric, v_inf, u + h)
    assert vh - v0 == pytest.approx(2.0 * math.pi * h, abs=1e-10)


def test_punctured_energy_finite_differences():
    rng = np.random.default_rng(32)
    metric = surfaces.random_sphere(6, rng)
    n = metric.triangulation.num_vertices
    v_inf = 1
    free = [v for v in range(n) if v != v_inf]
    for _ in range(5):
        u = np.zeros(n)
        u[free] = rng.uniform(-0.3, 0.3, len(free))
        ev = punctured_energy(metric, v_inf, u)

        def value_of(uf):
            full = np.zeros(n)
            full[free] = uf
            return punctured_energy_value(metric, v_inf, full)

        def grad_of(uf):
            full = np.zeros(n)
            full[free] = uf
            return punctured_energy(metric, v_inf, full).gradient

        g_fd = fd_gradient(value_of, u[free], h=1e-6)
        np.testing.assert_allclose(ev.gradient, g_fd, atol=1e-6)
        h_fd = fd_hessian(grad_of, u[free], h=1e-5)
        np.testing.assert_allclose(dense(ev.hessian), h_fd, atol=1e-4)


def test_punctured_energy_limit_of_conformal_energy():
    # Extending u by a large value x at the distinguished vertex and
    # evaluating the conformal energy with target 2 pi elsewhere and 0
    # there converges to the punctured energy as x grows.
    rng = np.random.default_rng(33)
    metric = surfaces.random_sphere(6, rng)
    n = metric.triangulation.num_vertices
    v_inf = 2
    u = rng.uniform(-0.5, 0.5, n)
    ebar = punctured_energy_value(metric, v_inf, u)
    theta = np.full(n, 2.0 * math.pi)
    theta[v_inf] = 0.0
    target = ConeAngleTarget(theta)
    residuals = []
    for x in (10.0, 20.0, 40.0):
        ue = u.copy()
        ue[v_inf] = x
        residuals.append(abs(conformal_energy_value(metric, target, ue)
                             - ebar))
    assert residuals[0] > residuals[1] > residuals[2]
    assert residuals[-1] < 1e-6


def test_punctured_energy_degenerate_subcomplex():
    # Three vertices: removing one leaves a single edge and no triangles;
    # only the linear terms remain and the gradient formula still applies.
    metric = surfaces.three_vertex_sphere()
    u = np.zeros(3)
    ev = punctured_energy(metric, 0, u)
    assert ev.free_vertices == [1, 2]
    assert dense(ev.hessian).shape == (2, 2)
    g_fd = fd_gradient(
        lambda x: punctured_energy_value(metric, 0,
                                         np.array([0.0, x[0], x[1]])),
        u[1:], h=1e-6)
    np.testing.assert_allclose(ev.gradient, g_fd, atol=1e-6)


def test_crossflip_square_torus_diagonal():
    metric = surfaces.square_torus()
    target = ConeAngleTarget.uniform(1)
    report = crossflip_c2_check(metric, target, 2)
    assert report.value_dev < 1e-10
    assert report.grad_dev < 1e-7
    assert report.hess_dev < 1e-5
    # Third derivatives genuinely differ across the flip.
    assert report.third_dev > 1e-3


def test_crossflip_rejects_non_neutral_edge():
    metric = surfaces.octahedron_sphere()
    target = ConeAngleTarget.uniform(6)
    with pytest.raises(NotNeutral):
        crossflip_c2_check(metric, target, 0)


def test_fiber_shift_commutes_with_energy_shift():
    # Evaluating at u is the same as shifting the metric and evaluating
    # at zero.
    rng = np.random.default_rng(34)
    metric = surfaces.random_torus(3, rng)
    n = metric.triangulation.num_vertices
    target = ConeAngleTarget.uniform(n)
    u = rng.uniform(-0.4, 0.4, n)
    v1 = conformal_energy_value(metric, target, u)
    shifted = fiber_shift(metric, u)
    v2 = conformal_energy_value(shifted, target, np.zeros(n))
    assert v1 == pytest.approx(v2, abs=1e-10)
