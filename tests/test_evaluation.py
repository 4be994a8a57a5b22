"""Tests for the vectorized evaluation path and the shared Newton loop.

The energies are compared against the loop-based reference in
reference_energy.py, one triangle and one edge at a time.  The angle
kernel must reject bad triangles with TriangleInequalityViolated and
never let a NaN or a numpy RuntimeWarning through.
"""

import math
import warnings

import numpy as np
import pytest

import reference_energy as ref
from helpers import dense

from uniformizer import surfaces
from uniformizer.energy import (
    conformal_energy,
    conformal_energy_value,
    euclidean_angles,
    fixed_triangulation_energy,
    punctured_energy,
    punctured_energy_value,
    triangle_potential,
)
from uniformizer.errors import (
    IterLimit,
    TriangleInequalityViolated,
)
from uniformizer.optimize import (
    SolveOptions,
    minimize_conformal_energy,
    minimize_punctured_energy,
)
from uniformizer.penner import ConeAngleTarget, DecoratedMetric
from uniformizer.realize import uniformize_torus

REL = 1e-11


def assert_rel_close(actual, expected):
    actual, expected = dense(actual), dense(expected)
    scale = max(1.0, float(np.max(np.abs(expected), initial=0.0)))
    assert np.max(np.abs(actual - expected), initial=0.0) <= REL * scale


def random_point(metric, rng):
    return rng.uniform(-0.5, 0.5, metric.triangulation.num_vertices)


def sphere(n):
    return surfaces.random_sphere(n, np.random.default_rng(60 + n))


@pytest.mark.parametrize("n", [20, 100])
@pytest.mark.parametrize("v_inf", [0, 5])
def test_punctured_energy_matches_reference(n, v_inf):
    metric = sphere(n)
    rng = np.random.default_rng(61)
    for u in (np.zeros(n), random_point(metric, rng)):
        ev = punctured_energy(metric, v_inf, u)
        value, gradient, hessian = ref.punctured_energy(metric, v_inf, u)
        assert_rel_close(ev.value, value)
        assert_rel_close(ev.gradient, gradient)
        assert_rel_close(ev.hessian, hessian)
        assert punctured_energy_value(metric, v_inf, u) == ev.value


@pytest.mark.parametrize("make", [
    lambda: sphere(20),
    lambda: sphere(100),
    lambda: surfaces.random_torus(12, np.random.default_rng(62)),
    lambda: surfaces.genus2_one_vertex(
        np.random.default_rng(63).uniform(-0.3, 0.3, 9)),
], ids=["sphere20", "sphere100", "random_torus", "genus2_one_vertex"])
def test_conformal_energy_matches_reference(make):
    metric = make()
    n = metric.triangulation.num_vertices
    rng = np.random.default_rng(64)
    target = ConeAngleTarget(rng.uniform(1.0, 7.0, n))
    for u in (np.zeros(n), random_point(metric, rng)):
        ev = conformal_energy(metric, target, u)
        value, gradient, hessian = ref.conformal_energy(metric, target, u)
        assert_rel_close(ev.value, value)
        assert_rel_close(ev.gradient, gradient)
        assert_rel_close(ev.hessian, hessian)
        assert conformal_energy_value(metric, target, u) == ev.value


def test_fixed_energy_rejects_overflowing_lambda():
    metric = surfaces.tetrahedron_sphere()
    lam = metric.lam.copy()
    lam[0] = 2000.0
    target = ConeAngleTarget.uniform(4)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(TriangleInequalityViolated):
            fixed_triangulation_energy(DecoratedMetric(
                metric.triangulation, lam), target)


@pytest.mark.parametrize("sides", [
    (math.inf, 1.0, 1.0), (math.nan, 1.0, 1.0), (-1.0, 1.0, 1.0),
    (0.0, 1.0, 1.0), (1e200, 1e200, 1e200), (1.0, 1.0, 2.0),
])
def test_angle_kernel_rejects_bad_sides_without_warnings(sides):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(TriangleInequalityViolated):
            euclidean_angles(*sides)


def test_triangle_potential_rejects_extreme_half_lambdas():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for x in ((1000.0, 0.0, 0.0), (-1000.0, 0.0, 0.0)):
            with pytest.raises(TriangleInequalityViolated):
                triangle_potential(*x)


def test_torus_with_wide_lambdas_is_solved():
    # Line-search trials reach triangles whose angles underflow to 0;
    # the kernel must reject them instead of dividing by the angle.
    rng = np.random.default_rng(1)
    surfaces.random_sphere(20, rng)
    metric = surfaces.random_torus(20, rng, (-12.0, 12.0))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        real = uniformize_torus(metric)
    assert real.report.status == "Converged"
    assert real.diagnostics["residual_lattice"] <= 1e-8


def test_solvers_report_their_residual_keys():
    rng = np.random.default_rng(65)
    metric = surfaces.random_sphere(12, rng)
    report = minimize_punctured_energy(metric, 0)
    assert set(report.kkt_residuals) == {"stationarity", "complementarity",
                                         "feasibility"}
    with pytest.raises(IterLimit) as info:
        minimize_punctured_energy(metric, 0, SolveOptions(max_iterations=1))
    assert set(info.value.report.kkt_residuals) == set(report.kkt_residuals)

    torus = surfaces.random_torus(6, rng, lam_range=(-0.5, 0.5))
    target = ConeAngleTarget.uniform(torus.triangulation.num_vertices)
    report = minimize_conformal_energy(torus, target)
    assert set(report.kkt_residuals) == {"grad_inf"}
    assert report.u_final.mean() == pytest.approx(0.0, abs=1e-12)
    with pytest.raises(IterLimit) as info:
        minimize_conformal_energy(torus, target,
                                  SolveOptions(max_iterations=1))
    assert set(info.value.report.kkt_residuals) == {"grad_inf"}


@pytest.mark.parametrize("make", [
    surfaces.square_torus_refined,
    surfaces.one_vertex_torus,
    lambda: surfaces.square_torus_refined(rng=np.random.default_rng(66)),
], ids=["square_refined", "hexagonal", "square_refined_rescaled"])
def test_torus_lattice_residual_is_measured(make):
    residual = uniformize_torus(make()).diagnostics["residual_lattice"]
    assert math.isfinite(residual)
    assert residual <= 1e-8
