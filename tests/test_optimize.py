"""Tests for the Newton solvers and the KKT verifier.

The octahedron minimizer is known in closed form by symmetry: the four
vertices adjacent to the distinguished one sit at their bounds (0) and
the antipodal vertex takes u = -log 2, which makes the bottom pyramid
faces flat squares.
"""

import math

import numpy as np
import pytest
import scipy.sparse as sp

from uniformizer import mesh_core, surfaces
from uniformizer.errors import GaussBonnetViolated, WrongGenus
from uniformizer.optimize import (
    CONVERGED,
    SolveOptions,
    _solve_spd,
    gauss_bonnet_defect,
    kkt_check,
    minimize_conformal_energy,
    minimize_punctured_energy,
)
from uniformizer.penner import ConeAngleTarget, DecoratedMetric


def test_solve_options_validation():
    with pytest.raises(ValueError):
        SolveOptions(gradient_tolerance=0.0)
    with pytest.raises(ValueError):
        SolveOptions(shrink=1.5)


def test_gauss_bonnet_defect():
    metric = surfaces.one_vertex_torus()
    target = ConeAngleTarget.uniform(1)
    assert gauss_bonnet_defect(metric, target) == pytest.approx(0.0,
                                                                abs=1e-12)


def test_conformal_square_torus_immediate():
    metric = surfaces.square_torus()
    report = minimize_conformal_energy(metric, ConeAngleTarget.uniform(1))
    assert report.status == CONVERGED
    assert report.iterations == 0
    np.testing.assert_allclose(report.u_final, 0.0, atol=1e-12)


def test_conformal_perturbed_torus_flattens():
    rng = np.random.default_rng(41)
    metric = surfaces.random_torus(5, rng, lam_range=(-0.5, 0.5))
    n = metric.triangulation.num_vertices
    target = ConeAngleTarget.uniform(n)
    report = minimize_conformal_energy(metric, target)
    assert report.status == CONVERGED
    np.testing.assert_allclose(report.theta_tilde, 2.0 * math.pi,
                               atol=1e-8)
    check = kkt_check(metric, target, report.u_final)
    assert check.passed


def test_conformal_rejects_gauss_bonnet_violation():
    metric = surfaces.one_vertex_torus()
    with pytest.raises(GaussBonnetViolated):
        minimize_conformal_energy(metric,
                                  ConeAngleTarget([2.0 * math.pi + 0.1]))


def test_conformal_uniqueness_from_distinct_starts():
    rng = np.random.default_rng(42)
    for _ in range(5):
        metric = surfaces.random_torus(4, rng, lam_range=(-1, 1))
        n = metric.triangulation.num_vertices
        target = ConeAngleTarget.uniform(n)
        r1 = minimize_conformal_energy(metric, target)
        r2 = minimize_conformal_energy(metric, target,
                                       u0=rng.uniform(-1, 1, n))
        d = r1.u_final - r2.u_final
        d -= d.mean()
        assert np.max(np.abs(d)) < 1e-6


def test_conformal_determinism():
    rng = np.random.default_rng(43)
    metric = surfaces.random_torus(4, rng)
    target = ConeAngleTarget.uniform(metric.triangulation.num_vertices)
    r1 = minimize_conformal_energy(metric, target)
    r2 = minimize_conformal_energy(metric, target)
    np.testing.assert_array_equal(r1.u_final, r2.u_final)
    assert r1.iterations == r2.iterations


def test_punctured_octahedron_closed_form():
    metric = surfaces.octahedron_sphere()
    report = minimize_punctured_energy(metric, 0)
    assert report.status == CONVERGED
    assert report.active_set == [1, 2, 3, 4]
    for v in (1, 2, 3, 4):
        assert report.u_final[v] == pytest.approx(0.0, abs=1e-8)
    assert report.u_final[5] == pytest.approx(-math.log(2.0), abs=1e-8)
    check = kkt_check(metric, 0, report.u_final)
    assert check.passed
    assert check.active_set


def test_punctured_three_vertex_sphere_degenerates():
    metric = surfaces.three_vertex_sphere()
    report = minimize_punctured_energy(metric, 0)
    assert report.status == CONVERGED
    assert len(report.active_set) == 2
    # The remaining cells avoiding the distinguished vertex form a path.
    from uniformizer.energy import punctured_energy
    ev = punctured_energy(metric, 0, report.u_final)
    sub = mesh_core.subcomplex_avoiding(
        ev.delaunay.metric.triangulation, 0)
    assert mesh_core.classify_subcomplex(sub) == mesh_core.LINEAR_GRAPH


def test_punctured_rejects_wrong_genus():
    with pytest.raises(WrongGenus):
        minimize_punctured_energy(surfaces.one_vertex_torus(), 0)


def test_punctured_start_independence():
    rng = np.random.default_rng(44)
    for _ in range(3):
        metric = surfaces.random_sphere(8, rng)
        n = metric.triangulation.num_vertices
        v_inf = int(rng.integers(n))
        r1 = minimize_punctured_energy(metric, v_inf)
        u0 = np.zeros(n)
        u0[:] = 1.0
        r2 = minimize_punctured_energy(metric, v_inf, u0=u0)
        free = [v for v in range(n) if v != v_inf]
        assert np.max(np.abs(r1.u_final[free] - r2.u_final[free])) < 1e-6


def test_punctured_kkt_residuals_certified():
    rng = np.random.default_rng(45)
    for _ in range(5):
        metric = surfaces.random_sphere(10, rng)
        n = metric.triangulation.num_vertices
        v_inf = int(rng.integers(n))
        report = minimize_punctured_energy(metric, v_inf)
        assert report.status == CONVERGED
        assert max(report.kkt_residuals.values()) <= 1e-8
        check = kkt_check(metric, v_inf, report.u_final)
        assert check.passed
        assert check.active_set
        assert check.stationarity <= 1e-8
        assert check.feasibility <= 1e-8
        assert check.complementarity <= 1e-8


def test_kkt_check_flags_shifted_point():
    rng = np.random.default_rng(46)
    metric = surfaces.random_torus(3, rng)
    n = metric.triangulation.num_vertices
    target = ConeAngleTarget.uniform(n)
    report = minimize_conformal_energy(metric, target)
    bad = report.u_final.copy()
    bad[0] += 0.1
    check = kkt_check(metric, target, bad)
    assert not check.passed
    assert check.stationarity > 1e-4


def test_kkt_check_flags_infeasible_point():
    metric = surfaces.octahedron_sphere()
    report = minimize_punctured_energy(metric, 0)
    bad = report.u_final.copy()
    bad[1] -= 0.5
    check = kkt_check(metric, 0, bad)
    assert not check.passed
    assert check.feasibility > 0.1


def test_energy_decreases_along_iterates():
    # Convexity plus line search: the final energy is below the starting
    # energy for a non-trivial instance.
    from uniformizer.energy import punctured_energy_value
    rng = np.random.default_rng(47)
    metric = surfaces.random_sphere(9, rng)
    n = metric.triangulation.num_vertices
    report = minimize_punctured_energy(metric, 0)
    from uniformizer.delaunay import horocycle_distances_to
    deltas = horocycle_distances_to(metric, 0)
    u_start = np.zeros(n)
    for v in range(1, n):
        u_start[v] = -deltas[v]
    assert report.energy <= punctured_energy_value(metric, 0, u_start) + 1e-9


def test_solve_spd_zero_hessian_falls_back_to_finite_step():
    # spsolve answers a singular system with NaN; the Tikhonov fallback
    # must turn that into a finite, flagged step.
    rhs = np.array([1.0, -2.0, 0.5])
    x, shifted = _solve_spd(sp.csr_matrix((3, 3)), rhs)
    assert shifted
    assert np.all(np.isfinite(x))
    assert float(x @ rhs) > 0.0
