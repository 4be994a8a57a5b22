"""The solvers evaluate each energy from the surface of the previous
accepted evaluation instead of the input metric (a warm start).  The
energies depend only on the decorated surface, so a warm evaluation must
agree with a cold one from the input metric up to the round-off of the
flip chain between them."""

import warnings

import numpy as np
import pytest

from uniformizer import energy, surfaces
from uniformizer.delaunay import check_delaunay
from uniformizer.errors import UniformizerError
from uniformizer.optimize import (
    CONVERGED,
    kkt_check,
    minimize_conformal_energy,
    minimize_punctured_energy,
)
from uniformizer.penner import ConeAngleTarget, fiber_shift
from uniformizer.realize import uniformize_sphere

# Value and gradient of a warm evaluation against a cold one, relative to
# max(1, |value|) and to the angle scale 2 pi.
DRIFT_REL = 1e-10


def _recorded(monkeypatch, name):
    """Replace energy.<name> by a wrapper that records (surface, u, result)."""
    calls = []
    original = getattr(energy, name)

    def record(surface, problem, u):
        result = original(surface, problem, u)
        calls.append((surface, u, result))
        return result

    monkeypatch.setattr(energy, name, record)
    return calls


def _assert_no_drift(warm, cold):
    assert abs(warm.value - cold.value) <= DRIFT_REL * max(1.0,
                                                           abs(cold.value))
    assert np.array_equal(warm.free_vertices, cold.free_vertices)
    assert (np.max(np.abs(warm.gradient - cold.gradient))
            <= DRIFT_REL * 2.0 * np.pi)


def test_punctured_warm_evaluation_matches_cold(monkeypatch):
    metric = surfaces.random_sphere(100, np.random.default_rng(5))
    calls = _recorded(monkeypatch, "punctured_energy")
    report = minimize_punctured_energy(metric, 0)
    monkeypatch.undo()
    assert report.status == CONVERGED

    # The last full evaluation is at u_final, at the end of a warm chain.
    surface, _, warm = calls[-1]
    assert len(calls) > 2 and surface is not metric
    assert surface.triangulation is not metric.triangulation
    cold = energy.punctured_energy(metric, 0, report.u_final)
    _assert_no_drift(warm, cold)
    assert check_delaunay(warm.delaunay.metric, warm.delaunay.u).ok
    assert warm.surface is warm.delaunay.metric


def test_conformal_warm_evaluation_matches_cold(monkeypatch):
    # The wide-lambda torus of test_torus_with_wide_lambdas_is_solved.
    rng = np.random.default_rng(1)
    surfaces.random_sphere(20, rng)
    metric = surfaces.random_torus(20, rng, (-12.0, 12.0))
    target = ConeAngleTarget.uniform(metric.triangulation.num_vertices)
    calls = _recorded(monkeypatch, "conformal_energy")
    report = minimize_conformal_energy(metric, target)
    monkeypatch.undo()
    assert report.status == CONVERGED

    surface, u, warm = calls[-1]
    assert len(calls) > 2 and surface is not metric
    # u_final is re-centred after the last evaluation; the energy is
    # invariant under that shift.
    cold = energy.conformal_energy(metric, target, report.u_final)
    _assert_no_drift(warm, cold)
    assert check_delaunay(warm.delaunay.metric).ok

    # The warm surface is the Delaunay result with the shift taken out.
    assert warm.surface.triangulation is warm.delaunay.metric.triangulation
    assert np.allclose(fiber_shift(warm.surface, u).lam,
                       warm.delaunay.metric.lam, rtol=0.0, atol=1e-12)


def test_stalling_sphere_certifies_or_raises():
    # random_sphere(50, default_rng(1)), 5th draw: the punctured solver
    # converges on this input, but the cold re-evaluation in
    # uniformize_sphere then raises TriangleInequalityViolated (sides
    # 2.143, 6.458, 4.315): a Delaunay tie at an active bound puts a
    # degenerate triangle in the kept disk (an open defect).  Either
    # outcome below is within contract; a raw exception or a warning is
    # not, and the warm start keeps the run short.
    rng = np.random.default_rng(1)
    for _ in range(4):
        surfaces.random_sphere(50, rng)
    metric = surfaces.random_sphere(50, rng)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            real = uniformize_sphere(metric, 0)
        except UniformizerError:
            return
    assert real.report.status == CONVERGED
    assert kkt_check(metric, 0, real.report.u_final).passed


@pytest.mark.parametrize("make", [
    lambda: surfaces.random_sphere(30, np.random.default_rng(3)),
    lambda: surfaces.random_torus(12, np.random.default_rng(4)),
])
def test_warm_surface_is_exact_start(make):
    # Evaluating again from an evaluation's own surface needs no flips
    # and reproduces it.
    metric = make()
    n = metric.triangulation.num_vertices
    u = np.random.default_rng(9).uniform(-0.3, 0.3, n)
    if metric.triangulation.genus == 0:
        first = energy.punctured_energy(metric, 0, u)
        again = energy.punctured_energy(first.surface, 0, u)
    else:
        target = ConeAngleTarget.uniform(n)
        first = energy.conformal_energy(metric, target, u)
        again = energy.conformal_energy(first.surface, target, u)
    assert again.delaunay.flips == []
    _assert_no_drift(again, first)
