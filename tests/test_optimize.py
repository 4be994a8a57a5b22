"""Tests for the Newton solvers and the KKT verifier.

The octahedron minimizer is known in closed form by symmetry: the four
vertices adjacent to the distinguished one sit at their bounds (0) and
the antipodal vertex takes u = -log 2, which makes the bottom pyramid
faces flat squares.
"""

import math
import time

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st

from uniformizer import energy, mesh_core, optimize, realize, surfaces
from uniformizer.delaunay import horocycle_distances_to
from uniformizer.errors import (
    GaussBonnetViolated,
    IterLimit,
    LineSearchFailure,
    OutOfDomain,
    UnknownVertex,
    WrongGenus,
    WrongLength,
)
from uniformizer.optimize import (
    CONVERGED,
    LINE_SEARCH_FAILURE,
    SolveOptions,
    _bounds,
    _solve_spd,
    gauss_bonnet_defect,
    kkt_check,
    minimize_conformal_energy,
    minimize_punctured_energy,
)
from uniformizer.penner import ConeAngleTarget, DecoratedMetric


def test_solve_options_validation():
    for bad in ({"gradient_tolerance": 0.0}, {"gradient_tolerance": math.nan},
                {"max_iterations": 0}, {"max_iterations": 2.5},
                {"max_iterations": "500"}, {"gradient_tolerance": "a"},
                {"gradient_tolerance": None}, {"gradient_tolerance": True},
                {"max_iterations": True}, {"max_iterations": np.bool_(True)},
                {"gradient_tolerance": math.inf},
                {"gradient_tolerance": np.float64(np.inf)}):
        with pytest.raises(OutOfDomain):
            SolveOptions(**bad)
    with pytest.raises(OutOfDomain, match="integer limit must be > 0"):
        SolveOptions(1e-9, 2.5)
    opts = SolveOptions(np.float64(1e-9), np.int64(3))
    assert (opts.gradient_tolerance, opts.max_iterations) == (1e-9, 3)


# The octahedron with equal cone angles 4 pi / 3, which meet
# Gauss-Bonnet, so the conformal solve gets as far as evaluating u0.
OCTAHEDRON_TARGET = ConeAngleTarget(np.full(6, 4.0 * math.pi / 3.0))


@pytest.mark.parametrize("length", [5, 7], ids=["short", "long"])
@pytest.mark.parametrize("call", [
    lambda m, u: energy.conformal_energy(m, OCTAHEDRON_TARGET, u),
    lambda m, u: energy.punctured_energy(m, 0, u),
    lambda m, u: kkt_check(m, OCTAHEDRON_TARGET, u),
    lambda m, u: kkt_check(m, 0, u),
    lambda m, u: minimize_conformal_energy(m, OCTAHEDRON_TARGET, u0=u),
    lambda m, u: minimize_punctured_energy(m, 0, u0=u),
], ids=["conformal_energy", "punctured_energy", "kkt_check_conformal",
        "kkt_check_punctured", "minimize_conformal_energy",
        "minimize_punctured_energy"])
def test_u_of_wrong_length_rejected(call, length):
    with pytest.raises(WrongLength) as err:
        call(surfaces.octahedron_sphere(), np.zeros(length))
    assert isinstance(err.value, ValueError)
    assert "for 6 vertices" in str(err.value)


@pytest.mark.parametrize("value", [math.nan, -math.inf],
                         ids=["nan", "minus_inf"])
@pytest.mark.parametrize("call", [
    lambda m, u: energy.conformal_energy(m, OCTAHEDRON_TARGET, u),
    lambda m, u: energy.punctured_energy(m, 0, u),
    lambda m, u: kkt_check(m, OCTAHEDRON_TARGET, u),
    lambda m, u: kkt_check(m, 0, u),
    lambda m, u: minimize_conformal_energy(m, OCTAHEDRON_TARGET, u0=u),
    lambda m, u: minimize_punctured_energy(m, 0, u0=u),
], ids=["conformal_energy", "punctured_energy", "kkt_check_conformal",
        "kkt_check_punctured", "minimize_conformal_energy",
        "minimize_punctured_energy"])
def test_u_out_of_domain_rejected(call, value):
    u = np.zeros(6)
    u[2] = value
    with pytest.raises(OutOfDomain) as err:
        call(surfaces.octahedron_sphere(), u)
    assert isinstance(err.value, ValueError)


@pytest.mark.parametrize("call", [
    lambda m, t: realize.prescribe_cone_angles(m, t).theta_tilde,
    lambda m, t: minimize_conformal_energy(m, t).u_final,
    lambda m, t: energy.conformal_energy(m, t, np.zeros(6)).gradient,
    lambda m, t: energy.fixed_triangulation_energy(m, t),
], ids=["prescribe_cone_angles", "minimize_conformal_energy",
        "conformal_energy", "fixed_triangulation_energy"])
def test_cone_target_may_be_an_array(call):
    # An array is wrapped as a ConeAngleTarget: the same result, and
    # OutOfDomain (not AttributeError) for NaN and -inf angles.
    metric = surfaces.octahedron_sphere()
    theta = OCTAHEDRON_TARGET.theta.copy()
    expect = call(metric, OCTAHEDRON_TARGET)
    assert np.array_equal(call(metric, theta), expect)
    assert np.array_equal(call(metric, list(theta)), expect)
    for value in (math.nan, -math.inf):
        theta[2] = value
        with pytest.raises(OutOfDomain):
            call(metric, theta)


def test_bounds_match_the_distance_dict():
    # Oracle: the free vertices in id order, each bound read off the
    # dict of horocycle distances one vertex at a time.
    rng = np.random.default_rng(21)
    for n in (4, 9, 40):
        metric = surfaces.random_sphere(n, rng)
        for v_inf in (0, n // 2, n - 1):
            deltas = horocycle_distances_to(metric, v_inf)
            free = np.array([v for v in range(n) if v != v_inf])
            free_new, lower = _bounds(metric, v_inf)
            assert free_new.dtype == free.dtype
            assert free_new.tolist() == free.tolist()
            assert lower.tobytes() == np.array(
                [-deltas[v] for v in free]).tobytes()


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


def _target_off_by(metric, offset):
    """Equal cone angles that meet Gauss-Bonnet, the first one moved by
    offset."""
    tri = metric.triangulation
    n = tri.num_vertices
    theta = np.full(n, 2.0 * math.pi * (2 * tri.genus - 2 + n) / n)
    theta[0] += offset
    return ConeAngleTarget(theta)


@pytest.mark.parametrize("make", [
    surfaces.octahedron_sphere, surfaces.square_torus_refined,
    lambda: surfaces.random_torus(200, np.random.default_rng(7), (-1, 1)),
], ids=["octahedron", "square_torus_refined", "random_torus_200"])
def test_target_off_gauss_bonnet_rejected_before_any_evaluation(
        make, monkeypatch):
    # The pinned vertex carries the whole defect as gradient, so a target
    # off by more than the gradient tolerance (but not by more than
    # GAUSS_BONNET_TOL) could only run to IterLimit.
    metric = make()
    target = _target_off_by(metric, 2e-9)
    evaluated = []
    monkeypatch.setattr(energy, "conformal_energy",
                        lambda *args: evaluated.append(args))
    with pytest.raises(GaussBonnetViolated) as err:
        minimize_conformal_energy(metric, target)
    assert str(err.value) == ("angle sum misses Gauss-Bonnet by %g "
                              "(bound 1e-10)"
                              % gauss_bonnet_defect(metric, target))
    assert evaluated == []


def test_gauss_bonnet_bound_is_the_tighter_of_the_two():
    metric = surfaces.octahedron_sphere()
    target = _target_off_by(metric, 5e-11)
    assert minimize_conformal_energy(metric, target).status == CONVERGED
    with pytest.raises(GaussBonnetViolated, match=r"\(bound 1e-11\)"):
        minimize_conformal_energy(metric, target, SolveOptions(1e-11))
    with pytest.raises(GaussBonnetViolated, match=r"\(bound 1e-08\)"):
        minimize_conformal_energy(metric, _target_off_by(metric, 2e-8),
                                  SolveOptions(1e-6))


def test_conformal_solve_evaluates_once_before_its_first_step(monkeypatch):
    calls = []
    evaluate, solve = energy._evaluate, optimize._solve_spd

    def counted_evaluate(*args):
        calls.append("evaluate")
        return evaluate(*args)

    def counted_solve(*args):
        calls.append("solve")
        return solve(*args)

    monkeypatch.setattr(energy, "_evaluate", counted_evaluate)
    monkeypatch.setattr(optimize, "_solve_spd", counted_solve)
    metric = surfaces.random_torus(20, np.random.default_rng(3))
    target = ConeAngleTarget.uniform(metric.triangulation.num_vertices)
    report = minimize_conformal_energy(metric, target)
    assert report.status == CONVERGED and report.iterations > 0
    assert calls.index("solve") == 1
    assert calls.count("solve") == report.iterations


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


@pytest.mark.parametrize("make, n", [
    (surfaces.random_torus, 50), (surfaces.random_genus2, 30)],
    ids=["torus", "genus2"])
def test_conformal_solve_ignores_a_constant_in_its_start(make, n):
    # Under Gauss-Bonnet the conformal energy does not change when a
    # constant is added to u, and the pinned vertex is the solve's one
    # gauge: a start shifted by 3 takes the same steps, up to rounding,
    # to the same zero-mean u.
    metric = make(n, np.random.default_rng(3), (-1, 1))
    target = _target_off_by(metric, 0.0)
    u0 = np.zeros(n)
    r1 = minimize_conformal_energy(metric, target, u0=u0)
    r2 = minimize_conformal_energy(metric, target, u0=u0 + 3.0)
    assert r1.status == r2.status == CONVERGED
    assert (r1.iterations, r1.flips_total) == (r2.iterations, r2.flips_total)
    for report in (r1, r2):
        assert abs(report.u_final.mean()) <= 1e-14
    assert np.max(np.abs(r1.u_final - r2.u_final)) <= 1e-12


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


@pytest.mark.parametrize("v_inf", [1.5, "1", "x", None, True, -1, 6])
def test_kkt_check_rejects_what_is_not_a_vertex_id(v_inf):
    # int() would truncate 1.5 and parse "1", certifying vertex 1.
    metric = surfaces.octahedron_sphere()
    u = minimize_punctured_energy(metric, 1).u_final
    assert kkt_check(metric, 1, u).passed
    with pytest.raises(UnknownVertex):
        kkt_check(metric, v_inf, u)


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


def test_stalled_line_search_fails_fast():
    # From some iteration on, the sufficient-decrease test on this input
    # accepts tiny steps that leave the energy unchanged; without a stop
    # the solver spends 475 such iterations and about 15 s before
    # IterLimit.
    rng = np.random.default_rng(2)
    for _ in range(6):
        metric = surfaces.random_sphere(30, rng, (-6.0, 6.0))
    t0 = time.perf_counter()
    with pytest.raises(LineSearchFailure) as info:
        minimize_punctured_energy(metric, 0)
    assert time.perf_counter() - t0 < 1.0
    assert info.value.report.status == LINE_SEARCH_FAILURE
    assert "no decrease" in str(info.value)


def test_solve_spd_zero_hessian_falls_back_to_finite_step():
    # spsolve answers a singular system with NaN; the Tikhonov fallback
    # must turn that into a finite, flagged step.
    rhs = np.array([1.0, -2.0, 0.5])
    x, shifted = _solve_spd(sp.csr_matrix((3, 3)), rhs)
    assert shifted
    assert np.all(np.isfinite(x))
    assert float(x @ rhs) > 0.0


def test_untested_step_that_raises_the_energy_fails_fast():
    # Near its end the predicted decrease on this input falls below the
    # rounding noise, so steps are taken without a test; one of them
    # releases a bound variable and raises f by about 1e-7, and the next
    # step is cut back to the previous point by the ratio test.  Without
    # a test of the rise the solver repeats this 2-cycle for 500
    # iterations (about 1.2 s) and ends in IterLimit.
    rng = np.random.default_rng(59)
    for _ in range(9):
        metric = surfaces.random_sphere(100, rng)
    t0 = time.perf_counter()
    with pytest.raises(LineSearchFailure) as info:
        minimize_punctured_energy(metric, 0)
    assert time.perf_counter() - t0 < 1.0
    assert info.value.report.status == LINE_SEARCH_FAILURE
    assert info.value.report.iterations < 50


def _laplacian(tri, rng):
    """A graph Laplacian of tri's edges with random positive weights."""
    a, b = tri.edge_verts.T
    w = rng.uniform(0.1, 10.0, len(a))
    n = tri.num_vertices
    return sp.coo_matrix((np.concatenate([-w, -w, w, w]),
                          (np.concatenate([a, b, a, b]),
                           np.concatenate([b, a, a, b]))),
                         shape=(n, n)).tocsr()


@pytest.mark.parametrize("make", [surfaces.random_sphere,
                                  surfaces.random_torus])
@pytest.mark.parametrize("n", [5, 40, 200])
def test_solve_spd_matches_dense_solve(make, n):
    # One vertex pinned, a connected graph's Laplacian is SPD.
    for seed in range(4):
        rng = np.random.default_rng(seed)
        laplacian = _laplacian(make(n, rng).triangulation, rng)
        hessian = laplacian[1:, 1:]
        rhs = rng.normal(size=hessian.shape[0])
        x, shifted = _solve_spd(hessian, rhs)
        dense = np.linalg.solve(hessian.toarray(), rhs)
        assert not shifted
        assert np.linalg.norm(x - dense) <= 1e-12 * np.linalg.norm(dense)


def test_solve_spd_singular_hessian_takes_the_shift():
    # A vertex with no triangles left has an empty row and column: the
    # factor is exactly singular, and the shifted system is solved.
    rng = np.random.default_rng(5)
    hessian = _laplacian(surfaces.random_sphere(12, rng).triangulation,
                         rng).tolil()
    hessian[3, :] = 0.0
    hessian[:, 3] = 0.0
    rhs = rng.normal(size=12)
    x, shifted = _solve_spd(hessian.tocsr(), rhs)
    assert shifted
    assert np.all(np.isfinite(x))
    assert float(x @ rhs) > 0.0


def test_solve_spd_unfactorable_hessian_takes_the_gradient_step():
    # NaN entries leave the shifted factor singular too; the step is the
    # right-hand side itself.
    rhs = np.array([1.0, -2.0, 0.5])
    hessian = sp.csr_matrix(np.diag([np.nan, 1.0, 2.0]))
    x, shifted = _solve_spd(hessian, rhs)
    assert shifted
    assert np.array_equal(x, rhs)


def test_solve_spd_empty_hessian():
    x, shifted = _solve_spd(sp.csr_matrix((0, 0)), np.zeros(0))
    assert x.shape == (0,) and not shifted


@settings(max_examples=80, deadline=None)
@given(genus=st.sampled_from([0, 1]), n=st.integers(3, 40),
       seed=st.integers(0, 2 ** 16),
       kind=st.sampled_from(["empty", "full", "random"]))
def test_hessian_block_is_the_principal_submatrix(genus, n, seed, kind):
    # The Hessians of both energies at random points.  The block is the
    # kept rows read as columns, so it is the transpose of scipy's
    # slice bit for bit, and the slice itself wherever H is bitwise
    # symmetric.
    rng = np.random.default_rng(seed)
    if genus == 0:
        metric = surfaces.random_sphere(max(n, 4), rng)
        nv = metric.triangulation.num_vertices
        ev = energy.punctured_energy(metric, 0, rng.uniform(-0.3, 0.3, nv))
    else:
        metric = surfaces.random_torus(n, rng)
        nv = metric.triangulation.num_vertices
        ev = energy.conformal_energy(metric, ConeAngleTarget.uniform(nv),
                                     rng.uniform(-0.3, 0.3, nv))
    hessian = ev.hessian
    m = hessian.shape[0]
    keep = {"empty": np.zeros(m, dtype=bool), "full": np.ones(m, dtype=bool),
            "random": rng.random(m) < rng.uniform(0.2, 0.9)}[kind]
    got = ev.hessian_block(keep)
    assert got.format == "csc" and got.has_canonical_format
    wants = [hessian[keep][:, keep].T]
    if (hessian != hessian.T).nnz == 0:
        wants.append(sp.csc_matrix(hessian[keep][:, keep]))
    for want in wants:
        assert want.format == "csc" and got.shape == want.shape
        assert got.data.tobytes() == want.data.tobytes()
        assert np.array_equal(got.indices, want.indices)
        assert np.array_equal(got.indptr, want.indptr)


def _count_hessians(monkeypatch):
    built = []
    hessian = energy._hessian

    def counted(*args):
        built.append(1)
        return hessian(*args)

    monkeypatch.setattr(energy, "_hessian", counted)
    return built


def test_converged_iterate_and_kkt_check_build_no_hessian(monkeypatch):
    # One Hessian per Newton step; the converged iterate and kkt_check
    # read the gradient alone.
    built = _count_hessians(monkeypatch)
    metric = surfaces.random_sphere(30, np.random.default_rng(2))
    report = minimize_punctured_energy(metric, 0)
    assert report.status == CONVERGED and report.iterations > 0
    assert len(built) == report.iterations
    assert kkt_check(metric, 0, report.u_final).passed
    assert len(built) == report.iterations

    del built[:]
    metric = surfaces.random_torus(20, np.random.default_rng(3))
    target = ConeAngleTarget.uniform(metric.triangulation.num_vertices)
    report = minimize_conformal_energy(metric, target)
    assert report.status == CONVERGED and report.iterations > 0
    assert len(built) == report.iterations
    assert kkt_check(metric, target, report.u_final).passed
    assert len(built) == report.iterations


def test_conformal_solve_evaluates_its_start_once(monkeypatch):
    # The evaluation at u0 is Newton's first iterate, and the converged
    # report carries the evaluation at the optimum.
    starts = []
    conformal = energy.conformal_energy

    def counted(metric, target, u):
        ev = conformal(metric, target, u)
        if np.array_equal(u, u0):
            starts.append(ev)
        return ev

    monkeypatch.setattr(energy, "conformal_energy", counted)
    metric = surfaces.random_torus(20, np.random.default_rng(3))
    target = ConeAngleTarget.uniform(metric.triangulation.num_vertices)
    for u0 in (np.zeros(20), np.random.default_rng(4).uniform(-1, 1, 20)):
        del starts[:]
        report = minimize_conformal_energy(metric, target, u0=u0)
        assert report.status == CONVERGED and report.iterations > 0
        assert len(starts) == 1
        ev = report.evaluation
        assert ev.value == report.energy
        assert ev.theta_tilde is report.theta_tilde
        np.testing.assert_allclose(ev.theta_tilde, 2.0 * math.pi, atol=1e-8)


def test_failed_solve_carries_no_evaluation():
    metric = surfaces.random_sphere(12, np.random.default_rng(65))
    with pytest.raises(IterLimit) as info:
        minimize_punctured_energy(metric, 0, SolveOptions(max_iterations=1))
    assert info.value.report.evaluation is None
    assert minimize_punctured_energy(metric, 0).evaluation is not None
