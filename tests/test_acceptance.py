"""End-to-end acceptance suite.

Each test prints one summary line (PASS or FAIL) for its criterion; run
with `pytest -s tests/test_acceptance.py` to see them live.  All
expected values come from independent oracles: central finite
differences, exhaustive margin scans, the euclidean cotangent predicate,
closed-form geometry of the reference surfaces, and re-solves from
distinct starting points.
"""

import itertools
import math
import time

import numpy as np
import pytest

from helpers import dense, fd_gradient, fd_hessian

from uniformizer import mesh_core, surfaces
from uniformizer.delaunay import (
    check_delaunay,
    euclidean_delaunay_crosscheck,
    make_delaunay,
    triangle_inequality_check,
)
from uniformizer.energy import (
    conformal_energy,
    conformal_energy_value,
    crossflip_c2_check,
    fixed_triangulation_energy,
    punctured_energy,
    punctured_energy_value,
    triangle_potential,
)
from uniformizer.errors import GaussBonnetViolated
from uniformizer.optimize import (
    CONVERGED,
    kkt_check,
    minimize_conformal_energy,
    minimize_punctured_energy,
)
from uniformizer.penner import ConeAngleTarget, DecoratedMetric, fiber_shift
from uniformizer.realize import (
    INSCRIBED_POLYHEDRON,
    TWO_SIDED_POLYGON,
    prescribe_cone_angles,
    uniformize_sphere,
    uniformize_torus,
)


def report(num, desc, ok):
    print("criterion %2d (%s): %s" % (num, desc, "PASS" if ok else "FAIL"))
    assert ok, "criterion %d failed: %s" % (num, desc)


def test_criterion_1_derivative_correctness():
    t0 = time.perf_counter()
    rng = np.random.default_rng(101)
    worst_grad = 0.0
    worst_hess = 0.0

    # Triangle potential at random interior points.
    checked = 0
    while checked < 100:
        x = rng.uniform(-1.0, 1.0, 3)
        l = np.exp(x)
        if max(l) >= sum(l) - max(l) - 0.05:
            continue
        checked += 1
        _, grad, hess = triangle_potential(*x)
        g_fd = fd_gradient(lambda y: triangle_potential(*y)[0], x, h=1e-5)
        worst_grad = max(worst_grad, float(np.max(np.abs(grad - g_fd))))
        h_fd = fd_hessian(lambda y: triangle_potential(*y)[1], x, h=1e-5)
        worst_hess = max(worst_hess, float(np.max(np.abs(hess - h_fd))))

    sphere = surfaces.random_sphere(10, rng, lam_range=(-1, 1))
    torus = surfaces.one_vertex_torus()

    for metric in (sphere, torus):
        n = metric.triangulation.num_vertices
        target = ConeAngleTarget.uniform(n)
        for _ in range(100):
            u = rng.uniform(-0.4, 0.4, n)
            ev = conformal_energy(metric, target, u)
            g_fd = fd_gradient(
                lambda x: conformal_energy_value(metric, target, x),
                u, h=1e-5)
            worst_grad = max(worst_grad,
                             float(np.max(np.abs(ev.gradient - g_fd))))
        for _ in range(10):
            u = rng.uniform(-0.4, 0.4, n)
            ev = conformal_energy(metric, target, u)
            h_fd = fd_hessian(
                lambda x: conformal_energy(metric, target, x).gradient,
                u, h=1e-5)
            worst_hess = max(worst_hess,
                             float(np.max(np.abs(dense(ev.hessian) - h_fd))))

    n = sphere.triangulation.num_vertices
    v_inf = 0
    free = [v for v in range(n) if v != v_inf]
    # Interior of the feasible box: u_v must stay above minus the
    # horocycle distance to the puncture, with some slack so the
    # Hessian entries remain moderate.
    from uniformizer.delaunay import horocycle_distance
    delta = np.array([horocycle_distance(sphere, v, v_inf) for v in free])
    lo = np.maximum(-0.3, 0.1 - delta)

    def draw_interior():
        return lo + rng.uniform(0.0, 0.4, len(free))

    def bar_value(uf):
        full = np.zeros(n)
        full[free] = uf
        return punctured_energy_value(sphere, v_inf, full)

    def bar_grad(uf):
        full = np.zeros(n)
        full[free] = uf
        return punctured_energy(sphere, v_inf, full).gradient

    for _ in range(100):
        uf = draw_interior()
        full = np.zeros(n)
        full[free] = uf
        ev = punctured_energy(sphere, v_inf, full)
        g_fd = fd_gradient(bar_value, uf, h=1e-6)
        worst_grad = max(worst_grad,
                         float(np.max(np.abs(ev.gradient - g_fd))))
    for _ in range(10):
        uf = draw_interior()
        full = np.zeros(n)
        full[free] = uf
        ev = punctured_energy(sphere, v_inf, full)
        # The punctured energy has larger third derivatives near the
        # walls between Delaunay cells; a smaller step keeps the
        # truncation error of the central difference in check.
        h_fd = fd_hessian(bar_grad, uf, h=1e-6)
        worst_hess = max(worst_hess,
                         float(np.max(np.abs(dense(ev.hessian) - h_fd))))

    elapsed = time.perf_counter() - t0
    ok = worst_grad < 1e-6 and worst_hess < 1e-4 and elapsed < 30.0
    report(1, "derivatives vs finite differences "
              "(grad %.2e, hess %.2e, %.1fs)"
           % (worst_grad, worst_hess, elapsed), ok)


def test_criterion_2_scaling_identities():
    rng = np.random.default_rng(102)
    worst = 0.0

    # Triangle potential: value(x + h) = value(x) + pi h.  A uniform
    # shift rescales all side lengths, so validity is preserved.
    done = 0
    while done < 10:
        x = rng.uniform(-0.5, 0.5, 3)
        l = np.exp(x)
        if max(l) >= sum(l) - max(l) - 0.05:
            continue
        done += 1
        h = rng.uniform(-2, 2)
        dev = abs(triangle_potential(*(x + h))[0]
                  - triangle_potential(*x)[0] - math.pi * h)
        worst = max(worst, dev)

    # Fixed-triangulation energy: lambda + h adds h pi (T - E + sum/2pi).
    metric = surfaces.random_torus(3, rng, lam_range=(-0.3, 0.3))
    tri = metric.triangulation
    target = ConeAngleTarget(rng.uniform(1, 7, tri.num_vertices))
    for _ in range(10):
        h = rng.uniform(-0.5, 0.5)
        shifted = DecoratedMetric(tri, metric.lam + h)
        dev = abs(fixed_triangulation_energy(shifted, target)
                  - fixed_triangulation_energy(metric, target)
                  - h * math.pi * (tri.num_triangles - tri.num_edges
                                   + float(np.sum(target.theta))
                                   / (2 * math.pi)))
        worst = max(worst, dev)

    # Conformal energy: invariant under u + h when Gauss-Bonnet holds.
    sphere = surfaces.random_sphere(8, rng, lam_range=(-1, 1))
    n = sphere.triangulation.num_vertices
    gb = ConeAngleTarget(np.full(n, 2 * math.pi * (n - 2) / n))
    for _ in range(10):
        u = rng.uniform(-0.4, 0.4, n)
        h = rng.uniform(-2, 2)
        dev = abs(conformal_energy_value(sphere, gb, u + h)
                  - conformal_energy_value(sphere, gb, u))
        worst = max(worst, dev)

    # Punctured energy: u + h adds 2 pi h.
    for _ in range(10):
        u = rng.uniform(-0.3, 0.3, n)
        h = rng.uniform(-1, 1)
        dev = abs(punctured_energy_value(sphere, 0, u + h)
                  - punctured_energy_value(sphere, 0, u)
                  - 2 * math.pi * h)
        worst = max(worst, dev)

    ok = worst < 1e-10
    report(2, "scaling identities (worst dev %.2e)" % worst, ok)


def test_criterion_3_flip_algorithm_soundness():
    t0 = time.perf_counter()
    rng = np.random.default_rng(103)
    ok = True
    for i in range(1000):
        n = int(rng.integers(1, 31))
        if i % 2 == 0:
            metric = surfaces.random_sphere(max(n, 4), rng)
        else:
            metric = surfaces.random_torus(n, rng)
        result = make_delaunay(metric)
        chk = check_delaunay(result.metric)
        rerun = make_delaunay(result.metric)
        cross = euclidean_delaunay_crosscheck(result.metric)
        if not (chk.ok and rerun.flips == []
                and triangle_inequality_check(result.metric)
                and cross.consistent):
            ok = False
            break
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 60.0
    report(3, "flip algorithm on 1000 random surfaces (%.1fs)" % elapsed,
           ok)


def _cocircularize(metric, e):
    """Return a copy of the metric with edge e made exactly cocircular
    by solving the margin equation for lambda_e, or None if the result
    leaves the triangle-inequality domain."""
    tri = metric.triangulation
    k1, k2 = tri.edge_sides[e]
    t1, s1 = divmod(k1, 3)
    t2, s2 = divmod(k2, 3)
    if t1 == t2:
        return None
    se = tri.side_edge
    la = metric.lam[se[3 * t1 + (s1 + 1) % 3]]
    lb = metric.lam[se[3 * t1 + (s1 + 2) % 3]]
    lc = metric.lam[se[3 * t2 + (s2 + 1) % 3]]
    ld = metric.lam[se[3 * t2 + (s2 + 2) % 3]]
    s = (math.exp((lb - la) / 2) + math.exp((la - lb) / 2)
         + math.exp((lc - ld) / 2) + math.exp((ld - lc) / 2))
    t = math.exp(-(la + lb) / 2) + math.exp(-(lc + ld) / 2)
    lam = metric.lam.copy()
    lam[e] = math.log(s / t)
    out = DecoratedMetric(tri, lam)
    if not triangle_inequality_check(out):
        return None
    flipped = mesh_core.flip_edge(tri, e)
    from uniformizer.penner import ptolemy_update
    lam2 = lam.copy()
    lam2[e] = ptolemy_update(la, lb, lc, ld, lam[e])
    if not triangle_inequality_check(DecoratedMetric(flipped, lam2)):
        return None
    return out


def test_criterion_4_c2_across_cells():
    rng = np.random.default_rng(104)
    instances = []
    # The square torus diagonal, also under conformal rescales that are
    # re-cocircularized afterwards.
    instances.append((surfaces.square_torus(), 2, ConeAngleTarget.uniform(1)))
    while len(instances) < 20:
        metric = make_delaunay(
            surfaces.random_sphere(int(rng.integers(4, 7)), rng,
                                   lam_range=(-1, 1))).metric
        n = metric.triangulation.num_vertices
        e = int(rng.integers(metric.triangulation.num_edges))
        cocirc = _cocircularize(metric, e)
        if cocirc is None:
            continue
        target = ConeAngleTarget(rng.uniform(1, 7, n))
        instances.append((cocirc, e, target))

    worst_val = worst_grad = worst_hess = 0.0
    best_third = 0.0
    for metric, e, target in instances:
        rep = crossflip_c2_check(metric, target, e)
        worst_val = max(worst_val, rep.value_dev)
        worst_grad = max(worst_grad, rep.grad_dev)
        worst_hess = max(worst_hess, rep.hess_dev)
        best_third = max(best_third, rep.third_dev)
    ok = (worst_val < 1e-10 and worst_grad < 1e-7 and worst_hess < 1e-5
          and best_third > 1e-3)
    report(4, "C2 across flips on %d cocircular instances "
              "(val %.1e, grad %.1e, hess %.1e, third %.1e)"
           % (len(instances), worst_val, worst_grad, worst_hess,
              best_third), ok)


def test_criterion_5_sphere_uniformization():
    def cross_ratio(p, q, r, s):
        d = np.linalg.norm
        return (d(p - r) * d(q - s)) / (d(p - s) * d(q - r))

    t0 = time.perf_counter()
    tetra = uniformize_sphere(surfaces.tetrahedron_sphere(), 0)
    t_tetra = time.perf_counter() - t0
    pts = [tetra.vertex_positions[v] for v in range(4)]
    cr_dev = max(abs(cross_ratio(*perm) - 1.0)
                 for perm in itertools.permutations(pts, 4))
    ok_tetra = (tetra.kind == INSCRIBED_POLYHEDRON and cr_dev < 1e-7
                and t_tetra < 5.0)

    t0 = time.perf_counter()
    octa = uniformize_sphere(surfaces.octahedron_sphere(), 0)
    t_octa = time.perf_counter() - t0
    ok_octa = (octa.kind == INSCRIBED_POLYHEDRON
               and octa.diagnostics["on_sphere"] < 1e-9
               and octa.diagnostics["planarity"] < 1e-8
               and octa.diagnostics["convexity_margin"] >= -1e-8
               and t_octa < 5.0)

    t0 = time.perf_counter()
    degen = uniformize_sphere(surfaces.three_vertex_sphere(), 0)
    t_degen = time.perf_counter() - t0
    ok_degen = degen.kind == TWO_SIDED_POLYGON and t_degen < 5.0

    ok = ok_tetra and ok_octa and ok_degen
    report(5, "sphere pipeline (tetra cr dev %.1e, octa certified %s, "
              "degenerate %s)" % (cr_dev, ok_octa, ok_degen), ok)


def test_criterion_6_uniqueness_up_to_gauge():
    rng = np.random.default_rng(106)
    worst = 0.0
    for _ in range(10):
        metric = surfaces.random_torus(int(rng.integers(1, 6)), rng,
                                       lam_range=(-1, 1))
        n = metric.triangulation.num_vertices
        target = ConeAngleTarget.uniform(n)
        r1 = minimize_conformal_energy(metric, target)
        r2 = minimize_conformal_energy(metric, target,
                                       u0=rng.uniform(-1, 1, n))
        d = r1.u_final - r2.u_final
        d -= d.mean()
        worst = max(worst, float(np.max(np.abs(d))))
    for _ in range(10):
        metric = surfaces.random_sphere(int(rng.integers(4, 12)), rng)
        n = metric.triangulation.num_vertices
        v_inf = int(rng.integers(n))
        free = [v for v in range(n) if v != v_inf]
        r1 = minimize_punctured_energy(metric, v_inf)
        r2 = minimize_punctured_energy(metric, v_inf, u0=np.ones(n))
        worst = max(worst, float(np.max(np.abs(r1.u_final[free]
                                               - r2.u_final[free]))))
    ok = worst < 1e-6
    report(6, "uniqueness from distinct starts on 20 instances "
              "(worst %.1e)" % worst, ok)


def test_criterion_7_torus_uniformization():
    square = uniformize_torus(surfaces.square_torus())
    dev_square = abs(square.tau - 1j)
    rng = np.random.default_rng(107)
    refined = uniformize_torus(surfaces.square_torus_refined(rng=rng))
    dev_refined = abs(refined.tau - 1j)
    ok = dev_square < 1e-8 and dev_refined < 1e-6
    report(7, "torus moduli (square %.1e, refined %.1e)"
           % (dev_square, dev_refined), ok)


def test_criterion_8_prescribed_cone_angles():
    rng = np.random.default_rng(108)
    worst = 0.0
    cases = [
        surfaces.random_sphere(8, rng, lam_range=(-1, 1)),
        surfaces.random_torus(4, rng, lam_range=(-1, 1)),
        surfaces.genus2_one_vertex(rng.uniform(-0.5, 0.5, 9)),
    ]
    for metric in cases:
        tri = metric.triangulation
        n = tri.num_vertices
        theta = rng.uniform(0.5, 2.0, n)
        theta *= 2 * math.pi * (2 * tri.genus - 2 + n) / theta.sum()
        real = prescribe_cone_angles(metric, ConeAngleTarget(theta))
        worst = max(worst, real.diagnostics["max_angle_error"])
    rejected = False
    try:
        bad = ConeAngleTarget([6 * math.pi + 0.1])
        prescribe_cone_angles(surfaces.genus2_one_vertex(), bad)
    except GaussBonnetViolated:
        rejected = True
    ok = worst <= 1e-8 and rejected
    report(8, "prescribed cone angles genus 0/1/2 (worst %.1e, "
              "violation rejected %s)" % (worst, rejected), ok)


def test_criterion_9_kkt_certification():
    rng = np.random.default_rng(109)
    ok = True
    for _ in range(8):
        metric = surfaces.random_sphere(int(rng.integers(4, 15)), rng)
        n = metric.triangulation.num_vertices
        v_inf = int(rng.integers(n))
        rep = minimize_punctured_energy(metric, v_inf)
        if rep.status != CONVERGED:
            ok = False
            break
        check = kkt_check(metric, v_inf, rep.u_final)
        if not (check.passed and check.active_set
                and check.stationarity <= 1e-8
                and check.feasibility <= 1e-8
                and check.complementarity <= 1e-8):
            ok = False
            break
    report(9, "KKT certification of every constrained solve", ok)


def test_criterion_10_performance():
    rng = np.random.default_rng(110)
    metric = surfaces.random_sphere(100, rng)
    t0 = time.perf_counter()
    real = uniformize_sphere(metric, 0)
    elapsed = time.perf_counter() - t0
    iters = real.report.iterations
    ok = (elapsed < 10.0 and iters <= 50
          and real.kind in (INSCRIBED_POLYHEDRON, TWO_SIDED_POLYGON))
    report(10, "100-vertex sphere pipeline (%.1fs, %d Newton iterations)"
           % (elapsed, iters), ok)
