"""Tests for the geometric back-ends: inscribed polyhedra, two-sided
polygons, flat tori, and cone metrics."""

import cmath
import itertools
import math
import re
import types
import warnings
from collections import Counter

import numpy as np
import pytest

from helpers import CUBE_QUADS, boundary_vertices, cube_sphere
from uniformizer import energy, mesh_core, penner, realize, surfaces
from uniformizer.energy import punctured_energy
from uniformizer.errors import (
    GaussBonnetViolated,
    LayoutInconsistent,
    NotRealizable,
    UnknownVertex,
    WrongGenus,
    WrongKind,
    WrongLength,
)
from uniformizer.optimize import minimize_punctured_energy
from uniformizer.penner import ConeAngleTarget, DecoratedMetric
from uniformizer.realize import (
    FLAT_TORUS,
    INSCRIBED_POLYHEDRON,
    TWO_SIDED_POLYGON,
    _reduce_basis,
    classify_realizable,
    prescribe_cone_angles,
    two_sided_polygon,
    uniformize_sphere,
    uniformize_torus,
)


def abs_cross_ratio(p, q, r, s):
    """Absolute cross ratio of four points on the unit sphere, using
    chordal distances (Moebius invariant)."""
    d = np.linalg.norm
    return (d(p - r) * d(q - s)) / (d(p - s) * d(q - r))


def test_tetrahedron_regular_cross_ratios():
    metric = surfaces.tetrahedron_sphere()
    real = uniformize_sphere(metric, 0)
    assert real.kind == INSCRIBED_POLYHEDRON
    pts = [real.vertex_positions[v] for v in range(4)]
    # The regular ideal tetrahedron has all six absolute cross ratios 1.
    for p, q, r, s in itertools.permutations(pts, 4):
        assert abs_cross_ratio(p, q, r, s) == pytest.approx(1.0, abs=1e-7)
    assert len(real.faces) == 4


def test_octahedron_certified_polyhedron():
    metric = surfaces.octahedron_sphere()
    real = uniformize_sphere(metric, 0)
    assert real.kind == INSCRIBED_POLYHEDRON
    diag = real.diagnostics
    assert diag["on_sphere"] < 1e-9
    assert diag["planarity"] < 1e-8
    assert diag["convexity_margin"] >= -1e-8
    assert len(real.faces) == 8
    assert all(len(f) == 3 for f in real.faces)
    assert len(real.vertex_positions) == 6


def test_three_vertex_sphere_two_sided():
    metric = surfaces.three_vertex_sphere()
    real = uniformize_sphere(metric, 0)
    assert real.kind == TWO_SIDED_POLYGON
    assert len(real.faces) == 2
    assert sorted(real.faces[0]) == [0, 1, 2]
    for p in real.vertex_positions.values():
        assert np.linalg.norm(p) == pytest.approx(1.0, abs=1e-12)


def test_classify_rejects_tampered_angles():
    metric = surfaces.octahedron_sphere()
    u = minimize_punctured_energy(metric, 0).u_final
    result = punctured_energy(metric, 0, u).delaunay
    # Tamper with the base lambda so an interior angle sum moves off 2 pi.
    bad_lam = result.metric.lam.copy()
    rtri = result.metric.triangulation
    for e, (a, b) in enumerate(rtri.edge_verts):
        if 0 not in (a, b):
            bad_lam[e] += 0.3
            break
    ev = punctured_energy(DecoratedMetric(rtri, bad_lam), 0, u)
    with pytest.raises(NotRealizable) as err:
        classify_realizable(ev)
    found = re.fullmatch(
        r"interior vertex (\d+) has angle sum (\S+) != 2 pi", str(err.value))
    assert found
    assert float(found[2]) == pytest.approx(ev.theta_tilde[int(found[1])],
                                            abs=1e-9)
    assert abs(float(found[2]) - 2.0 * math.pi) > 0.1


def test_classify_rejects_boundary_angle_sum_over_pi():
    metric = surfaces.octahedron_sphere()
    u = minimize_punctured_energy(metric, 0).u_final
    result = punctured_energy(metric, 0, u).delaunay
    rtri = result.metric.triangulation
    sub = mesh_core.subcomplex_avoiding(rtri, 0)
    b = min(boundary_vertices(sub))
    # Lengthen the sides opposite b in its kept triangles, within the
    # triangle inequality, so that each angle at b passes pi / 2.
    bad_lam = result.metric.lam.copy()
    for k in np.flatnonzero(rtri.corner_vertex == b).tolist():
        if sub.triangle_mask[k // 3]:
            bad_lam[rtri.side_edge[mesh_core._next(k)]] += 1.3
    ev = punctured_energy(DecoratedMetric(rtri, bad_lam), 0, u)
    assert ev.delaunay.flips
    # The law-of-cosines angle sum at b on the evaluated triangulation.
    etri = ev.delaunay.metric.triangulation
    lengths = np.exp((ev.delaunay.metric.lam
                      + ev.delaunay.u.u[etri.edge_verts].sum(axis=1)) / 2.0)
    angle_sum = 0.0
    for k in np.flatnonzero(etri.corner_vertex == b).tolist():
        if ev.subcomplex.triangle_mask[k // 3]:
            # Side k starts at b, the next side is opposite b.
            c, opp, d = lengths[etri.side_edge[
                [k, mesh_core._next(k), mesh_core._prev(k)]]]
            angle_sum += math.acos((c * c + d * d - opp * opp) / (2 * c * d))
    assert angle_sum > math.pi
    with pytest.raises(NotRealizable) as err:
        classify_realizable(ev)
    found = re.fullmatch(r"boundary vertex (\d+) has angle sum (\S+) > pi",
                         str(err.value))
    assert found and int(found[1]) == b
    assert float(found[2]) == pytest.approx(angle_sum, abs=1e-9)


def test_sphere_realization_builds_no_subcomplex_and_no_angle(monkeypatch):
    # After the solve, realize reads the disk, its angles and its angle
    # sums off the final evaluation: no subcomplex is built and no
    # triangle angle is computed.  uniformize_sphere and layout_disk
    # both read the subcomplex's cached classification, so it is found
    # once, and only layout_disk runs the angle-sum check of
    # classify_realizable.
    calls = Counter()
    solved = []

    def counted(name, fn):
        def wrapped(*args):
            if solved:
                calls[name] += 1
            return fn(*args)
        return wrapped

    def solve(*args):
        report = minimize_punctured_energy(*args)
        solved.append(True)
        return report

    for name in ("subcomplex_avoiding", "classify_subcomplex"):
        monkeypatch.setattr(mesh_core, name,
                            counted(name, getattr(mesh_core, name)))
    monkeypatch.setattr(realize, "classify_realizable",
                        counted("classify_realizable",
                                realize.classify_realizable))
    monkeypatch.setattr(energy, "_side_angles",
                        counted("_side_angles", energy._side_angles))
    monkeypatch.setattr(realize._optimize, "minimize_punctured_energy",
                        solve)
    real = uniformize_sphere(surfaces.octahedron_sphere(), 0)
    assert real.kind == INSCRIBED_POLYHEDRON
    assert solved
    assert calls == {"classify_subcomplex": 1, "classify_realizable": 1}


def test_sphere_steps_reject_a_conformal_evaluation():
    # Only the punctured energy has a subcomplex (and so a v_inf) to read.
    ev = energy.conformal_energy(
        surfaces.octahedron_sphere(),
        ConeAngleTarget(np.full(6, 4.0 * math.pi / 3.0)), np.zeros(6))
    for step in (classify_realizable, realize.layout_disk,
                 two_sided_polygon):
        with pytest.raises(WrongKind):
            step(ev)


def test_merged_bottom_faces_match_pairwise_merging():
    # Oracle: merge the kept triangles pairwise across each nonessential
    # edge, for random edge sets that include edges at v_inf.
    rng = np.random.default_rng(6)
    for _ in range(20):
        tri = surfaces.random_sphere(12, rng).triangulation
        v_inf = int(rng.integers(tri.num_vertices))
        sub = mesh_core.subcomplex_avoiding(tri, v_inf)
        ness = set(rng.choice(tri.num_edges, tri.num_edges // 2,
                              replace=False).tolist())
        groups = [{t} for t in np.flatnonzero(sub.triangle_mask).tolist()]
        for e in ness:
            t1, t2 = (tri.edge_sides[e] // 3).tolist()
            g1 = next((g for g in groups if t1 in g), None)
            g2 = next((g for g in groups if t2 in g), None)
            if g1 is not None and g2 is not None and g1 is not g2:
                g1 |= g2
                groups.remove(g2)
        result = types.SimpleNamespace(
            metric=types.SimpleNamespace(triangulation=tri),
            nonessential_edges=ness)
        face = realize._merged_bottom_faces(result, sub)
        merged = [np.flatnonzero(face == f).tolist()
                  for f in range(face.max() + 1)]
        assert merged == sorted(map(sorted, groups))
        assert (face[sub.triangle_mask] >= 0).all()
        assert np.count_nonzero(face >= 0) \
            == np.count_nonzero(sub.triangle_mask)


def test_cube_faces_merge_across_nonessential_diagonals():
    metric, labels = cube_sphere()
    real = uniformize_sphere(metric, 0)
    assert real.kind == INSCRIBED_POLYHEDRON
    assert sorted(sorted(labels[v] for v in f) for f in real.faces) \
        == sorted(map(sorted, CUBE_QUADS))
    # The three squares of the disk come first, ordered by their smallest
    # triangle; the three at vertex 0 follow.
    bottom = real.faces[:3]
    assert all(0 not in f for f in bottom)
    assert all(0 in f for f in real.faces[3:])
    cv = real.delaunay.metric.triangulation.corner_vertex.reshape(-1, 3)
    smallest = [min(t for t, c in enumerate(cv.tolist()) if set(c) <= set(f))
                for f in bottom]
    assert smallest == sorted(smallest)


def test_two_sided_polygon_orders_a_long_path():
    # The sphere doubled from the polygon 0, 1, ..., k fanned from 0, with
    # its triangles in shuffled slots: every triangle has a corner at 0,
    # so the cells avoiding 0 are the path 1, ..., k.
    k = 7
    slot = np.random.default_rng(5).permutation(2 * (k - 1)).tolist()
    top = {i: slot[i - 1] for i in range(1, k)}        # (0, i, i + 1)
    bottom = {i: slot[k + i - 2] for i in range(1, k)}  # (0, i + 1, i)
    gluing = [((top[1], 0), (bottom[1], 2)),
              ((top[k - 1], 2), (bottom[k - 1], 0))]
    for i in range(1, k):
        gluing.append(((top[i], 1), (bottom[i], 1)))
        if i < k - 1:
            gluing.append(((top[i], 2), (top[i + 1], 0)))
            gluing.append(((bottom[i], 0), (bottom[i + 1], 2)))
    tri = mesh_core.build_from_gluings(gluing, genus_hint=0)
    cv = tri.corner_vertex.tolist()
    label = [cv[3 * top[1]]] + [cv[3 * top[i] + 1] for i in range(1, k)] \
        + [cv[3 * top[k - 1] + 2]]
    path = label[1:] if label[1] < label[k] else label[:0:-1]
    ev = types.SimpleNamespace(
        delaunay=types.SimpleNamespace(
            metric=types.SimpleNamespace(triangulation=tri)),
        subcomplex=mesh_core.subcomplex_avoiding(tri, label[0]))
    real = two_sided_polygon(ev)
    assert real.kind == TWO_SIDED_POLYGON
    assert real.cyclic_order == [label[0]] + path
    assert real.faces == [real.cyclic_order, real.cyclic_order[::-1]]


def test_random_sphere_pipeline_certifies():
    rng = np.random.default_rng(51)
    for _ in range(3):
        metric = surfaces.random_sphere(12, rng)
        real = uniformize_sphere(metric, 0)
        assert real.kind in (INSCRIBED_POLYHEDRON, TWO_SIDED_POLYGON)
        if real.kind == INSCRIBED_POLYHEDRON:
            assert real.diagnostics["on_sphere"] < 1e-9
            assert real.diagnostics["convexity_margin"] >= -1e-8
            assert real.layout.residual < 1e-8


def test_square_torus_modulus():
    real = uniformize_torus(surfaces.square_torus())
    assert real.kind == FLAT_TORUS
    assert real.tau.real == pytest.approx(0.0, abs=1e-8)
    assert real.tau.imag == pytest.approx(1.0, abs=1e-8)
    v1, v2 = real.lattice
    area = v1.real * v2.imag - v1.imag * v2.real
    assert area == pytest.approx(1.0, abs=1e-10)


def test_refined_square_torus_same_modulus():
    rng = np.random.default_rng(52)
    for _ in range(3):
        metric = surfaces.square_torus_refined(rng=rng)
        real = uniformize_torus(metric)
        assert real.tau.real == pytest.approx(0.0, abs=1e-6)
        assert real.tau.imag == pytest.approx(1.0, abs=1e-6)


def test_uniformize_torus_rejects_genus_zero():
    with pytest.raises(WrongGenus):
        uniformize_torus(surfaces.three_vertex_sphere())


def test_torus_split_must_leave_two_edges(monkeypatch):
    # A vertex tree that reaches no vertex leaves all V + 1 edges.
    def nothing_reached(graph, root, directed):
        return np.array([root]), np.full(graph.shape[0], -9999)

    monkeypatch.setattr(realize, "csgraph", types.SimpleNamespace(
        breadth_first_order=nothing_reached))
    metric = surfaces.random_torus(5, np.random.default_rng(5), (-1, 1))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(LayoutInconsistent, match="leaves 6 edges"):
            uniformize_torus(metric)


def test_torus_collinear_translations_raise(monkeypatch):
    # Projecting the development onto a line keeps every holonomy a
    # translation, but makes all of them collinear.
    develop = realize._develop

    def projected(*args):
        pos, base = develop(*args)
        return pos.real + 0j, base

    monkeypatch.setattr(realize, "_develop", projected)
    metric = surfaces.random_torus(5, np.random.default_rng(5), (-1, 1))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(LayoutInconsistent, match="collinear"):
            uniformize_torus(metric)


def test_hexagonal_torus_modulus():
    # All-zero lambda on the one-vertex torus is the hexagonal torus
    # (both triangles equilateral): tau = exp(i pi / 3), the boundary
    # representative with Re tau >= 0.
    real = uniformize_torus(surfaces.one_vertex_torus())
    assert abs(real.tau - cmath.exp(1j * math.pi / 3)) < 1e-8


@pytest.mark.parametrize("tau, expect", [
    (-0.5 + 2j, 0.5 + 2j),
    (0.5 + 2j, 0.5 + 2j),
    (1.5 + 2j, 0.5 + 2j),
    (-0.5 + 1e-12 + 2j, 0.5 + 2j),
    (cmath.exp(2j * math.pi / 3), cmath.exp(1j * math.pi / 3)),
    (cmath.exp(1.9j), cmath.exp(1.9j).conjugate() * -1),
    (cmath.exp(1.2j), cmath.exp(1.2j)),
    (1j, 1j),
    (0.5j, 2j),
    (0.3 + 1.7j, 0.3 + 1.7j),
    (-0.3 - 1.7j, 0.3 + 1.7j),
    (-0.49 + 1.7j, -0.49 + 1.7j),
])
def test_normalize_tau_boundary_convention(tau, expect):
    # Folding moves a tau that is on a boundary up to round-off by a
    # lattice step or by -1/tau, which keeps that round-off.  A basis
    # (1, tau) with Im tau < 0 is oriented by negating tau.
    v1, v2 = _reduce_basis(1 + 0j, tau)
    out = v2 / v1
    assert abs(out - expect) < 1e-11
    assert -0.5 < out.real <= 0.5 + 1e-11 and abs(out) >= 1.0 - 1e-11
    if abs(abs(out) - 1.0) < 1e-11:
        assert out.real >= 0.0


def test_prescribe_cone_angles_torus_flat():
    rng = np.random.default_rng(53)
    metric = surfaces.random_torus(4, rng, lam_range=(-0.5, 0.5))
    n = metric.triangulation.num_vertices
    real = prescribe_cone_angles(metric, ConeAngleTarget.uniform(n))
    assert real.diagnostics["max_angle_error"] <= 1e-8


def test_prescribe_cone_angles_genus2():
    metric = surfaces.genus2_one_vertex()
    target = ConeAngleTarget([6.0 * math.pi])
    real = prescribe_cone_angles(metric, target)
    assert real.diagnostics["max_angle_error"] <= 1e-8
    assert real.theta_tilde[0] == pytest.approx(6.0 * math.pi, abs=1e-8)


def test_prescribe_cone_angles_random_targets():
    rng = np.random.default_rng(54)
    metric = surfaces.random_sphere(8, rng, lam_range=(-1, 1))
    n = metric.triangulation.num_vertices
    theta = rng.uniform(0.5, 2.0, n)
    theta *= 2.0 * math.pi * (n - 2) / theta.sum()
    real = prescribe_cone_angles(metric, ConeAngleTarget(theta))
    assert real.diagnostics["max_angle_error"] <= 1e-8


@pytest.mark.parametrize("v_inf", [1.5, True, "0"])
def test_uniformize_sphere_rejects_what_is_not_a_vertex_id(v_inf):
    with pytest.raises(UnknownVertex):
        uniformize_sphere(surfaces.octahedron_sphere(), v_inf)


def test_prescribe_cone_angles_rejects_bad_total():
    metric = surfaces.genus2_one_vertex()
    with pytest.raises(GaussBonnetViolated):
        prescribe_cone_angles(metric, ConeAngleTarget([6.0 * math.pi + 0.1]))


def test_layout_edge_length_fidelity():
    metric = surfaces.octahedron_sphere()
    real = uniformize_sphere(metric, 0)
    layout = real.layout
    rtri = real.delaunay.metric.triangulation
    se = rtri.side_edge
    # Euclidean lengths from the shifted lambdas of the final Delaunay data.
    u, ends = real.delaunay.u.u, rtri.edge_verts
    lengths = np.exp((real.delaunay.metric.lam + u[ends[:, 0]]
                      + u[ends[:, 1]]) / 2.0)
    sub = mesh_core.subcomplex_avoiding(rtri, 0)
    for t in np.flatnonzero(sub.triangle_mask).tolist():
        for i in range(3):
            pa = layout.corner_pos[3 * t + i]
            pb = layout.corner_pos[3 * t + (i + 1) % 3]
            realized = abs(pb - pa)
            expect = lengths[se[3 * t + i]]
            assert realized == pytest.approx(expect, rel=1e-9)


@pytest.mark.parametrize("pipeline", ["sphere", "torus", "cone"])
def test_back_ends_make_no_evaluation_after_the_solve(monkeypatch, pipeline):
    # The back-ends realize from the solver's final evaluation: once the
    # solver returns, no energy is evaluated, no flip algorithm runs, and
    # the flat back-ends compute no angles.
    from uniformizer import delaunay, energy, optimize
    calls = []
    solved = []

    def counted(module, name):
        fn = getattr(module, name)

        def wrapped(*args, **kwargs):
            if solved:
                calls.append(name)
            return fn(*args, **kwargs)
        monkeypatch.setattr(module, name, wrapped)

    def solver(name):
        fn = getattr(optimize, name)

        def wrapped(*args, **kwargs):
            report = fn(*args, **kwargs)
            solved.append(report)
            return report
        monkeypatch.setattr(optimize, name, wrapped)

    for name in ("conformal_energy", "punctured_energy", "_evaluate"):
        counted(energy, name)
    counted(delaunay, "make_delaunay")
    solver("minimize_punctured_energy")
    solver("minimize_conformal_energy")
    if pipeline == "sphere":
        real = uniformize_sphere(
            surfaces.random_sphere(30, np.random.default_rng(2)), 0)
        assert real.kind == INSCRIBED_POLYHEDRON
    else:
        counted(energy, "_triangle_angles")
        metric = surfaces.random_torus(20, np.random.default_rng(3))
        target = ConeAngleTarget.uniform(20)
        real = (uniformize_torus(metric) if pipeline == "torus"
                else prescribe_cone_angles(metric, target))
    assert len(solved) == 1 and solved[0] is real.report
    assert real.report.iterations > 0
    assert calls == []
    # The realization does not keep the solver's evaluation alive.
    assert real.report.evaluation is None


def test_flat_back_ends_keep_the_zero_mean_metric():
    # The output metric is the input surface at the zero-mean u_final,
    # on the Delaunay triangulation of the final evaluation.
    from uniformizer import delaunay, energy
    metric = surfaces.random_torus(20, np.random.default_rng(3))
    target = ConeAngleTarget.uniform(20)
    for real in (uniformize_torus(metric),
                 prescribe_cone_angles(metric, target)):
        u = real.report.u_final
        assert abs(u.mean()) <= 1e-12
        assert delaunay.check_delaunay(real.metric).ok
        cold = energy.conformal_energy(metric, target, u)
        np.testing.assert_allclose(
            cold.theta_tilde,
            real.theta_tilde if hasattr(real, "theta_tilde")
            else 2.0 * math.pi, rtol=0, atol=1e-8)
        # Same surface: the same horocycle lengths at every vertex.  The
        # cold Delaunay result is in base lambda.
        np.testing.assert_allclose(
            penner._log_horocycle_lengths(real.metric),
            penner._log_horocycle_lengths(
                penner.fiber_shift(cold.delaunay.metric, u)),
            rtol=0, atol=1e-10)


def test_prescribe_cone_angles_rejects_wrong_angle_count():
    metric = surfaces.octahedron_sphere()
    for count in (5, 7):
        target = ConeAngleTarget(np.full(count, 2.0 * math.pi * 4 / count))
        with pytest.raises(WrongLength) as err:
            prescribe_cone_angles(metric, target)
        assert str(err.value) \
            == "cone angles of shape (%d,) for 6 vertices" % count
