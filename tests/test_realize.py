"""Tests for the geometric back-ends: inscribed polyhedra, two-sided
polygons, flat tori, and cone metrics."""

import cmath
import itertools
import math

import numpy as np
import pytest

from uniformizer import surfaces
from uniformizer.errors import (
    GaussBonnetViolated,
    NotRealizable,
    WrongGenus,
)
from uniformizer.optimize import minimize_punctured_energy
from uniformizer.penner import ConeAngleTarget, DecoratedMetric
from uniformizer.realize import (
    FLAT_TORUS,
    INSCRIBED_POLYHEDRON,
    TWO_SIDED_POLYGON,
    _normalize_tau,
    classify_realizable,
    prescribe_cone_angles,
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
    report = minimize_punctured_energy(metric, 0)
    from uniformizer.energy import punctured_energy
    ev = punctured_energy(metric, 0, report.u_final)
    result = ev.delaunay
    # Tamper with the base lambda so an interior angle sum moves off 2 pi.
    bad_lam = result.metric.lam.copy()
    rtri = result.metric.triangulation
    for e, (a, b) in enumerate(rtri.edge_verts):
        if 0 not in (a, b):
            bad_lam[e] += 0.3
            break
    from uniformizer.delaunay import DelaunayResult
    tampered = DelaunayResult(DecoratedMetric(rtri, bad_lam), result.u,
                              result.flips, result.nonessential_edges,
                              result.punctured_faces)
    with pytest.raises(NotRealizable):
        classify_realizable(tampered, 0)


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
    (-0.3 - 1.7j, -0.3 + 1.7j),
    (-0.49 + 1.7j, -0.49 + 1.7j),
])
def test_normalize_tau_boundary_convention(tau, expect):
    # Folding moves a tau that is on a boundary up to round-off by a
    # lattice step or a reflection, which keeps that round-off.
    out = _normalize_tau(tau)
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
    for t in layout.sub.kept_triangles:
        for i in range(3):
            pa = layout.corner_pos[3 * t + i]
            pb = layout.corner_pos[3 * t + (i + 1) % 3]
            realized = abs(pb - pa)
            expect = layout.lengths[se[3 * t + i]]
            assert realized == pytest.approx(expect, rel=1e-9)
