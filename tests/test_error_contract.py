"""Public entry points given wrong input raise a UniformizerError subclass
(or accept the input), never a raw Python exception."""

import importlib.util
import math
import os
import types

import numpy as np
import pytest

from uniformizer import (
    delaunay,
    energy,
    io_cli,
    mesh_core,
    optimize,
    penner,
    realize,
    surfaces,
)
from uniformizer.errors import (
    OutOfDomain,
    UnknownTriangle,
    UnknownVertex,
    UnmatchedSide,
    WrongKind,
    WrongLength,
)
from uniformizer.mesh_core import subdivide_triangle

OCTAHEDRON = surfaces.octahedron_sphere()
# Gauss-Bonnet angles of the octahedron, as a plain array.
FLAT = np.full(6, 4.0 * math.pi / 3.0)
# u = +inf at vertex 0, as in a punctured evaluation.
PUNCTURED = penner.PartialDecoration([np.inf, 0, 0, 0, 0, 0])
# A Delaunay result, where the sphere back-end needs an evaluation.
RESULT = delaunay.make_delaunay(OCTAHEDRON, PUNCTURED, delaunay.ADJUSTED)
# The one-vertex torus: two triangles, three edges.
TORUS_RECORDS = [((0, 0), (1, 0)), ((0, 1), (1, 1)), ((0, 2), (1, 2))]
RNG = np.random.default_rng(0)


@pytest.mark.parametrize("call, expect", [
    (lambda: penner.fiber_shift(OCTAHEDRON, np.zeros(5)), WrongLength),
    (lambda: penner.fiber_shift(OCTAHEDRON, np.zeros(7)), WrongLength),
    (lambda: delaunay.make_delaunay(OCTAHEDRON, PUNCTURED, "x"),
     OutOfDomain),
    (lambda: delaunay.make_delaunay(OCTAHEDRON, None, "x"), OutOfDomain),
    (lambda: optimize.minimize_punctured_energy(OCTAHEDRON, 0, opts="x"),
     OutOfDomain),
    (lambda: optimize.minimize_conformal_energy(OCTAHEDRON, FLAT, opts="x"),
     OutOfDomain),
    (lambda: subdivide_triangle(OCTAHEDRON.triangulation, 1.5),
     UnknownTriangle),
    (lambda: optimize.gauss_bonnet_defect(OCTAHEDRON, FLAT),
     optimize.gauss_bonnet_defect(OCTAHEDRON, penner.ConeAngleTarget(FLAT))),
    (lambda: optimize.gauss_bonnet_defect(OCTAHEDRON, np.full(6, np.nan)),
     OutOfDomain),
    (lambda: optimize.gauss_bonnet_defect(OCTAHEDRON, FLAT[:5]),
     WrongLength),
    (lambda: penner.ConeAngleTarget("x"), OutOfDomain),
    (lambda: penner.PartialDecoration("x"), OutOfDomain),
    (lambda: penner.DecoratedMetric(OCTAHEDRON.triangulation, "x"),
     OutOfDomain),
    (lambda: energy.fixed_triangulation_energy(OCTAHEDRON, FLAT[:5]),
     WrongLength),
    (lambda: energy.conformal_energy(OCTAHEDRON, FLAT[:5], np.zeros(6)),
     WrongLength),
    (lambda: optimize.kkt_check(OCTAHEDRON, 0, "x"), OutOfDomain),
    (lambda: mesh_core.build_from_faces("x"), UnmatchedSide),
    (lambda: mesh_core.build_from_gluings(TORUS_RECORDS, genus_hint="x"),
     OutOfDomain),
    (lambda: energy.lobachevsky("x"), OutOfDomain),
    (lambda: penner.PartialDecoration.all_infinite_except(3, [5]),
     UnknownVertex),
    (lambda: penner.PartialDecoration.zeros(-1), OutOfDomain),
    (lambda: penner.ConeAngleTarget.uniform(-1), OutOfDomain),
    (lambda: penner.ConeAngleTarget.uniform(2.5), OutOfDomain),
    (lambda: surfaces.random_sphere(10, RNG, (2, -2)), OutOfDomain),
    (lambda: surfaces.random_sphere(10, RNG, (math.nan, 1)), OutOfDomain),
    (lambda: surfaces.random_sphere(4.5, RNG), OutOfDomain),
    (lambda: penner.ptolemy_update("x", 1, 1, 1, 1), OutOfDomain),
    (lambda: penner.ptolemy_update([1, 2], [1], 1, 1, 1), OutOfDomain),
    (lambda: energy.triangle_potential("x", 1, 1), OutOfDomain),
    (lambda: realize.classify_realizable(RESULT), WrongKind),
    (lambda: realize.layout_disk(RESULT), WrongKind),
    (lambda: realize.polyhedron_from_layout(None, RESULT), WrongKind),
    (lambda: realize.layout_disk(None), WrongKind),
], ids=["fiber_shift_short_u", "fiber_shift_long_u",
        "make_delaunay_mode", "make_delaunay_mode_no_u",
        "punctured_opts", "conformal_opts", "subdivide_float_id",
        "gauss_bonnet_array", "gauss_bonnet_nan", "gauss_bonnet_short",
        "target_string",
        "decoration_string", "metric_string", "fixed_energy_short_target",
        "conformal_energy_short_target", "kkt_u_string",
        "faces_string", "genus_hint_string", "lobachevsky_string",
        "decoration_unknown_vertex", "decoration_negative_count",
        "target_negative_count", "target_float_count",
        "random_range_reversed", "random_range_nan",
        "random_float_count", "ptolemy_string", "ptolemy_ragged",
        "triangle_potential_string", "classify_delaunay_result",
        "layout_delaunay_result", "polyhedron_delaunay_result",
        "layout_none"])
def test_wrong_input_raises_a_package_error(call, expect):
    if isinstance(expect, type) and issubclass(expect, Exception):
        with pytest.raises(expect):
            call()
    else:
        assert call() == expect


@pytest.mark.parametrize("genus", [0, 1, 2])
@pytest.mark.parametrize("n", [3, 6, 7, 100, 1600, 102400, 1000003])
def test_uniform_angles_meet_gauss_bonnet_exactly(genus, n):
    # prescribe-angles --theta uniform: np.full(n, total / n) misses the
    # total by one ulp of it at n = 102400 on a sphere (1.16e-10), above
    # the default --tol of 1e-10.  Only the vertex count and the genus
    # are read, so no surface is built and nothing is solved.
    tri = types.SimpleNamespace(num_vertices=n, genus=genus)
    theta = io_cli._uniform_angles(tri)
    total = 2.0 * math.pi * (2 * genus - 2 + n)
    assert theta.shape == (n,)
    assert optimize.gauss_bonnet_defect(
        types.SimpleNamespace(triangulation=tri), theta) == 0.0
    assert math.fsum(theta) == total
    assert np.max(np.abs(theta - total / n)) <= math.ulp(total)


def _bench_spans():
    path = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                        os.pardir, "bench", "spans.py")
    spec = importlib.util.spec_from_file_location("bench_spans", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_call_site_resolves():
    # The benchmark's tracer looks up each name of its CALL_SITES in the
    # module that calls it; a name deleted or renamed in the package
    # breaks every traced run.
    spans = _bench_spans()
    callers = {module for module, _, _ in spans.CALL_SITES}
    before = {m: dict(vars(importlib.import_module(m))) for m in callers}
    tracer = spans.Tracer()
    tracer.install(spans.CALL_SITES)
    try:
        real = realize.uniformize_sphere(OCTAHEDRON, 0)
        assert real.report.status == optimize.CONVERGED
        assert tracer.spans
    finally:
        tracer.uninstall()
    for m in callers:
        after = vars(importlib.import_module(m))
        assert all(after[name] is value for name, value in before[m].items())
