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
    io_cli,
    optimize,
    penner,
    realize,
    surfaces,
)
from uniformizer.errors import OutOfDomain, UnknownTriangle, WrongLength
from uniformizer.mesh_core import subdivide_triangle

OCTAHEDRON = surfaces.octahedron_sphere()
# Gauss-Bonnet angles of the octahedron, as a plain array.
FLAT = np.full(6, 4.0 * math.pi / 3.0)
# u = +inf at vertex 0, as in a punctured evaluation.
PUNCTURED = penner.PartialDecoration([np.inf, 0, 0, 0, 0, 0])


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
    (lambda: penner.ConeAngleTarget("x"), OutOfDomain),
    (lambda: penner.PartialDecoration("x"), OutOfDomain),
    (lambda: penner.DecoratedMetric(OCTAHEDRON.triangulation, "x"),
     OutOfDomain),
], ids=["fiber_shift_short_u", "fiber_shift_long_u",
        "make_delaunay_mode", "make_delaunay_mode_no_u",
        "punctured_opts", "conformal_opts", "subdivide_float_id",
        "gauss_bonnet_array", "gauss_bonnet_nan", "target_string",
        "decoration_string", "metric_string"])
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
