"""Public outputs carry plain Python ints, never numpy integers.

Under numpy 2, repr(np.int64(3)) is 'np.int64(3)', so a numpy id that
leaks into a face list changes every printed, hashed or serialized copy
of it, while comparisons with == still pass.
"""

import numpy as np

from uniformizer import delaunay, mesh_core, penner, realize, surfaces


def _plain(values):
    return all(type(v) is int for v in values)


def test_uniformize_sphere_outputs_are_plain_ints():
    metric = surfaces.random_sphere(20, np.random.default_rng(3))
    real = realize.uniformize_sphere(metric, 0)
    assert real.kind == realize.INSCRIBED_POLYHEDRON
    assert all(_plain(face) for face in real.faces)
    assert _plain(real.vertex_positions)
    assert _plain(real.layout.vertex_pos)
    assert _plain(real.layout.boundary_cycle)

    result = real.delaunay
    assert _plain(e for e, _, _ in result.flips)
    assert _plain(result.nonessential_edges)

    # real.delaunay holds the solver's final evaluation, whose flips lead
    # from the previous iterate and may be none; a cold run flips.
    cold = delaunay.make_delaunay(
        metric, penner.PartialDecoration(real.report.u_final),
        mode=delaunay.ADJUSTED)
    assert cold.flips
    assert _plain(e for e, _, _ in cold.flips)


def test_two_sided_polygon_outputs_are_plain_ints():
    real = realize.uniformize_sphere(surfaces.three_vertex_sphere(), 0)
    assert real.kind == realize.TWO_SIDED_POLYGON
    assert all(_plain(face) for face in real.faces)
    assert _plain(real.cyclic_order)
    assert _plain(real.vertex_positions)


def test_uniformize_torus_outputs_are_plain_ints():
    metric = surfaces.square_torus_refined(rng=np.random.default_rng(4))
    real = realize.uniformize_torus(metric)
    assert all(_plain(face) for face in real.faces)
    assert _plain(real.vertex_positions)


def test_horocycle_distances_and_degrees_are_plain_ints():
    metric = surfaces.random_sphere(12, np.random.default_rng(5))
    assert _plain(delaunay.horocycle_distances_to(metric, 0))
    tri = metric.triangulation
    sub = mesh_core.subcomplex_avoiding(tri, 0)
    assert _plain(mesh_core.vertex_degrees(tri, None, 1))
    assert _plain(mesh_core.vertex_degrees(tri, sub, 1))
