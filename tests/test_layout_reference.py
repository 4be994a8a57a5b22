"""The array development, face order, certificate and torus holonomy of
realize against the per-cell reference loops (reference_layout.py)."""

import numpy as np
import pytest

from helpers import cube_sphere
from reference_layout import reference_sphere, reference_torus
from uniformizer import realize, surfaces

TOL = 1e-8

# The cube has merged square faces at the bottom and the side.
SPHERES = [("octahedron", surfaces.octahedron_sphere),
           ("cube", lambda: cube_sphere()[0])] + [
    ("random n=%d seed %d" % (n, seed),
     lambda n=n, seed=seed: surfaces.random_sphere(
         n, np.random.default_rng(seed)))
    for n in (20, 50, 100) for seed in range(3)]

TORI = [("square refined seed %d" % seed,
         lambda seed=seed: surfaces.square_torus_refined(
             rng=np.random.default_rng(seed)))
        for seed in range(3)] + [
    ("random n=%d" % n,
     lambda n=n: surfaces.random_torus(n, np.random.default_rng(n),
                                       (-1.0, 1.0)))
    for n in (5, 20, 50)]


def _ids(cases):
    return [name for name, _ in cases]


@pytest.mark.parametrize("make", [m for _, m in SPHERES], ids=_ids(SPHERES))
def test_sphere_realization_matches_reference(make):
    real = realize.uniformize_sphere(make(), 0)
    assert real.kind == realize.INSCRIBED_POLYHEDRON
    layout, positions, faces, diagnostics = reference_sphere(
        real.delaunay, 0)
    assert real.faces == faces
    assert real.layout.boundary_cycle == layout["boundary_cycle"]

    assert real.layout.vertex_pos.keys() == layout["vertex_pos"].keys()
    for v, z in layout["vertex_pos"].items():
        assert abs(real.layout.vertex_pos[v] - z) <= TOL
    pos = real.layout.corner_pos
    kept = np.zeros(len(pos), dtype=bool)
    kept[list(layout["corner_pos"])] = True
    assert np.isnan(pos[~kept]).all()
    for k, z in layout["corner_pos"].items():
        assert abs(pos[k] - z) <= TOL

    assert real.vertex_positions.keys() == positions.keys()
    for v, p in positions.items():
        np.testing.assert_allclose(real.vertex_positions[v], p, rtol=0,
                                   atol=TOL)
    assert real.diagnostics.keys() == diagnostics.keys()
    for key, value in diagnostics.items():
        assert abs(real.diagnostics[key] - value) <= TOL


@pytest.mark.parametrize("make", [m for _, m in TORI], ids=_ids(TORI))
def test_torus_realization_matches_reference(make):
    real = realize.uniformize_torus(make())
    vpos, faces, tau, lattice, residual = reference_torus(real.metric)
    assert real.faces == faces
    assert real.vertex_positions.keys() == vpos.keys()
    for v, z in vpos.items():
        assert abs(real.vertex_positions[v] - z) <= TOL
    assert abs(real.tau - tau) <= 1e-10
    # The oracle's search may pick another basis of the same lattice: its
    # coordinates in real.lattice are integers, with determinant +-1.
    v1, v2 = real.lattice
    coords = np.array(realize._coords(np.array(lattice), v1, v2))
    assert np.abs(coords - np.round(coords)).max() <= 1e-9
    assert abs(round(np.linalg.det(np.round(coords)))) == 1
    assert abs(real.tau - v2 / v1) <= 1e-12
    assert abs(real.diagnostics["residual_lattice"] - residual) <= 1e-10
