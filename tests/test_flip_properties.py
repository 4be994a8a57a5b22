"""Property tests of the flip kernel: the tables a chain of flips leaves
behind, the lazily built vertex cycles included, must be the tables that
build_from_gluings derives from the same gluing."""

import numpy as np
from hypothesis import given, settings, strategies as st

from uniformizer import mesh_core, surfaces

START = {
    "random_sphere": lambda seed: surfaces.random_sphere(
        12, np.random.default_rng(seed)).triangulation,
    "random_torus": lambda seed: surfaces.random_torus(
        7, np.random.default_rng(seed)).triangulation,
    "one_vertex_torus": lambda seed: surfaces.one_vertex_torus().triangulation,
}


def _rebuild(tri):
    """The triangulation build_from_gluings makes of tri's gluing."""
    return mesh_core.build_from_gluings(
        [(divmod(k, 3), divmod(m, 3)) for k, m in enumerate(tri.glue)
         if k < m])


def _cyclic(cycle):
    """A corner cycle rotated to start at its smallest corner."""
    i = cycle.index(min(cycle))
    return tuple(cycle[i:] + cycle[:i])


def _next_corner(k):
    return 3 * (k // 3) + (k % 3 + 1) % 3


@settings(max_examples=60, deadline=None)
@given(start=st.sampled_from(sorted(START)), seed=st.integers(0, 2 ** 16),
       picks=st.lists(st.integers(0, 10 ** 6), max_size=80))
def test_flip_chain_matches_rebuilt_triangulation(start, seed, picks):
    tri = START[start](seed)
    for pick in picks:
        flippable = [e for e, (k1, k2) in enumerate(tri.edge_sides)
                     if k1 // 3 != k2 // 3]
        tri = mesh_core.flip_edge(tri, flippable[pick % len(flippable)])
    if picks:
        # A flip leaves the vertex cycles to be built on first use.
        assert "vertex_corners" not in vars(tri)
    ref = _rebuild(tri)

    assert tri.num_vertices == ref.num_vertices
    assert tri.euler_characteristic == ref.euler_characteristic
    assert ({_cyclic(c) for c in tri.vertex_corners}
            == {_cyclic(c) for c in ref.vertex_corners})
    for v, cycle in enumerate(tri.vertex_corners):
        assert all(tri.corner_vertex[k] == v for k in cycle)

    # Vertex ids may differ from the rebuilt ones, but only by a bijection.
    vmap = {}
    for a, b in zip(tri.corner_vertex, ref.corner_vertex):
        assert vmap.setdefault(a, b) == b
    assert len(set(vmap.values())) == tri.num_vertices

    for e, (k1, k2) in enumerate(tri.edge_sides):
        assert tri.glue[k1] == k2
        assert tri.side_edge[k1] == tri.side_edge[k2] == e
        assert tri.edge_verts[e] == (tri.corner_vertex[k1],
                                     tri.corner_vertex[_next_corner(k1)])
        assert (sorted(vmap[v] for v in tri.edge_verts[e])
                == sorted(ref.edge_verts[ref.side_edge[k1]]))

    assert mesh_core.canonical_form(tri) == mesh_core.canonical_form(ref)
