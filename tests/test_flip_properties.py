"""Property tests of the flip kernel: the tables a chain of flips leaves
behind, and the vertex cycles of their corner walk, must be the ones
that build_from_gluings derives from the same gluing, and a batch of
flips must leave the tables that flipping its edges one by one leaves."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from helpers import canonical_form, vertex_corners
import reference_flip as ref
from uniformizer import mesh_core, surfaces
from uniformizer.errors import DegenerateFlip

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
    ref = _rebuild(tri)

    assert tri.num_vertices == ref.num_vertices
    assert tri.euler_characteristic == ref.euler_characteristic
    assert ({_cyclic(c) for c in vertex_corners(tri)}
            == {_cyclic(c) for c in vertex_corners(ref)})
    for v, cycle in enumerate(vertex_corners(tri)):
        assert all(tri.corner_vertex[k] == v for k in cycle)

    # Vertex ids may differ from the rebuilt ones, but only by a bijection.
    vmap = {}
    for a, b in zip(tri.corner_vertex, ref.corner_vertex):
        assert vmap.setdefault(a, b) == b
    assert len(set(vmap.values())) == tri.num_vertices

    for e, (k1, k2) in enumerate(tri.edge_sides):
        assert tri.glue[k1] == k2
        assert tri.side_edge[k1] == tri.side_edge[k2] == e
        assert tuple(tri.edge_verts[e]) == (tri.corner_vertex[k1],
                                     tri.corner_vertex[_next_corner(k1)])
        assert (sorted(vmap[v] for v in tri.edge_verts[e])
                == sorted(ref.edge_verts[ref.side_edge[k1]]))

    assert canonical_form(tri) == canonical_form(ref)


BATCH_START = {
    "random_sphere": START["random_sphere"],
    "random_torus": START["random_torus"],
    "genus2_one_vertex":
        lambda seed: surfaces.genus2_one_vertex().triangulation,
}


def _flippable(tri):
    return [e for e, (k1, k2) in enumerate(tri.edge_sides.tolist())
            if k1 // 3 != k2 // 3]


def _disjoint_batch(tri, order, size):
    """Up to size flippable edges, taken in the given order, whose quads
    share no triangle."""
    used, batch = set(), []
    for e in order:
        k1, k2 = tri.edge_sides[e].tolist()
        t1, t2 = k1 // 3, k2 // 3
        if t1 != t2 and t1 not in used and t2 not in used \
                and len(batch) < size:
            used.update((t1, t2))
            batch.append(e)
    return batch


@settings(max_examples=80, deadline=None)
@given(start=st.sampled_from(sorted(BATCH_START)),
       seed=st.integers(0, 2 ** 16),
       warmup=st.lists(st.integers(0, 10 ** 6), max_size=20),
       order_seed=st.integers(0, 2 ** 16), size=st.integers(1, 40))
def test_flip_batch_matches_sequential_reference(start, seed, warmup,
                                                 order_seed, size):
    tri = BATCH_START[start](seed)
    # Random flips first, so that the reference's edge_sides are no
    # longer in increasing order.
    for pick in warmup:
        flippable = _flippable(tri)
        tri = mesh_core.flip_edge(tri, flippable[pick % len(flippable)])
    order = np.random.default_rng(order_seed).permutation(tri.num_edges)
    batch = _disjoint_batch(tri, order.tolist(), size)

    flipped = mesh_core.flip_edges(tri, batch)
    tab = ref.ListTables.of(tri)
    for e in batch:
        tab = ref.flip_edge(tab, e)
    assert flipped.glue.tolist() == tab.glue
    assert flipped.side_edge.tolist() == tab.side_edge
    assert flipped.corner_vertex.tolist() == tab.corner_vertex
    # The flip keeps edge_sides current, in increasing order per edge.
    assert flipped.edge_sides.tolist() == [sorted(p) for p in tab.edge_sides]
    assert ([sorted(p) for p in flipped.edge_verts.tolist()]
            == [sorted(p) for p in tab.edge_verts])

    # A second quad on a triangle of the batch, or a repeated edge.
    ka = mesh_core._quad_sides(tri, batch[0])[2]
    for extra in (batch[0], int(tri.side_edge[ka])):
        with pytest.raises(DegenerateFlip):
            mesh_core.flip_edges(tri, batch + [extra])


def test_flip_batch_with_quads_glued_to_each_other():
    # On the one-vertex genus-2 surface (6 triangles) a batch of three
    # quads covers every triangle, so every outer quad side is glued to
    # a side of a quad of the batch, its own included.
    tri = surfaces.genus2_one_vertex().triangulation
    for order_seed in range(20):
        order = np.random.default_rng(order_seed).permutation(tri.num_edges)
        batch = _disjoint_batch(tri, order.tolist(), 3)
        tab = ref.ListTables.of(tri)
        for e in batch:
            tab = ref.flip_edge(tab, e)
        flipped = mesh_core.flip_edges(tri, batch)
        assert flipped.glue.tolist() == tab.glue
        assert flipped.side_edge.tolist() == tab.side_edge
        assert flipped.corner_vertex.tolist() == tab.corner_vertex
        if len(batch) == 3:
            break
    assert len(batch) == 3


def test_flip_batch_rejects_folded_quad():
    tri = mesh_core.flip_edge(surfaces.three_vertex_sphere().triangulation, 0)
    folded = [e for e, (k1, k2) in enumerate(tri.edge_sides.tolist())
              if k1 // 3 == k2 // 3]
    assert folded
    for e in folded:
        with pytest.raises(DegenerateFlip):
            mesh_core.flip_edges(tri, [e])
