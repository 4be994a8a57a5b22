"""Tests for the combinatorial kernel.

Expected counts for the small surfaces are hand-enumerable; the octahedron
subcomplex counts were verified against a brute-force cell enumeration in
a scratch script and are frozen here.
"""

import numpy as np
import pytest

from helpers import is_isomorphic
from uniformizer import delaunay, energy, mesh_core, penner, surfaces
from uniformizer.errors import (
    DegenerateFlip,
    EulerMismatch,
    NonOrientable,
    OutOfDomain,
    UniformizerError,
    UnknownEdge,
    UnknownTriangle,
    UnknownVertex,
    UnmatchedSide,
)


def test_three_vertex_sphere_counts():
    tri = surfaces.three_vertex_sphere().triangulation
    assert tri.num_triangles == 2
    assert tri.num_edges == 3
    assert tri.num_vertices == 3
    assert tri.euler_characteristic == 2
    assert tri.genus == 0


def test_one_vertex_torus_counts():
    tri = surfaces.one_vertex_torus().triangulation
    assert tri.num_triangles == 2
    assert tri.num_edges == 3
    assert tri.num_vertices == 1
    assert tri.euler_characteristic == 0
    assert tri.genus == 1


def test_octahedron_counts():
    tri = surfaces.octahedron_sphere().triangulation
    assert tri.num_triangles == 8
    assert tri.num_edges == 12
    assert tri.num_vertices == 6
    assert tri.genus == 0


def test_genus2_counts():
    tri = surfaces.genus2_one_vertex().triangulation
    assert tri.num_triangles == 6
    assert tri.num_edges == 9
    assert tri.num_vertices == 1
    assert tri.genus == 2


def test_closed_surface_side_count():
    for metric in (surfaces.three_vertex_sphere(), surfaces.one_vertex_torus(),
                   surfaces.octahedron_sphere(), surfaces.genus2_one_vertex()):
        tri = metric.triangulation
        assert 3 * tri.num_triangles == 2 * tri.num_edges


def test_glue_is_involution_without_fixed_points():
    tri = surfaces.octahedron_sphere().triangulation
    for k in range(3 * tri.num_triangles):
        assert tri.glue[tri.glue[k]] == k
        assert tri.glue[k] != k


def test_corner_cycles_partition_corners():
    tri = surfaces.genus2_one_vertex().triangulation
    all_corners = [k for cycle in tri.vertex_corners for k in cycle]
    assert sorted(all_corners) == list(range(3 * tri.num_triangles))
    for v, cycle in enumerate(tri.vertex_corners):
        for k in cycle:
            assert tri.corner_vertex[k] == v


def test_build_rejects_side_glued_to_itself():
    with pytest.raises(NonOrientable):
        mesh_core.build_from_gluings([((0, 0), (0, 0)),
                                      ((0, 1), (0, 2))])


def test_build_rejects_double_gluing():
    with pytest.raises(UnmatchedSide):
        mesh_core.build_from_gluings([((0, 0), (0, 1)),
                                      ((0, 0), (0, 2))])


def test_build_rejects_missing_side():
    with pytest.raises(UnmatchedSide):
        mesh_core.build_from_gluings([((0, 0), (0, 1))])


def test_build_rejects_wrong_genus_hint():
    with pytest.raises(EulerMismatch):
        mesh_core.build_from_gluings(
            [((0, 0), (1, 1)), ((0, 1), (1, 0)), ((0, 2), (1, 2))],
            genus_hint=1)


# Two disjoint one-vertex tori, and a tetrahedron beside a one-vertex
# torus: each count of cells passes the Euler check of one surface.
TWO_TORI = [((0, 0), (1, 1)), ((0, 1), (1, 2)), ((0, 2), (1, 0)),
            ((2, 0), (3, 1)), ((2, 1), (3, 2)), ((2, 2), (3, 0))]


def _tetrahedron_and_torus():
    tri, _ = mesh_core.build_from_faces(
        [(0, 1, 2), (0, 2, 3), (0, 3, 1), (1, 3, 2)])
    return [(divmod(a, 3), divmod(b, 3)) for a, b in tri.edge_sides.tolist()] \
        + [((4, 0), (5, 1)), ((4, 1), (5, 2)), ((4, 2), (5, 0))]


@pytest.mark.parametrize("gluing", [TWO_TORI, _tetrahedron_and_torus()])
def test_build_rejects_disconnected_gluing(gluing):
    with pytest.raises(EulerMismatch, match="2 connected components"):
        mesh_core.build_from_gluings(gluing)


@pytest.mark.parametrize("gluing", [
    [((0, 0), (1, 1, 7)), ((0, 1), (1, 0)), ((0, 2), (1, 2))],
    [(0, 0, 1, 1), (0, 1, 1, 0), (0, 2, 1, 2)],
    [((0, 0), (1, "x")), ((0, 1), (1, 0)), ((0, 2), (1, 2))],
])
def test_build_rejects_malformed_records(gluing):
    with pytest.raises(UnmatchedSide, match="must be"):
        mesh_core.build_from_gluings(gluing)


def test_build_rejects_out_of_range_side():
    with pytest.raises(UnmatchedSide):
        mesh_core.build_from_gluings([((0, 0), (0, 3)),
                                      ((0, 1), (0, 2))])


def test_flip_is_involution_up_to_isomorphism():
    tri = surfaces.octahedron_sphere().triangulation
    for e in range(tri.num_edges):
        double = mesh_core.flip_edge(mesh_core.flip_edge(tri, e), e)
        assert is_isomorphic(tri, double)
        # Vertex and edge labels survive, not just the isomorphism type.
        assert [set(p) for p in double.edge_verts] \
            == [set(p) for p in tri.edge_verts]


def test_flip_preserves_counts_and_vertex_labels():
    tri = surfaces.octahedron_sphere().triangulation
    flipped = mesh_core.flip_edge(tri, 0)
    assert flipped.num_triangles == tri.num_triangles
    assert flipped.num_edges == tri.num_edges
    assert flipped.num_vertices == tri.num_vertices
    # The flip moves one corner from each of p, q to each of r, r';
    # the set of vertex ids in use is unchanged.
    assert set(flipped.corner_vertex) == set(tri.corner_vertex)


def test_flip_connects_opposite_corners():
    tri = surfaces.octahedron_sphere().triangulation
    e = 0
    k1, k2 = tri.edge_sides[e]
    t1, s1 = divmod(k1, 3)
    t2, s2 = divmod(k2, 3)
    vr = tri.corner_vertex[3 * t1 + (s1 + 2) % 3]
    vrp = tri.corner_vertex[3 * t2 + (s2 + 2) % 3]
    flipped = mesh_core.flip_edge(tri, e)
    assert set(flipped.edge_verts[e]) == {vr, vrp}


def test_flip_torus_stays_one_vertex_torus():
    tri = surfaces.one_vertex_torus().triangulation
    for e in range(tri.num_edges):
        flipped = mesh_core.flip_edge(tri, e)
        assert flipped.num_vertices == 1
        assert flipped.genus == 1
        assert is_isomorphic(tri, flipped)


def test_flip_three_vertex_sphere_orbit():
    # The 3-punctured sphere admits exactly three triangulations; each
    # flip lands back on an isomorphic copy of the unique combinatorial
    # type with these cell counts.
    tri = surfaces.three_vertex_sphere().triangulation
    for e in range(tri.num_edges):
        flipped = mesh_core.flip_edge(tri, e)
        assert flipped.num_vertices == 3
        assert flipped.genus == 0


def test_flip_degenerate_raises():
    # Flipping an edge of the 3-vertex sphere folds the other two edges
    # so that both their sides lie in a single triangle; flipping those
    # must be refused.
    tri = surfaces.three_vertex_sphere().triangulation
    flipped = mesh_core.flip_edge(tri, 0)
    degenerate = [e for e in range(flipped.num_edges)
                  if flipped.edge_sides[e][0] // 3
                  == flipped.edge_sides[e][1] // 3]
    assert degenerate
    for e in degenerate:
        with pytest.raises(DegenerateFlip):
            mesh_core.flip_edge(flipped, e)


def test_vertex_degrees_torus():
    tri = surfaces.one_vertex_torus().triangulation
    assert mesh_core.vertex_degrees(tri, None, 0) == (6, 6)


def test_vertex_degrees_three_vertex_sphere():
    tri = surfaces.three_vertex_sphere().triangulation
    for v in range(3):
        assert mesh_core.vertex_degrees(tri, None, v) == (2, 2)


def test_vertex_degrees_unknown_vertex():
    tri = surfaces.one_vertex_torus().triangulation
    with pytest.raises(UnknownVertex):
        mesh_core.vertex_degrees(tri, None, 5)


@pytest.mark.parametrize("v", [1.5, "1", "x", None, True, -1, 3,
                               np.float64(1.0)])
def test_check_vertex_rejects_what_is_not_a_vertex_id(v):
    tri = surfaces.three_vertex_sphere().triangulation
    with pytest.raises(UnknownVertex):
        mesh_core.check_vertex(tri, v)


def test_check_vertex_returns_the_id_as_an_int():
    tri = surfaces.three_vertex_sphere().triangulation
    for v in (2, np.int64(2), np.intp(2)):
        index = mesh_core.check_vertex(tri, v)
        assert type(index) is int and index == 2


@pytest.mark.parametrize("e", [-1, 99, 1.5, True, "x"])
@pytest.mark.parametrize("call", [
    lambda e: mesh_core.check_edge(
        surfaces.octahedron_sphere().triangulation, e),
    lambda e: mesh_core.flip_edge(
        surfaces.octahedron_sphere().triangulation, e),
    lambda e: mesh_core.flip_edges(
        surfaces.octahedron_sphere().triangulation, [0, e]),
    lambda e: delaunay.delaunay_margin(surfaces.square_torus(), None, e),
    lambda e: energy.crossflip_c2_check(
        surfaces.square_torus(), penner.ConeAngleTarget.uniform(1), e),
], ids=["check_edge", "flip_edge", "flip_edges", "delaunay_margin",
        "crossflip_c2_check"])
def test_edge_ids_are_checked(call, e):
    # No id wraps (-1 is not the last edge), truncates (1.5 and True are
    # not edge 1) or runs off the tables into a raw IndexError.
    with pytest.raises(UnknownEdge) as err:
        call(e)
    assert isinstance(err.value, (UniformizerError, IndexError))
    assert "not in range" in str(err.value)


def test_check_edge_returns_the_id_as_an_int():
    tri = surfaces.octahedron_sphere().triangulation
    for e in (11, np.int64(11), np.intp(11)):
        index = mesh_core.check_edge(tri, e)
        assert type(index) is int and index == 11


def test_random_builders_reject_too_few_vertices():
    for make, least in ((surfaces.random_sphere, 4),
                        (surfaces.random_torus, 1),
                        (surfaces.random_genus2, 1)):
        with pytest.raises(OutOfDomain, match="need at least %d" % least):
            make(least - 1, np.random.default_rng(0))
        make(least, np.random.default_rng(0))


def test_vertex_degrees_outside_subcomplex():
    tri = surfaces.three_vertex_sphere().triangulation
    sub = mesh_core.subcomplex_avoiding(tri, 0)
    with pytest.raises(UnknownVertex):
        mesh_core.vertex_degrees(tri, sub, 0)


def test_subcomplex_three_vertex_sphere():
    tri = surfaces.three_vertex_sphere().triangulation
    sub = mesh_core.subcomplex_avoiding(tri, 0)
    assert len(sub.kept_vertices) == 2
    assert len(sub.kept_edges) == 1
    assert len(sub.kept_triangles) == 0
    assert mesh_core.classify_subcomplex(sub) == mesh_core.LINEAR_GRAPH


def test_subcomplex_octahedron_is_disk():
    # Removing one octahedron vertex keeps 5 vertices, 8 edges, and the
    # 4 triangles not touching it; 4 boundary vertices surround 1
    # interior vertex (the antipode).  Counts match a brute-force scan
    # over all cells.
    tri = surfaces.octahedron_sphere().triangulation
    for v_inf in range(6):
        sub = mesh_core.subcomplex_avoiding(tri, v_inf)
        assert len(sub.kept_vertices) == 5
        assert len(sub.kept_edges) == 8
        assert len(sub.kept_triangles) == 4
        assert len(sub.boundary_vertices) == 4
        assert mesh_core.classify_subcomplex(sub) \
            == mesh_core.DISK_TRIANGULATION
        interior = set(sub.kept_vertices) - sub.boundary_vertices
        assert len(interior) == 1
        v_in = interior.pop()
        d1, d2 = mesh_core.vertex_degrees(tri, sub, v_in)
        assert d1 == d2
        for v in sub.boundary_vertices:
            d1, d2 = mesh_core.vertex_degrees(tri, sub, v)
            assert d1 >= d2


def test_subcomplex_torus_is_empty():
    tri = surfaces.one_vertex_torus().triangulation
    sub = mesh_core.subcomplex_avoiding(tri, 0)
    assert not sub.kept_vertices
    assert mesh_core.classify_subcomplex(sub) == mesh_core.OTHER


def test_subcomplex_unknown_vertex():
    tri = surfaces.one_vertex_torus().triangulation
    with pytest.raises(UnknownVertex):
        mesh_core.subcomplex_avoiding(tri, 3)


def test_subcomplex_closed_cell_rule_brute_force():
    # Oracle: recompute kept cells directly from the definition.
    rng = np.random.default_rng(7)
    tri = surfaces.random_sphere(12, rng).triangulation
    for v_inf in range(0, tri.num_vertices, 3):
        sub = mesh_core.subcomplex_avoiding(tri, v_inf)
        keep = set(range(tri.num_vertices)) - {v_inf}
        edges = [e for e, (a, b) in enumerate(tri.edge_verts)
                 if a in keep and b in keep]
        tris = [t for t in range(tri.num_triangles)
                if all(tri.corner_vertex[3 * t + i] in keep
                       for i in range(3))]
        assert sub.kept_edges == edges
        assert sub.kept_triangles == tris


def test_subcomplex_masks_match_cell_scan():
    # Oracle: every attribute recomputed cell by cell from the
    # definition, for random kept sets on flipped random surfaces.
    rng = np.random.default_rng(8)
    for metric in (surfaces.random_sphere(15, rng),
                   surfaces.random_torus(9, rng)):
        tri = metric.triangulation
        for e in rng.integers(tri.num_edges, size=10).tolist():
            k1, k2 = tri.edge_sides[e].tolist()
            if k1 // 3 != k2 // 3:
                tri = mesh_core.flip_edge(tri, e)
        cv = tri.corner_vertex.tolist()
        for _ in range(5):
            keep = set(rng.choice(tri.num_vertices, rng.integers(
                1, tri.num_vertices + 1), replace=False).tolist())
            sub = mesh_core.Subcomplex(tri, keep)
            edges = [e for e, (a, b) in enumerate(tri.edge_verts.tolist())
                     if a in keep and b in keep]
            tris = [t for t in range(tri.num_triangles)
                    if all(cv[3 * t + i] in keep for i in range(3))]
            out = set(range(tri.num_triangles)) - set(tris)
            assert sub.kept_vertices == sorted(keep)
            assert sub.kept_edges == edges
            assert sub.kept_triangles == tris
            assert sub.boundary_edges == {
                e for e in edges
                if {k // 3 for k in tri.edge_sides[e].tolist()} & out}
            assert sub.boundary_vertices == {
                v for v in keep
                if {k // 3 for k in tri.vertex_corners[v]} & out}


def test_build_from_faces_tetrahedron():
    faces = [(0, 1, 2), (0, 2, 3), (0, 3, 1), (1, 3, 2)]
    tri, labels = mesh_core.build_from_faces(faces, genus_hint=0)
    assert tri.num_vertices == 4
    assert tri.num_edges == 6
    assert labels == [0, 1, 2, 3]


def test_build_from_faces_open_mesh_rejected():
    with pytest.raises(UnmatchedSide):
        mesh_core.build_from_faces([(0, 1, 2)])


def test_build_from_faces_duplicate_edge_rejected():
    with pytest.raises(UnmatchedSide):
        mesh_core.build_from_faces([(0, 1, 2), (0, 1, 3), (1, 0, 2),
                                    (1, 0, 3)])


def test_subdivide_triangle_counts():
    tri = surfaces.tetrahedron_sphere().triangulation
    fine = mesh_core.subdivide_triangle(tri, 0)
    assert fine.num_triangles == tri.num_triangles + 2
    assert fine.num_edges == tri.num_edges + 3
    assert fine.num_vertices == tri.num_vertices + 1
    assert fine.genus == 0


def test_derived_tables_match_corner_cycle_walk():
    # Oracle: vertices are the corner cycles of the walk, numbered in the
    # order of their smallest corners; edges in the order of their
    # smaller sides.
    rng = np.random.default_rng(9)
    for metric in (surfaces.random_sphere(30, rng),
                   surfaces.random_torus(20, rng),
                   surfaces.genus2_one_vertex(), surfaces.one_vertex_torus()):
        tri = metric.triangulation
        glue = tri.glue.tolist()
        cycles = mesh_core._corner_cycles(glue)
        cv = [None] * len(glue)
        for v, cycle in enumerate(cycles):
            for k in cycle:
                cv[k] = v
        assert tri.corner_vertex.tolist() == cv
        assert tri.num_vertices == len(cycles)
        assert tri.edge_sides.tolist() == [[k, m] for k, m in enumerate(glue)
                                           if k < m]
        for e, (k1, k2) in enumerate(tri.edge_sides.tolist()):
            assert tri.side_edge[k1] == tri.side_edge[k2] == e


@pytest.mark.parametrize("t", [-1, 4])
def test_subdivide_triangle_rejects_unknown_triangle(t):
    # -1 would read the two new, unwritten slots of the grown gluing.
    tri = surfaces.tetrahedron_sphere().triangulation
    with pytest.raises(UnknownTriangle):
        mesh_core.subdivide_triangle(tri, t)


def test_subdivide_triangle_matches_gluing_list():
    # Oracle: the subdivided surface built from its gluing list.
    rng = np.random.default_rng(10)
    for metric in (surfaces.random_sphere(12, rng),
                   surfaces.random_torus(6, rng),
                   surfaces.genus2_one_vertex()):
        tri = metric.triangulation
        for t in rng.integers(tri.num_triangles, size=4).tolist():
            nt = tri.num_triangles
            outer = {(t, 1): (nt, 0), (t, 2): (nt + 1, 0)}
            gluing = [tuple(outer.get(divmod(k, 3), divmod(k, 3))
                            for k in pair)
                      for pair in tri.edge_sides.tolist()]
            gluing += [((t, 1), (nt, 2)), ((nt, 1), (nt + 1, 2)),
                       ((nt + 1, 1), (t, 2))]
            ref = mesh_core.build_from_gluings(gluing)
            tri = mesh_core.subdivide_triangle(tri, t)
            assert tri.glue.tolist() == ref.glue.tolist()
            assert tri.side_edge.tolist() == ref.side_edge.tolist()
            assert tri.corner_vertex.tolist() == ref.corner_vertex.tolist()
            assert tri.num_vertices == ref.num_vertices


def test_canonical_form_detects_isomorphism():
    tri1 = surfaces.tetrahedron_sphere().triangulation
    # Same tetrahedron with relabeled vertices and permuted faces.
    faces = [(3, 1, 0), (2, 1, 3), (2, 3, 0), (2, 0, 1)]
    tri2, _ = mesh_core.build_from_faces(faces, genus_hint=0)
    assert is_isomorphic(tri1, tri2)
    tri3 = surfaces.octahedron_sphere().triangulation
    assert not is_isomorphic(tri1, tri3)
