"""Ready-made example surfaces used by tests and demos.

The named surfaces are small fixed triangulations.  The random ones
(random_sphere, random_torus, random_genus2) grow from the tetrahedron,
the one-vertex torus and the one-vertex genus-2 surface by 1-to-3
splits of uniformly drawn triangles.  All splits are applied in place
to one preallocated gluing array, with O(1) slot writes each, and the
tables are derived once at the end, so a surface with n vertices is
built in O(n).  For every rng the result equals the same splits applied
one by one with mesh_core.subdivide_triangle.
"""

import math

import numpy as np

from . import mesh_core
from .errors import OutOfDomain
from .penner import DecoratedMetric


_TETRAHEDRON_FACES = [(0, 1, 2), (0, 2, 3), (0, 3, 1), (1, 3, 2)]
_ONE_VERTEX_TORUS_GLUING = [((0, 0), (1, 1)), ((0, 1), (1, 2)),
                            ((0, 2), (1, 0))]
# The fanned octagon of genus2_one_vertex.
_GENUS2_GLUING = [
    # fan diagonals
    ((0, 2), (1, 0)), ((1, 2), (2, 0)), ((2, 2), (3, 0)),
    ((3, 2), (4, 0)),
    # octagon boundary identifications
    ((0, 0), (1, 1)),   # a with a^-1
    ((0, 1), (2, 1)),   # b with b^-1
    ((3, 1), (5, 1)),   # c with c^-1
    ((4, 1), (5, 2)),   # d with d^-1
    ((4, 2), (5, 0)),   # last fan diagonal
]


def three_vertex_sphere(lam=0.0):
    """Two triangles glued along their boundaries: the smallest sphere
    triangulation, with 3 vertices and 3 edges."""
    tri = mesh_core.build_from_gluings(
        [((0, 0), (1, 1)), ((0, 1), (1, 0)), ((0, 2), (1, 2))],
        genus_hint=0)
    return DecoratedMetric(tri, np.full(tri.num_edges, float(lam)))


def one_vertex_torus(lam=None):
    """Two triangles forming the one-vertex torus (3 edges, 1 vertex)."""
    tri = mesh_core.build_from_gluings(_ONE_VERTEX_TORUS_GLUING,
                                       genus_hint=1)
    if lam is None:
        lam = np.zeros(tri.num_edges)
    return DecoratedMetric(tri, np.asarray(lam, dtype=float))


def square_torus():
    """The unit square torus cut along a diagonal: edge 0 and 1 have
    length 1, edge 2 (the diagonal) length sqrt(2)."""
    return one_vertex_torus([0.0, 0.0, math.log(2.0)])


def tetrahedron_sphere(lam=0.0):
    """Boundary of the regular tetrahedron; all 6 edge lengths equal."""
    tri, labels = mesh_core.build_from_faces(_TETRAHEDRON_FACES,
                                             genus_hint=0)
    assert labels == sorted(labels)
    return DecoratedMetric(tri, np.full(tri.num_edges, float(lam)))


def octahedron_sphere(lam=0.0):
    """Boundary of the regular octahedron (6 vertices, 12 edges)."""
    faces = [(0, 1, 2), (0, 2, 3), (0, 3, 4), (0, 4, 1),
             (5, 2, 1), (5, 3, 2), (5, 4, 3), (5, 1, 4)]
    tri, labels = mesh_core.build_from_faces(faces, genus_hint=0)
    assert labels == sorted(labels)
    return DecoratedMetric(tri, np.full(tri.num_edges, float(lam)))


def genus2_one_vertex(lam=None):
    """Minimal genus-2 surface: the octagon with edge word
    a b a^-1 b^-1 c d c^-1 d^-1, fanned into 6 triangles from one corner
    (9 edges, 1 vertex)."""
    tri = mesh_core.build_from_gluings(_GENUS2_GLUING, genus_hint=2)
    if lam is None:
        lam = np.zeros(tri.num_edges)
    return DecoratedMetric(tri, np.asarray(lam, dtype=float))


def square_torus_refined(u=None, rng=None):
    """The square torus with the diagonal subdivided at its midpoint.

    Connecting the midpoint to the two opposite square corners cuts the
    unit square into four right isoceles triangles, so the refinement
    stays flat (angle sum 2 pi at both vertices) and Delaunay.  Passing
    u (a log factor per vertex) or an rng applies a conformal rescale
    of the edge lengths, which keeps the conformal class.

        D---------C        t0 = A B M   t1 = B C M
        | \\ t2  / |        t2 = C D M   t3 = D A M
        |  \\   /  |        outer corners are all one vertex,
        |t3  M  t1 |        M is the midpoint vertex
        |  /   \\  |
        | / t0  \\ |
        A---------B
    """
    gluing = [
        ((0, 0), (2, 0)),   # bottom with top
        ((1, 0), (3, 0)),   # right with left
        ((0, 1), (1, 2)),   # spoke B-M
        ((1, 1), (2, 2)),   # spoke C-M
        ((2, 1), (3, 2)),   # spoke D-M
        ((3, 1), (0, 2)),   # spoke A-M
    ]
    tri = mesh_core.build_from_gluings(gluing, genus_hint=1)
    assert tri.num_vertices == 2
    # Side (t, 0) of each triangle is a unit square side; the other two
    # sides are spokes of length sqrt(1/2).
    lam = np.full(tri.num_edges, -math.log(2.0))
    lam[tri.side_edge[0::3]] = 0.0
    metric = DecoratedMetric(tri, lam)

    if rng is not None and u is None:
        u = rng.uniform(-0.3, 0.3, size=tri.num_vertices)
    if u is not None:
        from .penner import fiber_shift
        metric = fiber_shift(metric, np.asarray(u, dtype=float))
    return metric


def random_sphere(n_vertices, rng, lam_range=(-2.0, 2.0)):
    """Random genus-0 surface: repeated 1-to-3 splits of the tetrahedron
    plus independent uniform lambdas."""
    if mesh_core._check_count(n_vertices, 0, "vertex count") < 4:
        raise OutOfDomain("need at least 4 vertices")
    glue = mesh_core._glue_of_faces(_TETRAHEDRON_FACES)[0]
    return _grow(glue, n_vertices - 4, rng, lam_range)


def random_torus(n_vertices, rng, lam_range=(-2.0, 2.0)):
    """Random genus-1 surface grown from the one-vertex torus."""
    if mesh_core._check_count(n_vertices, 0, "vertex count") < 1:
        raise OutOfDomain("need at least 1 vertex")
    glue = mesh_core._glue_of_records(_ONE_VERTEX_TORUS_GLUING)
    return _grow(glue, n_vertices - 1, rng, lam_range)


def random_genus2(n_vertices, rng, lam_range=(-2.0, 2.0)):
    """Random genus-2 surface grown from genus2_one_vertex."""
    if mesh_core._check_count(n_vertices, 0, "vertex count") < 1:
        raise OutOfDomain("need at least 1 vertex")
    glue = mesh_core._glue_of_records(_GENUS2_GLUING)
    return _grow(glue, n_vertices - 1, rng, lam_range)


def _grow(glue, splits, rng, lam_range):
    """The surface of a gluing after the given number of 1-to-3 splits,
    each of a triangle drawn with rng.integers, with lambdas drawn
    uniformly from lam_range, a finite interval (OutOfDomain if not)."""
    lo, hi = lam_range
    if not 0.0 <= hi - lo < math.inf:
        raise OutOfDomain("lam_range %r is not a finite interval"
                          % (lam_range,))
    nt = len(glue) // 3
    grown = np.empty(len(glue) + 6 * splits, dtype=np.intp)
    grown[:len(glue)] = glue
    for _ in range(splits):
        mesh_core._split_in_place(grown, int(rng.integers(nt)), nt)
        nt += 2
    tri = mesh_core.Triangulation(grown, *mesh_core._derive_tables(grown))
    lam = rng.uniform(lo, hi, size=tri.num_edges)
    return DecoratedMetric(tri, lam)
