"""Loop references for how triangulations are built: the record-by-record
gluing builder, the dict face matcher, the single 1-to-3 split and the
random generators that apply it once per vertex, re-deriving every table
after each split.

These are the loops that the array builders and the in-place growth of
mesh_core and surfaces replaced, kept as the oracle of their tests.
They share with the package only the Triangulation class, the table
derivation of a finished gluing and the connected-components primitive.
"""

import numpy as np

from uniformizer import surfaces
from uniformizer.errors import (
    EulerMismatch,
    NonOrientable,
    OutOfDomain,
    UnmatchedSide,
)
from uniformizer.mesh_core import Triangulation, _components, _derive_tables
from uniformizer.penner import DecoratedMetric


def build_from_gluings(gluing_list, genus_hint=None):
    records = [((int(a[0]), int(a[1])), (int(b[0]), int(b[1])))
               for a, b in gluing_list]
    if not records:
        raise UnmatchedSide("empty gluing list")
    nt = 1 + max(max(a[0], b[0]) for a, b in records)
    nsides = 3 * nt

    glue = [-1] * nsides
    for (t1, s1), (t2, s2) in records:
        for (t, s) in ((t1, s1), (t2, s2)):
            if not (0 <= t < nt and 0 <= s < 3):
                raise UnmatchedSide("side (%d, %d) out of range" % (t, s))
        if (t1, s1) == (t2, s2):
            raise NonOrientable(
                "side (%d, %d) glued to itself" % (t1, s1))
        k1, k2 = 3 * t1 + s1, 3 * t2 + s2
        if glue[k1] >= 0 or glue[k2] >= 0:
            raise UnmatchedSide(
                "side (%d, %d) or (%d, %d) glued twice" % (t1, s1, t2, s2))
        glue[k1] = k2
        glue[k2] = k1
    for k in range(nsides):
        if glue[k] < 0:
            raise UnmatchedSide("side (%d, %d) never glued" % divmod(k, 3))

    glue = np.array(glue, dtype=np.intp)
    tri = Triangulation(glue, *_derive_tables(glue))

    parts = _components(nt, *(tri.edge_sides // 3).T).max() + 1
    if parts > 1:
        raise EulerMismatch("gluing has %d connected components" % parts)
    chi = tri.euler_characteristic
    if chi % 2 != 0 or chi > 2:
        raise EulerMismatch("Euler characteristic %d is not that of a "
                            "closed oriented surface" % chi)
    if genus_hint is not None and tri.genus != genus_hint:
        raise EulerMismatch("computed genus %d, expected %d"
                            % (tri.genus, genus_hint))
    return tri


def build_from_faces(faces, genus_hint=None):
    directed = {}
    for t, f in enumerate(faces):
        if len(f) != 3:
            raise UnmatchedSide("face %d is not a triangle" % t)
        for s in range(3):
            key = (f[s], f[(s + 1) % 3])
            if key in directed:
                raise UnmatchedSide("directed edge %r appears twice"
                                    % (key,))
            directed[key] = (t, s)
    gluing = []
    for (a, b), (t, s) in directed.items():
        if (b, a) not in directed:
            raise UnmatchedSide("edge %r has no reverse; mesh not closed"
                                % ((a, b),))
        t2, s2 = directed[(b, a)]
        if (t2, s2) > (t, s):
            gluing.append(((t, s), (t2, s2)))
    tri = build_from_gluings(gluing, genus_hint=genus_hint)
    labels = [None] * tri.num_vertices
    cv = tri.corner_vertex.tolist()
    for t, f in enumerate(faces):
        for s in range(3):
            v = cv[3 * t + s]
            if labels[v] is None:
                labels[v] = f[s]
            elif labels[v] != f[s]:
                raise UnmatchedSide(
                    "labels %r and %r meet at one surface vertex; "
                    "faces are inconsistent" % (labels[v], f[s]))
    return tri, labels


def subdivide_triangle(tri, t):
    nt = tri.num_triangles
    t1, t2 = nt, nt + 1  # triangle t keeps its slot for the first child
    slot = np.arange(3 * nt)
    slot[3 * t + 1], slot[3 * t + 2] = 3 * t1, 3 * t2
    glue = np.empty(3 * nt + 6, dtype=np.intp)
    glue[slot] = slot[tri.glue]
    inner = np.array([3 * t + 1, 3 * t1 + 1, 3 * t2 + 1])
    glue[inner] = 3 * np.array([t1, t2, t]) + 2
    glue[glue[inner]] = inner
    return Triangulation(glue, *_derive_tables(glue))


def _grow(tri, splits, rng, lam_range):
    for _ in range(splits):
        t = int(rng.integers(tri.num_triangles))
        tri = subdivide_triangle(tri, t)
    lam = rng.uniform(lam_range[0], lam_range[1], size=tri.num_edges)
    return DecoratedMetric(tri, lam)


def random_sphere(n_vertices, rng, lam_range=(-2.0, 2.0)):
    if n_vertices < 4:
        raise OutOfDomain("need at least 4 vertices")
    tri = surfaces.tetrahedron_sphere().triangulation
    return _grow(tri, n_vertices - 4, rng, lam_range)


def random_torus(n_vertices, rng, lam_range=(-2.0, 2.0)):
    if n_vertices < 1:
        raise OutOfDomain("need at least 1 vertex")
    tri = surfaces.one_vertex_torus().triangulation
    return _grow(tri, n_vertices - 1, rng, lam_range)


def random_genus2(n_vertices, rng, lam_range=(-2.0, 2.0)):
    """The same loop from the one-vertex genus-2 surface (the parent had
    no genus-2 generator)."""
    if n_vertices < 1:
        raise OutOfDomain("need at least 1 vertex")
    tri = surfaces.genus2_one_vertex().triangulation
    return _grow(tri, n_vertices - 1, rng, lam_range)
