"""Combinatorial kernel: triangulations of closed oriented surfaces.

Triangles are oriented with corners 0, 1, 2 in counterclockwise order.
Side i of a triangle runs from corner i to corner (i+1) % 3, so side i is
opposite corner (i+2) % 3.  Corners and sides are addressed by the flat
index 3*t + s.

Gluings form a perfect matching on sides.  When side (t, s) is glued to
side (t', s'), the identification reverses direction (the surface stays
oriented):

    corner (t, s)       <->  corner (t', s'+1)
    corner (t, s+1)     <->  corner (t', s')

Self-glued edges (both endpoints the same vertex) and double edges are
allowed; a side glued to itself is not (it would reverse orientation).

A Triangulation stores three int arrays over the flat slots, like the
half-edge arrays of Sharp, Soliman & Crane ("Navigating intrinsic
triangulations", 2019): glue, side_edge and corner_vertex.  Every other
table is derived from them on first use.  A flip moves the sides of its
two triangles between their six slots, so it is a permutation of slots:
each side carries its gluing, its edge id and the vertex at its start to
its new slot, and only the two slots of the new diagonal get new vertices.
Flips of quads that share no triangle permute disjoint slots, so
_flip_in_place applies a whole batch of them in one array pass over the
slots of the batch, on mutable copies of the tables; flip_edges wraps it
for immutable Triangulations, and the flip algorithm of delaunay keeps
one set of copies for all of its rounds.

Triangulations are built on the same arrays: build_from_gluings checks
and scatters its records in array passes, build_from_faces matches each
directed edge with its reverse in the sorted edge keys, and the 1-to-3
split of subdivide_triangle is _split_in_place, ten slot writes on a
preallocated gluing, which the random surfaces repeat before deriving
the tables once.
"""

import functools
import operator

import numpy as np
import scipy.sparse as sp
from scipy.sparse import csgraph

from .errors import (
    UnmatchedSide,
    NonOrientable,
    PinchedVertex,
    EulerMismatch,
    DegenerateFlip,
    UnknownEdge,
    UnknownTriangle,
    OutOfDomain,
    UnknownVertex,
)


def _next(k):
    """The next corner (or side) of k's triangle; k may be an array."""
    return k - k % 3 + (k + 1) % 3


def _prev(k):
    """The previous corner (or side) of k's triangle."""
    return k - k % 3 + (k + 2) % 3


class Triangulation:
    """Immutable triangulated closed oriented surface with marked points.

    Do not call the constructor directly; use build_from_gluings.  The
    three stored tables are read-only int arrays indexed by flat
    side/corner index 3*t + s; the derived tables are built on first use.

    Attributes:
        glue: glue[k] = flat index of the side glued to side k.
        side_edge: side_edge[k] = edge id of side k.
        corner_vertex: corner_vertex[k] = vertex id at corner k.
        num_vertices: number of vertices.
        edge_sides: (E, 2) array, the two sides of each edge in
            increasing order.
        edge_verts: (E, 2) array, the vertices at the start and the end
            of each edge's first side.
    """

    def __init__(self, glue, side_edge, corner_vertex, num_vertices,
                 edge_sides=None):
        for table in (glue, side_edge, corner_vertex, edge_sides):
            if table is not None:
                table.flags.writeable = False
        self.glue = glue
        self.side_edge = side_edge
        self.corner_vertex = corner_vertex
        self.num_vertices = num_vertices
        if edge_sides is not None:
            # Handed over by a flip, which keeps it up to date.
            self.__dict__["edge_sides"] = edge_sides

    @functools.cached_property
    def edge_sides(self):
        # The smaller side k of each edge is the one with k < glue[k]; the
        # rows equal np.argsort(side_edge, kind="stable").reshape(-1, 2).
        first = np.flatnonzero(np.arange(len(self.glue)) < self.glue)
        sides = np.empty((len(first), 2), dtype=np.intp)
        sides[self.side_edge[first]] = np.stack([first, self.glue[first]], 1)
        return sides

    @functools.cached_property
    def edge_verts(self):
        k = self.edge_sides[:, 0]
        return np.stack([self.corner_vertex[k], self.corner_vertex[_next(k)]],
                        axis=1)

    @property
    def num_triangles(self):
        return len(self.glue) // 3

    @property
    def num_edges(self):
        return len(self.side_edge) // 2

    @property
    def euler_characteristic(self):
        return self.num_vertices - self.num_edges + self.num_triangles

    @property
    def genus(self):
        return (2 - self.euler_characteristic) // 2

    def __repr__(self):
        return "Triangulation(T=%d, E=%d, V=%d, genus=%d)" % (
            self.num_triangles, self.num_edges, self.num_vertices, self.genus)


def _derive_tables(glue):
    """(side_edge, corner_vertex, num_vertices) of a validated gluing
    involution.  Edges are numbered in the order of their smaller side,
    vertices in the order of their smallest corner."""
    corners = np.arange(len(glue))
    first = np.flatnonzero(corners < glue)
    side_edge = np.empty_like(glue)
    side_edge[first] = side_edge[glue[first]] = np.arange(len(first))
    # The corners of a vertex form an orbit of k -> _next(glue[k]).  Its
    # smallest corner, by pointer doubling: after j steps low[k] is the
    # smallest of the 2^j corners from k on.  It stops changing once 2^j
    # covers every orbit.
    step = _next(glue)
    low = corners
    while True:
        new = np.minimum(low, low[step])
        if np.array_equal(new, low):
            break
        low, step = new, step[step]
    labels, corner_vertex = np.unique(low, return_inverse=True)
    return side_edge, corner_vertex, len(labels)


def build_from_gluings(gluing_list, genus_hint=None):
    """Build a Triangulation from a list of glued side pairs.

    Args:
        gluing_list: sequence of ((t1, s1), (t2, s2)) records.  Every side
            of every triangle must appear in exactly one record.  The
            number of triangles is one plus the largest triangle index.
        genus_hint: optional integer; raises EulerMismatch if the computed
            genus differs.

    Returns:
        a validated Triangulation; raises EulerMismatch unless the
        gluing is one connected closed oriented surface.
    """
    return _closed_surface(_glue_of_records(gluing_list), genus_hint)


def _glue_of_records(gluing_list):
    """The gluing involution of build_from_gluings' records.  Raises at
    the first bad record in input order, checking each record's sides for
    range, then for being one side, then for a gluing by an earlier
    record; then at the first side that no record glues."""
    malformed = "gluing records must be ((t1, s1), (t2, s2)) pairs"
    try:
        sides = np.asarray(gluing_list, dtype=np.intp)
    except (TypeError, ValueError):
        raise UnmatchedSide(malformed) from None
    if not sides.size:
        raise UnmatchedSide("empty gluing list")
    if sides.shape[1:] != (2, 2):
        raise UnmatchedSide(malformed)
    t, s = sides[..., 0], sides[..., 1]
    nt = 1 + int(t.max())
    in_range = (0 <= t) & (t < nt) & (0 <= s) & (s < 3)
    k = 3 * t + s
    self_glued = k[:, 0] == k[:, 1]
    # Record i glues a side twice if the side occurs before position 2 i
    # of the flat side list.  Sides out of range may collide with others,
    # but only in records at or after the first one out of range.
    _, first, inverse = np.unique(k, return_index=True, return_inverse=True)
    twice = (first[inverse].reshape(-1, 2)
             < 2 * np.arange(len(k))[:, None]).any(axis=1)
    bad = np.flatnonzero(~in_range.all(axis=1) | self_glued | twice)
    if bad.size:
        i = bad[0]
        for j in (0, 1):
            if not in_range[i, j]:
                raise UnmatchedSide("side (%d, %d) out of range"
                                    % tuple(sides[i, j]))
        if self_glued[i]:
            raise NonOrientable("side (%d, %d) glued to itself"
                                % tuple(sides[i, 0]))
        raise UnmatchedSide("side (%d, %d) or (%d, %d) glued twice"
                            % tuple(sides[i].ravel()))
    glue = np.full(3 * nt, -1, dtype=np.intp)
    glue[k[:, 0]] = k[:, 1]
    glue[k[:, 1]] = k[:, 0]
    never = np.flatnonzero(glue < 0)
    if never.size:
        raise UnmatchedSide("side (%d, %d) never glued"
                            % divmod(int(never[0]), 3))
    return glue


def _closed_surface(glue, genus_hint):
    """The Triangulation of a gluing involution; raises EulerMismatch
    unless it is one connected closed oriented surface, of genus
    genus_hint when that is given."""
    if genus_hint is not None:
        genus_hint = _check_count(genus_hint, 0, "genus_hint")
    tri = Triangulation(glue, *_derive_tables(glue))
    parts = _components(tri.num_triangles,
                        *(tri.edge_sides // 3).T).max() + 1
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


def _quad_sides(tri, edges):
    """Flat sides (k1, k2, ka, kb, kc, kd) of the quads around edges (one
    id or an array of ids): k1 < k2 are the edge's own sides, ka and kb
    follow k1 in its triangle, kc and kd follow k2."""
    k1, k2 = tri.edge_sides[edges].T
    return k1, k2, _next(k1), _prev(k1), _next(k2), _prev(k2)


def flip_edges(tri, edges):
    """Replace each of the given edges by the opposite diagonal of its
    quadrilateral, all at once; the quads must share no triangle.

    For one edge e with sides k1 in triangle t1 and k2 in t2:

              r                           r
             / \\                        /|\\
            b   a                      b  |  a
           /     \\                    /   |   \\
          p---e---q        -->       p  f |    q
           \\     /                    \\   |   /
            c   d                      c  |  d
             \\ /                        \\|/
              r'                          r'

    Sides a, b follow k1 in t1 = (p, q, r), and c, d follow k2 in
    t2 = (q', p', r'), where the gluing of e identifies p with q' and q
    with p'.  The new triangles reuse the slots of t1 and t2:
    t1' = (r, p, r') with sides (b, c, f) and t2' = (r', q, r) with sides
    (d, a, f).  Every side moves to its new slot with its gluing, its
    edge id and the vertex at its start; the new edge f keeps the id of
    e and starts at the apex opposite it.  All other edge ids, and all
    vertex ids, are preserved.

    Raises UnknownEdge unless each id is an integer edge id (check_edge),
    and DegenerateFlip when both sides of an edge lie in one triangle (no
    quadrilateral to flip in) or when two quads share a triangle.
    """
    edges = np.array([check_edge(tri, e) for e in edges], dtype=np.intp)
    t1, t2 = tri.edge_sides[edges].T // 3
    folded = np.flatnonzero(t1 == t2)
    if folded.size:
        raise DegenerateFlip("both sides of edge %d lie in triangle %d"
                             % (edges[folded[0]], t1[folded[0]]))
    touched = np.concatenate([t1, t2])
    if len(np.unique(touched)) < len(touched):
        raise DegenerateFlip("two quads of the batch share a triangle")

    tables = [tri.glue.copy(), tri.side_edge.copy(),
              tri.corner_vertex.copy(), tri.edge_sides.copy()]
    _flip_in_place(*tables, edges)
    return Triangulation(*tables[:3], tri.num_vertices, tables[3])


# Flat index patterns with six entries per flipped edge, one row each,
# entry j of edge i being block[j] + stride * i:
#   pair    its k1 or k2 among the 2n sides of the batch, for b c k1 d a k2
#   shift   the steps from there to b c k1 d a k2 within their triangles
#   tri     its t1 or t2 among the 2n triangles, for the six new slots
#   slot    the corners 0 1 2 0 1 2 of those slots
#   corner  the side among b c k1 d a k2 whose start vertex each new
#           slot takes: the new diagonal starts at the apexes of d and b
#   next    the next corner of each new slot among the six
#   prev    the previous one
_QUAD_BLOCKS = np.array([[0, 1, 0, 1, 0, 1], [2, 1, 0, 2, 1, 0],
                         [0, 0, 0, 1, 1, 1], [0, 1, 2, 0, 1, 2],
                         [0, 1, 3, 3, 4, 0], [1, 2, 0, 4, 5, 3],
                         [2, 0, 1, 5, 3, 4]])
_QUAD_STRIDES = np.array([2, 0, 2, 0, 6, 6, 6])
# The patterns for the largest batch so far, grown on demand.
_QUAD_PATTERNS = [np.empty((len(_QUAD_BLOCKS), 0), dtype=np.intp)]
_MOD3 = np.array([0, 1, 2, 0, 1])


def _quad_patterns(n):
    """The (7, 6 n) rows pair, shift, tri, slot, corner, next and prev
    of _QUAD_BLOCKS for a batch of n edges."""
    patterns = _QUAD_PATTERNS[0]
    if patterns.shape[1] < 6 * n:
        edges = np.arange(max(n, patterns.shape[1] // 3, 16))
        patterns = _QUAD_PATTERNS[0] = (
            _QUAD_BLOCKS[:, None, :]
            + _QUAD_STRIDES[:, None, None] * edges[:, None]).reshape(
                len(_QUAD_BLOCKS), -1)
    return patterns[:, :6 * n]


def _flip_in_place(glue, side_edge, corner_vertex, edge_sides, edges):
    """flip_edges on the four mutable tables of a triangulation, which it
    permutes in place; the edges must be flippable and their quads must
    share no triangle (not checked).  Only the slots of the batch's
    triangles, the slots glued to them and the rows of edge_sides of
    their edges are written.

    Returns (slots, side_edges, corners), flat arrays of six entries per
    flipped edge: the slots of its new triangles t1' = (b, c, f) and
    t2' = (d, a, f), and the edge id and vertex now at each slot.
    """
    pair, shift, tri, slot, corner = _quad_patterns(len(edges))[:5]
    sides = edge_sides[edges].ravel()  # k1, k2 of each edge in turn
    step = sides % 3
    base = sides - step  # 3 t1, 3 t2
    # Sides b, c, k1, d, a, k2 move to the slots 3 t1 + (0, 1, 2) and
    # 3 t2 + (0, 1, 2).
    src = base[pair] + _MOD3[step[pair] + shift]
    dst = base[tri] + slot
    side_edges = side_edge[src]
    corners = corner_vertex[src[corner]]
    partner = glue[src]
    side_edge[dst] = side_edges
    corner_vertex[dst] = corners
    # Point each partner at itself, then each moved side at its new slot:
    # glue[partner] is then the partner's new slot.  Glue both ways.
    glue[partner] = partner
    glue[src] = dst
    partner = glue[partner]
    glue[dst] = partner
    glue[partner] = dst
    edge_sides[side_edges, 0] = np.minimum(dst, partner)
    edge_sides[side_edges, 1] = np.maximum(dst, partner)
    return dst, side_edges, corners


def flip_edge(tri, e):
    """Flip the one edge e (see flip_edges); returns a new Triangulation."""
    return flip_edges(tri, [e])


class Subcomplex:
    """Closed subcomplex of a triangulation (all cells whose vertices are kept).

    Attributes:
        parent: the ambient Triangulation.
        vertex_mask, edge_mask, triangle_mask: boolean arrays over the
            parent's cells, True on the kept ones.
        classification: the verdict of classify_subcomplex.

    The classification is derived on first use from the masks, which are
    never written after construction.
    """

    def __init__(self, parent, vertices):
        self.parent = parent
        if not isinstance(vertices, np.ndarray):
            vertices = np.fromiter(vertices, np.intp)
        keep = np.zeros(parent.num_vertices, dtype=bool)
        keep[vertices] = True
        self.vertex_mask = keep
        self.edge_mask = keep[parent.edge_verts].all(axis=1)
        self.triangle_mask = keep[parent.corner_vertex].reshape(-1, 3) \
            .all(axis=1)

    @functools.cached_property
    def classification(self):
        return classify_subcomplex(self)


def _check_id(i, count, error, cell):
    """i as an int, or error unless i is an integer (not a bool) in
    [0, count)."""
    try:
        index = operator.index(i)
    except TypeError:
        index = -1
    if isinstance(i, bool) or not 0 <= index < count:
        raise error("%s %s not in range [0, %d)" % (cell, i, count))
    return index


def _check_count(n, least, what):
    """n as an int, or OutOfDomain unless n is an integer (not a bool)
    of at least least."""
    try:
        count = operator.index(n)
    except TypeError:
        count = least - 1
    if isinstance(n, bool) or count < least:
        raise OutOfDomain("%s %r is not an integer >= %d" % (what, n, least))
    return count


def check_vertex(tri, v):
    """v as an int, or UnknownVertex unless v is an integer id of tri."""
    return _check_id(v, tri.num_vertices, UnknownVertex, "vertex")


def check_edge(tri, e):
    """e as an int, or UnknownEdge unless e is an integer id of tri."""
    return _check_id(e, tri.num_edges, UnknownEdge, "edge")


def subcomplex_avoiding(tri, v_inf):
    """All closed cells of tri not incident with the vertex v_inf."""
    check_vertex(tri, v_inf)
    return Subcomplex(tri, np.delete(np.arange(tri.num_vertices), v_inf))


def vertex_degrees(tri, sub, v):
    """(deg1, deg2) of vertex v: edge-ends with multiplicity, and corners.

    Both counts are restricted to the subcomplex when sub is given.
    """
    check_vertex(tri, v)
    if sub is not None and not sub.vertex_mask[v]:
        raise UnknownVertex("vertex %r not kept in subcomplex" % (v,))
    edges = slice(None) if sub is None else sub.edge_mask
    tris = slice(None) if sub is None else sub.triangle_mask
    return (int(np.count_nonzero(tri.edge_verts[edges] == v)),
            int(np.count_nonzero(tri.corner_vertex.reshape(-1, 3)[tris]
                                 == v)))


LINEAR_GRAPH = "LinearGraph"
DISK_TRIANGULATION = "DiskTriangulation"
OTHER = "Other"


def _graph(n, a, b):
    """The undirected graph on nodes 0..n-1 with the edges a[i] -- b[i]."""
    return sp.csr_matrix((np.ones(len(a)), (a, b)), shape=(n, n))


def _components(n, a, b):
    """The connected-component label of each node of _graph(n, a, b)."""
    return csgraph.connected_components(_graph(n, a, b), directed=False)[1]


def classify_subcomplex(sub):
    """LinearGraph, DiskTriangulation, or Other.

    LinearGraph: no triangles and the kept cells form a simple path
    (possibly a single vertex).  DiskTriangulation: the kept triangles
    form a triangulated closed disk containing every kept cell.
    """
    parent = sub.parent
    verts, edges, tris = (np.flatnonzero(mask) for mask in (
        sub.vertex_mask, sub.edge_mask, sub.triangle_mask))
    if not verts.size:
        return OTHER
    if not tris.size:
        # nv - 1 edges that connect nv vertices form a tree, so there is
        # no loop edge; a tree with all degrees at most 2 is a path.
        ends = parent.edge_verts[edges]
        labels = _components(parent.num_vertices, *ends.T)[verts]
        deg = np.bincount(ends.ravel(), minlength=parent.num_vertices)
        is_path = (len(edges) == len(verts) - 1 and deg.max() <= 2
                   and (labels == labels[0]).all())
        return LINEAR_GRAPH if is_path else OTHER

    # Three checks suffice: every kept vertex lies in a kept triangle,
    # chi = 1, and the kept triangles are connected across their glued
    # sides.  Cut each vertex into its fans of kept corners: the kept
    # triangles become a connected oriented surface S with
    # chi(S) = 1 + (extra fans) + (kept edges in no kept triangle).
    # chi(S) >= 2 only if S is a closed sphere, a whole component of the
    # parent, which has no cut fan and no edge outside it.  So chi(S) = 1
    # and S is a disk: a pinched vertex link, a stray edge or a second
    # boundary cycle needs no check, nor an edge in three triangles (an
    # edge has two sides).
    corners = (3 * tris[:, None] + np.arange(3)).ravel()
    if (len(np.unique(parent.corner_vertex[corners])) < len(verts)
            or len(verts) - len(edges) + len(tris) != 1):
        return OTHER
    # A triangle that is not kept has a vertex that is not kept, so it
    # borders at most one kept triangle and joins no two of them.
    labels = _components(parent.num_triangles, corners // 3,
                         parent.glue[corners] // 3)[tris]
    return DISK_TRIANGULATION if (labels == labels[0]).all() else OTHER


def build_from_faces(faces, genus_hint=None):
    """Triangulation from oriented vertex triples (no self-gluings).

    Each face lists its corner labels in counterclockwise order; side s
    of a face is the directed edge label[s] -> label[s+1], and is glued
    to the face carrying the reversed directed edge.  Returns
    (Triangulation, labels) with labels[v] the input label of vertex v.

    Raises UnmatchedSide when a directed edge has no partner or appears
    twice (open or non-manifold mesh), and PinchedVertex when one label
    lands on two surface vertices (a non-manifold vertex).
    """
    glue, ids, values = _glue_of_faces(faces)
    tri = _closed_surface(glue, genus_hint)
    # Gluing a directed edge a -> b to its reverse b -> a identifies
    # corners with equal labels, so all corners of a vertex carry one
    # label and any of them may write it.
    label = np.empty(tri.num_vertices, dtype=np.intp)
    label[tri.corner_vertex] = ids
    if len(values) < tri.num_vertices:
        v = np.flatnonzero(np.bincount(label)[label] > 1)[0]
        raise PinchedVertex("label %r is on %d surface vertices; the mesh "
                            "is pinched there" % (
                                values[label[v]].item(),
                                np.count_nonzero(label == label[v])))
    return tri, values[label].tolist()


def _label(faces, k):
    """The input label at corner k of a face list."""
    return faces[k // 3][k % 3]


def _glue_of_faces(faces):
    """(glue, ids, values) of build_from_faces' face list: the gluing
    involution, and the label of each corner as values[ids[k]].  Each
    directed edge is matched with its reverse in the sorted edge keys.
    Raises at the first of these in corner order: a face that is not a
    triangle or a directed edge seen before; then at the first directed
    edge without a reverse, then at the first side glued to itself."""
    try:
        lengths = np.fromiter(map(len, faces), dtype=np.intp,
                              count=len(faces))
        nontri = np.flatnonzero(lengths != 3)
        nf = nontri[0] if nontri.size else len(faces)
        labels = np.asarray(faces[:nf]).reshape(3 * nf)
    except (TypeError, ValueError):
        raise UnmatchedSide(
            "faces must be sequences of vertex labels") from None
    values, ids = np.unique(labels, return_inverse=True)
    head, tail = ids, ids[_next(np.arange(len(ids)))]
    key = head * len(values) + tail
    order = np.argsort(key, kind="stable")
    sorted_key = key[order]
    # A stable sort keeps equal keys in corner order, so the second of
    # each run of equal keys is the corner that repeats an edge.
    again = order[1:][sorted_key[1:] == sorted_key[:-1]]
    if again.size:
        k = again.min()
        raise UnmatchedSide("directed edge %r appears twice" % (
            (_label(faces, k), _label(faces, _next(k))),))
    if nontri.size:
        raise UnmatchedSide("face %d is not a triangle" % nf)
    if not len(key):
        raise UnmatchedSide("empty gluing list")
    reverse = tail * len(values) + head
    pos = np.minimum(np.searchsorted(sorted_key, reverse), len(key) - 1)
    open_ = np.flatnonzero(sorted_key[pos] != reverse)
    if open_.size:
        k = open_[0]
        raise UnmatchedSide("edge %r has no reverse; mesh not closed" % (
            (_label(faces, k), _label(faces, _next(k))),))
    glue = order[pos]
    loop = np.flatnonzero(glue == np.arange(len(glue)))
    if loop.size:
        raise UnmatchedSide("side (%d, %d) never glued"
                            % divmod(int(loop[0]), 3))
    return glue, ids, values


def subdivide_triangle(tri, t):
    """1-to-3 subdivision: a new vertex inside triangle t joined to its
    corners.  Returns a new Triangulation (ids are rebuilt)."""
    nt = tri.num_triangles
    t = _check_id(t, nt, UnknownTriangle, "triangle")
    glue = np.empty(3 * nt + 6, dtype=np.intp)
    glue[:3 * nt] = tri.glue
    _split_in_place(glue, t, nt)
    return Triangulation(glue, *_derive_tables(glue))


def _split_in_place(glue, t, nt):
    """subdivide_triangle on a gluing of nt triangles held in the first
    3 nt slots of glue, which has room for two more: ten slot writes.

    Triangle t keeps its slot for the first child; the others are nt and
    nt + 1.  Sides (t, 1) and (t, 2) move to side 0 of nt and nt + 1,
    their partners follow, and the three inner sides are glued around
    the new vertex.
    """
    k1, k2, c1, c2 = 3 * t + 1, 3 * t + 2, 3 * nt, 3 * nt + 3
    p1, p2 = int(glue[k1]), int(glue[k2])
    if p1 == k2:  # (t, 1) was glued to (t, 2)
        p1, p2 = c2, c1
    glue[c1], glue[p1] = p1, c1
    glue[c2], glue[p2] = p2, c2
    glue[k1], glue[c1 + 2] = c1 + 2, k1
    glue[c1 + 1], glue[c2 + 2] = c2 + 2, c1 + 1
    glue[c2 + 1], glue[k2] = k2, c2 + 1
