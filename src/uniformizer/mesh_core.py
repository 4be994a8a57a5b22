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
"""

import functools
from collections import deque

from .errors import (
    UnmatchedSide,
    NonOrientable,
    EulerMismatch,
    DegenerateFlip,
    UnknownVertex,
)


class Triangulation:
    """Immutable triangulated closed oriented surface with marked points.

    Do not call the constructor directly; use build_from_gluings.  All
    tables use flat side/corner indices 3*t + s.

    Attributes:
        glue: list, glue[k] = flat index of the side glued to side k.
        side_edge: list, side_edge[k] = edge id of side k.
        edge_sides: list of (k1, k2) pairs, the two sides of each edge.
        corner_vertex: list, corner_vertex[k] = vertex id at corner k.
        num_vertices: number of vertices.
        edge_verts: list of (v1, v2) endpoint vertices per edge.
        vertex_corners: tuple of tuples, the corner cycle around each
            vertex in counterclockwise order, starting at its smallest
            corner; built on first use, since flips never need it.
    """

    def __init__(self, glue, side_edge, edge_sides, corner_vertex,
                 num_vertices, edge_verts):
        self.glue = glue
        self.side_edge = side_edge
        self.edge_sides = edge_sides
        self.corner_vertex = corner_vertex
        self.num_vertices = num_vertices
        self.edge_verts = edge_verts

    @functools.cached_property
    def vertex_corners(self):
        cycles = [None] * self.num_vertices
        for cycle in _corner_cycles(self.glue):
            cycles[self.corner_vertex[cycle[0]]] = cycle
        return tuple(cycles)

    @property
    def num_triangles(self):
        return len(self.glue) // 3

    @property
    def num_edges(self):
        return len(self.edge_sides)

    @property
    def euler_characteristic(self):
        return self.num_vertices - self.num_edges + self.num_triangles

    @property
    def genus(self):
        return (2 - self.euler_characteristic) // 2

    def triangles(self):
        """Vertex triples (v0, v1, v2) per triangle, for display only."""
        cv = self.corner_vertex
        return [tuple(cv[3 * t:3 * t + 3]) for t in range(self.num_triangles)]

    def edge_endpoints(self, e):
        return self.edge_verts[e]

    def triangle_edges(self, t):
        """Edge ids of sides 0, 1, 2 of triangle t."""
        return (self.side_edge[3 * t], self.side_edge[3 * t + 1],
                self.side_edge[3 * t + 2])

    def __repr__(self):
        return "Triangulation(T=%d, E=%d, V=%d, genus=%d)" % (
            self.num_triangles, self.num_edges, self.num_vertices, self.genus)


def _corner_cycles(glue):
    """The corner cycles of a gluing, one per vertex, each starting at its
    smallest corner and listed in the order of those corners.

    Walking counterclockwise around the vertex at corner (t, s): cross
    side (t, s) to its glued side (t', s'); the corner at the far end of
    that side, (t', s'+1), is identified with (t, s) and is the next
    corner in the cycle.
    """
    seen = [False] * len(glue)
    cycles = []
    for k0 in range(len(glue)):
        if seen[k0]:
            continue
        cycle = []
        k = k0
        while not seen[k]:
            seen[k] = True
            cycle.append(k)
            m = glue[k]
            k = 3 * (m // 3) + (m % 3 + 1) % 3
        cycles.append(tuple(cycle))
    return cycles


def _derive_tables(glue):
    """Edge and vertex tables from a validated gluing involution."""
    nsides = len(glue)
    # Edges: indexed by first appearance, i.e. by the smaller flat index
    # of the pair scanned in order.
    side_edge = [-1] * nsides
    edge_sides = []
    for k in range(nsides):
        if side_edge[k] >= 0:
            continue
        m = glue[k]
        side_edge[k] = len(edge_sides)
        side_edge[m] = len(edge_sides)
        edge_sides.append((k, m))

    # Vertices: orbits of corners, numbered by their smallest corner.
    cycles = _corner_cycles(glue)
    corner_vertex = [-1] * nsides
    for v, cycle in enumerate(cycles):
        for k in cycle:
            corner_vertex[k] = v

    edge_verts = []
    for k, _ in edge_sides:
        t, s = divmod(k, 3)
        edge_verts.append((corner_vertex[k], corner_vertex[3 * t + (s + 1) % 3]))

    return side_edge, edge_sides, corner_vertex, len(cycles), edge_verts


def build_from_gluings(gluing_list, genus_hint=None):
    """Build a Triangulation from a list of glued side pairs.

    Args:
        gluing_list: sequence of ((t1, s1), (t2, s2)) records.  Every side
            of every triangle must appear in exactly one record.  The
            number of triangles is one plus the largest triangle index.
        genus_hint: optional integer; raises EulerMismatch if the computed
            genus differs.

    Returns:
        a validated Triangulation.
    """
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

    tri = Triangulation(glue, *_derive_tables(glue))

    chi = tri.euler_characteristic
    if chi % 2 != 0 or chi > 2:
        raise EulerMismatch("Euler characteristic %d is not that of a "
                            "closed oriented surface" % chi)
    if genus_hint is not None and tri.genus != genus_hint:
        raise EulerMismatch("computed genus %d, expected %d"
                            % (tri.genus, genus_hint))
    return tri


def flip_edge(tri, e):
    """Replace edge e by the opposite diagonal of its quadrilateral.

    The two triangles adjacent to e are retriangulated:

              r                           r
             / \\                        /|\\
            b   a                      b  |  a
           /     \\                    /   |   \\
          p---e---q        -->       p  f |    q
           \\     /                    \\   |   /
            c   d                      c  |  d
             \\ /                        \\|/
              r'                          r'

    Sides a, b belong to the triangle (p, q, r) and c, d to (q', p', r')
    where the gluing of e identifies p with q' and q with p'.  The new
    edge f connects r and r' and reuses the edge id of e.  All other
    edge ids, and all vertex ids, are preserved.

    Raises DegenerateFlip when both sides of e lie in the same triangle
    (no quadrilateral to flip in).
    """
    k1, k2 = tri.edge_sides[e]
    t1, s1 = divmod(k1, 3)
    t2, s2 = divmod(k2, 3)
    if t1 == t2:
        raise DegenerateFlip("both sides of edge %d lie in triangle %d"
                             % (e, t1))

    # Flat indices of the quad sides.
    ka = 3 * t1 + (s1 + 1) % 3
    kb = 3 * t1 + (s1 + 2) % 3
    kc = 3 * t2 + (s2 + 1) % 3
    kd = 3 * t2 + (s2 + 2) % 3

    # New triangles reuse slots t1 and t2:
    #   t1' = (r, p, r') with sides (b, c, f)
    #   t2' = (r', q, r) with sides (d, a, f)
    # so the old quad sides move to these new flat indices.
    new_pos = {ka: 3 * t2 + 1, kb: 3 * t1 + 0, kc: 3 * t1 + 1, kd: 3 * t2 + 0}

    glue = list(tri.glue)
    for old, new in new_pos.items():
        partner = tri.glue[old]
        # A quad side may be glued to another quad side (one-vertex
        # torus); route through the relocation map in that case.
        partner = new_pos.get(partner, partner)
        glue[new] = partner
        glue[partner] = new
    glue[3 * t1 + 2] = 3 * t2 + 2
    glue[3 * t2 + 2] = 3 * t1 + 2

    side_edge = list(tri.side_edge)
    for old, new in new_pos.items():
        side_edge[new] = tri.side_edge[old]
    side_edge[3 * t1 + 2] = e
    side_edge[3 * t2 + 2] = e

    edge_sides = list(tri.edge_sides)
    for eid in set(side_edge[3 * t1:3 * t1 + 3] + side_edge[3 * t2:3 * t2 + 3]):
        pos = [k for k in range(3 * t1, 3 * t1 + 3) if side_edge[k] == eid]
        pos += [k for k in range(3 * t2, 3 * t2 + 3) if side_edge[k] == eid]
        if len(pos) == 2:
            edge_sides[eid] = (pos[0], pos[1])
        else:
            # Exactly one side in the quad; the partner is outside.
            edge_sides[eid] = (pos[0], glue[pos[0]])

    # Vertex labels: p, q, r from t1, r' from t2 (corner s2+2).
    cv = list(tri.corner_vertex)
    vp, vq, vr = (tri.corner_vertex[3 * t1 + s1],
                  tri.corner_vertex[3 * t1 + (s1 + 1) % 3],
                  tri.corner_vertex[3 * t1 + (s1 + 2) % 3])
    vrp = tri.corner_vertex[3 * t2 + (s2 + 2) % 3]
    cv[3 * t1:3 * t1 + 3] = [vr, vp, vrp]
    cv[3 * t2:3 * t2 + 3] = [vrp, vq, vr]

    edge_verts = list(tri.edge_verts)
    for eid in set(side_edge[3 * t1:3 * t1 + 3] + side_edge[3 * t2:3 * t2 + 3]):
        k = edge_sides[eid][0]
        t, s = divmod(k, 3)
        edge_verts[eid] = (cv[k], cv[3 * t + (s + 1) % 3])

    # Vertex ids and edge ids outside the quad are unchanged, and the
    # corner cycles are rebuilt only if someone asks for them.
    return Triangulation(glue, side_edge, edge_sides, cv, tri.num_vertices,
                         edge_verts)


class Subcomplex:
    """Closed subcomplex of a triangulation (all cells whose vertices are kept).

    Attributes:
        parent: the ambient Triangulation.
        kept_vertices, kept_edges, kept_triangles: sorted id lists.
        boundary_vertices, boundary_edges: subsets of the kept cells that
            touch a non-kept triangle of the parent.
    """

    def __init__(self, parent, kept_vertices):
        self.parent = parent
        keep = set(kept_vertices)
        self.kept_vertices = sorted(keep)
        self.kept_edges = [e for e, (a, b) in enumerate(parent.edge_verts)
                           if a in keep and b in keep]
        cv = parent.corner_vertex
        self.kept_triangles = [
            t for t in range(parent.num_triangles)
            if all(cv[3 * t + i] in keep for i in range(3))]
        tset = set(self.kept_triangles)

        self.boundary_edges = set()
        for e in self.kept_edges:
            for k in parent.edge_sides[e]:
                if k // 3 not in tset:
                    self.boundary_edges.add(e)
        self.boundary_vertices = set()
        for v in self.kept_vertices:
            for k in parent.vertex_corners[v]:
                if k // 3 not in tset:
                    self.boundary_vertices.add(v)
                    break


def subcomplex_avoiding(tri, v_inf):
    """All closed cells of tri not incident with the vertex v_inf."""
    if not (0 <= v_inf < tri.num_vertices):
        raise UnknownVertex("no vertex %r" % (v_inf,))
    kept = [v for v in range(tri.num_vertices) if v != v_inf]
    return Subcomplex(tri, kept)


def vertex_degrees(tri, sub, v):
    """(deg1, deg2) of vertex v: edge-ends with multiplicity, and corners.

    Both counts are restricted to the subcomplex when sub is given.
    """
    if not (0 <= v < tri.num_vertices):
        raise UnknownVertex("no vertex %r" % (v,))
    if sub is not None and v not in set(sub.kept_vertices):
        raise UnknownVertex("vertex %r not kept in subcomplex" % (v,))
    edges = range(tri.num_edges) if sub is None else sub.kept_edges
    deg1 = 0
    for e in edges:
        a, b = tri.edge_verts[e]
        deg1 += (a == v) + (b == v)
    tris = range(tri.num_triangles) if sub is None else sub.kept_triangles
    cv = tri.corner_vertex
    deg2 = sum(1 for t in tris for i in range(3) if cv[3 * t + i] == v)
    return deg1, deg2


LINEAR_GRAPH = "LinearGraph"
DISK_TRIANGULATION = "DiskTriangulation"
OTHER = "Other"


def classify_subcomplex(sub):
    """LinearGraph, DiskTriangulation, or Other.

    LinearGraph: no triangles and the kept cells form a simple path
    (possibly a single vertex).  DiskTriangulation: the kept triangles
    form a triangulated closed disk containing every kept cell.
    """
    if not sub.kept_vertices:
        return OTHER
    parent = sub.parent
    if not sub.kept_triangles:
        return _is_path(sub) and LINEAR_GRAPH or OTHER

    # Disk check.  Every kept vertex and edge must lie in a kept triangle.
    tset = set(sub.kept_triangles)
    used_edges = set()
    used_verts = set()
    edge_tri_count = {}
    for t in sub.kept_triangles:
        for i in range(3):
            e = parent.side_edge[3 * t + i]
            used_edges.add(e)
            edge_tri_count[e] = edge_tri_count.get(e, 0) + 1
            used_verts.add(parent.corner_vertex[3 * t + i])
    if used_edges != set(sub.kept_edges) or used_verts != set(sub.kept_vertices):
        return OTHER
    if any(c > 2 for c in edge_tri_count.values()):
        return OTHER

    chi = (len(sub.kept_vertices) - len(sub.kept_edges)
           + len(sub.kept_triangles))
    if chi != 1:
        return OTHER

    # Connectivity over triangles via shared edges.
    edge_tris = {}
    for t in sub.kept_triangles:
        for i in range(3):
            edge_tris.setdefault(parent.side_edge[3 * t + i], []).append(t)
    start = sub.kept_triangles[0]
    seen = {start}
    queue = deque([start])
    while queue:
        t = queue.popleft()
        for i in range(3):
            for t2 in edge_tris[parent.side_edge[3 * t + i]]:
                if t2 not in seen:
                    seen.add(t2)
                    queue.append(t2)
    if len(seen) != len(sub.kept_triangles):
        return OTHER

    # Vertex links: the kept corners around each vertex must be contiguous
    # in the parent corner cycle (one fan), ruling out pinched vertices.
    for v in sub.kept_vertices:
        cycle = parent.vertex_corners[v]
        flags = [k // 3 in tset for k in cycle]
        runs = sum(1 for i in range(len(flags))
                   if flags[i] and not flags[i - 1])
        if all(flags):
            runs = 1 if flags else 0
        if runs != 1:
            return OTHER

    # Single boundary cycle follows from chi = 1 once links are fans, but
    # check it anyway: boundary edges with exactly one kept triangle.
    bedges = [e for e, c in edge_tri_count.items() if c == 1]
    if not bedges:
        return OTHER
    adj = {}
    ok = True
    for e in bedges:
        a, b = parent.edge_verts[e]
        adj.setdefault(a, []).append(b)
        adj.setdefault(b, []).append(a)
    if any(len(nb) != 2 for nb in adj.values()):
        ok = False
    if ok:
        walk = {list(adj)[0]}
        prev, cur = None, list(adj)[0]
        for _ in range(len(bedges)):
            nxt = [w for w in adj[cur] if w != prev]
            nxt = nxt[0] if nxt else adj[cur][0]
            prev, cur = cur, nxt
            walk.add(cur)
        ok = len(walk) == len(adj)
    return DISK_TRIANGULATION if ok else OTHER


def _is_path(sub):
    """True when the kept vertices and edges form a simple path."""
    parent = sub.parent
    nv = len(sub.kept_vertices)
    ne = len(sub.kept_edges)
    if ne != nv - 1:
        return False
    deg = {v: 0 for v in sub.kept_vertices}
    for e in sub.kept_edges:
        a, b = parent.edge_verts[e]
        if a == b:
            return False
        deg[a] += 1
        deg[b] += 1
    if any(d > 2 for d in deg.values()):
        return False
    # ne = nv - 1 and max degree 2: a path iff connected.
    if nv == 1:
        return True
    adj = {v: [] for v in sub.kept_vertices}
    for e in sub.kept_edges:
        a, b = parent.edge_verts[e]
        adj[a].append(b)
        adj[b].append(a)
    seen = {sub.kept_vertices[0]}
    queue = deque(seen)
    while queue:
        v = queue.popleft()
        for w in adj[v]:
            if w not in seen:
                seen.add(w)
                queue.append(w)
    return len(seen) == nv


def build_from_faces(faces, genus_hint=None):
    """Triangulation from oriented vertex triples (no self-gluings).

    Each face lists its corner labels in counterclockwise order; side s
    of a face is the directed edge label[s] -> label[s+1], and is glued
    to the face carrying the reversed directed edge.  Returns
    (Triangulation, labels) with labels[v] the input label of vertex v.

    Raises UnmatchedSide when a directed edge has no partner or appears
    twice (open or non-manifold mesh).
    """
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
    for t, f in enumerate(faces):
        for s in range(3):
            v = tri.corner_vertex[3 * t + s]
            if labels[v] is None:
                labels[v] = f[s]
            elif labels[v] != f[s]:
                raise UnmatchedSide(
                    "labels %r and %r meet at one surface vertex; "
                    "faces are inconsistent" % (labels[v], f[s]))
    return tri, labels


def subdivide_triangle(tri, t):
    """1-to-3 subdivision: a new vertex inside triangle t joined to its
    corners.  Returns a new Triangulation (ids are rebuilt)."""
    nt = tri.num_triangles
    t1, t2 = nt, nt + 1  # triangle t keeps its slot for the first child

    def outer(s):
        """New home of the side formerly known as (t, s)."""
        return ((t, 0), (t1, 0), (t2, 0))[s]

    gluing = []
    for k1, k2 in tri.edge_sides:
        a = divmod(k1, 3)
        b = divmod(k2, 3)
        a = outer(a[1]) if a[0] == t else a
        b = outer(b[1]) if b[0] == t else b
        gluing.append((a, b))
    gluing += [((t, 1), (t1, 2)), ((t1, 1), (t2, 2)), ((t2, 1), (t, 2))]
    return build_from_gluings(gluing)


def canonical_form(tri):
    """Canonical encoding of the gluing, for isomorphism tests.

    Runs a breadth-first relabeling from every oriented corner and keeps
    the lexicographically smallest transition table.  Two triangulations
    are combinatorially isomorphic iff their canonical forms coincide.
    """
    nt = tri.num_triangles
    best = None
    for k0 in range(3 * nt):
        label = {}  # old triangle -> (new id, rotation)
        t0, s0 = divmod(k0, 3)
        label[t0] = (0, s0)
        order = [t0]
        code = []
        qi = 0
        while qi < len(order):
            t = order[qi]
            qi += 1
            _, rot = label[t]
            for i in range(3):
                m = tri.glue[3 * t + (rot + i) % 3]
                t2, s2 = divmod(m, 3)
                if t2 not in label:
                    label[t2] = (len(order), s2)
                    order.append(t2)
                n2, rot2 = label[t2]
                code.append((n2, (s2 - rot2) % 3))
        code = tuple(code)
        if best is None or code < best:
            best = code
    return best


def is_isomorphic(t1, t2):
    if (t1.num_triangles, t1.num_edges, t1.num_vertices) != \
            (t2.num_triangles, t2.num_edges, t2.num_vertices):
        return False
    return canonical_form(t1) == canonical_form(t2)
