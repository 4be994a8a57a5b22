"""Geometric back-ends: planar layouts, inscribed polyhedra, flat tori,
and cone metrics.

The sphere pipeline: minimize the punctured energy for a distinguished
vertex, classify the resulting adjusted Delaunay data, lay out the disk
of triangles avoiding the distinguished vertex with its euclidean edge
lengths, read the planar positions as ideal points in the half-space
model (distinguished vertex at infinity), and project everything to the
unit sphere, all read off the solver's final punctured evaluation.
Layout positions use complex numbers internally.
"""

import math

import numpy as np
from scipy.sparse import csgraph

from . import mesh_core
# Unused here, but bench/spans.py traces the energies through this name.
from . import energy as _energy
from . import optimize as _optimize
from .errors import (
    NotRealizable,
    LayoutInconsistent,
    ConvexityViolated,
    WrongKind,
    WrongGenus,
)
from .penner import ConeAngleTarget, as_target, fiber_shift

INSCRIBED_POLYHEDRON = "InscribedPolyhedron"
TWO_SIDED_POLYGON = "TwoSidedPolygon"
FLAT_TORUS = "FlatTorus"
CONE_METRIC = "ConeMetric"

# Angle sums this close to pi or 2 pi are equal to it: at its default
# tolerance the punctured solve holds each angle defect to a hundredth.
ANGLE_TOL = 1e-7
# Certificate bounds of an inscribed polyhedron, the acceptance bounds
# (criterion 5): distance of a face's vertices from its plane, depth of
# any vertex beyond a face plane, and distance of a vertex from the
# unit sphere, on which the projection puts it up to round-off.
PLANARITY_TOL = 1e-8
CONVEXITY_TOL = 1e-8
ON_SPHERE_TOL = 1e-9
# Round-off bound on a vertex's corner mismatch, over the disk diameter.
LAYOUT_TOL = 1e-8
# Round-off bound on the two holonomies of a side, over the layout extent.
HOLONOMY_TOL = 1e-8
# Deck translations this little apart are collinear.
LATTICE_TOL = 1e-8
# The torus certificate holds tau to 1e-8, so a tau this close to the
# boundary of the fundamental domain is taken to lie on it.
TAU_BOUNDARY_TOL = 1e-8
# Rows per block of the pairwise reductions, which hold (points, BLOCK).
BLOCK = 256


class PlanarLayout:
    """Planar development of the disk of triangles avoiding v_inf; the
    disk, its angles and angle sums stay on the evaluation laid out.

    Attributes:
        corner_pos: (3T,) complex array, the position of each corner of
            the disk by flat corner index (NaN on the other corners).
        vertex_pos: dict vertex-id -> complex position, that of the
            vertex's first corner in kept-triangle order.
        residual: worst position mismatch between corners at the same
            vertex, relative to the layout diameter.
        boundary_cycle: vertex ids around the disk boundary, ccw.
    """

    def __init__(self, corner_pos, vertex_pos, residual, boundary_cycle):
        self.corner_pos = corner_pos
        self.vertex_pos = vertex_pos
        self.residual = residual
        self.boundary_cycle = boundary_cycle


class Realization:
    """Final geometric output of one of the pipelines."""

    def __init__(self, kind, vertex_positions, faces, diagnostics,
                 **extra):
        self.kind = kind
        self.vertex_positions = vertex_positions
        self.faces = faces
        self.diagnostics = diagnostics
        for key, value in extra.items():
            setattr(self, key, value)


def classify_realizable(ev):
    """The realization kind, TwoSidedPolygon or InscribedPolyhedron, of a
    punctured EnergyEvaluation's subcomplex (the cells avoiding v_inf);
    raises NotRealizable with a diagnostic when its adjusted Delaunay
    data fails the realizability conditions (an optimizer failure)."""
    sub = ev.subcomplex
    if sub is None:
        raise WrongKind("the sphere back-end needs a punctured evaluation")
    if sub.classification == mesh_core.LINEAR_GRAPH:
        return TWO_SIDED_POLYGON
    if sub.classification != mesh_core.DISK_TRIANGULATION:
        raise NotRealizable(
            "cells avoiding vertex %d form neither a path nor a disk"
            % np.argmin(sub.vertex_mask))
    # A boundary vertex has a corner in a triangle that is not kept.
    parent = sub.parent
    boundary = np.bincount(parent.corner_vertex,
                           np.repeat(~sub.triangle_mask, 3),
                           minlength=parent.num_vertices) > 0
    theta = ev.theta_tilde
    bad = np.flatnonzero(sub.vertex_mask & np.where(
        boundary, theta > math.pi + ANGLE_TOL,
        np.abs(theta - 2.0 * math.pi) > ANGLE_TOL))
    if bad.size:
        v = bad[0]
        raise NotRealizable(
            ("boundary vertex %d has angle sum %.12g > pi" if boundary[v]
             else "interior vertex %d has angle sum %.12g != 2 pi")
            % (v, theta[v]))
    return INSCRIBED_POLYHEDRON


def _develop(tri, kept, lengths, angles):
    """Develop the triangles of the mask kept in the plane, one level of
    a breadth-first tree over glued sides at a time, from the largest
    triangle (the first on ties).  A triangle's parent is the first of
    the level above to reach it, by its first side that does.

    Returns (pos, base): pos[k] is the position of corner k (NaN off
    kept), base the first corner placed of each triangle in order.
    """
    se = tri.side_edge
    flat_angles = np.ravel(angles)
    tris = np.flatnonzero(kept)
    a, b, c = lengths[se.reshape(-1, 3)[tris]].T
    s = 0.5 * (a + b + c)
    seed = tris[np.argmax(np.sqrt(np.maximum(
        s * (s - a) * (s - b) * (s - c), 0.0)))]
    pos = np.full(len(se), np.nan, dtype=complex)

    def place(base, pa, pb):
        # The angle at the base corner is opposite the next side; the
        # previous side runs from the third corner to the base corner.
        d = pb - pa
        pos[base] = pa
        pos[mesh_core._next(base)] = pb
        third = mesh_core._prev(base)
        pos[third] = pa + lengths[se[third]] * (d / np.abs(d)) * np.exp(
            1j * flat_angles[mesh_core._next(base)])

    level = np.array([3 * seed])
    place(level, 0j, lengths[se[level]] + 0j)
    todo = kept.copy()
    todo[seed] = False
    bases = [level]
    while level.size:
        sides = (level[:, None] - level[:, None] % 3 + np.arange(3)).ravel()
        sides = sides[todo[tri.glue[sides] // 3]]
        _, first = np.unique(tri.glue[sides] // 3, return_index=True)
        sides = sides[np.sort(first)]
        # Side k runs corner k to corner k+1; its glued side runs the
        # other way, so that side's base corner sits at corner k+1.
        level = tri.glue[sides]
        todo[level // 3] = False
        place(level, pos[mesh_core._next(sides)], pos[sides])
        bases.append(level)
    unplaced = ~np.isfinite(pos[np.repeat(kept, 3)])
    if unplaced.any():
        raise LayoutInconsistent(
            "layout leaves %d corners unplaced (region not edge-connected "
            "or a side of zero length)" % np.count_nonzero(unplaced))
    return pos, np.concatenate(bases)


def _polygons(group, z, sides):
    """(sides, count): the boundary sides of convex regions 0, 1, ...,
    each region's ccw from its smallest side, and their number per
    region; sides[i] bounds region group[i] and its tail sits at z[i].
    Ccw, the tails turn about their centroid in increasing angle."""
    count = np.bincount(group)
    centre = (np.bincount(group, z.real)
              + 1j * np.bincount(group, z.imag)) / count
    order = np.lexsort((np.angle(z - centre[group]), group))
    sides, group = sides[order], group[order]
    offset = np.cumsum(count) - count
    shift = np.lexsort((sides, group))[offset] - offset
    rank = np.arange(len(sides)) - offset[group]
    return sides[offset[group] + (rank + shift[group]) % count[group]], count


def layout_disk(ev):
    """Planar development of the disk of a punctured EnergyEvaluation."""
    if classify_realizable(ev) != INSCRIBED_POLYHEDRON:
        raise WrongKind("layout_disk requires the polyhedral case")
    sub = ev.subcomplex
    rtri = ev.delaunay.metric.triangulation
    lengths = np.exp(ev.lam / 2.0)
    kept = sub.triangle_mask
    angles = np.full((rtri.num_triangles, 3), np.nan)
    angles[kept] = ev.angles
    pos, _ = _develop(rtri, kept, lengths, angles)

    # Each vertex sits at its first kept corner; record the worst mismatch
    # of the others.
    corners = np.flatnonzero(np.repeat(kept, 3))
    cv = rtri.corner_vertex[corners]
    verts, first = np.unique(cv, return_index=True)
    vpos = np.empty(rtri.num_vertices, dtype=complex)
    vpos[verts] = pos[corners[first]]
    mismatch = float(np.abs(pos[corners] - vpos[cv]).max())

    # The disk is convex (its boundary angle sums are at most pi), so its
    # boundary is a convex polygon, and its diameter is that polygon's.
    sides = corners[~kept[rtri.glue[corners] // 3]]
    sides, _ = _polygons(np.zeros(len(sides), dtype=np.intp), pos[sides],
                         sides)
    cycle = rtri.corner_vertex[sides]
    zb = vpos[cycle]
    diameter = max(float(np.abs(zb[i:i + BLOCK, None] - zb).max())
                   for i in range(0, len(zb), BLOCK))
    residual = mismatch / diameter
    if residual > LAYOUT_TOL:
        raise LayoutInconsistent(
            "vertex stars fail to close (relative residual %g)" % residual)
    return PlanarLayout(pos, dict(zip(verts.tolist(), vpos[verts].tolist())),
                        residual, cycle.tolist())


def _to_sphere(z):
    """Inverse stereographic projection from the north pole, of an array
    of points; one (x, y, z) row per point."""
    x, y = z.real, z.imag
    r2 = x * x + y * y
    return np.stack([2.0 * x, 2.0 * y, r2 - 1.0], axis=1) / (r2 + 1.0)[:, None]


def _merged_bottom_faces(result, sub):
    """The kept triangles merged across nonessential kept edges:
    face[t] is the face of kept triangle t, faces numbered in the order
    of their smallest triangle, and -1 on the other triangles."""
    rtri = result.metric.triangulation
    kept = sub.triangle_mask
    tris = np.flatnonzero(kept)
    pairs = rtri.edge_sides[sorted(result.nonessential_edges)] // 3
    pairs = pairs[kept[pairs].all(axis=1)]
    labels = mesh_core._components(rtri.num_triangles, *pairs.T)[tris]
    # first[inverse] is the index in tris of the group's smallest.
    _, first, inverse = np.unique(labels, return_index=True,
                                  return_inverse=True)
    face = np.full(rtri.num_triangles, -1)
    face[tris] = np.unique(first[inverse], return_inverse=True)[1]
    return face


def polyhedron_from_layout(layout, ev):
    """Read the layout of the disk of ev as ideal points (v_inf at
    infinity), normalize the Moebius gauge, project to the unit sphere,
    and certify convexity."""
    v_inf = int(np.argmin(ev.subcomplex.vertex_mask))
    rtri = ev.delaunay.metric.triangulation

    # Moebius normalization: centroid zero, mean squared radius one.
    verts = np.fromiter(layout.vertex_pos, dtype=np.intp)
    zs = np.fromiter(layout.vertex_pos.values(), dtype=complex)
    zs = zs - zs.mean()
    zs = zs / math.sqrt(float(np.mean(np.abs(zs) ** 2)))
    pts = np.empty((rtri.num_vertices, 3))
    pts[v_inf] = 0.0, 0.0, 1.0
    pts[verts] = _to_sphere(zs)
    order = [v_inf, *layout.vertex_pos]
    positions = dict(zip(order, pts[order]))

    # Bottom faces: the merged kept triangles, each a cyclic polygon.
    face = _merged_bottom_faces(ev.delaunay, ev.subcomplex)
    sides = np.flatnonzero(np.repeat(face >= 0, 3))
    sides = sides[face[sides // 3] != face[rtri.glue[sides] // 3]]
    sides, bottom_size = _polygons(face[sides // 3],
                                   layout.corner_pos[sides], sides)

    # Side faces: v_inf and the chain of the disk boundary between two
    # genuine corners (boundary vertices with angle sum < pi are corners;
    # angle sum pi means two collinear boundary edges merging into one
    # face).  Each chain holds both of its end corners.
    cycle = np.array(layout.boundary_cycle)
    m = len(cycle)
    corner = np.flatnonzero(ev.theta_tilde[cycle] < math.pi - ANGLE_TOL)
    if not corner.size:
        raise NotRealizable("disk boundary has no convex corner")
    side_size = np.diff(corner, append=corner[0] + m) + 2
    step = np.arange(side_size.sum()) - np.repeat(
        np.cumsum(side_size) - side_size, side_size)
    chains = np.where(step == 0, v_inf,
                      cycle[(np.repeat(corner, side_size) + step - 1) % m])

    size = np.concatenate([bottom_size, side_size])
    vert = np.concatenate([rtri.corner_vertex[sides], chains])
    faces = list(map(np.ndarray.tolist, np.split(vert, np.cumsum(size)[:-1])))
    diagnostics = _certify_polyhedron(pts, vert, size)
    return Realization(INSCRIBED_POLYHEDRON, positions, faces, diagnostics,
                       layout=layout)


def _certify_polyhedron(pts, vert, size):
    """On-sphere, planarity, and convexity certification.

    pts[v] is the position of vertex v; the faces list their vertices
    one after the other in vert, size[f] of them for face f.
    """
    on_sphere = float(np.max(np.abs(np.linalg.norm(pts, axis=1) - 1.0)))
    if on_sphere > ON_SPHERE_TOL:
        raise ConvexityViolated("vertex leaves the sphere by %g" % on_sphere)

    offset = np.cumsum(size) - size
    face = np.repeat(np.arange(len(size)), size)
    p = pts[vert]
    centroid = np.add.reduceat(p, offset) / size[:, None]
    d = p - centroid[face]
    # Best-fit plane normal: the eigenvector of the smallest eigenvalue
    # of the face's scatter matrix.
    normal = np.linalg.eigh(np.add.reduceat(
        d[:, :, None] * d[:, None, :], offset))[1][:, :, 0]
    planarity = float(np.abs(np.einsum("ij,ij->i", d, normal[face])).max())
    level = np.einsum("ij,ij->i", centroid, normal)
    convexity = np.inf
    for i in range(0, len(size), BLOCK):
        dots = normal[i:i + BLOCK] @ pts.T - level[i:i + BLOCK, None]
        # Orient each normal so the polyhedron lies on its negative side.
        convexity = min(convexity, float(-np.minimum(
            dots.max(axis=1), -dots.min(axis=1)).max()))
    if planarity > PLANARITY_TOL:
        raise ConvexityViolated("face planarity residual %g" % planarity)
    if convexity < -CONVEXITY_TOL:
        raise ConvexityViolated("convexity margin %g" % convexity)
    return {"on_sphere": on_sphere, "planarity": planarity,
            "convexity_margin": convexity}


def two_sided_polygon(ev):
    """Degenerate realization: all ideal vertices on one circle."""
    if classify_realizable(ev) != TWO_SIDED_POLYGON:
        raise WrongKind("two_sided_polygon requires the two-sided case")
    sub = ev.subcomplex
    v_inf = int(np.argmin(sub.vertex_mask))
    rtri = ev.delaunay.metric.triangulation

    # Order the path vertices from its smaller end to the other.
    ends = rtri.edge_verts[sub.edge_mask]
    deg = np.bincount(ends.ravel(), minlength=rtri.num_vertices)
    start = np.flatnonzero(sub.vertex_mask & (deg <= 1))[0]
    path = csgraph.breadth_first_order(
        mesh_core._graph(rtri.num_vertices, *ends.T), start,
        directed=False, return_predecessors=False).tolist()

    order = [v_inf] + path
    n = len(order)
    positions = {}
    for i, v in enumerate(order):
        phi = 2.0 * math.pi * i / n
        # A circle on the unit sphere (the equator).
        positions[v] = np.array([math.cos(phi), math.sin(phi), 0.0])
    faces = [order, list(reversed(order))]
    return Realization(TWO_SIDED_POLYGON, positions, faces,
                       {"circle": "equator"}, cyclic_order=order)


def uniformize_sphere(metric, v_inf, opts=None):
    """Full genus-0 pipeline: constrained minimization, classification,
    and realization as an inscribed polyhedron or two-sided polygon.
    realization.delaunay is the final evaluation's adjusted Delaunay
    result, with the flips from the previous iterate, not the input."""
    report = _optimize.minimize_punctured_energy(metric, v_inf, opts)
    ev, report.evaluation = report.evaluation, None
    if ev.subcomplex.classification == mesh_core.LINEAR_GRAPH:
        realization = two_sided_polygon(ev)
    else:
        realization = polyhedron_from_layout(layout_disk(ev), ev)
    realization.report = report
    realization.delaunay = ev.delaunay
    return realization


def _coords(t, v1, v2):
    det = (v1.real * v2.imag - v1.imag * v2.real)
    a = (t.real * v2.imag - t.imag * v2.real) / det
    b = (v1.real * t.imag - v1.imag * t.real) / det
    return a, b


def _reduce_basis(v1, v2):
    """The basis of the lattice of (v1, v2) whose modulus tau = v2/v1 lies
    in the standard fundamental domain of the modular group: Re in
    (-1/2, 1/2], |tau| >= 1, upper half plane, and Re >= 0 where
    |tau| = 1 (the two boundary arcs are identified by -1/tau)."""
    if (v1.conjugate() * v2).imag < 0:
        v2 = -v2
    for _ in range(200):
        v2 = v2 - round((v2 / v1).real) * v1
        if abs(v2 / v1) >= 1.0 - TAU_BOUNDARY_TOL:
            break
        v1, v2 = v2, -v1
    tau = v2 / v1
    if tau.real <= -0.5 + TAU_BOUNDARY_TOL:
        v2 = v2 + v1
    elif tau.real < 0 and abs(abs(tau) - 1.0) <= TAU_BOUNDARY_TOL:
        v1, v2 = v2, -v1
    return v1, v2


def uniformize_torus(metric, opts=None):
    """Flat uniformization of a genus-1 surface: returns the normalized
    modulus tau and its lattice basis (v1, v2), with tau = v2/v1.  The
    basis is read off a tree-cotree split of the development, and reduced
    once, at unit covolume, so that tau lies in the standard fundamental
    domain."""
    tri = metric.triangulation
    if tri.genus != 1:
        raise WrongGenus("uniformize_torus needs genus 1, got genus %d"
                         % tri.genus)
    target = ConeAngleTarget.uniform(tri.num_vertices)
    report = _optimize.minimize_conformal_energy(metric, target, opts)
    ev, report.evaluation = report.evaluation, None
    met = fiber_shift(ev.delaunay.metric, report.u_final)
    rtri = met.triangulation
    pos, base = _develop(rtri, np.ones(rtri.num_triangles, dtype=bool),
                         met.lengths, ev.angles)

    # Deck transformations from the sides off the development tree, each
    # edge once.  The holonomy is translational because every angle sum
    # is 2 pi; both ends of a side must see the same translation.
    glue = rtri.glue
    tree = np.zeros(len(glue), dtype=bool)
    tree[base[1:]] = tree[glue[base[1:]]] = True
    k = np.flatnonzero(~tree & (np.arange(len(glue)) < glue))
    m = glue[k]
    translations = pos[mesh_core._next(k)] - pos[m]
    gap = np.abs(translations - (pos[k] - pos[mesh_core._next(m)]))
    bad = np.flatnonzero(gap > HOLONOMY_TOL * (np.abs(pos).max() + 1.0))
    if bad.size:
        raise LayoutInconsistent(
            "holonomy across edge %d is not a translation (%g)"
            % (rtri.side_edge[k[bad[0]]], gap[bad[0]]))

    # Tree-cotree split (Eppstein, SODA 2003): the development tree spans
    # the dual graph, so a spanning tree of the vertices over the V + 1
    # edges it does not cross leaves two edges, whose deck translations
    # are a basis of the lattice.
    a, b = rtri.corner_vertex[k], rtri.corner_vertex[mesh_core._next(k)]
    pred = csgraph.breadth_first_order(
        mesh_core._graph(rtri.num_vertices, a, b), 0, directed=False)[1]
    # Each vertex but the root keeps its first edge from its parent.
    child = np.where(pred[b] == a, b, np.where(pred[a] == b, a, -1))
    child, first = np.unique(child, return_index=True)
    cotree = np.delete(np.arange(len(k)), first[child >= 0])
    if len(cotree) != 2:
        raise LayoutInconsistent(
            "tree-cotree split leaves %d edges, not 2" % len(cotree))
    w1, w2 = map(complex, translations[cotree])
    # area / |longer| is the shorter one's distance from the longer's
    # line; a NaN fails the test.
    area = abs((w1.conjugate() * w2).imag)
    if not area > LATTICE_TOL * max(abs(w1), abs(w2)):
        raise LayoutInconsistent("deck translations are collinear")
    v1, v2 = _reduce_basis(w1, w2)
    # Unit covolume; the reduced basis is positively oriented.
    s = 1.0 / math.sqrt((v1.conjugate() * v2).imag)
    v1, v2 = v1 * s, v2 * s
    tau = v2 / v1
    # Residual: holonomy mismatch or distance of a deck translation from
    # the lattice, whichever is larger, at unit covolume.
    deck = translations * s
    a, b = _coords(deck, v1, v2)
    residual = float(max(gap.max() * s, np.max(np.abs(
        deck - np.round(a) * v1 - np.round(b) * v2))))

    # Each vertex sits at its first corner in placement order.
    corners = np.stack([base, mesh_core._next(base), mesh_core._prev(base)],
                       axis=1).ravel()
    verts, first = np.unique(rtri.corner_vertex[corners], return_index=True)
    vpos = dict(zip(verts.tolist(), (pos[corners[first]] * s).tolist()))
    faces = rtri.corner_vertex.reshape(-1, 3).tolist()
    return Realization(FLAT_TORUS, vpos, faces,
                       {"covolume": 1.0,
                        "residual_lattice": residual},
                       tau=tau, lattice=(v1, v2), report=report,
                       metric=met)


def prescribe_cone_angles(metric, target, opts=None):
    """Flat-with-cone-points metric with the prescribed angles; a target
    that is not a ConeAngleTarget is wrapped as one."""
    target = as_target(target)
    report = _optimize.minimize_conformal_energy(metric, target, opts)
    ev, report.evaluation = report.evaluation, None
    met = fiber_shift(ev.delaunay.metric, report.u_final)
    achieved = ev.theta_tilde
    return Realization(CONE_METRIC, {}, [],
                       {"max_angle_error":
                        float(np.max(np.abs(achieved - target.theta)))},
                       metric=met, theta_tilde=achieved, report=report,
                       lengths=np.exp(met.lam / 2.0))
