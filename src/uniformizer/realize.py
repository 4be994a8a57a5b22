"""Geometric back-ends: planar layouts, inscribed polyhedra, flat tori,
and cone metrics.

The sphere pipeline: minimize the punctured energy for a distinguished
vertex, classify the resulting adjusted Delaunay data, lay out the disk
of triangles avoiding the distinguished vertex with its euclidean edge
lengths, read the planar positions as ideal points in the half-space
model (distinguished vertex at infinity), and project everything to the
unit sphere.  Layout positions use complex numbers internally.
"""

import cmath
import math

import numpy as np

from . import mesh_core
from . import energy as _energy
from . import optimize as _optimize
from .errors import (
    NotRealizable,
    LayoutInconsistent,
    ConvexityViolated,
    WrongKind,
    WrongGenus,
)
from .penner import ConeAngleTarget

TWO_SIDED = "TwoSided"
POLYHEDRAL = "Polyhedral"

INSCRIBED_POLYHEDRON = "InscribedPolyhedron"
TWO_SIDED_POLYGON = "TwoSidedPolygon"
FLAT_TORUS = "FlatTorus"
CONE_METRIC = "ConeMetric"

ANGLE_TOL = 1e-7
PLANARITY_TOL = 1e-8
CONVEXITY_TOL = 1e-8
ON_SPHERE_TOL = 1e-9
# The torus certificate holds tau to 1e-8, so a tau this close to the
# boundary of the fundamental domain is taken to lie on it.
TAU_BOUNDARY_TOL = 1e-8


class PlanarLayout:
    """Planar development of the disk of triangles avoiding v_inf.

    Attributes:
        corner_pos: dict flat-corner-index -> complex position.
        vertex_pos: dict vertex-id -> complex position (first placement).
        residual: worst position mismatch between corners at the same
            vertex, relative to the layout diameter.
        boundary_cycle: vertex ids around the disk boundary, ccw.
        sub: the Subcomplex that was laid out.
        angles: (T, 3) array, the angles opposite sides 0, 1, 2 of each
            kept triangle (NaN on the other triangles).
        theta_tilde: realized angle sums per vertex.
        lengths: array of euclidean lengths per edge (inf on the edges
            at v_inf).
    """

    def __init__(self, corner_pos, vertex_pos, residual, boundary_cycle,
                 sub, angles, theta_tilde, lengths):
        self.corner_pos = corner_pos
        self.vertex_pos = vertex_pos
        self.residual = residual
        self.boundary_cycle = boundary_cycle
        self.sub = sub
        self.angles = angles
        self.theta_tilde = theta_tilde
        self.lengths = lengths


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


def _disk_angles(result, v_inf):
    """(sub, lengths, angles, theta_tilde) of the kept disk: lengths per
    edge (inf on the edges at v_inf) and angles per triangle (NaN off the
    disk)."""
    rtri = result.metric.triangulation
    sub = mesh_core.subcomplex_avoiding(rtri, v_inf)
    u = result.u.u
    kept = np.array(sub.kept_triangles, dtype=int)
    ends = np.reshape(rtri.edge_verts, (-1, 2))
    lam = result.metric.lam + u[ends[:, 0]] + u[ends[:, 1]]
    angles = np.full((rtri.num_triangles, 3), np.nan)
    angles[kept] = _energy._triangle_angles(rtri.side_edge, lam, kept)
    theta_tilde = np.bincount(
        np.reshape(rtri.corner_vertex, (-1, 3))[kept].ravel(),
        angles[kept][:, [1, 2, 0]].ravel(), minlength=rtri.num_vertices)
    return sub, np.exp(lam / 2.0), angles, theta_tilde


def classify_realizable(result, v_inf):
    """TwoSided or Polyhedral; raises NotRealizable with a diagnostic
    when the adjusted Delaunay data fails the realizability conditions
    (which signals an optimizer failure upstream)."""
    rtri = result.metric.triangulation
    sub = mesh_core.subcomplex_avoiding(rtri, v_inf)
    cls = mesh_core.classify_subcomplex(sub)
    if cls == mesh_core.LINEAR_GRAPH:
        return TWO_SIDED
    if cls != mesh_core.DISK_TRIANGULATION:
        raise NotRealizable(
            "cells avoiding vertex %d form neither a path nor a disk"
            % v_inf)
    _, _, _, theta_tilde = _disk_angles(result, v_inf)
    for v in sub.kept_vertices:
        if v in sub.boundary_vertices:
            if theta_tilde[v] > math.pi + ANGLE_TOL:
                raise NotRealizable(
                    "boundary vertex %d has angle sum %.12g > pi"
                    % (v, theta_tilde[v]))
        else:
            if abs(theta_tilde[v] - 2.0 * math.pi) > ANGLE_TOL:
                raise NotRealizable(
                    "interior vertex %d has angle sum %.12g != 2 pi"
                    % (v, theta_tilde[v]))
    return POLYHEDRAL


def _place_third(pa, pb, angle_at_a, length_a_to_c):
    """Third corner of a ccw triangle with corners a, b placed."""
    d = pb - pa
    d /= abs(d)
    return pa + length_a_to_c * d * cmath.exp(1j * angle_at_a)


def _layout_triangles(tri, triangles, lengths, angles, seed=None):
    """Develop the given triangles in the plane by BFS over shared
    edges.  Returns (corner_pos, tree_crossed_sides)."""
    se = tri.side_edge
    glue = tri.glue
    tset = set(triangles)
    if seed is None:
        # Largest-area triangle for a well-conditioned start.
        def area(t):
            a, b, c = (lengths[se[3 * t]], lengths[se[3 * t + 1]],
                       lengths[se[3 * t + 2]])
            s = 0.5 * (a + b + c)
            return math.sqrt(max(s * (s - a) * (s - b) * (s - c), 0.0))
        seed = max(triangles, key=area)

    corner_pos = {}

    def place_from_base(t, s, pa, pb):
        """Place triangle t given corner s at pa and corner s+1 at pb."""
        corner_pos[3 * t + s] = pa
        corner_pos[3 * t + (s + 1) % 3] = pb
        # Angle at corner s is opposite side (s+1); the side from corner
        # s to corner s+2 is side (s+2).
        corner_pos[3 * t + (s + 2) % 3] = _place_third(
            pa, pb, angles[t][(s + 1) % 3], lengths[se[3 * t + (s + 2) % 3]])

    place_from_base(seed, 0, 0.0 + 0.0j, lengths[se[3 * seed]] + 0.0j)
    placed = {seed}
    from collections import deque
    queue = deque([seed])
    crossed = []
    while queue:
        t = queue.popleft()
        for i in range(3):
            k = 3 * t + i
            m = glue[k]
            t2, s2 = divmod(m, 3)
            if t2 not in tset or t2 in placed:
                continue
            # Side (t, i) runs corner i -> i+1; the glued side runs the
            # other way, so corner s2 of t2 sits at corner i+1 of t.
            pa = corner_pos[3 * t + (i + 1) % 3]
            pb = corner_pos[3 * t + i]
            place_from_base(t2, s2, pa, pb)
            placed.add(t2)
            crossed.append(k)
            queue.append(t2)
    if placed != tset:
        raise LayoutInconsistent("layout region is not edge-connected")
    return corner_pos, crossed


def _region_boundary_walk(tri, region, start_side=None):
    """Directed boundary sides of a set of triangles, walked in order.

    A side is a boundary side when its glued partner lies outside the
    region.  Returns the list of flat side indices in cyclic order.
    """
    tset = set(region)
    glue = tri.glue
    boundary = [k for t in region for k in (3 * t, 3 * t + 1, 3 * t + 2)
                if glue[k] // 3 not in tset]
    if not boundary:
        return []
    bset = set(boundary)
    if start_side is None:
        start_side = min(boundary)
    walk = [start_side]
    k = start_side
    for _ in range(len(boundary)):
        # Advance to the next boundary side around the head vertex of k.
        j = 3 * (k // 3) + (k % 3 + 1) % 3
        while j not in bset:
            m = glue[j]
            j = 3 * (m // 3) + (m % 3 + 1) % 3
        if j == start_side:
            break
        walk.append(j)
        k = j
    if len(walk) != len(boundary):
        raise LayoutInconsistent("region boundary is not a single cycle")
    return walk


def layout_disk(result, v_inf):
    """Planar development of the triangles avoiding v_inf."""
    kind = classify_realizable(result, v_inf)
    if kind != POLYHEDRAL:
        raise WrongKind("layout_disk requires the polyhedral case")
    rtri = result.metric.triangulation
    sub, lengths, angles, theta_tilde = _disk_angles(result, v_inf)

    corner_pos, _ = _layout_triangles(rtri, sub.kept_triangles, lengths,
                                      angles)

    # First placement wins per vertex; record the worst mismatch.
    cv = rtri.corner_vertex
    vertex_pos = {}
    mismatch = 0.0
    for t in sub.kept_triangles:
        for i in range(3):
            k = 3 * t + i
            v = cv[k]
            if v in vertex_pos:
                mismatch = max(mismatch, abs(corner_pos[k] - vertex_pos[v]))
            else:
                vertex_pos[v] = corner_pos[k]

    pts = list(vertex_pos.values())
    diameter = max(abs(p - q) for p in pts for q in pts) if len(pts) > 1 \
        else 1.0
    residual = mismatch / diameter
    if residual > 1e-8:
        raise LayoutInconsistent(
            "vertex stars fail to close (relative residual %g)" % residual)

    walk = _region_boundary_walk(rtri, sub.kept_triangles)
    boundary_cycle = [cv[k] for k in walk]
    return PlanarLayout(corner_pos, vertex_pos, residual, boundary_cycle,
                        sub, angles, theta_tilde, lengths)


def _to_sphere(z):
    """Inverse stereographic projection from the north pole."""
    x, y = z.real, z.imag
    r2 = x * x + y * y
    return np.array([2.0 * x, 2.0 * y, r2 - 1.0]) / (r2 + 1.0)


def _merged_bottom_faces(result, v_inf, sub):
    """Kept triangles merged across nonessential kept edges; returns a
    list of triangle sets."""
    rtri = result.metric.triangulation
    keep = set(sub.kept_triangles)
    parent = {t: t for t in keep}

    def find(t):
        while parent[t] != t:
            parent[t] = parent[parent[t]]
            t = parent[t]
        return t

    interior_kept = set(sub.kept_edges) - sub.boundary_edges
    for e in result.nonessential_edges & interior_kept:
        k1, k2 = rtri.edge_sides[e]
        t1, t2 = k1 // 3, k2 // 3
        if t1 in keep and t2 in keep:
            parent[find(t1)] = find(t2)
    groups = {}
    for t in keep:
        groups.setdefault(find(t), set()).add(t)
    return list(groups.values())


def polyhedron_from_layout(layout, result, v_inf):
    """Read the layout as ideal points (v_inf at infinity), normalize the
    Moebius gauge, project to the unit sphere, and certify convexity."""
    rtri = result.metric.triangulation
    sub = layout.sub
    cv = rtri.corner_vertex

    # Moebius normalization: centroid zero, mean squared radius one.
    verts = sorted(layout.vertex_pos)
    zs = np.array([layout.vertex_pos[v] for v in verts])
    zs = zs - zs.mean()
    scale = math.sqrt(float(np.mean(np.abs(zs) ** 2)))
    zs = zs / scale

    positions = {v_inf: np.array([0.0, 0.0, 1.0])}
    for v, z in zip(verts, zs):
        positions[v] = _to_sphere(z)

    faces = []
    for group in _merged_bottom_faces(result, v_inf, sub):
        walk = _region_boundary_walk(rtri, sorted(group))
        faces.append([cv[k] for k in walk])

    # Side faces: chains of the disk boundary between genuine corners
    # (boundary vertices with angle sum < pi are corners; angle sum pi
    # means two collinear boundary edges merging into one face).
    cycle = layout.boundary_cycle
    m = len(cycle)
    corner_idx = [i for i in range(m)
                  if layout.theta_tilde[cycle[i]] < math.pi - ANGLE_TOL]
    if not corner_idx:
        raise NotRealizable("disk boundary has no convex corner")
    for a, b in zip(corner_idx, corner_idx[1:] + [corner_idx[0] + m]):
        chain = [cycle[i % m] for i in range(a, b + 1)]
        faces.append([v_inf] + chain)

    diagnostics = _certify_polyhedron(positions, faces)
    return Realization(INSCRIBED_POLYHEDRON, positions, faces, diagnostics,
                       layout=layout)


def _certify_polyhedron(positions, faces):
    """On-sphere, planarity, and convexity certification."""
    pts = np.array([positions[v] for v in sorted(positions)])
    on_sphere = float(np.max(np.abs(np.linalg.norm(pts, axis=1) - 1.0)))
    if on_sphere > ON_SPHERE_TOL:
        raise ConvexityViolated("vertex leaves the sphere by %g" % on_sphere)

    planarity = 0.0
    convexity = np.inf
    for face in faces:
        fp = np.array([positions[v] for v in face])
        centroid = fp.mean(axis=0)
        # Best-fit plane normal: smallest singular vector.
        _, svals, vt = np.linalg.svd(fp - centroid)
        normal = vt[-1]
        planarity = max(planarity,
                        float(np.max(np.abs((fp - centroid) @ normal))))
        dots = (pts - centroid) @ normal
        # Orient the normal so the polyhedron lies on the negative side.
        if dots.max() > -dots.min():
            normal = -normal
            dots = -dots
        convexity = min(convexity, float(-dots.max()))
    if planarity > PLANARITY_TOL:
        raise ConvexityViolated("face planarity residual %g" % planarity)
    if convexity < -CONVEXITY_TOL:
        raise ConvexityViolated("convexity margin %g" % convexity)
    return {"on_sphere": on_sphere, "planarity": planarity,
            "convexity_margin": convexity}


def two_sided_polygon(result, v_inf):
    """Degenerate realization: all ideal vertices on one circle."""
    kind = classify_realizable(result, v_inf)
    if kind != TWO_SIDED:
        raise WrongKind("two_sided_polygon requires the two-sided case")
    rtri = result.metric.triangulation
    sub = mesh_core.subcomplex_avoiding(rtri, v_inf)

    # Order the path vertices from one end to the other.
    adj = {v: [] for v in sub.kept_vertices}
    for e in sub.kept_edges:
        a, b = rtri.edge_verts[e]
        adj[a].append(b)
        adj[b].append(a)
    ends = [v for v, nb in adj.items() if len(nb) <= 1]
    path = [min(ends)]
    while len(path) < len(sub.kept_vertices):
        nxt = [w for w in adj[path[-1]] if len(path) < 2 or w != path[-2]]
        path.append(nxt[0])

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
    and realization as an inscribed polyhedron or two-sided polygon."""
    report = _optimize.minimize_punctured_energy(metric, v_inf, opts)
    ev = _energy.punctured_energy(metric, v_inf, report.u_final)
    result = ev.delaunay
    kind = classify_realizable(result, v_inf)
    if kind == TWO_SIDED:
        realization = two_sided_polygon(result, v_inf)
    else:
        layout = layout_disk(result, v_inf)
        realization = polyhedron_from_layout(layout, result, v_inf)
    realization.report = report
    realization.delaunay = result
    return realization


def _lattice_from_translations(translations, tol=1e-8):
    """Basis of the rank-2 lattice generated by (near-lattice) vectors."""
    vecs = [t for t in translations if abs(t) > tol]
    if not vecs:
        raise LayoutInconsistent("no nonzero deck translations found")
    v1 = min(vecs, key=abs)
    indep = [t for t in vecs
             if abs((t / v1).imag) * abs(v1) > tol]
    if not indep:
        raise LayoutInconsistent("deck translations are collinear")
    v2 = min(indep, key=abs)
    v1, v2 = _lagrange_reduce(v1, v2)

    # Absorb any translation that is not an integer combination yet.
    for _ in range(100):
        worst = None
        for t in vecs:
            a, b = _coords(t, v1, v2)
            fa, fb = a - round(a), b - round(b)
            if abs(fa) > 1e-6 or abs(fb) > 1e-6:
                worst = t - round(a) * v1 - round(b) * v2
                break
        if worst is None:
            break
        if abs(worst) < abs(v1):
            v2, v1 = v1, worst
        else:
            v2 = worst
        v1, v2 = _lagrange_reduce(v1, v2)
    return v1, v2


def _coords(t, v1, v2):
    det = (v1.real * v2.imag - v1.imag * v2.real)
    a = (t.real * v2.imag - t.imag * v2.real) / det
    b = (v1.real * t.imag - v1.imag * t.real) / det
    return a, b


def _lagrange_reduce(v1, v2):
    if abs(v2) < abs(v1):
        v1, v2 = v2, v1
    for _ in range(200):
        mu = round((v2.real * v1.real + v2.imag * v1.imag) / abs(v1) ** 2)
        v2 = v2 - mu * v1
        if abs(v2) >= abs(v1):
            break
        v1, v2 = v2, v1
    return v1, v2


def _normalize_tau(tau):
    """Move tau into the standard fundamental domain of the modular
    group: Re in (-1/2, 1/2], |tau| >= 1, upper half plane, and Re >= 0
    where |tau| = 1 (the two boundary arcs are identified by -1/tau)."""
    if tau.imag < 0:
        tau = tau.conjugate()
    for _ in range(200):
        tau = complex(tau.real - round(tau.real), tau.imag)
        if abs(tau) < 1.0 - TAU_BOUNDARY_TOL:
            tau = -1.0 / tau
        else:
            break
    re = tau.real
    if re <= -0.5 + TAU_BOUNDARY_TOL:
        re += 1.0
    if re < 0 and abs(abs(tau) - 1.0) <= TAU_BOUNDARY_TOL:
        re = -re
    return complex(re, tau.imag)


def uniformize_torus(metric, opts=None):
    """Flat uniformization of a genus-1 surface: returns the lattice and
    the normalized modulus tau."""
    tri = metric.triangulation
    if tri.genus != 1:
        raise WrongGenus("uniformize_torus needs genus 1, got genus %d"
                         % tri.genus)
    target = ConeAngleTarget.uniform(tri.num_vertices)
    report = _optimize.minimize_conformal_energy(metric, target, opts)
    ev = _energy.conformal_energy(metric, target, report.u_final)
    met = ev.delaunay.metric
    rtri = met.triangulation

    all_tris = list(range(rtri.num_triangles))
    angles = _energy._triangle_angles(rtri.side_edge, met.lam, all_tris)
    corner_pos, crossed = _layout_triangles(rtri, all_tris, met.lengths,
                                            angles)
    crossed_set = set(crossed) | {rtri.glue[k] for k in crossed}

    # Deck transformations from the non-tree edges.  The holonomy is
    # translational because every angle sum is 2 pi; both endpoints of
    # the shared side must report the same translation.
    translations = []
    mismatch = 0.0
    scale_len = max(abs(p) for p in corner_pos.values()) + 1.0
    for t in all_tris:
        for i in range(3):
            k = 3 * t + i
            m = rtri.glue[k]
            if k in crossed_set or m < k:
                continue
            t2, s2 = divmod(m, 3)
            # Where triangle t2's side would land if developed across k.
            pa = corner_pos[3 * t + (i + 1) % 3]
            pb = corner_pos[3 * t + i]
            qa = corner_pos[3 * t2 + s2]
            qb = corner_pos[3 * t2 + (s2 + 1) % 3]
            d1 = pa - qa
            d2 = pb - qb
            if abs(d1 - d2) > 1e-8 * scale_len:
                raise LayoutInconsistent(
                    "holonomy across edge %d is not a translation (%g)"
                    % (rtri.side_edge[k], abs(d1 - d2)))
            mismatch = max(mismatch, abs(d1 - d2))
            translations.append(d1)

    v1, v2 = _lattice_from_translations(translations)
    # Unit covolume, orientation with positive area.
    area = v1.real * v2.imag - v1.imag * v2.real
    if area < 0:
        v1, v2 = v2, v1
        area = -area
    s = 1.0 / math.sqrt(area)
    v1, v2 = v1 * s, v2 * s
    tau = _normalize_tau(v2 / v1)
    # Residual: holonomy mismatch or distance of a deck translation from
    # the lattice, whichever is larger, at unit covolume.
    deck = np.array(translations) * s
    a, b = _coords(deck, v1, v2)
    residual = float(max(mismatch * s, np.max(np.abs(
        deck - np.round(a) * v1 - np.round(b) * v2))))

    vpos = {}
    cv = rtri.corner_vertex
    for k, z in corner_pos.items():
        vpos.setdefault(cv[k], z * s)
    faces = [[cv[3 * t + i] for i in range(3)] for t in all_tris]
    return Realization(FLAT_TORUS, vpos, faces,
                       {"covolume": 1.0,
                        "residual_lattice": residual},
                       tau=tau, lattice=(v1, v2), report=report,
                       metric=met)


def prescribe_cone_angles(metric, target, opts=None):
    """Flat-with-cone-points metric with the prescribed angles."""
    report = _optimize.minimize_conformal_energy(metric, target, opts)
    ev = _energy.conformal_energy(metric, target, report.u_final)
    met = ev.delaunay.metric
    achieved = ev.theta_tilde
    return Realization(CONE_METRIC, {}, [],
                       {"max_angle_error":
                        float(np.max(np.abs(achieved - target.theta)))},
                       metric=met, theta_tilde=achieved, report=report,
                       lengths=np.exp(met.lam / 2.0))
