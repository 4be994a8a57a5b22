"""Reference geometric back-end: the per-cell loops that realize's array
development, face order, certificate and torus holonomy replaced, kept
as a test oracle.

reference_sphere(result, v_inf) lays out the disk of a polyhedral
DelaunayResult and assembles and certifies its faces; it returns
(layout, positions, faces, diagnostics) with layout a dict of the
PlanarLayout fields it computes.  reference_torus(met) develops the
Delaunay metric met of a solved torus; it returns (vertex positions,
faces, tau, lattice, residual_lattice).  The sphere oracle derives the
disk itself from the bare DelaunayResult: it builds the subcomplex
avoiding v_inf and measures its lengths, angles and angle sums with the
angle kernel (_disk_angles), where realize reads them off the solver's
final evaluation.  Everything after them is the old loop code.  The
torus oracle finds its lattice by the old numerical search over all
deck translations (Lagrange reduction, then absorbing any translation
off the lattice) and normalizes tau on its own, where realize reduces
the tree-cotree basis once; so its basis may differ from realize's by a
change of basis of the same lattice.
"""

import cmath
import math
from collections import deque

import numpy as np

from uniformizer import energy, mesh_core, realize
from uniformizer.errors import (
    ConvexityViolated,
    LayoutInconsistent,
    NotRealizable,
)


def _place_third(pa, pb, angle_at_a, length_a_to_c):
    """Third corner of a ccw triangle with corners a, b placed."""
    d = pb - pa
    d /= abs(d)
    return pa + length_a_to_c * d * cmath.exp(1j * angle_at_a)


def _layout_triangles(tri, triangles, lengths, angles, seed=None):
    """Develop the given triangles in the plane by BFS over shared
    edges.  Returns (corner_pos, tree_crossed_sides)."""
    se = tri.side_edge.tolist()
    glue = tri.glue.tolist()
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


def _region_boundary_walk(glue, region, start_side=None):
    """Directed boundary sides of a set of triangles, walked in order.

    glue is the gluing as a list.  A side is a boundary side when its
    glued partner lies outside the region.  Returns the list of flat side
    indices in cyclic order.
    """
    tset = set(region)
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


def _disk_angles(result, sub):
    """(lengths, angles, theta_tilde) of the kept disk sub: lengths per
    edge (inf on the edges at v_inf) and angles per triangle (NaN off the
    disk)."""
    rtri = result.metric.triangulation
    u = result.u.u
    kept = sub.triangle_mask
    ends = rtri.edge_verts
    lam = result.metric.lam + u[ends[:, 0]] + u[ends[:, 1]]
    angles = np.full((rtri.num_triangles, 3), np.nan)
    angles[kept] = energy._triangle_angles(rtri.side_edge, lam, kept)
    theta_tilde = energy._angle_sums(rtri, kept, sub.edge_mask,
                                     angles[kept])[0]
    return np.exp(lam / 2.0), angles, theta_tilde


def _layout_disk(result, v_inf):
    rtri = result.metric.triangulation
    sub = mesh_core.subcomplex_avoiding(rtri, v_inf)
    assert mesh_core.classify_subcomplex(sub) == mesh_core.DISK_TRIANGULATION
    lengths, angles, theta_tilde = _disk_angles(result, sub)
    tris = np.flatnonzero(sub.triangle_mask).tolist()

    corner_pos, _ = _layout_triangles(rtri, tris, lengths, angles)

    # First placement wins per vertex; record the worst mismatch.
    cv = rtri.corner_vertex.tolist()
    vertex_pos = {}
    mismatch = 0.0
    for t in tris:
        for i in range(3):
            k = 3 * t + i
            v = cv[k]
            if v in vertex_pos:
                mismatch = max(mismatch, abs(corner_pos[k] - vertex_pos[v]))
            else:
                vertex_pos[v] = corner_pos[k]

    pts = np.array(list(vertex_pos.values()))
    diameter = max(float(np.abs(pts - p).max()) for p in pts) \
        if len(pts) > 1 else 1.0
    residual = mismatch / diameter
    if residual > 1e-8:
        raise LayoutInconsistent(
            "vertex stars fail to close (relative residual %g)" % residual)

    walk = _region_boundary_walk(rtri.glue.tolist(), tris)
    boundary_cycle = [cv[k] for k in walk]
    return {"corner_pos": corner_pos, "vertex_pos": vertex_pos,
            "residual": residual, "boundary_cycle": boundary_cycle,
            "sub": sub, "theta_tilde": theta_tilde}


def _to_sphere(z):
    """Inverse stereographic projection from the north pole."""
    x, y = z.real, z.imag
    r2 = x * x + y * y
    return np.array([2.0 * x, 2.0 * y, r2 - 1.0]) / (r2 + 1.0)


def _merged_bottom_faces(result, sub):
    """Kept triangles merged across nonessential kept edges: a list of
    sorted triangle lists, ordered by their smallest triangle."""
    rtri = result.metric.triangulation
    kept = sub.triangle_mask
    tris = np.flatnonzero(kept)
    pairs = rtri.edge_sides[sorted(result.nonessential_edges)] // 3
    pairs = pairs[kept[pairs].all(axis=1)]
    labels = mesh_core._components(rtri.num_triangles, *pairs.T)[tris]
    # Each triangle's key is the index in tris of its group's smallest.
    _, first, inverse = np.unique(labels, return_index=True,
                                  return_inverse=True)
    key = first[inverse]
    order = np.argsort(key, kind="stable")
    cuts = [0, *(np.flatnonzero(np.diff(key[order])) + 1).tolist(), len(key)]
    tris = tris[order].tolist()
    return [tris[a:b] for a, b in zip(cuts, cuts[1:])]


def _polyhedron_from_layout(layout, result, v_inf):
    rtri = result.metric.triangulation
    sub = layout["sub"]
    cv = rtri.corner_vertex.tolist()

    # Moebius normalization: centroid zero, mean squared radius one.
    verts = sorted(layout["vertex_pos"])
    zs = np.array([layout["vertex_pos"][v] for v in verts])
    zs = zs - zs.mean()
    scale = math.sqrt(float(np.mean(np.abs(zs) ** 2)))
    zs = zs / scale

    positions = {v_inf: np.array([0.0, 0.0, 1.0])}
    for v, z in zip(verts, zs):
        positions[v] = _to_sphere(z)

    faces = []
    glue = rtri.glue.tolist()
    for group in _merged_bottom_faces(result, sub):
        walk = _region_boundary_walk(glue, group)
        faces.append([cv[k] for k in walk])

    # Side faces: chains of the disk boundary between genuine corners
    # (boundary vertices with angle sum < pi are corners; angle sum pi
    # means two collinear boundary edges merging into one face).
    cycle = layout["boundary_cycle"]
    m = len(cycle)
    corner_idx = [i for i in range(m)
                  if layout["theta_tilde"][cycle[i]]
                  < math.pi - realize.ANGLE_TOL]
    if not corner_idx:
        raise NotRealizable("disk boundary has no convex corner")
    for a, b in zip(corner_idx, corner_idx[1:] + [corner_idx[0] + m]):
        chain = [cycle[i % m] for i in range(a, b + 1)]
        faces.append([v_inf] + chain)

    return positions, faces, _certify_polyhedron(positions, faces)


def _certify_polyhedron(positions, faces):
    """On-sphere, planarity, and convexity certification."""
    pts = np.array([positions[v] for v in sorted(positions)])
    on_sphere = float(np.max(np.abs(np.linalg.norm(pts, axis=1) - 1.0)))
    if on_sphere > realize.ON_SPHERE_TOL:
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
    if planarity > realize.PLANARITY_TOL:
        raise ConvexityViolated("face planarity residual %g" % planarity)
    if convexity < -realize.CONVEXITY_TOL:
        raise ConvexityViolated("convexity margin %g" % convexity)
    return {"on_sphere": on_sphere, "planarity": planarity,
            "convexity_margin": convexity}


def reference_sphere(result, v_inf):
    layout = _layout_disk(result, v_inf)
    positions, faces, diagnostics = _polyhedron_from_layout(
        layout, result, v_inf)
    return layout, positions, faces, diagnostics


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
    where |tau| = 1."""
    tol = realize.TAU_BOUNDARY_TOL
    if tau.imag < 0:
        tau = tau.conjugate()
    for _ in range(200):
        tau = complex(tau.real - round(tau.real), tau.imag)
        if abs(tau) < 1.0 - tol:
            tau = -1.0 / tau
        else:
            break
    re = tau.real
    if re <= -0.5 + tol:
        re += 1.0
    if re < 0 and abs(abs(tau) - 1.0) <= tol:
        re = -re
    return complex(re, tau.imag)


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
            a, b = realize._coords(t, v1, v2)
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


def reference_torus(met):
    rtri = met.triangulation
    all_tris = list(range(rtri.num_triangles))
    angles = energy._triangle_angles(rtri.side_edge, met.lam, all_tris)
    corner_pos, crossed = _layout_triangles(rtri, all_tris, met.lengths,
                                            angles)
    glue = rtri.glue.tolist()
    crossed_set = set(crossed) | {glue[k] for k in crossed}

    # Deck transformations from the non-tree edges.  The holonomy is
    # translational because every angle sum is 2 pi; both endpoints of
    # the shared side must report the same translation.
    translations = []
    mismatch = 0.0
    scale_len = max(abs(p) for p in corner_pos.values()) + 1.0
    for t in all_tris:
        for i in range(3):
            k = 3 * t + i
            m = glue[k]
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
    a, b = realize._coords(deck, v1, v2)
    residual = float(max(mismatch * s, np.max(np.abs(
        deck - np.round(a) * v1 - np.round(b) * v2))))

    vpos = {}
    cv = rtri.corner_vertex.tolist()
    for k, z in corner_pos.items():
        vpos.setdefault(cv[k], z * s)
    faces = [[cv[3 * t + i] for i in range(3)] for t in all_tris]
    return vpos, faces, tau, (v1, v2), residual
