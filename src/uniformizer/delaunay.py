r"""Ideal Delaunay predicates and the flip algorithm.

The local Delaunay condition at an edge e compares horocyclic arc lengths
in the two adjacent triangles.  With the quad around e labelled

          r                  arcs:  alpha  at r   (opposite e in t1)
         / \                        alpha' at r'  (opposite e in t2)
        b   a                       beta, beta'   at q (incident with e)
       /     \                      gamma, gamma' at p (incident with e)
      p---e---q
       \     /
        c   d
         \ /
          r'

the weighted margin is

    (beta + beta') exp(-u_q) + (gamma + gamma') exp(-u_p)
        - alpha exp(-u_r) - alpha' exp(-u_r')

and e is Delaunay iff the margin is >= 0.  The weights come from a
partial decoration u; exp(-inf) = 0, so undecorated apexes force flips
toward themselves.  Arcs are computed from the base lambda; Ptolemy
updates commute with the fiber shift, so the algorithm tracks base
lambda only, which keeps everything finite even with infinite u.

Flips change the triangulation and lambda but not the decorated surface
they describe, so any triangulation of that surface is as good a start
as the input.  The solvers use this: each energy evaluation starts from
the Delaunay triangulation of the previous one (a warm start) and flips
only what the last step changed.
"""

import logging
import math

import numpy as np

from . import mesh_core
from .errors import (
    DegenerateQuad,
    FlipLimitExceeded,
    SameVertex,
    TriangleInequalityViolated,
    UnknownVertex,
)
from .penner import DecoratedMetric, PartialDecoration, ptolemy_update

log = logging.getLogger(__name__)

# An edge is nonessential when |margin| <= NONESSENTIAL_REL * (arc scale).
NONESSENTIAL_REL = 1e-9

PLAIN = "plain"
ADJUSTED = "adjusted"


class DelaunayResult:
    """Output of make_delaunay.

    Attributes:
        metric: DecoratedMetric with the post-flip base lambda on the
            Delaunay triangulation.
        u: the PartialDecoration the run was weighted by.
        flips: list of (edge-id, lambda-before, lambda-after).
        nonessential_edges: set of edge ids with margin ~ 0.
        punctured_faces: dict undecorated-vertex -> tuple of triangle ids
            fanned around it (adjusted mode only).
    """

    def __init__(self, metric, u, flips, nonessential_edges, punctured_faces):
        self.metric = metric
        self.u = u
        self.flips = flips
        self.nonessential_edges = nonessential_edges
        self.punctured_faces = punctured_faces


def _quad(tri, e):
    """Flat side indices (ka, kb, kc, kd) and corner vertices
    (vp, vq, vr, vrp) of the quad around edge e; raises DegenerateQuad
    when both sides of e lie in one triangle."""
    k1, k2 = tri.edge_sides[e]
    t1, s1 = divmod(k1, 3)
    t2, s2 = divmod(k2, 3)
    if t1 == t2:
        raise DegenerateQuad("both sides of edge %d in triangle %d" % (e, t1))
    ka = 3 * t1 + (s1 + 1) % 3
    kb = 3 * t1 + (s1 + 2) % 3
    kc = 3 * t2 + (s2 + 1) % 3
    kd = 3 * t2 + (s2 + 2) % 3
    cv = tri.corner_vertex
    return ((ka, kb, kc, kd),
            (cv[k1], cv[ka], cv[kb], cv[kd]))


def _margin_terms(tri, lam, e):
    """Arc terms of the local Delaunay margin at e, before u-weighting.

    Returns (incident_q, incident_p, opposite_r, opposite_rp) arc sums and
    the vertex ids (vp, vq, vr, vrp).
    """
    (ka, kb, kc, kd), verts = _quad(tri, e)
    se = tri.side_edge
    le = lam[se[tri.edge_sides[e][0]]]
    la, lb, lc, ld = lam[se[ka]], lam[se[kb]], lam[se[kc]], lam[se[kd]]
    # Arcs at the four quad corners, from each adjacent triangle.
    beta = math.exp((lb - le - la) / 2.0)      # at q in t1
    beta2 = math.exp((lc - le - ld) / 2.0)     # at q in t2
    gamma = math.exp((la - le - lb) / 2.0)     # at p in t1
    gamma2 = math.exp((ld - le - lc) / 2.0)    # at p in t2
    alpha = math.exp((le - la - lb) / 2.0)     # at r
    alpha2 = math.exp((le - lc - ld) / 2.0)    # at r'
    return (beta + beta2, gamma + gamma2, alpha, alpha2), verts


def delaunay_margin(metric, u, e):
    """Weighted local Delaunay margin at edge e; >= 0 means Delaunay."""
    if u is None:
        u = PartialDecoration.zeros(metric.triangulation.num_vertices)
    (inc_q, inc_p, opp_r, opp_rp), (vp, vq, vr, vrp) = \
        _margin_terms(metric.triangulation, metric.lam, e)
    w = np.exp(-u.u)
    return inc_q * w[vq] + inc_p * w[vp] - opp_r * w[vr] - opp_rp * w[vrp]


def _margin_and_scale(tri, lam, uexp, e):
    """(margin, scale) with scale = sum of the term magnitudes."""
    (inc_q, inc_p, opp_r, opp_rp), (vp, vq, vr, vrp) = \
        _margin_terms(tri, lam, e)
    tq = inc_q * uexp[vq]
    tp = inc_p * uexp[vp]
    tr = opp_r * uexp[vr]
    trp = opp_rp * uexp[vrp]
    return tq + tp - tr - trp, tq + tp + tr + trp


def _flip(tri, lam, e):
    """Flip e, Ptolemy-update base lambda in place; returns new tri."""
    (ka, kb, kc, kd), _ = _quad(tri, e)
    se = tri.side_edge
    le = lam[e]
    lf = ptolemy_update(lam[se[ka]], lam[se[kb]], lam[se[kc]], lam[se[kd]], le)
    new_tri = mesh_core.flip_edge(tri, e)
    lam[e] = lf
    return new_tri, le, lf


def _affected_edges(tri, e):
    """Edge ids of the two triangles adjacent to e (post- or pre-flip)."""
    k1, k2 = tri.edge_sides[e]
    t1, t2 = k1 // 3, k2 // 3
    se = tri.side_edge
    out = set()
    for t in (t1, t2):
        out.update(se[3 * t:3 * t + 3])
    return out


def make_delaunay(metric, u=None, mode=PLAIN):
    """Run the flip algorithm until every edge is Delaunay.

    In adjusted mode additionally flips nonessential edges whose quad
    apex is an undecorated vertex, so that every punctured face ends up
    fanned from its undecorated center.

    Only strict violations (margin < -tol) are flipped; equality cases
    are collected as nonessential edges.  Edges whose two sides lie in
    the same triangle are skipped (no quad to test).
    """
    tri = metric.triangulation
    if u is None:
        u = PartialDecoration.zeros(tri.num_vertices)
    lam = metric.lam.copy()
    uexp = np.exp(-u.u)
    max_flips = 1000 * tri.num_edges + 10000
    flips = []

    from collections import deque
    queue = deque(range(tri.num_edges))
    queued = [True] * tri.num_edges

    def enqueue(edges):
        for a in edges:
            if not queued[a]:
                queued[a] = True
                queue.append(a)

    while queue:
        e = queue.popleft()
        queued[e] = False
        k1, k2 = tri.edge_sides[e]
        if k1 // 3 == k2 // 3:
            continue
        margin, scale = _margin_and_scale(tri, lam, uexp, e)
        if margin >= -NONESSENTIAL_REL * scale:
            continue
        if len(flips) >= max_flips:
            raise FlipLimitExceeded("more than %d flips" % max_flips)
        tri, le, lf = _flip(tri, lam, e)
        flips.append((e, le, lf))
        enqueue(_affected_edges(tri, e))

    if mode == ADJUSTED:
        tri = _adjust(tri, lam, u, uexp, flips, max_flips)

    nonessential = set()
    for e in range(tri.num_edges):
        k1, k2 = tri.edge_sides[e]
        if k1 // 3 == k2 // 3:
            continue
        margin, scale = _margin_and_scale(tri, lam, uexp, e)
        if abs(margin) <= NONESSENTIAL_REL * scale:
            nonessential.add(e)

    punctured = {}
    if mode == ADJUSTED:
        for v in range(tri.num_vertices):
            if not np.isfinite(u.u[v]):
                punctured[v] = tuple(sorted({k // 3
                                             for k in tri.vertex_corners[v]}))

    if flips:
        log.debug("make_delaunay: %d flips on %r", len(flips), tri)
    return DelaunayResult(DecoratedMetric(tri, lam), u, flips,
                          nonessential, punctured)


def _adjust(tri, lam, u, uexp, flips, max_flips):
    """Fan punctured faces: flip nonessential edges with undecorated apex.

    Flipping a nonessential edge keeps the Delaunay decomposition, so no
    margins can go negative beyond round-off; each flip raises the degree
    of the undecorated center, so the loop terminates.
    """
    changed = True
    while changed:
        changed = False
        for e in range(tri.num_edges):
            k1, k2 = tri.edge_sides[e]
            if k1 // 3 == k2 // 3:
                continue
            _, (vp, vq, vr, vrp) = _quad(tri, e)
            if np.isfinite(u.u[vr]) and np.isfinite(u.u[vrp]):
                continue
            margin, scale = _margin_and_scale(tri, lam, uexp, e)
            if abs(margin) > NONESSENTIAL_REL * scale:
                continue
            if len(flips) >= max_flips:
                raise FlipLimitExceeded("more than %d flips" % max_flips)
            tri, le, lf = _flip(tri, lam, e)
            flips.append((e, le, lf))
            changed = True
    return tri


class DelaunayCheck:
    def __init__(self, ok, violations, nonessential, skipped):
        self.ok = ok
        self.violations = violations
        self.nonessential = nonessential
        self.skipped = skipped


def check_delaunay(metric, u=None):
    """Exhaustive margin scan of all edges, independent of flip history."""
    tri = metric.triangulation
    if u is None:
        u = PartialDecoration.zeros(tri.num_vertices)
    uexp = np.exp(-u.u)
    violations = []
    nonessential = set()
    skipped = set()
    for e in range(tri.num_edges):
        k1, k2 = tri.edge_sides[e]
        if k1 // 3 == k2 // 3:
            skipped.add(e)
            continue
        margin, scale = _margin_and_scale(tri, metric.lam, uexp, e)
        if margin < -NONESSENTIAL_REL * scale:
            violations.append((e, margin))
        elif abs(margin) <= NONESSENTIAL_REL * scale:
            nonessential.add(e)
    return DelaunayCheck(not violations, violations, nonessential, skipped)


def triangle_inequality_check(metric):
    """True iff ell = exp(lambda/2) satisfies the strict triangle
    inequalities on every triangle."""
    tri = metric.triangulation
    for t in range(tri.num_triangles):
        l1, l2, l3 = metric.triangle_lambdas(t)
        a, b, c = math.exp(l1 / 2), math.exp(l2 / 2), math.exp(l3 / 2)
        if a + b <= c or b + c <= a or c + a <= b:
            return False
    return True


def _cotan_weights(metric):
    """Per edge, the sum of the cotangents of the two angles opposite it."""
    from .energy import _triangle_angles
    tri = metric.triangulation
    angles = _triangle_angles(tri.side_edge, metric.lam, slice(None))
    return np.bincount(tri.side_edge, 1.0 / np.tan(angles).ravel(),
                       minlength=tri.num_edges)


class CrosscheckResult:
    def __init__(self, consistent, mismatches, skipped):
        self.consistent = consistent
        self.mismatches = mismatches
        self.skipped = skipped


def euclidean_delaunay_crosscheck(metric, tol=1e-10):
    """Compare the ideal margin (u = 0) against the euclidean cotangent
    predicate edge by edge; both must agree in sign (or both be ~ 0)."""
    if not triangle_inequality_check(metric):
        raise TriangleInequalityViolated(
            "euclidean cross-check requires the triangle inequalities")
    tri = metric.triangulation
    uexp = np.ones(tri.num_vertices)
    weights = _cotan_weights(metric)
    mismatches = []
    skipped = set()
    for e in range(tri.num_edges):
        k1, k2 = tri.edge_sides[e]
        if k1 // 3 == k2 // 3:
            skipped.add(e)
            continue
        margin, scale = _margin_and_scale(tri, metric.lam, uexp, e)
        cot = float(weights[e])
        m = margin / scale
        m_zero = abs(m) <= tol
        c_zero = abs(cot) <= math.sqrt(tol)
        if m_zero and c_zero:
            continue
        if m_zero != c_zero or m * cot <= 0:
            mismatches.append((e, margin, cot))
    return CrosscheckResult(not mismatches, mismatches, skipped)


def horocycle_distances_to(metric, v2):
    """delta(w, v2) for every vertex w != v2, via one adjusted run with
    the only decorated vertex v2.  Returns a dict w -> delta."""
    tri = metric.triangulation
    if not 0 <= v2 < tri.num_vertices:
        raise UnknownVertex("vertex %d not in range [0, %d)"
                            % (v2, tri.num_vertices))
    u = PartialDecoration.all_infinite_except(tri.num_vertices, [v2])
    result = make_delaunay(metric, u, mode=ADJUSTED)
    rtri = result.metric.triangulation
    lam = result.metric.lam
    candidates = {}
    for e, (a, b) in enumerate(rtri.edge_verts):
        if a == v2 and b != v2:
            candidates.setdefault(b, []).append(lam[e])
        elif b == v2 and a != v2:
            candidates.setdefault(a, []).append(lam[e])
    out = {}
    for w, vals in candidates.items():
        spread = max(vals) - min(vals)
        if spread > 1e-9 * max(1.0, max(abs(x) for x in vals)):
            raise AssertionError(
                "fan edges at vertex %d disagree by %g" % (w, spread))
        out[w] = vals[0]
    for w in range(tri.num_vertices):
        if w != v2 and w not in out:
            # Cannot happen on a connected surface: the punctured face of
            # w is bounded by horocyclic decorated vertices, all = v2.
            raise AssertionError("no edge from %d to %d after adjusting"
                                 % (w, v2))
    return out


def horocycle_distance(metric, v1, v2):
    """Signed distance delta between the horocycles at v1 and v2,
    minimized over lifts.  Symmetric in its arguments."""
    if v1 == v2:
        raise SameVertex("delta(v, v) is not defined")
    n = metric.triangulation.num_vertices
    if not 0 <= v1 < n:
        raise UnknownVertex("vertex %d not in range [0, %d)" % (v1, n))
    return horocycle_distances_to(metric, v2)[v1]
