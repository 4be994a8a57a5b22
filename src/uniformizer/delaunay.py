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

One formula gives every margin.  Per triangle, let S be the sum of its
three weighted corner arcs (_triangle_terms); side s then receives
S - 2 A, with A the weighted arc at the apex opposite s.  Summing over
the two triangles of e gives the margin above, and the sum of their S is
the margin's scale (_edge_terms).  _margins applies the two to every
triangle and edge.

make_delaunay copies the triangulation's tables once into a working
state (_FlipState) that also holds lambda, the per-triangle terms and
every edge's margin, and flips in rounds.  A round picks, in edge order,
the strictly violating edges whose quads share no triangle with a quad
already picked in that round, and flips them all at once: one array
Ptolemy update and one in-place slot permutation
(mesh_core._flip_in_place).  A flip changes only the lambda of its own
edge and its own two triangles, while a margin and a Ptolemy update read
only the lambdas and vertices of the edge's two triangles, so the
margins read at the start of the round are exact for every picked edge,
and the batch gives the same triangulation and lambdas as flipping its
edges one by one in edge order.  For the same reason the round then
recomputes only the terms of the flipped triangles and the margins of
their edges; every other margin is unchanged.  The rounds stop when no
edge is violating.  The adjusted pass continues on the same state, and
the result's Triangulation is built once, at the end.  The Delaunay
(Epstein-Penner) decomposition is unique, and any order of flips that fix
strict violations reaches it; the order can change only the diagonals of
cocircular cells.

A round costs a fixed number of array calls on the batch alone.  The
permutation gathers the six sides of each quad once and returns the
edge ids and corners of the two new triangles, t1' = (b, c, f) and
t2' = (d, a, f); the round reads the Ptolemy inputs and the new
triangles' lambdas off that gather and computes their terms with the
operations of _triangle_terms, without another pass through the tables.
Its index patterns depend only on the number of quads
(mesh_core._quad_patterns), and every array it writes to is C-ordered,
so no write copies a whole table.  One np.errstate over the run lets
arcs overflow; _edge_terms raises ArcOverflow when that reaches a scale
or a margin.

Flips change the triangulation and lambda but not the decorated surface
they describe, so any triangulation of that surface is as good a start
as the input.  The solvers use this: each energy evaluation starts from
the Delaunay triangulation of the previous one (a warm start) and flips
only what the last step changed.
"""

import functools
import logging
import math

import numpy as np

from . import mesh_core
from .errors import (
    ArcOverflow,
    DegenerateQuad,
    FanInconsistent,
    FlipLimitExceeded,
    OutOfDomain,
    SameVertex,
    TriangleInequalityViolated,
    WrongLength,
)
from .penner import (
    DecoratedMetric,
    PartialDecoration,
    _log_corner_arcs,
    _ptolemy,
)

log = logging.getLogger(__name__)

# An edge is nonessential when |margin| <= NONESSENTIAL_REL * (arc scale).
NONESSENTIAL_REL = 1e-9
# A run may make MAX_FLIPS_PER_EDGE flips per edge plus MAX_FLIPS_EXTRA
# before it raises FlipLimitExceeded: a safety net far above the flip
# counts of terminating runs, which stays linear in the mesh size.
MAX_FLIPS_PER_EDGE = 1000
MAX_FLIPS_EXTRA = 10000
# The edges from one vertex to the decorated vertex of a horocycle run
# must agree in lambda to this relative spread: they are all delta.
FAN_REL = 1e-9
# The euclidean cross-check takes an ideal margin within this share of
# its scale for zero, and a cotangent sum within its square root (1e-5),
# a looser bound because that sum is absolute, not over a scale.
CROSSCHECK_TOL = 1e-10

PLAIN = "plain"
ADJUSTED = "adjusted"


class DelaunayResult:
    """Output of make_delaunay.

    Attributes:
        metric: DecoratedMetric with the post-flip base lambda on the
            Delaunay triangulation.
        u: the PartialDecoration the run was weighted by.
        flips: list of (edge-id, lambda-before, lambda-after).
        nonessential_edges: set of edge ids with margin ~ 0, computed on
            first use from the final margins and scales of every edge.
    """

    def __init__(self, metric, u, flips, margin, scale):
        self.metric = metric
        self.u = u
        self.flips = flips
        self._margin, self._scale = margin, scale

    @functools.cached_property
    def nonessential_edges(self):
        return _edge_set(np.abs(self._margin)
                         <= NONESSENTIAL_REL * self._scale)


def _quad(tri, e):
    """Flat side indices (ka, kb, kc, kd) and corner vertices
    (vp, vq, vr, vrp) of the quad around edge e; raises DegenerateQuad
    when both sides of e lie in one triangle."""
    k1, k2, ka, kb, kc, kd = mesh_core._quad_sides(tri, e)
    if k1 // 3 == k2 // 3:
        raise DegenerateQuad("both sides of edge %d in triangle %d"
                             % (e, k1 // 3))
    cv = tri.corner_vertex
    return ((ka, kb, kc, kd),
            (cv[k1], cv[ka], cv[kb], cv[kd]))


def _triangle_terms(tri, lam, uexp):
    """(opposite, total) of all triangles: the weighted arc at the apex
    opposite each side, a flat array over the sides, and the sum S of
    the three weighted corner arcs per triangle.  tri is anything with
    the side_edge and corner_vertex tables of a triangulation.  The
    caller ignores overflow and invalid operations (see _edge_terms)."""
    arcs = np.exp(_log_corner_arcs(tri.side_edge, lam))
    arcs *= uexp[tri.corner_vertex.reshape(-1, 3)]
    # Side s is incident with the arcs at corners s and s + 1 and
    # opposite the arc at corner s + 2.  S adds the arcs from the left,
    # as arcs.sum(axis=1) does and as _FlipState.flip does.
    return (np.take(arcs, [2, 0, 1], axis=1).ravel(),
            (arcs[:, 0] + arcs[:, 1]) + arcs[:, 2])


def _edge_terms(edge_sides, opposite, total, edges=slice(None)):
    """(margin, scale) of the given edges from the _triangle_terms of all
    triangles: each side contributes S - 2 A to the margin and S to the
    scale.  Edges whose two sides lie in one triangle have no quad;
    their margin is +inf.  Raises ArcOverflow when a scale, or the
    margin of an edge with a quad, leaves the float range (2 A may
    overflow where S does not); the caller ignores overflow and invalid
    operations."""
    sides = edge_sides[edges]
    tris = sides // 3
    total = total[tris]
    scale = total[:, 0] + total[:, 1]
    terms = total - 2.0 * opposite[sides]
    margin = terms[:, 0] + terms[:, 1]
    margin[tris[:, 0] == tris[:, 1]] = np.inf
    # A margin is at most its scale, so only -inf and NaN are left; both
    # reductions propagate NaN.
    if not (scale.max() < np.inf and margin.min() > -np.inf):
        raise ArcOverflow("a horocyclic arc overflows: lambda spans too "
                          "wide a range")
    return margin, scale


def _margins(tri, lam, uexp):
    """Weighted local Delaunay margin and its scale at every edge.

    Returns two arrays of length E.  The scale is the sum of the
    magnitudes of the margin's four terms.  Edges whose two sides lie in
    one triangle have no quad; their margin is +inf.  Raises ArcOverflow
    when an arc, weighted by uexp, leaves the float range.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        return _edge_terms(tri.edge_sides, *_triangle_terms(tri, lam, uexp))


def _edge_set(mask):
    return set(np.flatnonzero(mask).tolist())


def _decoration(tri, u):
    """u as a PartialDecoration (all zeros if None; any other value is
    wrapped, which checks its entries), with one entry per vertex."""
    if u is None:
        return PartialDecoration.zeros(tri.num_vertices)
    if not isinstance(u, PartialDecoration):
        u = PartialDecoration(u)
    if len(u) != tri.num_vertices:
        raise WrongLength("u of %d entries for %d vertices"
                          % (len(u), tri.num_vertices))
    return u


def delaunay_margin(metric, u, e):
    """Weighted local Delaunay margin at edge e; >= 0 means Delaunay.

    Raises UnknownEdge unless e is an edge id (mesh_core.check_edge), and
    DegenerateQuad when both sides of e lie in one triangle.
    """
    e = mesh_core.check_edge(metric.triangulation, e)
    u = _decoration(metric.triangulation, u)
    margin = _margins(metric.triangulation, metric.lam, np.exp(-u.u))[0][e]
    if margin == np.inf:
        raise DegenerateQuad("both sides of edge %d in one triangle" % e)
    return margin


class _FlipState:
    """The flip algorithm's working copy of a decorated triangulation.

    Holds mutable copies of the tables glue, side_edge, corner_vertex and
    edge_sides (so it can stand in for a Triangulation where only these
    are read), lambda, the per-triangle terms of _triangle_terms and the
    (margin, scale) of every edge.  flip keeps them all current, touching
    only the flipped quads.  Overflow and invalid operations must be
    ignored while it is built and flipped (see make_delaunay).
    """

    def __init__(self, tri, lam, uexp):
        self.glue = tri.glue.copy()
        self.side_edge = tri.side_edge.copy()
        self.corner_vertex = tri.corner_vertex.copy()
        self.edge_sides = tri.edge_sides.copy()
        self.lam = lam
        self.uexp = uexp
        self.opposite, self.total = _triangle_terms(self, lam, uexp)
        self.margin, self.scale = _edge_terms(self.edge_sides,
                                              self.opposite, self.total)

    def flip(self, batch):
        """Flip the edges of batch, whose quads share no triangle; returns
        their lambdas before and after."""
        batch = np.asarray(batch, dtype=np.intp)
        # The flipped quads keep the slots of their triangles: t1 now has
        # the sides (b, c, f) and t2 the sides (d, a, f) of
        # mesh_core.flip_edges.  Every edge whose margin changed has a
        # side in them.
        slots, edges, corners = mesh_core._flip_in_place(
            self.glue, self.side_edge, self.corner_vertex, self.edge_sides,
            batch)
        lam = self.lam
        x = lam[edges]
        le = x[2::6]
        lf = _ptolemy(x[4::6], x[0::6], x[1::6], x[3::6], le)
        lam[batch] = lf
        # The terms of the new triangles, as _triangle_terms computes
        # them, from their lambdas and corners.
        x = lam[edges]
        nxt, prv = mesh_core._quad_patterns(len(batch))[5:]
        arcs = np.exp(0.5 * (x[nxt] - x - x[prv]))
        arcs *= self.uexp[corners]
        self.opposite[slots] = arcs[prv]
        self.total[slots[::3] // 3] = (arcs[::3] + arcs[1::3]) + arcs[2::3]
        self.margin[edges], self.scale[edges] = _edge_terms(
            self.edge_sides, self.opposite, self.total, edges)
        return le, lf


def _flip_rounds(state, select, flips, max_flips):
    """Flip edges in rounds until none is selected.

    Each round picks in edge order the edges that select(state, tol)
    returns (increasing edge ids), skipping those whose quad shares a
    triangle with a quad already picked, and flips the picked edges in
    one batch (see the module docstring).  Appends to flips.
    """
    while True:
        marked = select(state, NONESSENTIAL_REL * state.scale)
        if not marked.size:
            return
        used = set()
        batch = []
        tris = iter((state.edge_sides[marked] // 3).ravel().tolist())
        for e, t1, t2 in zip(marked.tolist(), tris, tris):
            if t1 not in used and t2 not in used:
                used.add(t1)
                used.add(t2)
                batch.append(e)
        if len(flips) + len(batch) > max_flips:
            raise FlipLimitExceeded("more than %d flips" % max_flips)
        le, lf = state.flip(batch)
        flips.extend(zip(batch, le.tolist(), lf.tolist()))


def make_delaunay(metric, u=None, mode=PLAIN):
    """Run the flip algorithm until every edge is Delaunay.

    In adjusted mode then flips nonessential edges whose quad apex is an
    undecorated vertex, so that every punctured face ends up fanned from
    its undecorated center.  Flipping a nonessential edge keeps the
    Delaunay decomposition, and each such flip raises the degree of an
    undecorated center, so these rounds end.

    Only strict violations (margin < -tol) are flipped; equality cases
    are collected as nonessential edges.  Edges whose two sides lie in
    the same triangle are skipped (no quad to test).  A u without one
    entry per vertex raises WrongLength, and a mode other than PLAIN and
    ADJUSTED OutOfDomain, before any flip.
    """
    if mode not in (PLAIN, ADJUSTED):
        raise OutOfDomain("mode %r is neither %r nor %r"
                          % (mode, PLAIN, ADJUSTED))
    tri = metric.triangulation
    u = _decoration(tri, u)
    max_flips = MAX_FLIPS_PER_EDGE * tri.num_edges + MAX_FLIPS_EXTRA
    flips = []

    # Arcs may overflow; _edge_terms raises ArcOverflow when that reaches
    # a margin or a scale.
    with np.errstate(over="ignore", invalid="ignore"):
        state = _FlipState(tri, metric.lam.copy(), np.exp(-u.u))
        _flip_rounds(state, lambda st, tol: (st.margin < -tol).nonzero()[0],
                     flips, max_flips)
        if mode == ADJUSTED:
            undecorated = ~np.isfinite(u.u)

            def fannable(st, tol):
                near = (np.abs(st.margin) <= tol).nonzero()[0]
                apex = st.corner_vertex[mesh_core._prev(st.edge_sides[near])]
                return near[undecorated[apex].any(axis=1)]

            _flip_rounds(state, fannable, flips, max_flips)

    if flips:
        tri = mesh_core.Triangulation(state.glue, state.side_edge,
                                      state.corner_vertex, tri.num_vertices,
                                      state.edge_sides)
        log.debug("make_delaunay: %d flips on %r", len(flips), tri)
    return DelaunayResult(DecoratedMetric(tri, state.lam), u, flips,
                          state.margin, state.scale)


class DelaunayCheck:
    def __init__(self, ok, violations, nonessential, skipped):
        self.ok = ok
        self.violations = violations
        self.nonessential = nonessential
        self.skipped = skipped


def check_delaunay(metric, u=None):
    """Exhaustive margin scan of all edges, independent of flip history."""
    u = _decoration(metric.triangulation, u)
    margin, scale = _margins(metric.triangulation, metric.lam, np.exp(-u.u))
    tol = NONESSENTIAL_REL * scale
    violations = [(e, margin[e])
                  for e in np.flatnonzero(margin < -tol).tolist()]
    return DelaunayCheck(not violations, violations,
                         _edge_set(np.abs(margin) <= tol),
                         _edge_set(np.isinf(margin)))


def triangle_inequality_check(metric):
    """True iff ell = exp(lambda/2) satisfies the strict triangle
    inequalities on every triangle.

    Each triangle is scaled so that its longest side is 1, so no lambda
    is too large to test.
    """
    lam3 = metric.lam[metric.triangulation.side_edge.reshape(-1, 3)]
    ell = np.exp(0.5 * (lam3 - lam3.max(axis=1, keepdims=True)))
    return bool(np.all(ell + ell[:, [1, 2, 0]] > ell[:, [2, 0, 1]]))


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


def euclidean_delaunay_crosscheck(metric):
    """Compare the ideal margin (u = 0) against the euclidean cotangent
    predicate edge by edge; both must agree in sign (or both be ~ 0, see
    CROSSCHECK_TOL)."""
    if not triangle_inequality_check(metric):
        raise TriangleInequalityViolated(
            "euclidean cross-check requires the triangle inequalities")
    tri = metric.triangulation
    margin, scale = _margins(tri, metric.lam, np.ones(tri.num_vertices))
    cot = _cotan_weights(metric)
    skipped = np.isinf(margin)
    m = np.where(skipped, 0.0, margin) / scale
    m_zero = np.abs(m) <= CROSSCHECK_TOL
    c_zero = np.abs(cot) <= math.sqrt(CROSSCHECK_TOL)
    bad = (~skipped & ~(m_zero & c_zero)
           & ((m_zero != c_zero) | (m * cot <= 0)))
    mismatches = [(e, margin[e], float(cot[e]))
                  for e in np.flatnonzero(bad).tolist()]
    return CrosscheckResult(not mismatches, mismatches, _edge_set(skipped))


def horocycle_distances_to(metric, v2):
    """delta(w, v2) for every vertex w != v2, via one adjusted run with
    the only decorated vertex v2.  Returns a dict w -> delta; raises
    FanInconsistent if that run leaves a vertex unfanned."""
    tri = metric.triangulation
    mesh_core.check_vertex(tri, v2)
    u = PartialDecoration.all_infinite_except(tri.num_vertices, [v2])
    result = make_delaunay(metric, u, mode=ADJUSTED)
    ends = result.metric.triangulation.edge_verts
    lam = result.metric.lam
    # The edges with exactly one end at v2, grouped by their other end w
    # and ordered by edge id within a group.
    fan = np.flatnonzero((ends[:, 0] == v2) != (ends[:, 1] == v2))
    other = np.where(ends[fan, 0] == v2, ends[fan, 1], ends[fan, 0])
    order = np.lexsort((fan, other))
    fan, other = fan[order], other[order]
    start = np.flatnonzero(np.diff(other, prepend=-1))
    vals = lam[fan]
    spread = (np.maximum.reduceat(vals, start)
              - np.minimum.reduceat(vals, start))
    scale = np.maximum(1.0, np.maximum.reduceat(np.abs(vals), start))
    # Groups in the order of their lowest edge id, as met in an edge scan.
    by_edge = np.argsort(fan[start])
    bad = by_edge[spread[by_edge] > FAN_REL * scale[by_edge]]
    if bad.size:
        g = bad[0]
        raise FanInconsistent("fan edges at vertex %d disagree by %g"
                              % (other[start[g]], spread[g]))
    missing = np.ones(tri.num_vertices, dtype=bool)
    missing[other] = missing[v2] = False
    if missing.any():
        # Cannot happen on a connected surface: the punctured face of
        # w is bounded by horocyclic decorated vertices, all = v2.
        raise FanInconsistent("no edge from %d to %d after adjusting"
                              % (np.argmax(missing), v2))
    return dict(zip(other[start[by_edge]].tolist(),
                    vals[start[by_edge]].tolist()))


def horocycle_distance(metric, v1, v2):
    """Signed distance delta between the horocycles at v1 and v2,
    minimized over lifts.  Symmetric in its arguments."""
    if v1 == v2:
        raise SameVertex("delta(v, v) is not defined")
    mesh_core.check_vertex(metric.triangulation, v1)
    return horocycle_distances_to(metric, v2)[v1]
