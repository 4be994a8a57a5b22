"""Scan-every-round reference for delaunay.make_delaunay.

Each round rescans every edge with the full margin kernel _margins
(summed with np.bincount) and flips the picked quads with flip_edges,
which permutes every slot into new tables and leaves edge_sides to be
derived from them.  These are the loop and kernels that the in-place
flip state of make_delaunay replaced, kept as the oracle of its tests:
both take the same edges in the same rounds, so they must agree
bitwise.  The flip limit is read from the delaunay module, so that a
test can lower it for both.
"""

import numpy as np

from uniformizer import delaunay, mesh_core
from uniformizer.delaunay import ADJUSTED, NONESSENTIAL_REL
from uniformizer.errors import ArcOverflow, FlipLimitExceeded
from uniformizer.penner import (
    PartialDecoration,
    _log_corner_arcs,
    ptolemy_update,
)


def _margins(tri, lam, uexp):
    """Weighted local Delaunay margin and its scale at every edge.

    Returns two arrays of length E.  The scale is the sum of the
    magnitudes of the margin's four terms.  Edges whose two sides lie in
    one triangle have no quad; their margin is +inf.  Raises ArcOverflow
    when an arc, weighted by uexp, leaves the float range.
    """
    se = tri.side_edge
    with np.errstate(over="ignore", invalid="ignore"):
        arcs = np.exp(_log_corner_arcs(se, lam))
        arcs *= uexp[tri.corner_vertex.reshape(-1, 3)]
        total = arcs.sum(axis=1)
        scale = np.bincount(se, np.repeat(total, 3), minlength=tri.num_edges)
    if not np.all(np.isfinite(scale)):
        raise ArcOverflow("a horocyclic arc overflows: lambda spans too "
                          "wide a range")
    # Side s is incident with the arcs at corners s and s + 1 and
    # opposite the arc at corner s + 2.
    sides = total[:, None] - 2.0 * arcs[:, [2, 0, 1]]
    margin = np.bincount(se, sides.ravel(), minlength=tri.num_edges)
    se3 = se.reshape(-1, 3)
    margin[se3[se3 == se3[:, [1, 2, 0]]]] = np.inf
    return margin, scale


def flip_edges(tri, edges):
    """A new Triangulation with the given edges flipped; their quads must
    share no triangle."""
    edges = np.asarray(edges, dtype=np.intp).reshape(-1)
    k1, k2, ka, kb, kc, kd = mesh_core._quad_sides(tri, edges)
    t1, t2 = k1 // 3, k2 // 3
    pos = np.arange(len(tri.glue))
    pos[np.concatenate([ka, kb, kc, kd, k1, k2])] = np.concatenate(
        [3 * t2 + 1, 3 * t1, 3 * t1 + 1, 3 * t2, 3 * t1 + 2, 3 * t2 + 2])
    glue, side_edge, cv = (np.empty_like(pos) for _ in range(3))
    glue[pos] = pos[tri.glue]
    side_edge[pos] = tri.side_edge
    cv[pos] = tri.corner_vertex
    cv[3 * t1 + 2] = tri.corner_vertex[kd]
    cv[3 * t2 + 2] = tri.corner_vertex[kb]
    return mesh_core.Triangulation(glue, side_edge, cv, tri.num_vertices)


def _edge_set(mask):
    return set(np.flatnonzero(mask).tolist())


def _flip_rounds(tri, lam, uexp, select, flips, max_flips):
    """Flip edges in rounds until a scan selects none.

    Each round scans all edges once, picks in edge order the edges that
    select(tri, margin, tol) marks, skipping those whose quad shares a
    triangle with a quad already picked, and flips the picked edges in
    one batch (see the module docstring).  Appends to flips and updates
    lam in place; returns the final triangulation and its (margin, scale).
    """
    while True:
        margin, scale = _margins(tri, lam, uexp)
        marked = np.flatnonzero(select(tri, margin, NONESSENTIAL_REL * scale))
        if not marked.size:
            return tri, margin, scale
        used = set()
        batch = []
        for e, (t1, t2) in zip(marked.tolist(),
                               (tri.edge_sides[marked] // 3).tolist()):
            if t1 not in used and t2 not in used:
                used.update((t1, t2))
                batch.append(e)
        if len(flips) + len(batch) > max_flips:
            raise FlipLimitExceeded("more than %d flips" % max_flips)
        _, _, ka, kb, kc, kd = mesh_core._quad_sides(tri, batch)
        se = tri.side_edge
        le = lam[batch]
        lf = ptolemy_update(lam[se[ka]], lam[se[kb]], lam[se[kc]],
                            lam[se[kd]], le)
        tri = flip_edges(tri, batch)
        lam[batch] = lf
        flips.extend(zip(batch, le.tolist(), lf.tolist()))


def make_delaunay(metric, u=None, mode=None):
    """(triangulation, lam, flips, nonessential_edges, punctured_faces),
    as make_delaunay computes them."""
    tri = metric.triangulation
    if u is None:
        u = PartialDecoration.zeros(tri.num_vertices)
    lam = metric.lam.copy()
    uexp = np.exp(-u.u)
    max_flips = (delaunay.MAX_FLIPS_PER_EDGE * tri.num_edges
                 + delaunay.MAX_FLIPS_EXTRA)
    flips = []

    tri, margin, scale = _flip_rounds(
        tri, lam, uexp, lambda tri, margin, tol: margin < -tol, flips,
        max_flips)

    punctured = {}
    if mode == ADJUSTED:
        undecorated = ~np.isfinite(u.u)

        def fannable(tri, margin, tol):
            apex = undecorated[tri.corner_vertex.reshape(-1, 3)]
            at_apex = np.bincount(tri.side_edge, apex[:, [2, 0, 1]].ravel(),
                                  minlength=tri.num_edges)
            return (np.abs(margin) <= tol) & (at_apex > 0)

        tri, margin, scale = _flip_rounds(tri, lam, uexp, fannable, flips,
                                          max_flips)
        # (vertex, triangle) codes of the corners at undecorated vertices,
        # sorted and without repeats: each vertex's triangles in order.
        k = np.flatnonzero(undecorated[tri.corner_vertex])
        nt = tri.num_triangles
        code = np.unique(tri.corner_vertex[k] * nt + k // 3)
        verts, start = np.unique(code // nt, return_index=True)
        punctured = {v: tuple(faces.tolist()) for v, faces in zip(
            verts.tolist(), np.split(code % nt, start[1:]))}

    return (tri, lam, flips,
            _edge_set(np.abs(margin) <= NONESSENTIAL_REL * scale), punctured)
