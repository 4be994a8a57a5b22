"""Scalar reference for the local Delaunay margin, one edge at a time.

The array kernel delaunay._margins computes every margin at once; the
tests compare it against this formula, evaluated from the quad around
each edge.  Only delaunay._quad and the triangulation tables are shared
with the package.
"""

import math

from uniformizer.delaunay import _quad


def margin_and_scale(tri, lam, uexp, e):
    """(margin, scale) at edge e; scale = sum of the term magnitudes.

    Raises DegenerateQuad when both sides of e lie in one triangle.
    """
    (ka, kb, kc, kd), (vp, vq, vr, vrp) = _quad(tri, e)
    se = tri.side_edge
    le = lam[e]
    la, lb, lc, ld = lam[se[ka]], lam[se[kb]], lam[se[kc]], lam[se[kd]]
    # Arcs at the four quad corners, from each adjacent triangle.
    beta = math.exp((lb - le - la) / 2.0)      # at q in t1
    beta2 = math.exp((lc - le - ld) / 2.0)     # at q in t2
    gamma = math.exp((la - le - lb) / 2.0)     # at p in t1
    gamma2 = math.exp((ld - le - lc) / 2.0)    # at p in t2
    alpha = math.exp((le - la - lb) / 2.0)     # at r
    alpha2 = math.exp((le - lc - ld) / 2.0)    # at r'
    tq = (beta + beta2) * uexp[vq]
    tp = (gamma + gamma2) * uexp[vp]
    tr = alpha * uexp[vr]
    trp = alpha2 * uexp[vrp]
    return tq + tp - tr - trp, tq + tp + tr + trp
