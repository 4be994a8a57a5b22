"""Loop-based reference implementations of the conformal and punctured
energies, one triangle and one edge at a time.

The vectorized evaluator in uniformizer.energy must agree with these
scalar formulas; the tests compare the two.  Only the Delaunay flip
algorithm, the combinatorics and fiber_shift are shared with the
package.
"""

import math

import numpy as np
import scipy.sparse as sp
from scipy.special import zeta

from helpers import vertex_corners
from uniformizer import delaunay, mesh_core
from uniformizer.errors import TriangleInequalityViolated
from uniformizer.penner import PartialDecoration, fiber_shift

_LOB_COEF = [zeta(2 * k) / (k * (2 * k + 1) * math.pi ** (2 * k))
             for k in range(1, 31)]


def lobachevsky(theta):
    x = theta - math.pi * round(theta / math.pi)
    if x == 0.0:
        return 0.0
    x2 = x * x
    s = 0.0
    for c in _LOB_COEF[::-1]:
        s = s * x2 + c
    return x - x * math.log(abs(2.0 * x)) + s * x2 * x


def corner_arc(metric, k):
    """Arc length at corner k (flat index): the arc of the horocycle at
    that corner cut off by the two adjacent sides."""
    se = metric.triangulation.side_edge
    t, s = divmod(k, 3)
    lam = metric.lam
    e_opp = se[3 * t + (s + 1) % 3]       # side opposite corner s
    e_in = se[3 * t + s]                  # the two sides meeting corner s
    e_out = se[3 * t + (s + 2) % 3]
    return math.exp((lam[e_opp] - lam[e_in] - lam[e_out]) / 2.0)


def horocycle_lengths(metric):
    """The total horocycle length at each vertex: its corner arcs summed
    around the vertex."""
    return [sum(corner_arc(metric, k) for k in cycle)
            for cycle in vertex_corners(metric.triangulation)]


def euclidean_angles(l1, l2, l3):
    s = 0.5 * (l1 + l2 + l3)
    d1, d2, d3 = s - l1, s - l2, s - l3
    if d1 <= 0 or d2 <= 0 or d3 <= 0:
        raise TriangleInequalityViolated("bad sides")
    return (2.0 * math.atan2(math.sqrt(d2 * d3), math.sqrt(s * d1)),
            2.0 * math.atan2(math.sqrt(d3 * d1), math.sqrt(s * d2)),
            2.0 * math.atan2(math.sqrt(d1 * d2), math.sqrt(s * d3)))


def _twice_potential(l0, l1, l2):
    """Twice the triangle potential at the half-lambdas, and the angles."""
    a = euclidean_angles(math.exp(l0 / 2.0), math.exp(l1 / 2.0),
                         math.exp(l2 / 2.0))
    value = (a[0] * l0 / 2.0 + a[1] * l1 / 2.0 + a[2] * l2 / 2.0
             + lobachevsky(a[0]) + lobachevsky(a[1]) + lobachevsky(a[2]))
    return 2.0 * value, a


def _hessian(n_free, entries):
    rows, cols, vals = [], [], []
    for i, j, w in entries:
        if i == j or i < 0 or j < 0:
            continue
        q = 0.5 * w
        rows += [i, j, i, j]
        cols += [i, j, j, i]
        vals += [q, q, -q, -q]
    return sp.csr_matrix(sp.coo_matrix((vals, (rows, cols)),
                                       shape=(n_free, n_free)))


def _energy(tri, lam, triangles, edges, index):
    """(value, theta_tilde, hessian) over the given cells; lam is a dict
    or array indexed by edge, index maps vertices to Hessian rows."""
    se = tri.side_edge
    cv = tri.corner_vertex
    value = 0.0
    angles = {}
    for t in triangles:
        val, angles[t] = _twice_potential(lam[se[3 * t]], lam[se[3 * t + 1]],
                                          lam[se[3 * t + 2]])
        value += val
    value -= math.pi * sum(lam[e] for e in edges)
    theta_tilde = np.zeros(tri.num_vertices)
    for t in triangles:
        for i in range(3):
            # The angle at corner i is opposite side (i+1) % 3.
            theta_tilde[cv[3 * t + i]] += angles[t][(i + 1) % 3]
    entries = []
    for e in edges:
        w = 0.0
        for k in tri.edge_sides[e]:
            t, s = divmod(k, 3)
            if t in angles:
                w += 1.0 / math.tan(angles[t][s])
        v1, v2 = tri.edge_verts[e]
        entries.append((index[v1], index[v2], w))
    n_free = sum(1 for i in index.values() if i >= 0)
    return value, theta_tilde, _hessian(n_free, entries)


def conformal_energy(metric, target, u):
    """(value, gradient, hessian) of the conformal energy at u."""
    result = delaunay.make_delaunay(fiber_shift(metric, u))
    met = result.metric
    tri = met.triangulation
    n = tri.num_vertices
    value, theta_tilde, hessian = _energy(
        tri, met.lam, range(tri.num_triangles), range(tri.num_edges),
        {v: v for v in range(n)})
    lengths = horocycle_lengths(met)
    for v in range(n):
        if target.theta[v] != 0.0:
            value -= target.theta[v] * math.log(lengths[v])
    return value, target.theta - theta_tilde, hessian


def punctured_energy(metric, v_inf, u):
    """(value, gradient, hessian) of the punctured energy at u."""
    u_ext = np.array(u, dtype=float)
    u_ext[v_inf] = np.inf
    result = delaunay.make_delaunay(metric, PartialDecoration(u_ext),
                                    mode=delaunay.ADJUSTED)
    tri = result.metric.triangulation
    sub = mesh_core.subcomplex_avoiding(tri, v_inf)
    free, edges, tris = (np.flatnonzero(mask).tolist() for mask in (
        sub.vertex_mask, sub.edge_mask, sub.triangle_mask))
    lam = {}
    for e in edges:
        a, b = tri.edge_verts[e]
        lam[e] = result.metric.lam[e] + u_ext[a] + u_ext[b]
    index = {v: -1 for v in range(tri.num_vertices)}
    index.update((v, i) for i, v in enumerate(free))
    value, theta_tilde, hessian = _energy(tri, lam, tris, edges, index)
    gradient = np.zeros(len(free))
    lengths = horocycle_lengths(metric)
    for i, v in enumerate(free):
        value -= 2.0 * math.pi * (math.log(lengths[v]) - u_ext[v])
        deg1, deg2 = mesh_core.vertex_degrees(tri, sub, v)
        gradient[i] = -theta_tilde[v] + math.pi * (deg2 - deg1 + 2)
    return value, gradient, hessian
