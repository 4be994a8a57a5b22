"""Penner coordinate algebra on decorated surfaces.

A decorated hyperbolic surface is encoded by a triangulation and one real
number lambda per edge, the signed distance between the horocycles at the
edge's endpoints.  The derived quantity ell = exp(lambda/2) is both the
classical lambda-length and the euclidean edge length of the associated
piecewise flat surface.  All arithmetic here stays on the log scale;
exponentials appear only inside stable log-sum-exp style expressions.
"""

import math

import numpy as np

from .errors import UnknownVertex, IncompatibleShear

SHEAR_TOL = 1e-8


class DecoratedMetric:
    """A triangulation with one finite lambda per edge."""

    def __init__(self, triangulation, lam):
        lam = np.asarray(lam, dtype=float)
        if lam.shape != (triangulation.num_edges,):
            raise ValueError("lambda must have one entry per edge")
        if not np.all(np.isfinite(lam)):
            raise ValueError("lambda must be finite on every edge")
        self.triangulation = triangulation
        self.lam = lam

    @property
    def lengths(self):
        """Euclidean edge lengths ell = exp(lambda / 2)."""
        return np.exp(self.lam / 2.0)

    def triangle_lambdas(self, t):
        """(lambda of side 0, side 1, side 2) of triangle t."""
        se = self.triangulation.side_edge
        return (self.lam[se[3 * t]], self.lam[se[3 * t + 1]],
                self.lam[se[3 * t + 2]])

    def __repr__(self):
        return "DecoratedMetric(%r)" % (self.triangulation,)


class PartialDecoration:
    """Per-vertex horocycle shift u in R union {+inf}.

    u_v = +inf means the horocycle at v is missing.  At least one entry
    must be finite.  Use numpy inf for the infinite entries; exp(-inf)
    evaluates to exactly 0 wherever it matters.
    """

    def __init__(self, u):
        u = np.asarray(u, dtype=float)
        if np.any(np.isnan(u)) or np.any(u == -np.inf):
            raise ValueError("u entries must be finite or +inf")
        if not np.any(np.isfinite(u)):
            raise ValueError("at least one u entry must be finite")
        self.u = u

    @classmethod
    def zeros(cls, n):
        return cls(np.zeros(n))

    @classmethod
    def all_infinite_except(cls, n, finite_vertices, values=0.0):
        u = np.full(n, np.inf)
        u[np.asarray(finite_vertices, dtype=int)] = values
        return cls(u)

    def is_decorated(self, v):
        return np.isfinite(self.u[v])

    def __len__(self):
        return len(self.u)


class ConeAngleTarget:
    """Target cone angles Theta_v >= 0 (radians), one per vertex."""

    def __init__(self, theta):
        theta = np.asarray(theta, dtype=float)
        if np.any(theta < 0) or not np.all(np.isfinite(theta)):
            raise ValueError("cone angles must be finite and >= 0")
        self.theta = theta

    @classmethod
    def uniform(cls, n, value=2.0 * math.pi):
        return cls(np.full(n, value))


class ShearCoordinates:
    """Per-edge shear; sums to zero around every vertex."""

    def __init__(self, triangulation, sigma, check=True):
        sigma = np.asarray(sigma, dtype=float)
        if sigma.shape != (triangulation.num_edges,):
            raise ValueError("sigma must have one entry per edge")
        self.triangulation = triangulation
        self.sigma = sigma
        if check:
            err = np.max(np.abs(self.vertex_sums()))
            scale = max(1.0, float(np.max(np.abs(sigma))))
            if err > SHEAR_TOL * scale:
                raise IncompatibleShear(
                    "shear sums around vertices reach %g" % err)

    def vertex_sums(self):
        """Sum of sigma over edge-ends at each vertex."""
        tri = self.triangulation
        sums = np.zeros(tri.num_vertices)
        for e, (a, b) in enumerate(tri.edge_verts):
            sums[a] += self.sigma[e]
            sums[b] += self.sigma[e]
        return sums


def arc_lengths(lam_triple):
    """Horocyclic arc lengths cut off at the corners of a decorated triangle.

    The arc at the corner opposite side i has length
    alpha_i = exp((lam_i - lam_j - lam_k) / 2).  The inverse relation is
    lam_i = -log(alpha_j) - log(alpha_k).
    """
    l1, l2, l3 = lam_triple
    return (math.exp((l1 - l2 - l3) / 2.0),
            math.exp((l2 - l3 - l1) / 2.0),
            math.exp((l3 - l1 - l2) / 2.0))


def lambdas_from_arcs(alpha_triple):
    """Inverse of arc_lengths."""
    a1, a2, a3 = alpha_triple
    return (-math.log(a2) - math.log(a3),
            -math.log(a3) - math.log(a1),
            -math.log(a1) - math.log(a2))


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


def _log_horocycle_lengths(metric):
    """log c_v for every vertex v, c_v the total length of its
    decorating horocycle: a log-sum-exp of the corner arcs at v."""
    tri = metric.triangulation
    n = tri.num_vertices
    lam = metric.lam[np.reshape(tri.side_edge, (-1, 3))]
    # The arc at corner s: (lambda opposite - the two lambdas at s) / 2.
    x = (0.5 * (lam[:, [1, 2, 0]] - lam - lam[:, [2, 0, 1]])).ravel()
    cv = np.asarray(tri.corner_vertex)
    top = np.full(n, -np.inf)
    np.maximum.at(top, cv, x)
    return top + np.log(np.bincount(cv, np.exp(x - top[cv]), minlength=n))


def horocycle_length(metric, v):
    """Total length c_v of the decorating horocycle at vertex v."""
    if not (0 <= v < metric.triangulation.num_vertices):
        raise UnknownVertex("no vertex %r" % (v,))
    return float(np.exp(_log_horocycle_lengths(metric)[v]))


def fiber_shift(metric, u):
    """Shift the decoration: lambda'_e = lambda_e + u_v1 + u_v2.

    Parametrizes the fiber of decorated surfaces over the same hyperbolic
    structure; u must be finite at every vertex.
    """
    u = np.asarray(u, dtype=float)
    ends = np.reshape(metric.triangulation.edge_verts, (-1, 2))
    return DecoratedMetric(metric.triangulation,
                           metric.lam + (u[ends[:, 0]] + u[ends[:, 1]]))


def shear_from_penner(metric):
    """Shear coordinate per edge: sigma_e = (lam_a - lam_b + lam_c - lam_d)/2
    where a, b, c, d are the quad sides around e in cyclic order (a and c
    share a vertex with the head of e in their respective triangles).
    """
    tri = metric.triangulation
    lam = metric.lam
    se = tri.side_edge
    sigma = np.zeros(tri.num_edges)
    for e, (k1, k2) in enumerate(tri.edge_sides):
        t1, s1 = divmod(k1, 3)
        t2, s2 = divmod(k2, 3)
        la = lam[se[3 * t1 + (s1 + 1) % 3]]
        lb = lam[se[3 * t1 + (s1 + 2) % 3]]
        lc = lam[se[3 * t2 + (s2 + 1) % 3]]
        ld = lam[se[3 * t2 + (s2 + 2) % 3]]
        sigma[e] = 0.5 * (la - lb + lc - ld)
    return ShearCoordinates(tri, sigma, check=False)


def penner_from_shear(shear, anchor_arcs):
    """Reconstruct a decorated metric realizing the given shear.

    The horocycle at each vertex is fixed by prescribing one arc length:
    anchor_arcs[v] is the arc at the first corner of the vertex's corner
    cycle.  Walking the cycle counterclockwise, consecutive corner arcs
    are related by the shear of the crossed edge, arc' = arc*exp(-sigma);
    the closing condition is exactly the zero-sum constraint, which is
    validated up front.

    Returns a DecoratedMetric whose shear_from_penner reproduces the input.
    """
    tri = shear.triangulation
    err = np.max(np.abs(shear.vertex_sums())) if tri.num_edges else 0.0
    scale = max(1.0, float(np.max(np.abs(shear.sigma))))
    if err > SHEAR_TOL * scale:
        raise IncompatibleShear("shear sums around vertices reach %g" % err)

    # Log arc length per corner, chained around each vertex.
    log_arc = np.zeros(3 * tri.num_triangles)
    for v, cycle in enumerate(tri.vertex_corners):
        x = math.log(anchor_arcs[v])
        for k in cycle:
            log_arc[k] = x
            x -= shear.sigma[tri.side_edge[k]]

    # lam_e = -log(arc at one adjacent corner) - log(arc at the other),
    # using the two corners of one adjacent triangle not opposite e.
    lam = np.zeros(tri.num_edges)
    for e, (k1, _) in enumerate(tri.edge_sides):
        t, s = divmod(k1, 3)
        # side s of triangle t joins corners s and s+1; the arcs at those
        # corners determine lam of side s.
        lam[e] = -log_arc[3 * t + s] - log_arc[3 * t + (s + 1) % 3]
    return DecoratedMetric(tri, lam)


def ptolemy_update(la, lb, lc, ld, le):
    """lambda of the flipped diagonal via Ptolemy's relation.

    (a, c) and (b, d) are the opposite side pairs of the quadrilateral
    around the old diagonal e.  Evaluated as a log-sum-exp so huge lambdas
    cannot overflow.
    """
    p = (la + lc) / 2.0
    q = (lb + ld) / 2.0
    m = max(p, q)
    return 2.0 * (m + math.log(math.exp(p - m) + math.exp(q - m))) - le
