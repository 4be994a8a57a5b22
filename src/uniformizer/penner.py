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

from . import mesh_core
from .errors import IncompatibleShear

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
        return np.bincount(tri.edge_verts.ravel(), np.repeat(self.sigma, 2),
                           minlength=tri.num_vertices)


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


def _log_corner_arcs(side_edge, lam):
    """Log arc length at every corner, as a (T, 3) array: the arc at
    corner s is (lambda opposite - the two lambdas at s) / 2."""
    lam = lam[np.reshape(side_edge, (-1, 3))]
    return 0.5 * (lam[:, [1, 2, 0]] - lam - lam[:, [2, 0, 1]])


def _log_horocycle_lengths(metric):
    """log c_v for every vertex v, c_v the total length of its
    decorating horocycle: a log-sum-exp of the corner arcs at v."""
    tri = metric.triangulation
    n = tri.num_vertices
    x = _log_corner_arcs(tri.side_edge, metric.lam).ravel()
    cv = tri.corner_vertex
    top = np.full(n, -np.inf)
    np.maximum.at(top, cv, x)
    return top + np.log(np.bincount(cv, np.exp(x - top[cv]), minlength=n))


def horocycle_length(metric, v):
    """Total length c_v of the decorating horocycle at vertex v."""
    mesh_core.check_vertex(metric.triangulation, v)
    return float(np.exp(_log_horocycle_lengths(metric)[v]))


def fiber_shift(metric, u):
    """Shift the decoration: lambda'_e = lambda_e + u_v1 + u_v2.

    Parametrizes the fiber of decorated surfaces over the same hyperbolic
    structure; u must be finite at every vertex.
    """
    u = np.asarray(u, dtype=float)
    ends = metric.triangulation.edge_verts
    return DecoratedMetric(metric.triangulation,
                           metric.lam + (u[ends[:, 0]] + u[ends[:, 1]]))


def shear_from_penner(metric):
    """Shear coordinate per edge: sigma_e = (lam_a - lam_b + lam_c - lam_d)/2
    where a, b, c, d are the quad sides around e in cyclic order (a and c
    share a vertex with the head of e in their respective triangles).
    """
    tri = metric.triangulation
    _, _, ka, kb, kc, kd = mesh_core._quad_sides(tri, slice(None))
    la, lb, lc, ld = metric.lam[tri.side_edge[[ka, kb, kc, kd]]]
    return ShearCoordinates(tri, 0.5 * (la - lb + lc - ld), check=False)


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
    sigma = shear.sigma[tri.side_edge].tolist()
    for v, cycle in enumerate(tri.vertex_corners):
        x = math.log(anchor_arcs[v])
        for k in cycle:
            log_arc[k] = x
            x -= sigma[k]

    # lam_e = -log(arc at one adjacent corner) - log(arc at the other):
    # side k1 joins corners k1 and the next one, whose arcs determine it.
    k1 = tri.edge_sides[:, 0]
    return DecoratedMetric(tri, -log_arc[k1] - log_arc[mesh_core._next(k1)])


def ptolemy_update(la, lb, lc, ld, le):
    """lambda of the flipped diagonal via Ptolemy's relation.

    (a, c) and (b, d) are the opposite side pairs of the quadrilateral
    around the old diagonal e.  Evaluated as a log-sum-exp so huge lambdas
    cannot overflow; works elementwise on arrays.
    """
    p = (la + lc) / 2.0
    q = (lb + ld) / 2.0
    m = np.maximum(p, q)
    return 2.0 * (m + np.log(np.exp(p - m) + np.exp(q - m))) - le
