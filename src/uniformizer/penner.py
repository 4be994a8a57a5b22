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
from .errors import OutOfDomain, UnknownVertex, WrongLength

# The angle around a flat point: the default cone angle of every vertex.
FLAT_ANGLE = 2.0 * math.pi


def _floats(x, what):
    """x as a float array, or OutOfDomain when it is not numbers."""
    try:
        return np.asarray(x, dtype=float)
    except (TypeError, ValueError) as exc:
        raise OutOfDomain("%s: %s" % (what, exc)) from None


class DecoratedMetric:
    """A triangulation with one finite lambda per edge."""

    def __init__(self, triangulation, lam):
        lam = _floats(lam, "lambda")
        if lam.shape != (triangulation.num_edges,):
            raise WrongLength("lambda of shape %s for %d edges"
                              % (lam.shape, triangulation.num_edges))
        if not np.all(np.isfinite(lam)):
            raise OutOfDomain("lambda must be finite on every edge")
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
    evaluates to exactly 0 wherever it matters.  NaN, -inf and an all
    +inf u raise OutOfDomain.
    """

    def __init__(self, u):
        u = _floats(u, "u")
        if np.any(np.isnan(u)) or np.any(u == -np.inf):
            raise OutOfDomain("u entries must be finite or +inf")
        if not np.any(np.isfinite(u)):
            raise OutOfDomain("at least one u entry must be finite")
        self.u = u

    @classmethod
    def zeros(cls, n):
        return cls(np.zeros(mesh_core._check_count(n, 0, "vertex count")))

    @classmethod
    def all_infinite_except(cls, n, finite_vertices):
        """No horocycle but the given ones, each as it is (u = 0)."""
        u = np.full(mesh_core._check_count(n, 0, "vertex count"), np.inf)
        u[[mesh_core._check_id(v, len(u), UnknownVertex, "vertex")
           for v in np.ravel(finite_vertices).tolist()]] = 0.0
        return cls(u)

    def __len__(self):
        return len(self.u)


class ConeAngleTarget:
    """Target cone angles Theta_v >= 0 (radians), one per vertex."""

    def __init__(self, theta):
        theta = _floats(theta, "cone angles")
        if np.any(theta < 0) or not np.all(np.isfinite(theta)):
            raise OutOfDomain("cone angles must be finite and >= 0")
        self.theta = theta

    @classmethod
    def uniform(cls, n):
        """FLAT_ANGLE at each of n vertices."""
        return cls(np.full(mesh_core._check_count(n, 0, "vertex count"),
                           FLAT_ANGLE))


def as_target(theta):
    """theta if it is a ConeAngleTarget, else ConeAngleTarget(theta), whose
    checks raise OutOfDomain on NaN, -inf and negative angles."""
    if isinstance(theta, ConeAngleTarget):
        return theta
    return ConeAngleTarget(theta)


def _per_vertex(tri, x, what="u"):
    """x as a float array, one value per vertex of tri, or WrongLength."""
    x = _floats(x, what)
    if x.shape != (tri.num_vertices,):
        raise WrongLength("%s of shape %s for %d vertices"
                          % (what, x.shape, tri.num_vertices))
    return x


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


def fiber_shift(metric, u):
    """Shift the decoration: lambda'_e = lambda_e + u_v1 + u_v2.

    Parametrizes the fiber of decorated surfaces over the same hyperbolic
    structure; u must be finite at every vertex, and a u without one
    entry per vertex raises WrongLength.
    """
    tri = metric.triangulation
    u = _per_vertex(tri, u)
    ends = tri.edge_verts
    return DecoratedMetric(tri, metric.lam + (u[ends[:, 0]] + u[ends[:, 1]]))


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
