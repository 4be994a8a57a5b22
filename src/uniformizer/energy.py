"""Variational energies for discrete uniformization.

All energies are sums of one convex triangle potential and share one
vectorized evaluation path:

* _triangle_angles, the angle kernel: the (T, 3) euclidean angles of a
  set of triangles from side->edge ids and lambdas (ell = exp(lambda/2)).
* _evaluate, the evaluator: twice the potential at the half-lambdas
  summed over a set of triangles, minus pi times the lambda sum over a
  set of edges, with the angles it used; from those angles _angle_sums
  gives the angle sums and the vertex degrees, and _hessian the
  cotangent Hessian, whose principal blocks hessian_block cuts.

lobachevsky, euclidean_angles and triangle_potential are scalar views of
the kernel.  fixed_triangulation_energy evaluates a fixed triangulation;
conformal_energy and punctured_energy evaluate the (adjusted) Delaunay
retriangulation as functions of the per-vertex scale factors u.  These
are C^2 and convex; gradients measure angle defects and Hessians are
cotangent Laplacians.  An EnergyEvaluation computes its value at once,
and its gradient and its Hessian separately, each on its first use: a
line-search trial that is rejected costs no derivatives, and the
converged iterate and kkt_check, which read only the gradient, build no
Hessian.  The *_value names return the value alone.

Both run one Delaunay step, _shifted_delaunay: the flip algorithm on
the base lambdas weighted by exp(-u), whose Ptolemy updates commute with
the fiber shift by u, then the shift of the result.  Both depend on their
metric argument only through the decorated surface it carries: Ptolemy
flips leave the surface and its horocycle lengths unchanged, its
Delaunay decomposition is unique, and the energy is the same on every
triangulation of that decomposition.  So an evaluation's
delaunay.metric, the surface in base lambda on its Delaunay
triangulation, passed back as the metric gives the same energy with
fewer flips.
"""

import functools
import math

import numpy as np
import scipy.sparse as sp

from . import delaunay as _delaunay
from . import mesh_core
from .errors import NotNeutral, OutOfDomain, TriangleInequalityViolated
from .penner import (
    DecoratedMetric,
    PartialDecoration,
    as_target,
    _floats,
    _log_horocycle_lengths,
    _per_vertex,
    ptolemy_update,
)
# Unused here, but bench/spans.py traces the fiber shift through this name.
from .penner import fiber_shift  # noqa: F401

# Series coefficients for the Lobachevsky function on (-pi/2, pi/2]:
#   L(x) = x - x log|2x| + sum_k  zeta(2k) / (k (2k+1) pi^(2k)) x^(2k+1)
# for k = 1 .. 30, written out as the shortest float literals of the
# values computed with scipy.special.zeta, which they round-trip exactly.
_LOB_COEF = np.array([
    0.05555555555555556, 0.0011111111111111113, 5.039052658100279e-05,
    2.9394473838918294e-06, 1.9434362868706308e-07, 1.3874386415425631e-08,
    1.044092754851133e-09, 8.167135584551357e-11, 6.5812416715815825e-12,
    5.429797905855285e-13, 4.566488655929377e-14, 3.901951136637484e-15,
    3.379062307725596e-16, 2.9599033661709034e-17, 2.618489680557355e-18,
    2.336523489126146e-19, 2.1008128379177174e-20, 1.90164897578126e-21,
    1.7317557154403727e-22, 1.5855912475693484e-23, 1.4588733690007666e-24,
    1.348249931392626e-25, 1.2510658289125975e-26, 1.1651954737967502e-27,
    1.088920516594686e-28, 1.0208393500224548e-29, 9.597992823337702e-31,
    9.048451066886532e-32, 8.551796823342147e-33, 8.101334206760577e-34,
])

# Corner i of a triangle lies between sides i and i+2 and faces side
# i+1: these column orders pick, per corner (or side), the next and the
# previous side.
_NEXT = [1, 2, 0]
_PREV = [2, 0, 1]

# crossflip_c2_check: an edge is cocircular when its margin is within
# COCIRCULAR_REL of its scale.  The central-difference steps balance
# truncation against the rounding of a double-precision energy:
# eps^(1/3) for the gradient, eps^(1/4) for the Hessian.  The third
# derivative is reported, not judged, so its step is coarse enough that
# rounding (eps / h^3, 2e-10) stays far below the deviations it shows.
COCIRCULAR_REL = 1e-8
GRAD_STEP = 1e-5
HESS_STEP = 1e-4
THIRD_STEP = 1e-2


def _lobachevsky(theta):
    """Elementwise Lobachevsky function: reduce to (-pi/2, pi/2] and sum
    the power series by Horner's rule."""
    with np.errstate(divide="ignore", invalid="ignore"):
        x = theta - math.pi * np.round(theta / math.pi)
        x2 = x * x
        s = np.zeros_like(x)
        for c in _LOB_COEF[::-1]:
            s *= x2
            s += c
        return np.where(x == 0.0, 0.0,
                        x - x * np.log(np.abs(2.0 * x)) + s * x2 * x)


def _side_angles(ell):
    """Angles opposite the sides of triangles with side lengths ell, a
    (T, 3) array, by the half-angle arctangent (stable near degenerate
    triangles).  Raises TriangleInequalityViolated unless every side is
    finite and every triangle strictly nondegenerate."""
    with np.errstate(over="ignore", invalid="ignore"):
        s = 0.5 * (ell[:, 0] + ell[:, 1] + ell[:, 2])
        d = s[:, None] - ell
        # Every product below is at most s * s.
        ok = np.isfinite(s * s) & np.all(d > 0, axis=1)
        if ok.all():
            angles = 2.0 * np.arctan2(np.sqrt(d[:, _NEXT] * d[:, _PREV]),
                                      np.sqrt(s[:, None] * d))
            ok = np.all(angles > 0, axis=1)
    if not ok.all():
        raise TriangleInequalityViolated(
            "sides (%g, %g, %g) violate the triangle inequality"
            % tuple(ell[np.argmin(ok)]))
    return angles


def _triangle_angles(side_edge, lam, triangles):
    """(T, 3) angles opposite sides 0, 1, 2 of the given triangles, where
    side 3t + s is edge side_edge[3t + s], of length exp(lam[edge] / 2)."""
    edges = np.reshape(side_edge, (-1, 3))[triangles]
    with np.errstate(over="ignore"):
        return _side_angles(np.exp(0.5 * np.asarray(lam)[edges]))


def lobachevsky(theta):
    """Milnor's Lobachevsky function, -integral of log|2 sin t|.

    Pi-periodic and odd; evaluated by reducing the argument to
    (-pi/2, pi/2] and summing the classical power series, accurate to
    about 1e-15 absolute.  A theta that is not one number raises
    OutOfDomain.
    """
    theta = _floats(theta, "theta")
    if theta.shape:
        raise OutOfDomain("theta must be one number, not shape %s"
                          % (theta.shape,))
    return float(_lobachevsky(theta))


def euclidean_angles(l1, l2, l3):
    """Angles opposite the sides of a euclidean triangle, via the
    half-angle arctangent (stable near degenerate triangles).

    Returns (a1, a2, a3) with a_i opposite l_i and a1 + a2 + a3 = pi.
    """
    return tuple(_side_angles(np.array([[l1, l2, l3]], dtype=float))[0]
                 .tolist())


def triangle_potential(x1, x2, x3):
    """Per-triangle convex potential of the half-lambdas.

    For sides exp(x_i) with angles a_i opposite them:

        value    = sum a_i x_i + sum L(a_i)
        gradient = (a1, a2, a3)
        hessian  = sum_i cot(a_i) (dx_j - dx_k)^2

    The domain requires strict triangle inequalities for exp(x_i);
    the scaling relation value(x + h) = value(x) + pi*h holds exactly.
    """
    x = _floats([x1, x2, x3], "half-lambdas")
    a = _triangle_angles([0, 1, 2], 2.0 * x, [0])[0]
    value = float(a @ x + np.sum(_lobachevsky(a)))
    c1, c2, c3 = 1.0 / np.tan(a)
    hess = np.array([
        [c2 + c3, -c3, -c2],
        [-c3, c3 + c1, -c1],
        [-c2, -c1, c1 + c2],
    ])
    return value, a, hess


def _evaluate(tri, lam, triangles=slice(None), edges=slice(None)):
    """(value, angles) over the given cells (default: all): the value,
    and the (T, 3) angles of the triangles for _derivatives."""
    sides = tri.side_edge.reshape(-1, 3)[triangles]
    angles = _triangle_angles(sides, lam, slice(None))
    value = (float(np.sum(angles * lam[sides]))
             + 2.0 * float(np.sum(_lobachevsky(angles)))
             - math.pi * float(np.sum(lam[edges])))
    return value, angles


def _angle_sums(tri, triangles, edges, angles):
    """(theta_tilde, degree) over the cells _evaluate summed, from its
    angles: the angle sum and the corners minus edge-ends per vertex."""
    n = tri.num_vertices
    corners = tri.corner_vertex.reshape(-1, 3)[triangles].ravel()
    theta_tilde = np.bincount(corners, angles[:, _NEXT].ravel(),
                              minlength=n)
    degree = (np.bincount(corners, minlength=n)
              - np.bincount(tri.edge_verts[edges].ravel(), minlength=n))
    return theta_tilde, degree


def _hessian(tri, triangles, edges, angles, vertices):
    """The Hessian over the cells _evaluate summed, from its angles, with
    the rows of the vertex mask vertices (slice(None): all).

    It is 1/4 sum_e w_e (du_i - du_j)^2 taken twice, w_e the cotangent
    sum opposite e: w_e/2 [[1, -1], [-1, 1]] per edge.
    """
    n = tri.num_vertices
    sides = tri.side_edge.reshape(-1, 3)[triangles]
    ends = tri.edge_verts[edges]
    w = np.bincount(sides.ravel(), 1.0 / np.tan(angles).ravel(),
                    minlength=tri.num_edges)[edges]
    index = np.full(n, -1)
    m = len(index[vertices])
    index[vertices] = np.arange(m)
    i, j = index[ends[:, 0]], index[ends[:, 1]]
    keep = (i != j) & (i >= 0) & (j >= 0)
    i, j, q = i[keep], j[keep], 0.5 * w[keep]
    return sp.csr_matrix((np.stack([q, q, -q, -q], 1).ravel(),
                          (np.stack([i, j, i, j], 1).ravel(),
                           np.stack([i, j, j, i], 1).ravel())), shape=(m, m))


def fixed_triangulation_energy(metric, target):
    """Energy of a decorated metric on its own (fixed) triangulation.

    Sum over triangles of twice the triangle potential at the
    half-lambdas, minus pi times the lambda total, minus the target
    angles times the log horocycle lengths.  Requires every triangle to
    satisfy the triangle inequalities in ell = exp(lambda/2).  A target
    that is not a ConeAngleTarget is wrapped as one; one without an
    angle per vertex raises WrongLength.
    """
    theta = _per_vertex(metric.triangulation, as_target(target).theta,
                        "cone angles")
    return (_evaluate(metric.triangulation, metric.lam)[0]
            - float(theta @ _log_horocycle_lengths(metric)))


class EnergyEvaluation:
    """Value, gradient, and sparse Hessian of an energy at a point.

    The value is computed at once; gradient and theta_tilde on first use,
    and the Hessian separately on its own first use, all from the same
    Delaunay result and angles.  delaunay is that result, in base
    lambda, and lam its lambdas shifted by u (+inf on the edges at an
    undecorated vertex).  gradient and hessian are indexed by all
    vertices for the conformal energy, and by the kept vertices of
    subcomplex for the punctured energy.  theta_tilde holds the realized
    angle sums, angles the (T', 3) triangle angles they sum.  The
    punctured energy sums over subcomplex, the cells avoiding the
    distinguished vertex: the disk the sphere back-end reads (None for
    the conformal energy).
    """

    def __init__(self, value, delaunay_result, lam, cells, angles,
                 gradient_of, subcomplex=None):
        self.value = value
        self.delaunay = delaunay_result
        self.lam = lam
        self.angles = angles
        self.subcomplex = subcomplex
        # The (triangulation, triangles, edges) _evaluate summed over,
        # and the gradient as a function of theta_tilde and the degrees.
        self._cells = cells
        self._gradient_of = gradient_of

    @functools.cached_property
    def _sums(self):
        return _angle_sums(*self._cells, self.angles)

    @property
    def theta_tilde(self):
        return self._sums[0]

    @functools.cached_property
    def gradient(self):
        return self._gradient_of(*self._sums)

    @functools.cached_property
    def hessian(self):
        sub = self.subcomplex
        return _hessian(*self._cells, self.angles,
                        slice(None) if sub is None else sub.vertex_mask)

    def hessian_block(self, solve):
        """The principal block of the Hessian on the boolean mask solve,
        as canonical CSC: the kept rows of the CSR Hessian read as
        columns, which for a symmetric matrix are the block in column
        order, so nothing is sorted or summed again."""
        h = self.hessian
        mask = np.repeat(solve, np.diff(h.indptr)) & solve[h.indices]
        indptr = np.cumsum(np.r_[0, mask])[h.indptr[np.r_[solve, True]]]
        index = np.cumsum(solve) - 1
        m = len(indptr) - 1
        return sp.csc_matrix((h.data[mask], index[h.indices[mask]], indptr),
                             shape=(m, m))


def _shifted_delaunay(metric, u, mode):
    """(result, lam): the Delaunay run of metric weighted by u in the
    given mode, and its lambdas shifted by u."""
    result = _delaunay.make_delaunay(metric, PartialDecoration(u), mode=mode)
    ends = result.metric.triangulation.edge_verts
    return result, result.metric.lam + u[ends[:, 0]] + u[ends[:, 1]]


def conformal_energy(metric, target, u):
    """Energy of the conformally shifted metric on its Delaunay
    retriangulation, as a function of the log scale factors u.

    Returns an EnergyEvaluation over all vertices: the gradient at v is
    target angle minus realized angle sum, and the Hessian is the
    cotangent Laplacian of the Delaunay triangulation (kernel: constant
    vectors).  A target that is not a ConeAngleTarget is wrapped as one;
    one without an angle per vertex raises WrongLength.
    """
    theta = _per_vertex(metric.triangulation, as_target(target).theta,
                        "cone angles")
    u = _per_vertex(metric.triangulation, u)
    if not np.all(np.isfinite(u)):
        raise OutOfDomain("u must be finite at every vertex")
    result, lam = _shifted_delaunay(metric, u, _delaunay.PLAIN)
    tri = result.metric.triangulation
    value, angles = _evaluate(tri, lam)
    value -= float(theta @ (_log_horocycle_lengths(metric) - u))
    return EnergyEvaluation(
        value, result, lam, (tri, slice(None), slice(None)), angles,
        lambda theta_tilde, degree: theta - theta_tilde)


def conformal_energy_value(metric, target, u):
    """The value of conformal_energy alone."""
    return conformal_energy(metric, target, u).value


def punctured_energy(metric, v_inf, u):
    """Limit energy with the horocycle at v_inf removed.

    u is indexed by all vertices; the entry at v_inf is ignored.  Both
    are checked first (UnknownVertex, WrongLength).  The evaluation runs
    the adjusted flip algorithm with u = +inf at v_inf, then sums over
    the subcomplex avoiding v_inf.  Gradient and Hessian are indexed by
    the free vertices (all but v_inf, in id order).
    """
    mesh_core.check_vertex(metric.triangulation, v_inf)
    u_ext = _per_vertex(metric.triangulation, u).copy()
    u_ext[v_inf] = np.inf
    # The shifted lambdas are finite on the kept edges (both ends
    # decorated).
    result, lam = _shifted_delaunay(metric, u_ext, _delaunay.ADJUSTED)
    tri = result.metric.triangulation
    sub = mesh_core.subcomplex_avoiding(tri, v_inf)
    free = sub.vertex_mask
    triangles, edges = sub.triangle_mask, sub.edge_mask
    value, angles = _evaluate(tri, lam, triangles, edges)
    value -= 2.0 * math.pi * float(np.sum(
        _log_horocycle_lengths(metric)[free] - u_ext[free]))
    return EnergyEvaluation(
        value, result, lam, (tri, triangles, edges), angles,
        lambda theta_tilde, degree:
            math.pi * (degree[free] + 2) - theta_tilde[free], sub)


def punctured_energy_value(metric, v_inf, u):
    """The value of punctured_energy alone."""
    return punctured_energy(metric, v_inf, u).value


class CrossflipReport:
    def __init__(self, edge, margin, value_dev, grad_dev, hess_dev,
                 third_dev):
        self.edge = edge
        self.margin = margin
        self.value_dev = value_dev
        self.grad_dev = grad_dev
        self.hess_dev = hess_dev
        self.third_dev = third_dev


def crossflip_c2_check(metric, target, e):
    """Compare the fixed-triangulation energy across a flip of a
    cocircular edge.

    Both charts describe the same surface near a cocircular edge, and
    the energy is C^2 there: values, gradients, and Hessians (in lambda,
    pulled back through the Ptolemy transition) must agree.  Third
    derivatives generally differ; their finite-difference deviation is
    reported but not judged.  Raises UnknownEdge unless e is an edge id.
    """
    tri1 = metric.triangulation
    e = mesh_core.check_edge(tri1, e)
    (ka, kb, kc, kd), _ = _delaunay._quad(tri1, e)
    margins, scales = _delaunay._margins(tri1, metric.lam,
                                         np.ones(tri1.num_vertices))
    margin = margins[e]
    if abs(margin) > COCIRCULAR_REL * scales[e]:
        raise NotNeutral("edge %d has margin %g, not cocircular"
                         % (e, margin))

    tri2 = mesh_core.flip_edge(tri1, e)
    se = tri1.side_edge
    ea, eb, ec, ed = se[ka], se[kb], se[kc], se[kd]

    def transition(lam):
        out = lam.copy()
        out[e] = ptolemy_update(lam[ea], lam[eb], lam[ec], lam[ed], lam[e])
        return out

    def f1(lam):
        return fixed_triangulation_energy(DecoratedMetric(tri1, lam), target)

    def f2(lam):
        return fixed_triangulation_energy(DecoratedMetric(tri2,
                                                          transition(lam)),
                                          target)

    lam0 = metric.lam
    ne = len(lam0)
    value_dev = abs(f1(lam0) - f2(lam0))

    def fd_grad(f, h):
        g = np.zeros(ne)
        for i in range(ne):
            d = np.zeros(ne)
            d[i] = h
            g[i] = (f(lam0 + d) - f(lam0 - d)) / (2.0 * h)
        return g

    grad_dev = float(np.max(np.abs(fd_grad(f1, GRAD_STEP)
                                   - fd_grad(f2, GRAD_STEP))))

    def fd_hess(f, h):
        hess = np.zeros((ne, ne))
        for i in range(ne):
            for j in range(i, ne):
                di = np.zeros(ne)
                dj = np.zeros(ne)
                di[i] = h
                dj[j] = h
                val = (f(lam0 + di + dj) - f(lam0 + di - dj)
                       - f(lam0 - di + dj) + f(lam0 - di - dj)) / (4 * h * h)
                hess[i, j] = hess[j, i] = val
        return hess

    hess_dev = float(np.max(np.abs(fd_hess(f1, HESS_STEP)
                                   - fd_hess(f2, HESS_STEP))))

    # Third derivative along the flipped edge's own coordinate.
    h = THIRD_STEP
    d = np.zeros(ne)
    d[e] = 1.0

    def fd_third(f):
        return (-f(lam0 - 2 * h * d) + 2 * f(lam0 - h * d)
                - 2 * f(lam0 + h * d) + f(lam0 + 2 * h * d)) / (2 * h ** 3)

    third_dev = abs(fd_third(f1) - fd_third(f2))

    return CrossflipReport(e, margin, value_dev, grad_dev, hess_dev,
                           third_dev)
