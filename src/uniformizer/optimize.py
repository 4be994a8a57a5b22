"""Newton solvers for the two convex energies.

Both run one primal active-set projected Newton loop, _newton, fed with
the energy, the start and the lower bounds.  The punctured energy is
bounded below by minus the horocycle distances to the distinguished
vertex.  The conformal energy has no bounds (-inf) and is scale
invariant under Gauss-Bonnet, so with no finite bound _newton re-centres
its steps to zero mean and leaves PIN_VERTEX out of the linear solve.
The loop and kkt_check share the KKT residuals.  A target off
Gauss-Bonnet by more than the gradient tolerance is rejected at once:
the pinned vertex would keep that defect as its gradient.

The loop warm-starts its evaluations from the Delaunay result of the
last accepted one, in base lambda (EnergyEvaluation.delaunay.metric).
This is exact, not an approximation: the energies depend only on the
decorated surface, which the flips between two triangulations do not
change.  Each line-search trial is a full evaluation whose derivatives
are computed only if they are read, and the accepted trial is the next
iterate, so the flip algorithm runs once per trial and never again for
the accepted point.
A converged report carries its last evaluation; kkt_check stays a cold
evaluation from the input metric, independent of the solver's path.

Each Newton system is solved with one SuperLU factor in symmetric mode,
on a minimum-degree ordering of A^T + A with diagonal pivots, as suits
the SPD Hessian (George & Liu 1981; Li, ACM TOMS 2005).  The default
column ordering with partial pivoting is meant for unsymmetric systems:
on the 40 x 40 lattice torus its factor has 1.7 times the fill.
"""

import math
import numbers
import time

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from . import delaunay as _delaunay
from . import energy as _energy
from . import mesh_core
from .errors import (
    GaussBonnetViolated,
    WrongGenus,
    IterLimit,
    LineSearchFailure,
    OutOfDomain,
    TriangleInequalityViolated,
)
from .penner import (
    ConeAngleTarget,
    PartialDecoration,
    _per_vertex,
    as_target,
)

CONVERGED = "Converged"
ITER_LIMIT = "IterLimit"
LINE_SEARCH_FAILURE = "LineSearchFailure"

# Defaults of the solvers and the CLI: the gradient tolerances of the
# punctured and the conformal solve, and the iteration limit.
PUNCTURED_TOL = 1e-9
CONFORMAL_TOL = 1e-10
MAX_ITERATIONS = 500

# A variable within this relative distance of its bound counts as active.
ACTIVE_TOL = 1e-10
# Relative rounding noise of an energy value recomputed through a long
# flip sequence; smaller predicted decreases skip the line search.
NOISE_REL = 1e-11
# Line search: the step's shrink factor, and the Armijo decrease share.
SHRINK = 0.5
SUFFICIENT_DECREASE = 1e-4
# The line search has stalled when its share of the step falls below this.
MIN_STEP = 1e-14
# Left out of each conformal Newton solve: the Hessian kills constants.
PIN_VERTEX = 0
# Shift of a Hessian that cannot be factored, over its mean diagonal
# plus one: enough for a factor, too small to change the step much.
TIKHONOV_REL = 1e-10
# Longest shifted step, over max(|gradient|, 1) (see _solve_spd).
STEP_CLAMP = 1e6
# A target angle sum may miss Gauss-Bonnet by round-off of this size.
GAUSS_BONNET_TOL = 1e-8
# kkt_check's bound on every KKT residual and its active-set test: the
# acceptance bound (criterion 9), ten times PUNCTURED_TOL, so a cold
# re-evaluation of a converged solve passes despite its rounding.
KKT_TOL = 1e-8


class SolveOptions:
    """Parameters shared by both solvers."""

    def __init__(self, gradient_tolerance=CONFORMAL_TOL,
                 max_iterations=MAX_ITERATIONS):
        if not (isinstance(gradient_tolerance, numbers.Real)
                and isinstance(max_iterations, numbers.Integral)
                and gradient_tolerance > 0 and max_iterations > 0):  # or NaN
            raise OutOfDomain("real tolerance and integer limit must be > 0")
        self.gradient_tolerance = gradient_tolerance
        self.max_iterations = max_iterations


class SolveReport:
    """Outcome of a solve.  evaluation is the EnergyEvaluation at u_final
    (before any zero-mean shift) if converged and not taken by realize."""

    def __init__(self, u_final, iterations, flips_total, active_set,
                 kkt_residuals, status, energy=None, theta_tilde=None,
                 shifted_hessian=False, seconds=0.0, evaluation=None):
        self.u_final = u_final
        self.iterations = iterations
        self.flips_total = flips_total
        self.active_set = active_set
        self.kkt_residuals = kkt_residuals
        self.status = status
        self.energy = energy
        self.theta_tilde = theta_tilde
        self.shifted_hessian = shifted_hessian
        self.seconds = seconds
        self.evaluation = evaluation


def _options(opts, tolerance):
    """opts, or the default SolveOptions with the given gradient tolerance
    when it is None; anything else raises OutOfDomain."""
    if opts is None:
        return SolveOptions(gradient_tolerance=tolerance)
    if not isinstance(opts, SolveOptions):
        raise OutOfDomain("opts must be a SolveOptions, not %r" % (opts,))
    return opts


def _factor_solve(matrix, rhs):
    """x with matrix x = rhs from one symmetric-mode SuperLU factor (see
    the module docstring); NaN when the factor is exactly singular."""
    try:
        lu = spla.splu(sp.csc_matrix(matrix), permc_spec="MMD_AT_PLUS_A",
                       diag_pivot_thresh=0.0,
                       options={"SymmetricMode": True})
    except RuntimeError:  # "Factor is exactly singular"
        return np.full(len(rhs), np.nan)
    return lu.solve(rhs)


def _principal_csc(matrix, keep):
    """The principal submatrix matrix[keep][:, keep] of a canonical CSR
    matrix, keep a boolean mask, as a CSC matrix.

    Read off the CSR arrays directly: the stored entries of the kept rows
    and columns, in column order and by row within a column, which are
    the entries and the order that scipy's fancy slices and csc_matrix
    give.  The values are copied, never summed again.
    """
    n = matrix.shape[0]
    rows = np.repeat(np.arange(n), np.diff(matrix.indptr))
    cols = matrix.indices
    mask = keep[rows] & keep[cols]
    index = np.cumsum(keep) - 1
    m = int(index[-1]) + 1 if n else 0
    col = index[cols[mask]]
    order = np.argsort(col, kind="stable")
    indptr = np.zeros(m + 1, dtype=np.intp)
    np.cumsum(np.bincount(col, minlength=m), out=indptr[1:])
    return sp.csc_matrix((matrix.data[mask][order],
                          index[rows[mask]][order], indptr), shape=(m, m))


def _solve_spd(hessian, rhs):
    """Solve H x = rhs for a (near) SPD sparse matrix; returns
    (x, shifted) where shifted flags a Tikhonov fallback."""
    n = hessian.shape[0]
    x = _factor_solve(hessian, rhs)
    if np.all(np.isfinite(x)):
        return x, False
    shift = TIKHONOV_REL * (hessian.diagonal().sum() / max(n, 1) + 1.0)
    x = _factor_solve(hessian + shift * sp.eye(n), rhs)
    if not np.all(np.isfinite(x)):
        # Hessian is structurally singular (e.g. no triangles left in
        # the subcomplex); fall back to a plain gradient step.
        x = np.array(rhs, dtype=float)
        return x, True
    # Keep the fallback step from exploding when the shift is the only
    # thing making the system solvable.
    norm_x = np.linalg.norm(x)
    cap = STEP_CLAMP * max(np.linalg.norm(rhs), 1.0)
    if norm_x > cap:
        x *= cap / norm_x
    return x, True


def gauss_bonnet_defect(metric, target):
    """Sum of target angles, one per vertex (else WrongLength), minus
    2 pi (2g - 2 + n).  A target that is not a ConeAngleTarget is wrapped
    as one."""
    tri = metric.triangulation
    theta = _per_vertex(tri, as_target(target).theta, "cone angles")
    expected = 2.0 * math.pi * (2 * tri.genus - 2 + tri.num_vertices)
    return float(np.sum(theta)) - expected


def minimize_conformal_energy(metric, target, opts=None, u0=None):
    """Newton minimization of the conformal energy over u.

    Requires Gauss-Bonnet to within min(GAUSS_BONNET_TOL, gradient
    tolerance), the gradient the pinned vertex would keep, else raises
    GaussBonnetViolated.  The returned u has zero mean.  A target that
    is not a ConeAngleTarget is wrapped as one.
    """
    target = as_target(target)
    opts = _options(opts, CONFORMAL_TOL)
    n = metric.triangulation.num_vertices
    defect = gauss_bonnet_defect(metric, target)
    bound = min(GAUSS_BONNET_TOL, opts.gradient_tolerance)
    if abs(defect) > bound:
        raise GaussBonnetViolated("angle sum misses Gauss-Bonnet by %g "
                                  "(bound %g)" % (defect, bound))
    t0 = time.perf_counter()

    u = np.zeros(n) if u0 is None else np.array(u0, dtype=float)
    report = _newton(lambda m, x: _energy.conformal_energy(m, target, x),
                     metric, u, np.arange(n), np.full(n, -np.inf), opts, t0)
    report.u_final = report.u_final - report.u_final.mean()
    return report


def _kkt_residuals(g, u, lower, act_tol):
    """(at_bound, stationarity, complementarity, feasibility) of the
    gradient g at u under the bounds u >= lower; a variable is at its
    bound within act_tol relative, and only finite bounds can be."""
    at_bound = np.isfinite(lower) & (
        u - lower <= act_tol * np.maximum(1.0, np.abs(lower)))
    return (at_bound,
            float(np.max(np.abs(g[~at_bound]), initial=0.0)),
            float(np.max(-g[at_bound], initial=0.0)),
            float(np.max(lower - u, initial=0.0)))


def _newton(energy, metric, u, free, lower, opts, t0):
    """Active-set projected Newton on u[free] under u[free] >= lower,
    from energy(metric, u), an EnergyEvaluation indexed like free.

    The inactive variables take a Newton step, which is cut at the
    nearest bound (ratio test) and backtracked to sufficient decrease.
    With no finite bound (the scale-invariant conformal energy) the step
    is re-centred to zero mean and PIN_VERTEX takes none.  An accepted
    step that does not lower the energy raises LineSearchFailure.

    Every line-search trial is warm-started with energy(surface, u) from
    the Delaunay result of the current iterate, already Delaunay at its
    u, so the flip algorithm only has to follow the step.  The accepted trial
    becomes the next iterate.
    """
    ev = energy(metric, u)
    bounded = bool(np.any(np.isfinite(lower)))
    project = (lambda s: s) if bounded else (lambda s: s - s.mean())
    shifted_any = False
    # Flips of the iterates' evaluations, each counted from its warm start.
    flips_total = len(ev.delaunay.flips)

    def failure(status, it, message):
        return (IterLimit if status == ITER_LIMIT else LineSearchFailure)(
            message, report=SolveReport(u, it, flips_total, [], residuals,
                                        status))

    for it in range(opts.max_iterations + 1):
        g = ev.gradient
        uf = u[free]
        at_bound, stat, comp, feas = _kkt_residuals(g, uf, lower, ACTIVE_TOL)
        residuals = ({"stationarity": stat, "complementarity": comp,
                      "feasibility": feas} if bounded
                     else {"grad_inf": stat})
        resid = max(stat, comp, feas)
        if resid <= opts.gradient_tolerance:
            return SolveReport(
                u, it, flips_total, free[at_bound].tolist(), residuals,
                CONVERGED, energy=ev.value, theta_tilde=ev.theta_tilde,
                shifted_hessian=shifted_any,
                seconds=time.perf_counter() - t0, evaluation=ev)
        if it == opts.max_iterations:
            break

        active = at_bound & (g >= 0)
        solve = ~active
        if not bounded:
            solve[PIN_VERTEX] = False
        fidx = np.nonzero(solve)[0]
        if len(fidx) == 0:
            raise failure(LINE_SEARCH_FAILURE, it,
                          "all variables active but KKT residual %g" % resid)
        s_f, shifted = _solve_spd(_principal_csc(ev.hessian, solve),
                                  -g[fidx])
        shifted_any = shifted_any or shifted
        step = np.zeros(len(free))
        step[fidx] = s_f
        step = project(step)

        slope = float(g @ step)
        if slope >= 0:
            step = project(np.where(active, 0.0, -g))
            slope = float(g @ step)
            if slope >= 0:
                raise failure(LINE_SEARCH_FAILURE, it,
                              "no descent direction at iteration %d" % it)

        # Ratio test: largest feasible step towards the bounds.
        with np.errstate(divide="ignore", invalid="ignore"):
            ratios = np.where(step < 0, (lower - uf) / step, np.inf)
        ratios[~(ratios > 0)] = np.inf
        alpha = min(1.0, float(np.min(ratios)))

        f0 = ev.value
        noise = NOISE_REL * (1.0 + abs(f0))
        # Near the optimum the predicted decrease drops below the
        # rounding noise of the energy value, so the sufficient-decrease
        # test becomes meaningless; take the projected Newton step as is,
        # unless it raises the energy by more than that noise: then the
        # step is tested like any other, which stops a 2-cycle between
        # an untested rise and a cut-back.
        skip_test = -slope * alpha <= noise
        while True:
            trial = u.copy()
            trial[free] = np.maximum(uf + alpha * step, lower)
            try:
                trial_ev = energy(ev.delaunay.metric, trial)
                f_trial = trial_ev.value
            except (OverflowError, TriangleInequalityViolated):
                f_trial = math.inf
            if skip_test and f_trial <= f0 + noise:
                break
            skip_test = False
            if f_trial <= f0 + SUFFICIENT_DECREASE * alpha * slope:
                if f_trial >= f0:
                    # The required decrease is below the rounding of f0,
                    # so the test accepted a step that lowers nothing;
                    # the next iterations would only repeat it.
                    raise failure(LINE_SEARCH_FAILURE, it,
                                  "accepted step of length %g makes no "
                                  "decrease at iteration %d" % (alpha, it))
                break
            alpha *= SHRINK
            if alpha < MIN_STEP:
                raise failure(LINE_SEARCH_FAILURE, it,
                              "line search stalled at iteration %d" % it)
        u, ev = trial, trial_ev
        flips_total += len(ev.delaunay.flips)

    raise failure(ITER_LIMIT, opts.max_iterations,
                  "no convergence in %d iterations" % opts.max_iterations)


def _bounds(metric, v_inf):
    """(free vertices, their lower bounds -delta(v, v_inf))."""
    deltas = _delaunay.horocycle_distances_to(metric, v_inf)
    lower = np.empty(metric.triangulation.num_vertices)
    lower[np.fromiter(deltas, np.intp)] = -np.fromiter(deltas.values(),
                                                        float)
    free = np.delete(np.arange(len(lower)), v_inf)
    return free, lower[free]


def minimize_punctured_energy(metric, v_inf, opts=None, u0=None):
    """Projected Newton minimization of the punctured energy under the
    lower bounds u_v >= -delta(v, v_inf).

    The bound keeps the shifted horocycle at v from crossing the fixed
    reference horocycle at v_inf: their distance delta(v, v_inf) + u_v
    must stay nonnegative.  The scaling relation makes the energy
    strictly increasing along the all-ones direction, so the bounds pin
    the solution: at least one constraint is active at the minimum.
    A start u0 is raised to the bounds; off v_inf its entries must be
    finite or +inf, as in a PartialDecoration (OutOfDomain).
    """
    opts = _options(opts, PUNCTURED_TOL)
    tri = metric.triangulation
    if tri.genus != 0 or tri.num_vertices < 3:
        raise WrongGenus("need genus 0 with at least 3 vertices, got "
                         "genus %d, %d vertices"
                         % (tri.genus, tri.num_vertices))
    t0 = time.perf_counter()

    free, bounds = _bounds(metric, v_inf)
    u = np.zeros(tri.num_vertices)
    if u0 is None:
        u[free] = bounds
    else:
        start = PartialDecoration(_per_vertex(tri, u0)[free])
        u[free] = np.maximum(start.u, bounds)
    u[v_inf] = np.inf

    return _newton(lambda m, x: _energy.punctured_energy(m, v_inf, x),
                   metric, u, free, bounds, opts, t0)


class KKTReport:
    def __init__(self, passed, stationarity, feasibility, complementarity,
                 active_set, gradient):
        self.passed = passed
        self.stationarity = stationarity
        self.feasibility = feasibility
        self.complementarity = complementarity
        self.active_set = active_set
        self.gradient = gradient


def kkt_check(metric, problem, u):
    """Independent optimality verification, to KKT_TOL.

    problem is either a ConeAngleTarget (unconstrained, stationarity of
    the conformal energy) or a vertex id (bounds-constrained punctured
    problem, with bounds recomputed from scratch).
    """
    u = _per_vertex(metric.triangulation, u)
    if isinstance(problem, ConeAngleTarget):
        ev = _energy.conformal_energy(metric, problem, u)
        free = np.arange(len(u))
        lower = np.full(len(u), -np.inf)
    else:
        v_inf = mesh_core.check_vertex(metric.triangulation, problem)
        free, lower = _bounds(metric, v_inf)
        ev = _energy.punctured_energy(metric, v_inf, u)
    at_bound, stat, comp, feas = _kkt_residuals(ev.gradient, u[free], lower,
                                                KKT_TOL)
    active_set = free[at_bound].tolist()
    passed = (max(stat, comp, feas) <= KKT_TOL
              and (len(active_set) > 0 or not np.isfinite(lower).any()))
    return KKTReport(passed, stat, feas, comp, active_set, ev.gradient)
