"""Newton solvers for the two convex energies.

Both run one primal active-set projected Newton loop, _newton, fed with
the start's evaluation, lower bounds and a gauge projection of the step.
The punctured energy is bounded below by minus the horocycle distances
to the distinguished vertex.  The conformal energy has no bounds (-inf)
and is scale invariant when the target angles satisfy Gauss-Bonnet, so
its steps are re-centred to zero mean and PIN_VERTEX is left out of the
linear solve.  The loop and kkt_check share the KKT residuals.

The loop warm-starts its evaluations from the surface of the last
accepted one (EnergyEvaluation.surface).  This is exact, not an
approximation: the energies depend only on the decorated surface, which
the flips between two triangulations do not change.  Each line-search
trial is a full evaluation whose derivatives are computed only if they
are read, and the accepted trial is the next iterate, so the flip
algorithm runs once per trial and never again for the accepted point.
A converged report carries its last evaluation; kkt_check stays a cold
evaluation from the input metric, independent of the solver's path.

Each Newton system is solved with one SuperLU factor in symmetric mode,
on a minimum-degree ordering of A^T + A with diagonal pivots, as suits
the SPD Hessian (George & Liu 1981; Li, ACM TOMS 2005).  The default
column ordering with partial pivoting is meant for unsymmetric systems:
on the 40 x 40 lattice torus its factor has 1.7 times the fill.
"""

import math
import time

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from . import delaunay as _delaunay
from . import energy as _energy
from .errors import (
    GaussBonnetViolated,
    WrongGenus,
    IterLimit,
    LineSearchFailure,
    TriangleInequalityViolated,
)
from .penner import ConeAngleTarget

CONVERGED = "Converged"
ITER_LIMIT = "IterLimit"
LINE_SEARCH_FAILURE = "LineSearchFailure"

# A variable within this relative distance of its bound counts as active.
ACTIVE_TOL = 1e-10
# Relative rounding noise of an energy value recomputed through a long
# flip sequence; smaller predicted decreases skip the line search.
NOISE_REL = 1e-11
# Line search: the step's shrink factor, and the Armijo decrease share.
SHRINK = 0.5
SUFFICIENT_DECREASE = 1e-4
# Left out of each conformal Newton solve: the Hessian kills constants.
PIN_VERTEX = 0


class SolveOptions:
    """Parameters shared by both solvers."""

    def __init__(self, gradient_tolerance=1e-10, max_iterations=500):
        if not (gradient_tolerance > 0 and max_iterations > 0):  # or NaN
            raise ValueError("tolerances and iteration limits must be > 0")
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
    shift = 1e-10 * (hessian.diagonal().sum() / max(n, 1) + 1.0)
    x = _factor_solve(hessian + shift * sp.eye(n), rhs)
    if not np.all(np.isfinite(x)):
        # Hessian is structurally singular (e.g. no triangles left in
        # the subcomplex); fall back to a plain gradient step.
        x = np.array(rhs, dtype=float)
        return x, True
    # Keep the fallback step from exploding when the shift is the only
    # thing making the system solvable.
    norm_x = np.linalg.norm(x)
    norm_g = np.linalg.norm(rhs)
    if norm_x > 1e6 * max(norm_g, 1.0):
        x *= 1e6 * max(norm_g, 1.0) / norm_x
    return x, True


def gauss_bonnet_defect(metric, target):
    """Sum of target angles, one per vertex, minus 2 pi (2g - 2 + n)."""
    tri = metric.triangulation
    if len(target.theta) != tri.num_vertices:
        raise GaussBonnetViolated("target has %d angles for %d vertices"
                                  % (len(target.theta), tri.num_vertices))
    expected = 2.0 * math.pi * (2 * tri.genus - 2 + tri.num_vertices)
    return float(np.sum(target.theta)) - expected


def _scale_checked(metric, target, u):
    """The conformal evaluation at u, once found invariant under adding a
    constant to u: Newton's start, passed on without a reference kept."""
    ev = _energy.conformal_energy(metric, target, u)
    e1 = _energy.conformal_energy_value(metric, target, u + 0.37)
    if abs(e1 - ev.value) > 1e-10 * max(1.0, abs(ev.value)):
        raise GaussBonnetViolated(
            "energy not scale invariant (drift %g); inconsistent target"
            % (e1 - ev.value))
    return ev


def minimize_conformal_energy(metric, target, opts=None, u0=None):
    """Newton minimization of the conformal energy over u.

    Requires the Gauss-Bonnet condition, which makes the energy
    invariant under adding a constant to u; the returned u has zero
    mean, and the scale check's evaluation at u0 is the first iterate.
    """
    opts = opts or SolveOptions()
    n = metric.triangulation.num_vertices
    defect = gauss_bonnet_defect(metric, target)
    if abs(defect) > 1e-8:
        raise GaussBonnetViolated("angle sum misses Gauss-Bonnet by %g"
                                  % defect)
    t0 = time.perf_counter()

    u = np.zeros(n) if u0 is None else np.array(u0, dtype=float)
    report = _newton(lambda m, x: _energy.conformal_energy(m, target, x),
                     _scale_checked(metric, target, u), u, np.arange(n),
                     np.full(n, -np.inf), lambda step: step - step.mean(),
                     PIN_VERTEX, opts, t0)
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


def _newton(energy, ev, u, free, lower, project, pin, opts, t0):
    """Active-set projected Newton on u[free] under u[free] >= lower.

    energy(surface, u) is an EnergyEvaluation indexed like free.  The
    inactive variables but pin take a Newton step, which is
    gauge-projected, cut at the nearest bound (ratio test) and
    backtracked to sufficient decrease.  An accepted step that does not
    lower the energy raises LineSearchFailure: the search has stalled.

    ev is the evaluation at u.  Every line-search trial is warm-started
    from the surface of the current iterate, already Delaunay at its u,
    so the flip algorithm only has to follow the step.  The accepted
    trial becomes the next iterate.
    """
    bounded = bool(np.any(np.isfinite(lower)))
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
        if pin is not None:
            solve[pin] = False
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
                trial_ev = energy(ev.surface, trial)
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
            if alpha < 1e-14:
                raise failure(LINE_SEARCH_FAILURE, it,
                              "line search stalled at iteration %d" % it)
        u, ev = trial, trial_ev
        flips_total += len(ev.delaunay.flips)

    raise failure(ITER_LIMIT, opts.max_iterations,
                  "no convergence in %d iterations" % opts.max_iterations)


def _bounds(metric, v_inf):
    """(free vertices, their lower bounds -delta(v, v_inf))."""
    deltas = _delaunay.horocycle_distances_to(metric, v_inf)
    free = np.array([v for v in range(metric.triangulation.num_vertices)
                     if v != v_inf])
    return free, np.array([-deltas[v] for v in free])


def minimize_punctured_energy(metric, v_inf, opts=None, u0=None):
    """Projected Newton minimization of the punctured energy under the
    lower bounds u_v >= -delta(v, v_inf).

    The bound keeps the shifted horocycle at v from crossing the fixed
    reference horocycle at v_inf: their distance delta(v, v_inf) + u_v
    must stay nonnegative.  The scaling relation makes the energy
    strictly increasing along the all-ones direction, so the bounds pin
    the solution: at least one constraint is active at the minimum.
    """
    opts = opts or SolveOptions(gradient_tolerance=1e-9)
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
        u[free] = np.maximum(_energy._per_vertex(tri, u0)[free], bounds)
    u[v_inf] = np.inf

    return _newton(lambda m, x: _energy.punctured_energy(m, v_inf, x),
                   _energy.punctured_energy(metric, v_inf, u), u, free,
                   bounds, lambda step: step, None, opts, t0)


class KKTReport:
    def __init__(self, passed, stationarity, feasibility, complementarity,
                 active_set, gradient):
        self.passed = passed
        self.stationarity = stationarity
        self.feasibility = feasibility
        self.complementarity = complementarity
        self.active_set = active_set
        self.gradient = gradient


def kkt_check(metric, problem, u, tolerance=1e-8):
    """Independent optimality verification.

    problem is either a ConeAngleTarget (unconstrained, stationarity of
    the conformal energy) or a vertex id (bounds-constrained punctured
    problem, with bounds recomputed from scratch).
    """
    u = np.asarray(u, dtype=float)
    if isinstance(problem, ConeAngleTarget):
        ev = _energy.conformal_energy(metric, problem, u)
        free = np.arange(len(u))
        lower = np.full(len(u), -np.inf)
    else:
        v_inf = int(problem)
        free, lower = _bounds(metric, v_inf)
        ev = _energy.punctured_energy(metric, v_inf, u)
    at_bound, stat, comp, feas = _kkt_residuals(ev.gradient, u[free], lower,
                                                tolerance)
    active_set = free[at_bound].tolist()
    passed = (max(stat, comp, feas) <= tolerance
              and (len(active_set) > 0 or not np.isfinite(lower).any()))
    return KKTReport(passed, stat, feas, comp, active_set, ev.gradient)
