"""Newton solvers for the two convex energies.

Both run one primal active-set projected Newton loop, _newton, fed with
lower bounds and a gauge projection of the step.  The punctured energy
is bounded below by minus the horocycle distances to the distinguished
vertex.  The conformal energy has no bounds (-inf) and is scale
invariant when the target angles satisfy Gauss-Bonnet, so its steps are
re-centred to zero mean and one vertex is pinned for the linear solve.
The loop and kkt_check share the KKT residuals, _kkt_residuals.

The loop warm-starts its evaluations from the surface of the last
accepted one (EnergyEvaluation.surface).  This is exact, not an
approximation: the energies depend only on the decorated surface, which
the flips between two triangulations do not change.  kkt_check stays a
cold evaluation from the input metric, independent of the solver's path.
"""

import math
import time
import warnings

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

ZERO_MEAN = "zero-mean"

# A variable within this relative distance of its bound counts as active.
ACTIVE_TOL = 1e-10
# Relative rounding noise of an energy value recomputed through a long
# flip sequence; smaller predicted decreases skip the line search.
NOISE_REL = 1e-11


class SolveOptions:
    """Parameters shared by both solvers."""

    def __init__(self, gradient_tolerance=1e-10, max_iterations=500,
                 shrink=0.5, sufficient_decrease=1e-4, gauge=ZERO_MEAN,
                 pin_vertex=0):
        if gradient_tolerance <= 0 or max_iterations <= 0:
            raise ValueError("tolerances and iteration limits must be > 0")
        if not 0.0 < shrink < 1.0:
            raise ValueError("shrink factor must be in (0, 1)")
        self.gradient_tolerance = gradient_tolerance
        self.max_iterations = max_iterations
        self.shrink = shrink
        self.sufficient_decrease = sufficient_decrease
        self.gauge = gauge
        self.pin_vertex = pin_vertex


class SolveReport:
    def __init__(self, u_final, iterations, flips_total, active_set,
                 kkt_residuals, status, energy=None, theta_tilde=None,
                 shifted_hessian=False, seconds=0.0):
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


def _solve_spd(hessian, rhs):
    """Solve H x = rhs for a (near) SPD sparse matrix; returns
    (x, shifted) where shifted flags a Tikhonov fallback."""
    n = hessian.shape[0]
    with warnings.catch_warnings():
        # spsolve returns NaN on a singular system (with this warning);
        # the fallbacks below handle that.
        warnings.simplefilter("ignore", spla.MatrixRankWarning)
        x = spla.spsolve(sp.csc_matrix(hessian), rhs)
        if np.all(np.isfinite(x)):
            return x, False
        shift = 1e-10 * (hessian.diagonal().sum() / max(n, 1) + 1.0)
        x = spla.spsolve(sp.csc_matrix(hessian + shift * sp.eye(n)), rhs)
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
    """Sum of target angles minus 2 pi (2g - 2 + n)."""
    tri = metric.triangulation
    expected = 2.0 * math.pi * (2 * tri.genus - 2 + tri.num_vertices)
    return float(np.sum(target.theta)) - expected


def minimize_conformal_energy(metric, target, opts=None, u0=None):
    """Newton minimization of the conformal energy over u.

    Requires the Gauss-Bonnet condition, which makes the energy
    invariant under adding a constant to u; the returned u is
    gauge-normalized (zero mean by default).
    """
    opts = opts or SolveOptions()
    tri = metric.triangulation
    n = tri.num_vertices
    defect = gauss_bonnet_defect(metric, target)
    if abs(defect) > 1e-8:
        raise GaussBonnetViolated("angle sum misses Gauss-Bonnet by %g"
                                  % defect)
    t0 = time.perf_counter()

    u = np.zeros(n) if u0 is None else np.array(u0, dtype=float)
    # Scale invariance sanity check before iterating.
    e0 = _energy.conformal_energy_value(metric, target, u)
    e1 = _energy.conformal_energy_value(metric, target, u + 0.37)
    if abs(e1 - e0) > 1e-10 * max(1.0, abs(e0)):
        raise GaussBonnetViolated(
            "energy not scale invariant (drift %g); inconsistent target"
            % (e1 - e0))

    report = _newton(
        lambda m, x: _energy.conformal_energy(m, target, x),
        lambda m, x: _energy.conformal_energy_value(m, target, x),
        metric, u, np.arange(n), np.full(n, -np.inf),
        lambda step: step - step.mean(), opts.pin_vertex, opts, t0)
    u = report.u_final
    report.u_final = u - (u.mean() if opts.gauge == ZERO_MEAN
                          else u[opts.pin_vertex])
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


def _newton(energy, energy_value, metric, u, free, lower, project, pin, opts,
            t0):
    """Active-set projected Newton on u[free] under u[free] >= lower.

    energy(surface, u) is an EnergyEvaluation indexed like free,
    energy_value(surface, u) its value.  The inactive variables but pin
    take a Newton step, which is gauge-projected, cut at the nearest
    bound (ratio test) and backtracked to sufficient decrease.

    Evaluations are warm-started: the first starts from metric, every
    later one (line-search trials included) from the surface of the last
    accepted full evaluation, already Delaunay at the previous u, so the
    flip algorithm only has to follow the step.
    """
    bounded = bool(np.any(np.isfinite(lower)))
    shifted_any = False
    ev = energy(metric, u)
    # Flips of the full evaluations, each counted from its warm start.
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
                seconds=time.perf_counter() - t0)
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
        s_f, shifted = _solve_spd(ev.hessian[fidx][:, fidx], -g[fidx])
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
        # Near the optimum the predicted decrease drops below the
        # rounding noise of the energy value, so the sufficient-decrease
        # test becomes meaningless; take the projected Newton step as is.
        skip_test = -slope * alpha <= NOISE_REL * (1.0 + abs(f0))
        while True:
            trial = u.copy()
            trial[free] = np.maximum(uf + alpha * step, lower)
            if skip_test:
                break
            try:
                f_trial = energy_value(ev.surface, trial)
            except (OverflowError, TriangleInequalityViolated):
                f_trial = math.inf
            if f_trial <= f0 + opts.sufficient_decrease * alpha * slope:
                break
            alpha *= opts.shrink
            if alpha < 1e-14:
                raise failure(LINE_SEARCH_FAILURE, it,
                              "line search stalled at iteration %d" % it)
        u = trial
        ev = energy(ev.surface, u)
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
        u[free] = np.maximum(np.asarray(u0, dtype=float)[free], bounds)
    u[v_inf] = np.inf

    return _newton(
        lambda m, x: _energy.punctured_energy(m, v_inf, x),
        lambda m, x: _energy.punctured_energy_value(m, v_inf, x),
        metric, u, free, bounds, lambda step: step, None, opts, t0)


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
