"""Solver for the dual Minkowski problem with discrete even data.

Given an even measure mu with atom pairs on the sphere and an index
q in (0, n], find a symmetric polytope whose index-q dual curvature
measure is mu.  The solution maximizes

    Phi(K) = -(1/|mu|) sum gamma_i log h_K(v_i) + log Vbar_q(K)

over Wulff shapes on mu's support directions, after a subspace-mass
feasibility check (one test of every atom against the normal of each
hyperplane, and in 3-d the direction of each line, that atom directions
span), by Newton steps with an analytic Jacobian, log-mismatch fallback:
one unknown per atom (its log offset), each Newton step one dense solve
with the atom Jacobian (measures._atom_jacobian), and an Armijo search on
Phi.  A typical solve at tol 1e-6 takes 2-4 iterations with 6-48 atoms,
and up to about 15 when a step empties a facet and the fallback brings it
back.  A solve evaluates the atoms of the start and of one body per
line-search trial, and nothing more: the functional is scale invariant,
and the maximizer is rescaled at the end so the measure totals match,
with the last iterate's residual, as the atoms are homogeneous of degree q.
The start body builds a Qhull hull; a trial takes the lattice of the
iterate it steps from, with its vertices solved again, whenever
body_core._PolarHull.moved certifies that Qhull would find that lattice,
and builds its own hull otherwise (SolverReport.hull_builds counts both).
"""

import itertools
import math

import numpy as np

from .body_core import SAME_DIRECTION, GeometryError, HPolytope, cross
from .measures import (DiscreteSphericalMeasure, _atom_jacobian, _atoms,
                       dual_quermassintegral)
from .quadrature import unit_ball_volume

# Armijo backtracking: first trial step, shrink factor per rejected trial,
# and the sufficient-increase fraction of the slope
STEP_INIT = 1.0
STEP_SHRINK = 0.5
ARMIJO = 1e-4

# why a solve stopped (SolverReport.stop_reason), with the report's message
CONVERGED = "converged"
MAX_ITER = "max_iter"
LINE_SEARCH_STALLED = "line_search_stalled"
INFEASIBLE = "infeasible"
MESSAGES = {
    CONVERGED: "",
    MAX_ITER: "max_iter exceeded",
    LINE_SEARCH_STALLED: "line search stalled",
    INFEASIBLE: "subspace mass bound violated",
}


class FeasibilityResult:
    """What check_subspace_mass found: whether the measure passes, and the
    subspace closest to its bound, with the share of the total mass it
    holds (ratio) and that bound.  worst is an orthonormal basis of that
    subspace, a (d, n) array of rows; it is None, with ratio 0 and bound 1,
    when no subspace spanned by atom directions comes closer to its bound
    than that."""

    def __init__(self, feasible, ratio=0.0, bound=1.0, worst=None):
        self.feasible = bool(feasible)
        self.ratio = float(ratio)
        self.bound = float(bound)
        self.worst = worst

    def __bool__(self):
        return self.feasible

    def __repr__(self):
        dim = None if self.worst is None else len(self.worst)
        return (f"FeasibilityResult(feasible={self.feasible}, ratio={self.ratio:.6g}, "
                f"bound={self.bound:.6g}, worst_dim={dim})")


class SolverConfig:
    """What a solve asks for: the index q, the tolerance on the L1 gradient
    (= the measure residual at the optimum) and the iteration cap.  The
    ascent starts from the Wulff shape with unit offsets, and its line
    search uses the module constants STEP_INIT, STEP_SHRINK and ARMIJO."""

    def __init__(self, q, tol=1e-6, max_iter=10000):
        if tol <= 0:
            raise GeometryError("tol must be positive")
        if q <= 0:
            raise GeometryError("q must be positive")
        self.q = float(q)
        self.tol = float(tol)
        self.max_iter = int(max_iter)


class SolverReport:
    """What a solve returns, and why it stopped.

    stop_reason is one of converged, max_iter, line_search_stalled and
    infeasible; message says the same in words ("" when converged).
    iterations counts the directions taken, newton_steps + fallback_steps
    of them, and direction_trace names each.  residual_trace holds the
    residual at each iterate, phi_trace Phi at each accepted iterate, and
    step_trace the step length of each iteration (0 for a stalled one).
    evaluations counts atom evaluations (the start and every line-search
    trial), rejected_trials the trials the Armijo test refused, and
    hull_builds the Qhull hulls the solve built: the start body's and one
    for each trial whose lattice certificate failed.  residual
    is the last iterate's residual_trace entry: the atoms are homogeneous
    of degree q, so rescaling the body leaves it as it is.
    """

    def __init__(self, body, residual, stop_reason, phi_trace=(), residual_trace=(),
                 step_trace=(), direction_trace=(), evaluations=0, rejected_trials=0,
                 hull_builds=0):
        self.body = body
        self.residual = residual
        self.stop_reason = stop_reason
        self.feasible = stop_reason != INFEASIBLE
        self.converged = stop_reason == CONVERGED
        self.message = MESSAGES[stop_reason]
        self.phi_trace = list(phi_trace)
        self.residual_trace = list(residual_trace)
        self.step_trace = list(step_trace)
        self.direction_trace = list(direction_trace)
        self.iterations = len(self.direction_trace)
        self.newton_steps = self.direction_trace.count("newton")
        self.fallback_steps = self.direction_trace.count("fallback")
        self.evaluations = evaluations
        self.rejected_trials = rejected_trials
        self.hull_builds = hull_builds

    def __repr__(self):
        return (f"SolverReport(stop_reason={self.stop_reason!r}, "
                f"iterations={self.iterations}, evaluations={self.evaluations}, "
                f"hull_builds={self.hull_builds}, "
                f"residual={self.residual!r})")


def check_subspace_mass(mu, q):
    """Strict subspace mass bounds for even measures and q in (0, n].

    For q in (1, n] every proper subspace of dimension d may hold at most
    (strictly less than) 1 - (n-d)/((n-1) q') of the total mass, where
    q' = q/(q-1); for q in (0, 1] the bound is 1, so only concentration on
    a proper subspace, a line as much as a hyperplane, is excluded.  The
    supremum over subspaces is attained on spans of atom directions, so
    subsets of size <= n-1 of the antipodal pairs are enumerated
    exhaustively.  A hyperplane is tested through its normal N (a x b in
    3-d, a turned by 90 degrees in 2-d): atom v lies in it when
    |N . v| <= SAME_DIRECTION |N|, and a pair with |N| <= 1e-10 spans no
    hyperplane.  A line through a in 3-d holds v when
    |a x v| <= SAME_DIRECTION.  Each subspace's mass is summed atom by
    atom, in order, so near-ties resolve as one membership test per atom
    would; only the worst subspace gets an orthonormal basis (one QR).
    """
    if not isinstance(mu, DiscreteSphericalMeasure):
        raise GeometryError("expected a DiscreteSphericalMeasure")
    if not mu.even:
        raise GeometryError("measure must be even")
    total = mu.total
    if total <= 0:
        raise GeometryError("measure must have positive total mass")
    n = mu.dim
    if q <= 0 or q > n:
        raise GeometryError("q must lie in (0, n]")
    reps = np.flatnonzero(np.arange(len(mu)) < mu.antipode)
    worst = FeasibilityResult(True, 0.0, 1.0, None)
    for d in range(1, n):
        bound = _mass_bound(n, d, q)
        subsets = np.array(list(itertools.combinations(reps, d)), dtype=int).reshape(-1, d)
        mass, spans = _span_masses(mu, subsets)
        if not spans.any():
            continue
        subsets, ratio = subsets[spans], mass[spans] / total
        s = int(np.argmin(bound - ratio))
        if bound - ratio[s] < worst.bound - worst.ratio:
            basis = np.linalg.qr(mu.dirs[subsets[s]].T)[0].T.copy()
            worst = FeasibilityResult(ratio[s] < bound - 1e-12, ratio[s], bound, basis)
    return worst


def _span_masses(mu, subsets):
    """The mass of mu in the span of each row of subsets (the indices of d
    atom directions, d = 1 or n - 1), each summed atom by atom in order,
    and whether the row spans d dimensions."""
    dirs = mu.dirs
    n = dirs.shape[1]
    a = dirs[subsets[:, 0]]
    if subsets.shape[1] == n - 1:
        normal = cross(a, dirs[subsets[:, 1]]) if n == 3 else np.stack([-a[:, 1], a[:, 0]], axis=1)
        size = np.linalg.norm(normal, axis=1)
        inside = np.abs(normal @ dirs.T) <= SAME_DIRECTION * size[:, None]
        spans = size > 1e-10
    else:
        # a line in 3-d: v's distance from the line through a is |a x v|
        k, m = len(a), len(dirs)
        off = cross(np.repeat(a, m, axis=0), np.tile(dirs, (k, 1)))
        inside = (np.linalg.norm(off, axis=1) <= SAME_DIRECTION).reshape(k, m)
        spans = np.ones(k, dtype=bool)
    mass = inside * mu.weights
    return np.cumsum(mass, axis=1, out=mass)[:, -1].copy(), spans


def _mass_bound(n, d, q):
    if q <= 1.0:
        # up to q = 1 only concentration on a proper subspace is excluded
        return 1.0
    qp = q / (q - 1.0)
    return 1.0 - (n - d) / ((n - 1.0) * qp)


def phi_mu(K, mu, q):
    """The maximized functional: minus the mu-mean of log support plus the
    log normalized dual volume.  Scale invariant."""
    total = mu.total
    if total <= 0:
        raise GeometryError("measure must have positive total mass")
    vbar = dual_quermassintegral(K, q).normalized
    return float(-(mu.weights @ np.log(K.support(mu.dirs))) / total + math.log(vbar))


def phi_gradient(K, mu, q):
    """Exact gradient of phi in the log offsets, one component per atom
    direction: c_i / W - gamma_i / |mu| with W the sum of the atoms.

    Components of inactive facets carry c_i = 0, which pushes their
    offsets back inward.
    """
    K = _as_wulff_on(K, mu)
    atoms = _atoms(K, q)
    w_total = float(atoms.sum())
    return atoms / w_total - mu.weights / mu.total


def _as_wulff_on(K, mu):
    """Restrict K to a Wulff shape on mu's support directions."""
    if isinstance(K, HPolytope) and len(K.normals) == len(mu.dirs):
        d = np.linalg.norm(K.normals - mu.dirs, axis=1)
        if (d <= SAME_DIRECTION).all():
            return K
    return HPolytope(mu.directions, K.support(mu.dirs))


def _newton_direction(body, q, atoms, grad):
    """The Newton step of Phi in the log offsets, one unknown per atom, or
    None when it is not usable.

    The Hessian of Phi is H = J/W - q a a^T/W^2, with J the atom Jacobian
    and W the sum of the atoms a.  J is symmetric with J 1 = q a, and grad
    sums to 0, so d = -W J^-1 grad has a . d = 0 and H d = -grad: one solve
    with J, no rank-one term.  Phi is flat along 1 (H 1 = 0), so removing
    the mean changes neither H d nor grad . d and keeps d off the scale
    direction.  An empty facet has a zero row of J, so no Newton step can
    bring it back: that, a singular J and a direction that does not ascend
    leave the step to the log-mismatch fallback.
    """
    if not (atoms > 0).all():
        return None
    try:
        d = -float(atoms.sum()) * np.linalg.solve(_atom_jacobian(body, q, atoms), grad)
    except np.linalg.LinAlgError:
        return None
    d -= d.mean()
    if not (np.isfinite(d).all() and grad @ d > 0):
        return None
    return d


def solve_dual_minkowski(mu, cfg):
    """Newton steps with an analytic Jacobian, log-mismatch fallback.

    Each iteration takes one direction in the log offsets, one unknown per
    atom: the Newton step of Phi when every atom is positive and that step
    ascends, else the log-mismatch direction averaged over antipodal pairs,
    which also brings an empty facet back.  An Armijo search on Phi picks
    the step length.
    Returns a SolverReport; report.body carries the rescaled solution with
    its dual curvature measure matching mu within report.residual (L1,
    normalized by |mu|).  Infeasible data short-circuits with
    feasible=False and no iterations.
    """
    q = cfg.q
    if not check_subspace_mass(mu, q).feasible:
        return SolverReport(None, math.inf, INFEASIBLE)

    total = mu.total
    gamma = mu.weights
    omega = unit_ball_volume(mu.dim)
    body = HPolytope(mu.directions, np.ones(len(mu)))

    def phi_from_atoms(x_full, atoms):
        w = float(atoms.sum())
        if not (w > 0 and math.isfinite(w)):
            return -math.inf  # degenerate trial body; line search rejects it
        return float(-(gamma @ x_full) / total + (math.log(w) - math.log(omega)) / q)

    # the ascent starts at the unit offsets, x = log h = 0
    x = np.zeros(len(mu))
    atoms = _atoms(body, q)
    phi = phi_from_atoms(x, atoms)
    phi_trace = [phi]
    residual_trace = []
    step_trace = []
    direction_trace = []
    trials = 0
    builds = 1  # the start body's hull
    last_step = STEP_INIT
    while True:
        grad = atoms / atoms.sum() - gamma / total
        res = float(np.abs(grad).sum())
        residual_trace.append(res)
        if res <= cfg.tol:
            stop_reason = CONVERGED
            break
        if len(direction_trace) == cfg.max_iter:
            stop_reason = MAX_ITER
            break
        d = _newton_direction(body, q, atoms, grad)
        if d is not None:
            direction_trace.append("newton")
            # a Newton step has its natural length: try the full step first
            step = STEP_INIT
        else:
            # log-mismatch ascent: grad . d >= 0 because a - b and
            # log a - log b share signs
            with np.errstate(divide="ignore"):
                d = np.log(np.maximum(atoms / atoms.sum(), 1e-300)) - np.log(gamma / total)
            d = np.clip(d, -50.0, 50.0)  # keeps exp(x + step*d) finite
            d = 0.5 * (d + d[mu.antipode])  # one value per pair
            direction_trace.append("fallback")
            # warm start: retry near the last accepted step instead of STEP_INIT
            step = min(STEP_INIT, last_step / STEP_SHRINK)
        slope = float(grad @ d)
        accepted = False
        while step > 1e-18:
            trials += 1
            x_new = x + step * d
            # the trial takes the iterate's lattice when the certificate
            # holds, else it builds its own hull in _atoms
            body_new = body._moved(np.exp(x_new))
            builds += "polar" not in body_new._memo
            try:
                atoms_new = _atoms(body_new, q)
            except GeometryError:
                # a trial body too degenerate for its hull (offsets some 20
                # orders of magnitude apart); the line search rejects it
                atoms_new = np.full(len(x_new), np.nan)
            phi_new = phi_from_atoms(x_new, atoms_new)
            # a trial must raise Phi measurably: once the sufficient increase
            # falls below Phi's rounding, every trial fails and the search
            # stalls instead of creeping on with steps that change nothing
            if phi_new >= phi + ARMIJO * step * slope and phi_new > phi:
                accepted = True
                break
            step *= STEP_SHRINK
        if not accepted:
            stop_reason = LINE_SEARCH_STALLED
            step_trace.append(0.0)
            break
        x, body, atoms, phi = x_new, body_new, atoms_new, phi_new
        phi_trace.append(phi)
        step_trace.append(step)
        last_step = step

    # rescale so the measure totals match: the atoms are homogeneous of
    # degree q, so the rescaled body's residual is the last iterate's
    lam = (total / float(atoms.sum())) ** (1.0 / q)
    final = body.with_offsets(body.offsets * lam)
    return SolverReport(final, residual_trace[-1], stop_reason, phi_trace, residual_trace,
                        step_trace, direction_trace, evaluations=trials + 1,
                        rejected_trials=trials - (len(phi_trace) - 1), hull_builds=builds)
