"""Central-cut ellipsoid maximization of linear objectives over the post-
fixpoint regions of the two iterations, with separation oracles and the
field-perturbation solvers built on them.

The ellipsoid is tracked through a square-root factor L with shape P = L L^T;
the central-cut update multiplies L by a rank-one correction, which avoids
the cancellation that plagues the textbook symmetric-matrix update once the
ellipsoid is thin. An upper-bound certificate max_E c.x = c.center + |L^T c|
is tracked every step so the loop can stop as soon as the incumbent is within
target_gap of optimal.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import textio
from .bp import bp_step, dual_bethe
from .meanfield import mf_objective
from .model import DomainError, IsingModel


class FeasibilityError(RuntimeError):
    """No feasible point was found within the step budget."""


@dataclass
class SeparationResult:
    """Answer of a separation oracle at a query point.

    When infeasible, cut/offset give a halfspace {x : cut . x <= offset} that
    contains the feasible set, and violation = cut . query - offset > 0.
    """

    feasible: bool
    cut: np.ndarray | None = None
    offset: float = 0.0
    violation: float = 0.0


@dataclass
class EllipsoidState:
    """Search state: ellipsoid {center + L u : |u| <= 1}, incumbent, certificate."""

    center: np.ndarray
    sqrt_shape: np.ndarray
    step: int
    best_x: np.ndarray | None
    best_value: float
    min_upper: float
    progress: list = field(default_factory=list)  # (step, feasible, best, violation)

    @property
    def shape(self) -> np.ndarray:
        return self.sqrt_shape @ self.sqrt_shape.T


def separation_oracle_bp(model: IsingModel, nu) -> SeparationResult:
    """Separate nu from {nu in [0,1]^2m : nu <= bp_step(nu)}.

    Box violations are cut first (coordinate cuts); otherwise the most violated
    fixpoint constraint nu_d - phi_d(nu) <= 0 is cut with its exact gradient.
    """
    nu = np.asarray(nu, dtype=np.float64)
    ndir = 2 * model.m
    if nu.shape != (ndir,):
        raise DomainError(f"query has shape {nu.shape}, expected ({ndir},)")
    box = np.maximum(-nu, nu - 1.0)
    k = int(np.argmax(box)) if ndir else 0
    if ndir and box[k] > 0.0:
        g = np.zeros(ndir)
        g[k] = -1.0 if -nu[k] >= nu[k] - 1.0 else 1.0
        viol = float(box[k])
        return SeparationResult(False, g, float(g @ nu) - viol, viol)
    phi = bp_step(model, nu)
    slack = nu - phi
    if not ndir or float(slack.max()) <= 0.0:
        return SeparationResult(True)
    k = int(np.argmax(slack))
    exc_ptr, exc_idx, _ = model.exclusion_index()
    g = np.zeros(ndir)
    g[k] = 1.0
    inc = exc_idx[exc_ptr[k]:exc_ptr[k + 1]]
    td = model.theta_dir[inc]
    g[inc] -= (1.0 - phi[k] ** 2) * td / (1.0 - (td * nu[inc]) ** 2)
    viol = float(slack[k])
    return SeparationResult(False, g, float(g @ nu) - viol, viol)


def separation_oracle_mf(model: IsingModel, x) -> SeparationResult:
    """Separate x from {x in [0,1]^n : x <= tanh(Jx + h)}."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (model.n,):
        raise DomainError(f"query has shape {x.shape}, expected ({model.n},)")
    box = np.maximum(-x, x - 1.0)
    k = int(np.argmax(box))
    if box[k] > 0.0:
        g = np.zeros(model.n)
        g[k] = -1.0 if -x[k] >= x[k] - 1.0 else 1.0
        viol = float(box[k])
        return SeparationResult(False, g, float(g @ x) - viol, viol)
    y = model.j_matvec(x) + model.fields
    t = np.tanh(y)
    slack = x - t
    if float(slack.max()) <= 0.0:
        return SeparationResult(True)
    k = int(np.argmax(slack))
    g = np.zeros(model.n)
    g[k] = 1.0
    mask = model.dir_src == k
    g[model.dir_dst[mask]] -= (1.0 - t[k] ** 2) * model.dir_coupling[mask]
    viol = float(slack[k])
    return SeparationResult(False, g, float(g @ x) - viol, viol)


def ellipsoid_maximize(oracle, objective, dimension, radius, max_steps=None,
                       target_gap=1e-8, center=None, r_est=None):
    """Maximize objective . x over the feasible set described by oracle.

    The feasible set must lie inside the ball of the given radius around the
    starting center (default the origin). Objective cuts are applied at
    feasible queries and oracle cuts at infeasible ones; the best feasible
    point is returned with the final EllipsoidState. When max_steps is None
    the budget is 2 d^2 (log(radius/r_est) + log(1/target_gap)).

    Raises FeasibilityError if no feasible point is ever found.
    """
    d = int(dimension)
    if d < 1:
        raise DomainError("dimension must be >= 1")
    c = np.asarray(objective, dtype=np.float64)
    if c.shape != (d,):
        raise DomainError(f"objective has shape {c.shape}, expected ({d},)")
    if not (target_gap > 0.0):
        raise DomainError("target_gap must be positive")
    radius = float(radius)
    start = np.zeros(d) if center is None else np.asarray(center, dtype=np.float64).copy()
    if max_steps is None:
        re = float(r_est) if r_est else target_gap
        max_steps = int(math.ceil(2.0 * d * d * (math.log(max(radius / re, 2.0))
                                                 + math.log(1.0 / target_gap)))) + 8
    max_steps = int(max_steps)
    ell_center = start.copy()
    ell_l = radius * np.eye(d)
    if d > 1:
        fac = math.sqrt(d * d / (d * d - 1.0))
        shrink = 1.0 - math.sqrt((d - 1.0) / (d + 1.0))
    best_x = None
    best_val = -np.inf
    min_upper = np.inf
    progress = []
    restarts = 0
    step = 0
    for step in range(1, max_steps + 1):
        upper = float(c @ ell_center) + float(np.linalg.norm(ell_l.T @ c))
        if upper < min_upper:
            min_upper = upper
        res = oracle(ell_center)
        if res.feasible:
            val = float(c @ ell_center)
            if val > best_val:
                best_val = val
                best_x = ell_center.copy()
            g = -c
            viol = 0.0
        else:
            g = np.asarray(res.cut, dtype=np.float64)
            viol = float(res.violation)
        progress.append((step, bool(res.feasible), best_val, viol))
        if best_x is not None and min_upper - best_val <= target_gap:
            break
        u = ell_l.T @ g
        nrm = float(np.linalg.norm(u))
        if not np.isfinite(nrm) or nrm <= 0.0:
            restarts += 1
            if restarts > 3:
                raise FeasibilityError("ellipsoid factor lost finiteness")
            ell_center = start.copy()
            ell_l = (radius * 2.0 ** restarts) * np.eye(d)
            continue
        uhat = u / nrm
        lu = ell_l @ uhat
        ell_center = ell_center - lu / (d + 1.0)
        if d == 1:
            ell_l = 0.5 * ell_l
        else:
            ell_l = fac * (ell_l - shrink * np.outer(lu, uhat))
    if best_x is None:
        raise FeasibilityError(
            f"no feasible point found in {max_steps} ellipsoid steps "
            "(the inner ball may be too small; check the field perturbation)")
    state = EllipsoidState(center=ell_center, sqrt_shape=ell_l, step=step,
                           best_x=best_x.copy(), best_value=best_val,
                           min_upper=min_upper, progress=progress)
    return best_x.copy(), state


def ellipsoid_progress_csv(state: EllipsoidState, out=None):
    """Serialize the per-step progress; objective_best is nan until a feasible
    point is found. Writes to the open text file `out`, or returns the text
    when out is None."""
    table = np.array(state.progress, dtype=np.float64).reshape(-1, 4)
    best = table[:, 2]
    return textio.emit(out, "step,feasible,objective_best,violation\n", textio.rows((
        table[:, 0].astype(np.int64), table[:, 1].astype(np.int64),
        np.where(np.isfinite(best), best, np.nan), table[:, 3])))


def _solve(model: IsingModel, b: float, oracle, dimension: int, target_gap: float,
           evaluate, full_output: bool):
    """Raise every field by b, maximize the coordinate sum over the perturbed
    model's post-fixpoint region (separated by oracle) to target_gap, and
    evaluate the original model's objective at the result clipped to [0, 1]."""
    pert = IsingModel(model.n, model.edges, model.couplings, model.fields + b)
    r_est = math.tanh(float(pert.fields.min())) / 2.0
    point, state = ellipsoid_maximize(
        lambda q: oracle(pert, q), np.ones(dimension), dimension,
        2.0 * math.sqrt(dimension), target_gap=target_gap,
        center=np.full(dimension, 0.5), r_est=r_est)
    value = evaluate(model, np.clip(point, 0.0, 1.0))
    return (point, value, state) if full_output else (point, value)


def solve_bethe_exponential(model: IsingModel, epsilon: float, full_output=False):
    """Optimal-fixed-point dual value to accuracy epsilon via the ellipsoid method.

    Adds a field perturbation B = epsilon/2m (making the inner ball of the
    post-fixpoint region explicit), maximizes sum(nu) over that region to an
    l1 gap of epsilon/2, and evaluates the dual of the *original* model at the
    result. Returns (nu, value), plus the EllipsoidState when full_output.
    """
    if not (epsilon > 0.0):
        raise DomainError("epsilon must be positive")
    if model.m == 0:
        value = dual_bethe(model, np.zeros(0))
        return (np.zeros(0), value, None) if full_output else (np.zeros(0), value)
    return _solve(model, epsilon / (2.0 * model.m), separation_oracle_bp, 2 * model.m,
                  epsilon / 2.0, dual_bethe, full_output)


def solve_mf_exponential(model: IsingModel, epsilon: float, full_output=False):
    """Optimal mean-field value to accuracy epsilon via the ellipsoid method.

    Adds a field perturbation B = epsilon/2, maximizes sum(x) over the
    perturbed region {0 <= x <= tanh(Jx + h)}, and evaluates the mean-field
    objective of the original model at the result. The l1 target gap is
    scaled by a gradient bound on the feasible box so the value error stays
    below epsilon. Returns (x, value), plus the EllipsoidState when full_output.
    """
    if not (epsilon > 0.0):
        raise DomainError("epsilon must be positive")
    row_sums = np.bincount(model.dir_dst, weights=model.dir_coupling, minlength=model.n)
    grad_bound = float((row_sums + model.fields).max()) + 1.0
    return _solve(model, epsilon / 2.0, separation_oracle_mf, model.n,
                  epsilon / (2.0 * grad_bound), mf_objective, full_output)
