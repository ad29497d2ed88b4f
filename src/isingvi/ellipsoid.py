"""Deep-cut ellipsoid maximization of linear objectives over the post-
fixpoint regions of the two iterations, with separation oracles and the
field-perturbation solvers built on them.

An oracle cut sums the cuts of every violated row into one surrogate cut
(Bland, Goldfarb & Todd, 1981), found in O(m) through the transpose product
of the field map. Mean-field cuts sit at the summed slack, valid because
each slack is convex on the box. Bethe cuts go through the query: the BP
field is a sum of convex arctanh terms, so a deep cut can exclude the
optimum. That a Bethe cut through the query keeps every feasible point is
measured, not proved. One Bethe row's set is not convex
(tanh(atanh u + atanh v) = (u + v)/(1 + uv) is convex along (1, -1) at
u = v), and the tests watch every cut of the solves on the 4x4 grid
(J = 0.3, h = 0.1), a 3x3 grid at J = 2, h = 0, and a random 3-regular
graph on 10 nodes at J = 0.6.

The search starts from the smallest axis-aligned ellipsoid around a box that
holds the feasible set. The solvers pass [0, step(1)]: the iteration maps are
monotone, so q <= step(q) <= step(1) on the region. The ellipsoid is tracked
through a square-root factor L with shape P = L L^T; each cut, applied at its
depth, multiplies L by a rank-one correction, which avoids the cancellation
that plagues the textbook symmetric-matrix update once the ellipsoid is thin.
An upper-bound certificate max_E c.x = c.center + |L^T c| is tracked every
step, with L^T c updated in O(d) alongside L, so the loop can stop as soon as
the incumbent is within target_gap of optimal.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass
from functools import partial

import numpy as np

from . import _kernels, textio
from .bp import bp_step, dual_bethe
from .meanfield import mf_objective, mf_step
from .errors import DomainError, FeasibilityError, ModelError
from .model import IsingModel


@dataclass
class SeparationResult:
    """Answer of a separation oracle at a query point.

    When infeasible, the halfspace {x : cut . x <= cut . query - violation},
    violation >= 0, contains the feasible set; violation is 0 for a cut
    through the query.
    """

    feasible: bool
    cut: np.ndarray | None = None
    violation: float = 0.0


@dataclass
class EllipsoidState:
    """Search state: ellipsoid {center + L u : |u| <= 1}, incumbent, certificate,
    why the search stopped, and the measured values of every step. A row holds
    the query's objective when the query is feasible and nan otherwise, so the
    incumbent after each step is np.fmax.accumulate(progress[:, 0])."""

    center: np.ndarray
    sqrt_shape: np.ndarray
    lt_c: np.ndarray  # L^T c as updated with L, so max_E c.x = c.center + |lt_c|
    step: int
    best_value: float
    min_upper: float
    # "gap": min_upper - best_value reached target_gap; "no_better_point": an
    # objective cut left no point above the incumbent; "budget": steps ran out
    stop_reason: str
    progress: np.ndarray  # (steps, 2) rows (objective, violation); row k is step k + 1


def _separate(q, step, vjp, deep) -> SeparationResult:
    """Separate q from {q in [0,1]^d : q <= step(q) = tanh(field(q))}: cut the
    most violated box side, else cut once for the violated rows V = {k : q_k >
    step_k(q)} with the gradient of their summed slack, g = 1_V - vjp(q, c 1_V),
    c = 1 - step(q)^2, where vjp(q, y) = (dfield/dq)^T y. With deep the cut
    sits at the summed slack, which is valid only when every slack is convex;
    otherwise it goes through q."""
    d = q.shape[0]
    box = np.maximum(-q, q - 1.0)
    k = int(box.argmax()) if d else 0  # methods: np.argmax's wrapper costs more
    if d and box[k] > 0.0:
        g = np.zeros(d)
        g[k] = -1.0 if -q[k] >= q[k] - 1.0 else 1.0
        return SeparationResult(False, g, float(box[k]))
    phi = step(q)
    slack = q - phi
    violated = slack > 0.0
    if not np.count_nonzero(violated):  # skips ndarray.any's wrapper
        return SeparationResult(True)
    g = violated - vjp(q, (1.0 - phi * phi) * violated)
    return SeparationResult(False, g, float(slack[violated].sum()) if deep else 0.0)


def separation_oracle_bp(model: IsingModel, nu) -> SeparationResult:
    """Separate nu from {nu in [0,1]^2m : nu <= bp_step(nu)} by cuts through nu:
    the BP field is a sum of convex arctanh terms, so a deep cut can exclude
    feasible points. That a cut through nu keeps them is measured on the
    models the module docstring names, not proved. Entry e of the transpose
    product is
    theta_e/(1 - (theta_e nu_e)^2) times y summed over the edges out of dst(e)
    but e ^ 1, with theta_e nu_e clamped as the field clamps it, so that
    tanh(J) rounding to 1.0 gives a large finite factor at nu_e = 1."""
    src, dst, theta = model._dir_src, model._dir_dst, model.theta_dir

    def vjp(q, y):
        # the pair-swapped view of y gives y[e ^ 1]
        out = np.bincount(src, weights=y, minlength=model.n)
        # q is in [0, 1] here, as box cuts come first, so theta q clamps from above only
        t = np.minimum(theta * q, _kernels._CLAMP)
        return theta / (1.0 - t * t) * (out[dst] - y.reshape(-1, 2)[:, ::-1].ravel())

    return _separate(_kernels._vector(nu, 2 * model.m, "query"),
                     partial(bp_step, model), vjp, deep=False)


def separation_oracle_mf(model: IsingModel, x) -> SeparationResult:
    """Separate x from {x in [0,1]^n : x <= tanh(Jx + h)} by deep cuts: on the
    box Jx + h >= 0, where tanh(Jx + h) is concave. The transpose product is
    J y."""
    src, dst, w = model._dir_src, model._dir_dst, model.dir_coupling

    def vjp(q, y):
        return np.bincount(src, weights=y[dst] * w, minlength=model.n)

    return _separate(_kernels._vector(x, model.n, "query"), partial(mf_step, model),
                     vjp, deep=True)


def ellipsoid_maximize(oracle, objective, box, target_gap=1e-8, r_est=None):
    """Maximize objective . x over the feasible set described by oracle.

    The objective is a non-empty vector; its length d is the dimension. The
    feasible set must lie inside box = (lo, hi), bounds that broadcast to
    (d,) with hi > lo. The search starts from the smallest axis-aligned
    ellipsoid around that box, centre (lo + hi)/2 and semi-axes
    sqrt(d) (hi - lo)/2, widened by 1e-4. Every cut is applied at its depth:
    an oracle cut at its violation, an objective cut at a feasible query at
    best - c.query, which is 0 when the query is the new incumbent. The best
    feasible point is returned with the final EllipsoidState, whose progress
    rows hold each step's measured values: the query's objective c.query if
    the query was feasible (nan if not, so a row is feasible exactly when its
    objective is finite), and the cut's violation (0 at a feasible query).
    The step budget is 8 + 2 d^2 max(0, max(log(R/r_est), log 2) + log(1/target_gap))
    with R = sqrt(d) max(hi - lo)/2, the radius of the ball around the box,
    taken as differences of logs so that tiny gaps do not overflow. The
    search stops when the certificate gap reaches target_gap, when an
    objective cut leaves no point above the incumbent, or when the budget
    runs out; state.stop_reason says which.

    Raises FeasibilityError if an oracle cut excludes the whole ellipsoid, a
    cut g has a zero or non-finite |L^T g|, or no feasible point is found
    within the budget.
    """
    c = np.asarray(objective, dtype=np.float64)
    if c.ndim != 1 or not c.size:
        raise DomainError(f"objective must be a non-empty vector, got shape {c.shape}")
    d = c.size
    if not (target_gap > 0.0):
        raise DomainError("target_gap must be positive")
    lo, hi = (np.broadcast_to(np.asarray(b, dtype=np.float64), (d,)) for b in box)
    width = hi - lo
    if not np.all((width > 0.0) & (width < np.inf)):
        raise DomainError("box must have finite bounds with hi > lo")
    radius = math.sqrt(d) * float(width.max()) / 2.0
    re = float(r_est) if r_est and r_est > 0.0 else target_gap
    max_steps = int(math.ceil(2.0 * d * d * max(
        0.0, max(math.log(radius) - math.log(re), math.log(2.0)) - math.log(target_gap)))) + 8
    ell_center = (lo + hi) / 2.0
    ell_l = np.diag((1.0 + 1e-4) * math.sqrt(d) / 2.0 * width)
    w = ell_l.T @ c  # L^T c, updated with L so the certificate needs no matvec
    best = None
    best_val = math.nan
    min_upper = np.inf
    progress = array("d")
    step = 0
    stop_reason = "budget"
    for step in range(1, max_steps + 1):
        val = float(c @ ell_center)
        upper = val + math.sqrt(w @ w)
        if upper < min_upper:
            min_upper = upper
        res = oracle(ell_center)
        if res.feasible:
            if best is None or val > best_val:
                best_val = val
                best = ell_center.copy()
            g, depth, viol = -c, best_val - val, 0.0
        else:
            g = np.asarray(res.cut, dtype=np.float64)
            depth = viol = float(res.violation)
        progress.extend((val if res.feasible else math.nan, viol))
        if best is not None and min_upper - best_val <= target_gap:
            stop_reason = "gap"
            break
        u = ell_l.T @ g
        nrm = math.sqrt(u @ u)
        if not math.isfinite(nrm) or nrm <= 0.0:
            raise FeasibilityError(f"step {step}: the cut has |L^T g| = {nrm}, "
                                   "so the ellipsoid cannot be updated")
        alpha = depth / nrm
        if alpha >= 1.0:
            if res.feasible:
                stop_reason = "no_better_point"
                break
            raise FeasibilityError(
                f"step {step}: an oracle cut excludes the whole ellipsoid, "
                "so the feasible set is empty")
        uhat = u / nrm
        lu = ell_l @ uhat
        ell_center -= (1.0 + d * alpha) / (d + 1.0) * lu
        if d == 1:
            # the kept part of the interval: length (1 - alpha)/2 of the old
            kappa, s = 0.0, 0.5 * (1.0 - alpha)
        else:
            tau = 2.0 * (1.0 + d * alpha) / ((d + 1.0) * (1.0 + alpha))
            kappa = 1.0 - math.sqrt(1.0 - tau)
            s = math.sqrt(d * d * (1.0 - alpha * alpha) / (d * d - 1.0))
        # L <- s (L - kappa (L uhat) uhat^T), and L^T c with it
        ell_l -= (kappa * lu)[:, None] * uhat
        ell_l *= s
        w -= (kappa * (uhat @ w)) * uhat
        w *= s
    if best is None:
        raise FeasibilityError(
            f"no feasible point found in {max_steps} ellipsoid steps "
            "(the inner ball may be too small; check the field perturbation)")
    state = EllipsoidState(center=ell_center, sqrt_shape=ell_l, lt_c=w, step=step,
                           best_value=best_val, min_upper=min_upper, stop_reason=stop_reason,
                           progress=np.frombuffer(progress).reshape(-1, 2))
    return best, state


def ellipsoid_progress_csv(state: EllipsoidState, out):
    """Write the per-step progress to the open text file `out`, a row per step
    from 1, its columns read in blocks; objective is the query's c.query when
    the query was feasible and nan when it was not."""
    textio.emit(out, "step,objective,violation\n", textio.rows(
        (range(1, len(state.progress) + 1), *state.progress.T)))


def _solve(model: IsingModel, b: float, oracle, step, dimension: int, target_gap: float,
           evaluate):
    """Raise every field by b, maximize the coordinate sum over the perturbed
    model's post-fixpoint region (separated by oracle) to target_gap, and
    evaluate the original model's objective at the result clipped to [0, 1].
    step is the family's iteration map: it is monotone, so the region lies in
    the box [0, step(1)]. Returns (point, value, state)."""
    try:
        pert = IsingModel(model.n, model.edges, model.couplings, model.fields + b)
    except ModelError as exc:
        raise DomainError(f"eps too large: field perturbation {b:g} overflows the model") from exc
    r_est = math.tanh(float(pert.fields.min())) / 2.0
    ones = np.ones(dimension)
    point, state = ellipsoid_maximize(lambda q: oracle(pert, q), ones, (0.0, step(pert, ones)),
                                      target_gap=target_gap, r_est=r_est)
    value = evaluate(model, np.clip(point, 0.0, 1.0))
    return point, value, state


def solve_bethe_exponential(model: IsingModel, epsilon: float):
    """Optimal-fixed-point dual value to accuracy epsilon via the ellipsoid method.

    Adds a field perturbation B = epsilon/2m (making the inner ball of the
    post-fixpoint region explicit), maximizes sum(nu) over that region to an
    l1 gap of epsilon/2, and evaluates the dual of the *original* model at the
    result. Returns (nu, value, EllipsoidState); the state is None when m = 0.
    """
    if not (epsilon > 0.0):
        raise DomainError("epsilon must be positive")
    if model.m == 0:
        return np.zeros(0), dual_bethe(model, np.zeros(0)), None
    return _solve(model, epsilon / (2.0 * model.m), separation_oracle_bp, bp_step,
                  2 * model.m, epsilon / 2.0, dual_bethe)


def solve_mf_exponential(model: IsingModel, epsilon: float):
    """Optimal mean-field value to accuracy epsilon via the ellipsoid method.

    Adds a field perturbation B = epsilon/2, maximizes sum(x) over the
    perturbed region {0 <= x <= tanh(Jx + h)}, and evaluates the mean-field
    objective of the original model at the result. The l1 target gap is
    scaled by a gradient bound on the feasible box so the value error stays
    below epsilon. Returns (x, value, EllipsoidState).
    """
    if not (epsilon > 0.0):
        raise DomainError("epsilon must be positive")
    grad_bound = float(_kernels._mf_field_map(model)(np.ones(model.n)).max()) + 1.0
    return _solve(model, epsilon / 2.0, separation_oracle_mf, mf_step, model.n,
                  epsilon / (2.0 * grad_bound), mf_objective)
