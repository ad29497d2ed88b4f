"""Deep-cut ellipsoid maximization of linear objectives over the post-
fixpoint regions of the two iterations, with separation oracles and the
field-perturbation solvers built on them.

Mean-field works in x: its region is {x in [0,1]^n : x <= tanh(Jx + h)}.
Bethe works in the log-odds y = atanh(nu) of the messages: its region is
{y >= 0 : y <= F(y)}, where F_k(y) = h_src(k) + sum_e f_e(y_e) sums
f_e(y) = atanh(tanh(J_e) tanh y), clamped as the BP field clamps it, over the
edges e into src(k) other than k ^ 1. So F(y) = field(tanh y), y is a
post-fixpoint of F exactly when tanh(y) is one of bp_step, and the greatest
fixed point of F is y* = field(nu*) for the greatest message fixed point nu*.

Every cut is deep, by one proof for both families. Each row's map is concave
on the box: tanh(Jx + h) because Jx + h >= 0, and f_e because
f_e' = theta / (1 + (1 - theta^2) sinh^2 y) decreases on y >= 0 (the clamp
is a min with a constant, which keeps it concave). So each slack
q_k - psi_k(q) is convex, and so is their sum S over the violated rows V. A
feasible p has S(p) <= 0, so g . (p - q) <= S(p) - S(q) <= -S(q) for the
gradient g of S at q: the cut g . p <= g . q - S(q) keeps every feasible
point. One O(m) transpose product of the field map gives g (the surrogate cut
of Bland, Goldfarb & Todd, 1981). Both maps are monotone, so the greatest
post-fixpoint is the greatest fixed point (Tarski), every feasible point lies
below it, and it maximizes the coordinate sum. In y, tanh is 1-Lipschitz, so
the ellipsoid's gap sum(y*) - sum(y) bounds |nu* - nu|_1, except on rows
whose bp_step rounds to 1.0, read feasible up to field(1) (below): its y can
end above y* there, though tanh rounds both to 1.0, so the value holds.

The Bethe oracle reads row k's slack as y_k - atanh(phi_k) with
phi = bp_step(tanh y), which loses the last bits of F_k. Take tanh and atanh
within 2 ulp (glibc's documented bound) and eps the machine epsilon. To first
order, a row of n arctanh terms is then off by at most
eps [(1 + 1.5 n)/(1 - phi_k^2) + (4.5 + n/2) y_k]:
- eps/(1 - phi_k^2) from rounding phi_k;
- 1.5 eps/(1 - (theta nu_e)^2) = 1.5 eps cosh^2 f_e per term, from rounding
  tanh y_e and theta nu_e, where sum_e cosh^2 f_e <= cosh^2 F_k + n - 1;
- 2 eps relative for each atanh, n eps/2 for the sum and eps/2 y_k for the
  difference, with F_k < y_k on V.
So the oracle takes each violated row's slack less c eps (y_k + 1/(1 - phi_k^2))
with c = 3 (max degree + 2), at least twice both coefficients, floored at 0.
A row whose phi_k rounds to 1.0 reads feasible at any y, so the Bethe oracle
also cuts the side y <= F(inf) = field(1) of its start box when no row is
violated. `test_no_cut_excludes_the_optimum` watches every cut of six
Bethe solves, two of them saturated, each also run from the box [0, field(1)].

The solvers raise every field by b > 0 and certify from a monotone bracket
of the perturbed optimum. Write F for the model's map in the solver's
coordinates, y -> field(tanh y) or x -> tanh(Jx + h), F_b for the perturbed
model's, and y*, y*_b for their greatest fixed points (x*, x*_b in x).
`_kernels._sandwich` sweeps lo and z up from 0, lo by F and z by F_b, and
hi down from top = F_b(inf) = field_b(1) (mean-field: F_b(1)) by F_b. Where
sum(u(hi)) - sum(u(z)) reaches the target gap, with u = tanh for Bethe and
u(x) = x, z is the answer and no ellipsoid runs. Else the search starts
from [lo, max(hi, lo + r)] with r_est = r/2: r = b for Bethe, and
r = delta = b sech^2(max field_b(1)) for mean-field.
- z is feasible and z <= y*_b <= hi. z moves as lo does (below) with F_b
  for F, so it stays a post-fixpoint of F_b, which lies in the region and
  below y*_b (Tarski). The allowance a below also covers the oracle's own
  rounding of F_b(z), so the oracle reads z feasible.
- The gap bounds the answer's distance: |x*_b - z|_1 <= sum(hi - z) in x.
  For Bethe, nu*_b = bp_step(nu*_b) = tanh(y*_b) and tanh is increasing, so
  tanh z <= nu*_b <= tanh hi and |nu*_b - tanh z|_1 <= sum(tanh hi - tanh z),
  on saturated rows too: where tanh rounds z_k and hi_k to 1.0 the row adds
  0, however far apart they lie in y. A computed tanh in [0, 1] is within
  2 ulp <= eps. With A, B the computed tanh(hi_k), tanh(z_k), the answer's
  nu_k = B is within A + eps - B of nu*_b,k <= tanh hi_k where nu*_b,k >= B,
  and within B - tanh z_k <= eps <= A - B + 3 eps where not. So the Bethe
  bracket stops at the target less 3 d eps, d = 2m (sums round as in y).
- The box holds y*_b. lo is a post-fixpoint of F (below), so lo <= y*
  (Tarski), and y* <= y*_b (in y, y* + b <= y*_b, as
  F_b(y* + b) = F(y* + b) + b >= y* + b). hi starts above y*_b, and
  hi >= y*_b gives F_b(hi) >= F_b(y*_b) = y*_b, so each sweep keeps it there.
- Its cube [lo, lo + r] is feasible. For y in it,
  F_b(y) = F(y) + b >= F(lo) + b >= lo + b >= y. For x in it,
  tanh(Jx + h + b) >= tanh(J lo + h) + b sech^2(J lo + h + b) >= lo + delta
  >= x, as J lo + h + b <= field_b(1).
- Rounding. The ellipsoid's 1e-4 widening covers a slip of only 5e-5 of the
  box's width in each coordinate, so it need not cover a rounded sweep.
  Each sweep instead moves lo by F - a and hi by F_b + a, with a at least
  twice the step's rounding error, which also covers the rounding of the
  shift; z moves by F_b - a. So lo_k+1 <= F(lo_k) <= F(lo_k+1) exactly, as
  lo_k+1 >= lo_k by the max: lo stays a post-fixpoint, y_lo never rounds
  above y* <= y*_b, and the cube stays feasible; so does z for F_b. And
  hi_k+1 >= F_b(hi_k) >= y*_b: y_hi never rounds below y*_b. In y,
  field(tanh y) taken directly has no phi_k to round or invert, so by the
  terms above it is off by at most
  eps [1.5 n/(1 - t^2) + (2.5 + n/2) F_k], t = min(max theta, _CLAMP)
  bounding every clamped theta nu, and a = c eps (F_k + 1/(1 - t^2)). In x,
  tanh(Jx + h) is off by at most eps (2 + 0.45 (n + 1)), as
  F sech^2 F <= 0.45, and a = c eps. Where a outgrows a side's progress, as
  on saturated rows, that side stops where it is.
Where lo + r rounds to lo (a tiny eps, or a tiny delta at x near 1), the
box still holds y*_b, as lo <= y* <= y*_b <= hi whatever r is; only the step
budget reads r, through r_est.
`ellipsoid_maximize` refuses a box whose radius passes 2^400, as where a
huge field meets an open bracket elsewhere in the model.

`ellipsoid_maximize` starts from the smallest axis-aligned ellipsoid around
the box it is given. The ellipsoid is tracked through a
square-root factor L with shape P = L L^T; each cut, applied at its depth,
multiplies L by a rank-one correction, which avoids the cancellation that
plagues the textbook symmetric-matrix update once the ellipsoid is thin. An
upper-bound certificate max_E c.x = c.center + |L^T c| is tracked every step,
with L^T c updated in O(d) alongside L, so the loop can stop as soon as the
incumbent is within target_gap of optimal.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass

import numpy as np

from . import _kernels, textio
from .bp import bp_step, dual_bethe
from .meanfield import mf_objective, mf_step
from .errors import DomainError, FeasibilityError, ModelError, SizeGuardError
from .model import IsingModel
from .oracle import _TABLE_BUDGET

_EPS = float(np.finfo(np.float64).eps)


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
    why the search stopped, and the measured objective of every step: the
    query's objective when the query is feasible and nan otherwise, so the
    incumbent after each step is np.fmax.accumulate(progress). A solve that
    its bracket certified ran no ellipsoid: center, sqrt_shape and lt_c are
    None, step is 0 and progress is empty."""

    center: np.ndarray | None
    sqrt_shape: np.ndarray | None
    lt_c: np.ndarray | None  # L^T c as updated with L, so max_E c.x = c.center + |lt_c|
    step: int
    best_value: float
    min_upper: float
    # "gap": min_upper - best_value reached target_gap, or an objective cut
    # left no point above the incumbent; "budget": steps ran out; "bracket":
    # a solver's bracket reached its target, best_value and min_upper being
    # its sums of z and hi in messages tanh y (Bethe) or x, and no ellipsoid ran
    stop_reason: str
    progress: np.ndarray  # (steps,) objectives; entry k is step k + 1
    # the monotone bracket a solver started from: its sweeps and its width
    # sum(u(hi) - u(lo)); 0 and nan for a search given its box
    bracket_sweeps: int = 0
    bracket_width: float = math.nan


def _box_cut(q, hi):
    """The cut of the side of the box [0, hi] that q violates most, at its
    depth; None when q lies in the box."""
    over = q - hi
    box = np.maximum(-q, over)
    k = int(box.argmax()) if q.shape[0] else 0  # methods: np.argmax's wrapper costs more
    if not (q.shape[0] and box[k] > 0.0):
        return None
    g = np.zeros(q.shape[0])
    g[k] = -1.0 if -q[k] >= over[k] else 1.0
    return SeparationResult(False, g, float(box[k]))


def separation_oracle_bp(model: IsingModel, y) -> SeparationResult:
    """Separate y from the Bethe region {y >= 0 : y <= field(tanh y)} in
    log-odds coordinates by deep cuts (the module docstring has the proof).
    A side y_k < 0 is cut first. Else nu = tanh(y), phi = bp_step(nu), and
    the rows V = {nu > phi} are cut with g = 1_V - (1 - nu^2) vjp(nu, 1_V) at
    sum_V max(0, y_k - atanh(phi_k) - c eps (y_k + 1/(1 - phi_k^2))), c eps
    the module docstring's rounding allowance. With V empty, a side
    y_k > field(1)_k is cut. Entry e of vjp(nu, w) is
    theta_e/(1 - (theta_e nu_e)^2) times w summed over the edges out of
    dst(e) but e ^ 1, with theta_e nu_e clamped as the field clamps it, so
    that tanh(J) rounding to 1.0 gives a large finite factor at nu_e = 1."""
    return _bethe_oracle(model, _kernels._bp_field_map(model)(np.ones(2 * model.m)))(y)


def _bethe_oracle(model: IsingModel, top):
    """separation_oracle_bp(model, .) with top = field(1) and c eps read once."""
    src, dst, theta = model._dir_src, model._dir_dst, model.theta[:, None]
    c = _rounding_c(model)
    def separate(y):
        y = _kernels._vector(y, 2 * model.m, "query")
        cut = _box_cut(y, np.inf)
        if cut is not None:
            return cut
        nu = np.tanh(y)
        phi = bp_step(model, nu)
        v = nu > phi
        if np.count_nonzero(v):  # skips ndarray.any's wrapper
            # vjp: the pair-swapped view of v gives v[e ^ 1]; nu is in [0, 1]
            # here, as y >= 0, so theta nu clamps from above only
            out = np.bincount(src, weights=v, minlength=model.n)
            t = np.minimum(theta * nu.reshape(-1, 2), _kernels._CLAMP)
            w = out[dst].reshape(-1, 2) - v.reshape(-1, 2)[:, ::-1]
            g = v - (1.0 - nu * nu) * (theta / (1.0 - t * t) * w).ravel()
            yv, pv = y[v], phi[v]  # phi < nu <= 1 on V, so every term is finite
            return SeparationResult(False, g, float(
                np.maximum(yv - np.arctanh(pv) - c * (yv + 1.0 / (1.0 - pv * pv)), 0.0).sum()))
        cut = _box_cut(y, top)
        return SeparationResult(True) if cut is None else cut
    return separate


def separation_oracle_mf(model: IsingModel, x) -> SeparationResult:
    """Separate x from {x in [0,1]^n : x <= tanh(Jx + h)} by deep cuts: on the
    box Jx + h >= 0, where tanh(Jx + h) is concave. A side of [0, 1] is cut
    first. Else the rows V = {x > phi}, phi = mf_step(x), are cut with
    g = 1_V - J ((1 - phi^2) 1_V) at sum_V max(0, x_k - phi_k - c eps), c eps
    the module docstring's rounding allowance: phi_k's rounding is the
    bracket's eps (2 + 0.45 (n + 1)) <= c eps / 2 for a row of n terms."""
    src, dst, w = model._dir_src, model._dir_dst, model.dir_coupling
    x = _kernels._vector(x, model.n, "query")
    cut = _box_cut(x, 1.0)
    if cut is not None:
        return cut
    phi = mf_step(model, x)
    slack = x - phi
    v = slack > 0.0
    if np.count_nonzero(v):
        g = v - np.bincount(src, weights=((1.0 - phi * phi) * v)[dst] * w, minlength=model.n)
        return SeparationResult(False, g, float(
            np.maximum(slack[v] - _rounding_c(model), 0.0).sum()))
    return SeparationResult(True)


def ellipsoid_maximize(oracle, objective, box, target_gap=1e-8, r_est=None):
    """Maximize objective . x over the feasible set described by oracle.

    The objective is a non-empty vector of finite values; its length d is
    the dimension. The feasible set must lie inside box = (lo, hi), bounds
    that broadcast to (d,) with hi > lo. The search starts from the smallest
    axis-aligned ellipsoid around that box, centre (lo + hi)/2 and semi-axes
    sqrt(d) (hi - lo)/2, widened by 1e-4. A box whose radius (below) passes
    2^400, where the squares in |L^T c| could overflow, is refused with
    DomainError before any oracle call. Every cut is applied at its depth:
    an oracle cut at its violation, an objective cut at a feasible query at
    best - c.query, which is 0 when the query is the new incumbent. The best
    feasible point is returned with the final EllipsoidState, whose progress
    holds each step's measured objective: the query's c.query if the query
    was feasible, nan if not, so a step is feasible exactly when its entry is
    finite.
    The step budget is 8 + 2 d^2 max(0, max(log(R/r_est), log 2) + log(1/target_gap))
    with R = sqrt(d) max(hi - lo)/2, the radius of the ball around the box,
    taken as differences of logs so that tiny gaps do not overflow. The
    search stops with state.stop_reason "gap" when the certificate gap
    reaches target_gap, or when an objective cut leaves no point above the
    incumbent (the fresh certificate c.query + |L^T c| is then at most the
    incumbent, and becomes min_upper); "budget" when the budget runs out.

    Raises SizeGuardError, naming d and the step budget, before any oracle
    call or d x d array, where d^2 passes the exact layer's table budget of
    2^25 entries: from d = 5,793 on, where the factor L would take 256 MB.
    Raises FeasibilityError if an oracle cut excludes the whole ellipsoid, a
    cut g has a zero or non-finite |L^T g|, or no feasible point is found
    within the budget.
    """
    c = np.asarray(objective, dtype=np.float64)
    if c.ndim != 1 or not c.size or not np.isfinite(c).all():
        raise DomainError("objective must be a non-empty vector of finite values, "
                          f"got shape {c.shape}")
    d = c.size
    if not (target_gap > 0.0):
        raise DomainError("target_gap must be positive")
    lo, hi = (np.broadcast_to(np.asarray(b, dtype=np.float64), (d,)) for b in box)
    width = hi - lo
    if not np.all((width > 0.0) & (width < np.inf)):
        raise DomainError("box must have finite bounds with hi > lo")
    radius = math.sqrt(d) * float(width.max()) / 2.0
    if radius > 2.0 ** 400:  # the squares in |L^T c| could overflow
        raise DomainError(f"box radius {radius:.3g} is past 2^400, too wide to search")
    re = float(r_est) if r_est and r_est > 0.0 else target_gap
    max_steps = int(math.ceil(2.0 * d * d * max(
        0.0, max(math.log(radius) - math.log(re), math.log(2.0)) - math.log(target_gap)))) + 8
    if d * d > _TABLE_BUDGET:
        raise SizeGuardError(f"an ellipsoid in d = {d} dimensions, with a budget of {max_steps} "
                             f"steps, needs a {d}x{d} factor, past {_TABLE_BUDGET} entries")
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
            g, depth = -c, best_val - val
        else:
            g = np.asarray(res.cut, dtype=np.float64)
            depth = float(res.violation)
        progress.append(val if res.feasible else math.nan)
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
                min_upper, stop_reason = val + nrm, "gap"
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
                           progress=np.frombuffer(progress))
    return best, state


def ellipsoid_progress_csv(state: EllipsoidState, out):
    """Write the per-step progress to the open text file `out`, a row per step
    from 1, its columns read in blocks; objective is the query's c.query when
    the query was feasible and nan when it was not."""
    textio.emit(out, "step,objective\n", textio.rows(
        (range(1, len(state.progress) + 1), state.progress)))


def _perturbed(model: IsingModel, b: float) -> IsingModel:
    """The model with every field raised by b."""
    try:
        return IsingModel(model.n, model.edges, model.couplings, model.fields + b)
    except ModelError as exc:
        raise DomainError(f"eps too large: field perturbation {b:g} overflows the model") from exc


def _rounding_c(model: IsingModel) -> float:
    """c eps with c = 3 (max degree + 2), the factor of the rounding allowances."""
    return 3.0 * (float(model.degrees.max()) + 2.0) * _EPS


def _solve(oracle, step_lo, step_hi, step_z, top, r, target_gap, unit, bracket_gap):
    """Maximize the coordinate sum over the perturbed post-fixpoint region that
    oracle(query) separates, to target_gap. `_kernels._sandwich` narrows the
    bracket [0, top] by step_lo and step_hi and sweeps z up from 0 by step_z,
    measured by u = `unit`. Where sum(u(hi)) - sum(u(z)) reaches bracket_gap,
    z is the answer, with stop_reason "bracket" and those sums as min_upper
    and best_value. Else the search starts from [lo, max(hi, lo + r)], whose
    cube [lo, lo + r] is feasible, with r_est = r/2 (the module docstring has
    the proof). Returns (point, state), the state with the bracket's sweeps
    and width."""
    lo, hi, z, sweeps, best, upper, width = _kernels._sandwich(
        step_lo, step_hi, step_z, np.zeros(top.shape[0]), top, bracket_gap, unit)
    if upper - best <= bracket_gap:
        return z, EllipsoidState(center=None, sqrt_shape=None, lt_c=None, step=0,
                                 best_value=best, min_upper=upper, stop_reason="bracket",
                                 progress=np.zeros(0), bracket_sweeps=sweeps,
                                 bracket_width=width)
    point, state = ellipsoid_maximize(oracle, np.ones(top.shape[0]), (lo, np.maximum(hi, lo + r)),
                                      target_gap=target_gap, r_est=r / 2.0)
    state.bracket_sweeps, state.bracket_width = sweeps, width
    return point, state


def solve_bethe_exponential(model: IsingModel, epsilon: float):
    """Optimal-fixed-point dual value to accuracy epsilon via the ellipsoid method.

    Adds a field perturbation B = epsilon/(2 max(m, 1)), which makes the cube
    [y_lo, y_lo + B] of the post-fixpoint region in log-odds y feasible,
    finds a y in it whose nu = tanh(y) lies within l1 distance epsilon/2 of
    the optimal messages, and evaluates the dual of the *original* model at
    nu. The monotone bracket of the optimum either certifies that distance in
    messages itself (stop_reason "bracket") or gives the ellipsoid its start
    box [y_lo, y_hi], from which it maximizes sum(y) to a gap of epsilon/2.
    Returns (nu, value, EllipsoidState), whose certificate is in messages
    after a bracket stop and in y after a search.
    """
    if not (epsilon > 0.0):
        raise DomainError("epsilon must be positive")
    b = epsilon / (2.0 * max(model.m, 1))
    pert = _perturbed(model, b)
    # a computed field is off by at most c eps (F + k)/2, k bounding atanh' at
    # every clamped theta nu; each side moves by c eps (F + k)
    c = _rounding_c(model)
    t = min(float(model.theta.max(initial=0.0)), _kernels._CLAMP)
    k = 1.0 / (1.0 - t * t)
    field, field_pert = _kernels._bp_field_map(model), _kernels._bp_field_map(pert)
    top = field_pert(np.ones(2 * model.m))
    # the bracket's gap, in messages, allows 3 eps a message for tanh's rounding
    y, state = _solve(_bethe_oracle(pert, top),
                      lambda v: field(np.tanh(v)) * (1.0 - c) - c * k,
                      lambda v: field_pert(np.tanh(v)) * (1.0 + c) + c * k,
                      lambda v: field_pert(np.tanh(v)) * (1.0 - c) - c * k,
                      top, b, epsilon / 2.0, np.tanh, epsilon / 2.0 - 6.0 * model.m * _EPS)
    nu = np.tanh(y)
    return nu, dual_bethe(model, nu), state


def solve_mf_exponential(model: IsingModel, epsilon: float):
    """Optimal mean-field value to accuracy epsilon via the ellipsoid method.

    Adds a field perturbation B = epsilon/2, maximizes sum(x) over the
    perturbed region {0 <= x <= tanh(Jx + h)}, by the monotone bracket of its
    optimum alone (stop_reason "bracket") or by the ellipsoid from the
    bracket [x_lo, x_hi], and evaluates the mean-field objective of
    the original model at the result. The l1 target gap is scaled by a
    gradient bound on the feasible box so the value error stays below
    epsilon. Returns (x, value, EllipsoidState).
    """
    if not (epsilon > 0.0):
        raise DomainError("epsilon must be positive")
    b = epsilon / 2.0
    pert = _perturbed(model, b)
    ones = np.ones(model.n)
    a = _rounding_c(model)
    grad_bound = float(_kernels._mf_field_map(model)(ones).max()) + 1.0
    q = math.exp(-2.0 * float(_kernels._mf_field_map(pert)(ones).max()))
    gap = epsilon / (2.0 * grad_bound)
    x, state = _solve(lambda v: separation_oracle_mf(pert, v), lambda v: mf_step(model, v) - a,
                      lambda v: mf_step(pert, v) + a, lambda v: mf_step(pert, v) - a,
                      mf_step(pert, ones),
                      4.0 * b * q / (1.0 + q) ** 2,  # b sech^2(max field_pert(1))
                      gap, lambda v: v, gap)
    return x, mf_objective(model, np.clip(x, 0.0, 1.0)), state
