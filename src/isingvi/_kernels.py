"""The one iteration loop of the package, and the formulas it evaluates.

Mean-field and BP both iterate a monotone map x <- tanh(field(x)) from the
all-ones start (or another checked start state). `_sweep` is that loop.
mf_run and bp_run give it their field map, Jx + h for mean-field and h plus
the exclusion sum of arctanh(theta nu) for BP, and, when recording, a
`measure(x, field(x))` callback that appends their objective columns. The
private helpers below hold the one implementation of the BP field, the Bethe
dual and the mean-field objective: the public functions in bp and meanfield
check their arguments and call them, and the sweep calls them once per step.
"""

from __future__ import annotations

import math
from array import array
from functools import partial

import numpy as np

from .model import DomainError

_LOG2 = math.log(2.0)
# Largest |theta * nu| (or |x|) passed to arctanh, so that tanh(J) rounding to
# 1.0 in float64 gives a large finite log-ratio instead of inf.
_CLAMP = 1.0 - 1e-15


def _entropy_sum(x):
    # H(x) = log 2 - [(1+x)log(1+x) + (1-x)log(1-x)]/2 with 0 log 0 = 0.
    total = x.shape[0] * _LOG2
    xp = 1.0 + x
    xm = 1.0 - x
    mp = xp > 0.0
    mm = xm > 0.0
    total -= 0.5 * float(xp[mp] @ np.log(xp[mp]))
    total -= 0.5 * float(xm[mm] @ np.log(xm[mm]))
    return total


def _mf_objective(ei, ej, jw, h, x):
    """Mean-field objective sum_e J_e x_i x_j + h . x + sum_i H(x_i)."""
    energy = float(jw @ (x[ei] * x[ej])) + float(h @ x)
    return energy + _entropy_sum(x)


def _grad_l1(y, x):
    xc = np.clip(x, -_CLAMP, _CLAMP)
    return float(np.abs(y - np.arctanh(xc)).sum())


def _clamped_atanh(theta_dir, nu):
    """arctanh(theta nu) per directed edge, with theta nu clamped to +-_CLAMP."""
    # The method call skips np.clip's wrapper, which costs more than the clip
    # itself on small graphs; the sweep calls this once per step.
    t = theta_dir * nu
    t.clip(-_CLAMP, _CLAMP, out=t)
    return np.arctanh(t, out=t)


def _bp_field(theta_dir, h_src, exc_idx, seg_id, nu):
    """Field of the synchronous BP update: for each directed edge i -> j, h_i plus
    the clamped arctanh(theta nu) of the edges into i other than j -> i."""
    a = _clamped_atanh(theta_dir, nu)
    ex = np.bincount(seg_id, weights=a[exc_idx], minlength=nu.shape[0])
    # In place, as large graphs pay page faults for each fresh array; bincount
    # gives int64 when no node has two incident edges.
    ex = ex.astype(np.float64, copy=False)
    return np.add(h_src, ex, out=ex)


def _log_cosh_total(j) -> float:
    """sum_e log cosh J_e, overflow-safe."""
    return float((j + np.log1p(np.exp(-2.0 * j)) - _LOG2).sum())


def _bethe_dual(dir_dst, theta_e, theta_dir, h, lc_total, nu):
    """Message-space dual sum_i F_i - sum_ij F_ij; lc_total = sum_e log cosh J_e."""
    n = h.shape[0]
    t1 = theta_dir * nu
    # theta nu == 1.0 gives log1p(-1) = -inf, the exact log 0, which logaddexp
    # absorbs; only the divide warning is silenced.
    with np.errstate(divide="ignore"):
        log_minus = np.log1p(-t1)
    lp = h + np.bincount(dir_dst, weights=np.log1p(t1), minlength=n)
    lm = -h + np.bincount(dir_dst, weights=log_minus, minlength=n)
    fi = float(np.logaddexp(lp, lm).sum())
    fe = float(np.log1p(theta_e * nu[0::2] * nu[1::2]).sum())
    return fi - fe + lc_total


def _start_state(init, size, max_steps, tol):
    """Checked (start state, max_steps, tol) of an iteration over `size` entries:
    init is 'ones', 'zeros', or an array of that size with entries in [-1, 1]."""
    max_steps = int(max_steps)
    if max_steps < 1:
        raise DomainError("max_steps must be >= 1")
    if not (tol >= 0.0):
        raise DomainError("tol must be >= 0")
    if isinstance(init, str):
        if init not in ("ones", "zeros"):
            raise DomainError(f"unknown init {init!r} (expected 'ones', 'zeros', or an array)")
        return np.full(size, float(init == "ones")), max_steps, float(tol)
    x = np.array(init, dtype=np.float64)
    if x.shape != (size,):
        raise DomainError(f"init has shape {x.shape}, expected ({size},)")
    if x.size and float(np.max(np.abs(x))) > 1.0:
        raise DomainError("init entries must lie in [-1, 1]")
    return x, max_steps, float(tol)


def _column(values, steps):
    """The numpy trace column for steps + 1 records, NaN throughout if none were
    taken. Columns grow as array("d") (8 bytes per value) instead of
    preallocating max_steps entries, so memory follows the run."""
    if not values:
        return np.full(steps + 1, np.nan)
    return np.frombuffer(values, dtype=np.float64).copy()


def _sweep(field, measure, init, size, max_steps, tol):
    """Iterate x <- tanh(field(x)) from the checked start state until the
    sup-norm step drops below tol, calling measure(x, field(x)) at every t
    unless measure is None. Returns (x, step_inf column, steps, converged)."""
    x, max_steps, tol = _start_state(init, size, max_steps, tol)
    step_inf = array("d", [math.nan])
    for _ in range(max_steps):
        f = field(x)
        if measure is not None:
            measure(x, f)
        xn = np.tanh(f, out=f)  # in place, as in _bp_field
        # ufunc reduce: np.max's wrapper costs more than the max on small graphs
        step = float(np.maximum.reduce(np.abs(xn - x), initial=0.0))
        step_inf.append(step)
        x = xn
        if step < tol:
            break
    if measure is not None:
        measure(x, field(x))
    steps = len(step_inf) - 1
    return x, _column(step_inf, steps), steps, step_inf[-1] < tol


def mf_run(model, init, max_steps, tol, record):
    """Mean-field sweep, recording the objective and the gradient's l1 norm.
    Returns (x, objective, step_inf, grad_l1, steps, converged)."""
    src, dst, w, h, n = model.dir_src, model.dir_dst, model.dir_coupling, model.fields, model.n
    obj, grad_l1 = array("d"), array("d")

    def measure(x, y):
        obj.append(_mf_objective(model.edge_i, model.edge_j, model.couplings, h, x))
        grad_l1.append(_grad_l1(y, x))

    x, step_inf, steps, converged = _sweep(
        lambda x: np.bincount(dst, weights=w * x[src], minlength=n) + h,
        measure if record else None, init, n, max_steps, tol)
    return x, _column(obj, steps), step_inf, _column(grad_l1, steps), steps, converged


def bp_run(model, init, max_steps, tol, record):
    """BP sweep over the 2m directed-edge messages, recording the Bethe dual.
    Returns (nu, dual, step_inf, steps, converged)."""
    _, exc_idx, seg_id = model.exclusion_index()
    lc_total = _log_cosh_total(model.couplings)
    dual = array("d")

    def measure(nu, _field):
        dual.append(_bethe_dual(model.dir_dst, model.theta_edge, model.theta_dir,
                                model.fields, lc_total, nu))

    nu, step_inf, steps, converged = _sweep(
        partial(_bp_field, model.theta_dir, model.fields[model.dir_src], exc_idx, seg_id),
        measure if record else None, init, 2 * model.m, max_steps, tol)
    return nu, _column(dual, steps), step_inf, steps, converged
