"""Hot iteration kernels on flat numpy arrays, and the formulas they share.

mf_run and bp_run are the synchronous mean-field and BP sweeps. The private
helpers below hold the one implementation of the BP message update, the Bethe
dual and the mean-field objective: the public functions in bp and meanfield
check their arguments and call them, and the sweeps call them once per step.
"""

from __future__ import annotations

import math
from array import array

import numpy as np

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


def _bp_update(theta_dir, h_src, exc_idx, seg_id, nu):
    """Synchronous BP update: for each directed edge i -> j, tanh of h_i plus the
    clamped arctanh(theta nu) of the edges into i other than j -> i."""
    a = _clamped_atanh(theta_dir, nu)
    ex = np.bincount(seg_id, weights=a[exc_idx], minlength=nu.shape[0])
    return np.tanh(h_src + ex)


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


def _column(values, steps):
    """The numpy trace column for steps + 1 records, NaN throughout if none were
    taken. The sweeps grow their columns as array("d") (8 bytes per value)
    instead of preallocating max_steps entries, so memory follows the run."""
    if not values:
        return np.full(steps + 1, np.nan)
    return np.frombuffer(values, dtype=np.float64).copy()


def mf_run(dir_src, dir_dst, dir_w, h, ei, ej, jw, x0, max_steps, tol, record):
    n = h.shape[0]
    x = x0.copy()
    obj, grad_l1 = array("d"), array("d")
    step_inf = array("d", [math.nan])
    y = np.bincount(dir_dst, weights=dir_w * x[dir_src], minlength=n) + h
    if record:
        obj.append(_mf_objective(ei, ej, jw, h, x))
        grad_l1.append(_grad_l1(y, x))
    steps = 0
    converged = False
    for t in range(1, max_steps + 1):
        xn = np.tanh(y)
        # ufunc reduce: np.max's wrapper costs more than the max on small graphs
        step = float(np.maximum.reduce(np.abs(xn - x)))
        step_inf.append(step)
        x = xn
        y = np.bincount(dir_dst, weights=dir_w * x[dir_src], minlength=n) + h
        if record:
            obj.append(_mf_objective(ei, ej, jw, h, x))
            grad_l1.append(_grad_l1(y, x))
        steps = t
        if step < tol:
            converged = True
            break
    return (x, _column(obj, steps), _column(step_inf, steps), _column(grad_l1, steps),
            steps, converged)


def bp_run(dir_src, dir_dst, theta_e, h, exc_idx, seg_id, lc_total,
           nu0, max_steps, tol, record):
    theta_dir = np.repeat(theta_e, 2)
    h_src = h[dir_src]
    nu = nu0.copy()
    dual = array("d")
    step_inf = array("d", [math.nan])
    if record:
        dual.append(_bethe_dual(dir_dst, theta_e, theta_dir, h, lc_total, nu))
    steps = 0
    converged = False
    for t in range(1, max_steps + 1):
        nn = _bp_update(theta_dir, h_src, exc_idx, seg_id, nu)
        step = float(np.maximum.reduce(np.abs(nn - nu), initial=0.0))
        step_inf.append(step)
        nu = nn
        if record:
            dual.append(_bethe_dual(dir_dst, theta_e, theta_dir, h, lc_total, nu))
        steps = t
        if step < tol:
            converged = True
            break
    return nu, _column(dual, steps), _column(step_inf, steps), steps, converged
