"""The one iteration loop of the package, and the formulas it evaluates.

Mean-field and BP both iterate a monotone map x <- tanh(field(x)) from the
all-ones start (or another checked start state). `_sweep` is that loop, and it
returns the run's `IterationTrace`. mf_run and bp_run give it their family's
name, its field map (`_mf_field_map`, Jx + h, or `_bp_field_map`, h plus the
exclusion sum of arctanh(theta nu), one block of BP's exclusion table at a
time, written over the arctanh values it has read) and a `measure(x)`
callback that returns the recorded objective, so both families record the
same row. A BP step thus holds two whole-graph arrays, the messages and the
field, and tanh(J) is kept once per edge (`IsingModel.theta`). `_sandwich`
sweeps a bracket of the fixed point from both sides at once, beside a third
sequence that certifies from below; the ellipsoid solvers return its answer
or start their search from it. The private helpers below hold the one
implementation of each field map, the Bethe dual, the mean-field objective,
the shape check and the cell entropy `_entropy`: the public functions in bp,
meanfield, oracle and ellipsoid check their arguments and call them, and the
sweep calls them once per step.
"""

from __future__ import annotations

import math
from array import array
from functools import partial

import numpy as np

from .errors import DomainError
from .trace import IterationTrace

_LOG2 = math.log(2.0)
# Largest |theta * nu| (or |x|) passed to arctanh, so that tanh(J) rounding to
# 1.0 in float64 gives a large finite log-ratio instead of inf.
_CLAMP = 1.0 - 1e-15
# The clamp as read-only 0-d arrays, which the clip takes without converting.
_CLAMP_LO, _CLAMP_HI = np.array(-_CLAMP), np.array(_CLAMP)
_CLAMP_LO.flags.writeable = _CLAMP_HI.flags.writeable = False


def _entropy(cells):
    """Entropy -sum p log p over the last axis with 0 log 0 = 0; cells
    clipped at 0."""
    p = np.clip(cells, 0.0, None)
    return -(p * np.log(np.where(p > 0.0, p, 1.0))).sum(axis=-1)


def _entropy_sum(x):
    # sum_i H(x_i), H(x) = log 2 - [(1+x)log(1+x) + (1-x)log(1-x)]/2, 0 log 0 = 0.
    # _entropy on the cells (1 +- x)/2 would raise the recorded MF sweep's peak
    # from 1.76 to 2.28 float64 arrays per directed edge, past the 2.0 gate.
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


def _vector(x, size, name):
    """x as a float64 array, which must have shape (size,)."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (size,):
        raise DomainError(f"{name} has shape {x.shape}, expected ({size},)")
    return x


def _mf_field_map(model):
    """The mean-field field x -> Jx + h."""
    src, dst, w, h, n = model._dir_src, model._dir_dst, model.dir_coupling, model.fields, model.n
    return lambda x: np.bincount(dst, weights=w * x[src], minlength=n) + h


def _theta_nu(theta, nu, out):
    """out[d] = theta_e nu_d for the directed edges d = 2e, 2e + 1 of each edge
    e: theta holds tanh(J) once per edge. These are the IEEE products of a
    per-directed-edge copy of theta; two strided products cost less than one
    broadcast against nu.reshape(-1, 2), whose inner loop runs over 2 entries."""
    np.multiply(theta, nu[0::2], out=out[0::2])
    np.multiply(theta, nu[1::2], out=out[1::2])
    return out


def _clamped_atanh(theta, nu):
    """arctanh(theta nu) of each directed edge's reverse, theta nu clamped to
    +-_CLAMP: entry d holds the value of edge d ^ 1, so that the values of
    the edges into a node sit at the edges out of it."""
    t = np.empty(nu.shape[0])
    np.multiply(theta, nu[1::2], out=t[0::2])
    np.multiply(theta, nu[0::2], out=t[1::2])
    # The method call skips np.clip's wrapper, which costs more than the clip
    # itself on small graphs; the sweep calls this once per step.
    t.clip(_CLAMP_LO, _CLAMP_HI, out=t)
    return np.arctanh(t, out=t)


def _bp_field(theta, blocks, nu):
    """Field of the synchronous BP update: for each directed edge i -> j, h_i plus
    the clamped arctanh(theta nu) of the edges into i other than j -> i, added in
    ascending id order, one `exclusion_index` block at a time. a =
    _clamped_atanh(theta, nu) holds at each edge the value of its reverse, so
    a block's edges out, `out`, hold the values of the edges into its nodes.
    Row p of the block's sum adds the values x = a[out] of its rows but row
    p, term t being row terms[t][p], then h, and overwrites a[out]: each
    directed edge is out of one block, so no block reads what another wrote,
    and a becomes the field, a new array. Starting from the first term, not
    0.0, changes only the sign of a zero sum, which + h erases (fields are
    +0.0-normalised). A step holds one whole-graph array besides nu, and one
    block's temporaries."""
    a = _clamped_atanh(theta, nu)
    for out, terms, h in blocks:
        x = a[out]
        s = x.take(terms[0], axis=0) if terms else 0.0  # x[terms[0]] costs twice as much
        for t in terms[1:]:
            s += x.take(t, axis=0)
        s += h
        a[out] = s
    return a


def _bp_field_map(model):
    """The BP field nu -> _bp_field(..., nu), bound once per model and kept on it."""
    if model._bp_field is None:
        blocks = []
        for out, h in model.exclusion_index():
            rows = np.arange(out.shape[0])  # term t of row p is the t-th row but p
            blocks.append((out, tuple(t + (rows <= t) for t in rows[:-1]), h))
        model._bp_field = partial(_bp_field, model.theta, blocks)
    return model._bp_field


def _log_cosh_total(j) -> float:
    """sum_e log cosh J_e, overflow-safe."""
    return float((j + np.log1p(np.exp(-2.0 * j)) - _LOG2).sum())


def _bethe_dual(dir_dst, theta, h, lc_total, nu):
    """Message-space dual sum_i F_i - sum_ij F_ij; lc_total = sum_e log cosh J_e,
    and theta holds tanh(J) once per edge."""
    n = h.shape[0]
    # Every whole-graph term in the one scratch array t, and the node sums in
    # place, as in _bp_field: besides t, two node arrays at a time. bincount
    # gives ints where there are no edges.
    t = _theta_nu(theta, nu, np.empty(nu.shape[0]))
    lp = np.bincount(dir_dst, weights=np.log1p(t, out=t), minlength=n).astype(float, copy=False)
    lp += h
    # theta nu == 1.0 gives log1p(-1) = -inf, the exact log 0, which logaddexp
    # absorbs; only the divide warning is silenced.
    np.negative(_theta_nu(theta, nu, t), out=t)
    with np.errstate(divide="ignore"):
        np.log1p(t, out=t)
    lm = np.bincount(dir_dst, weights=t, minlength=n).astype(float, copy=False)
    lm -= h
    fi = float(np.add.reduce(np.logaddexp(lp, lm, out=lp)))
    te = np.multiply(theta, nu[0::2], out=t[:theta.shape[0]])
    te *= nu[1::2]
    fe = float(np.add.reduce(np.log1p(te, out=te)))
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
    x = _vector(init, size, "init")
    if x.size and not float(np.max(np.abs(x))) <= 1.0:  # NaN fails it too
        raise DomainError("init entries must lie in [-1, 1]")
    return x.copy(), max_steps, float(tol)  # a copy: the sweep overwrites its states


def _sweep(algo, field, measure, init, size, max_steps, tol, record):
    """Iterate x <- tanh(field(x)) from the checked start state until the
    sup-norm step drops below tol. With record, the trace gets one row per t,
    (step into x, measure(x)), the step into x_0 being nan; without it, the
    final row alone, with a nan measure. A run of s steps evaluates field s
    times; a step holds x and the field, which tanh overwrites, and takes
    |step| in x's buffer. Rows grow as array("d") instead of preallocating
    max_steps of them, so memory follows the run. Returns (x, the
    IterationTrace of algo)."""
    x, max_steps, tol = _start_state(init, size, max_steps, tol)
    table = array("d")
    step = math.nan
    for steps in range(1, max_steps + 1):
        if record:
            table.extend((step, measure(x)))
        f = field(x)
        xn = np.tanh(f, out=f)  # in place, as in _bp_field
        # |xn - x| in x's buffer, the sweep's own; a ufunc reduce skips np.max's wrapper
        step = float(np.maximum.reduce(np.abs(np.subtract(xn, x, out=x), out=x), initial=0.0))
        x = xn
        if step < tol:
            break
    table.extend((step, measure(x) if record else math.nan))
    table = np.frombuffer(table).reshape(-1, 2)
    t = np.arange(steps + 1 - len(table), steps + 1, dtype=np.int64)
    return x, IterationTrace(algo=algo, t=t, objective=table[:, 1], step_inf=table[:, 0],
                             converged=step < tol)


def _sandwich(step_lo, step_hi, step_z, lo, hi, target, unit):
    """Narrow a bracket [lo, hi] of a monotone map's fixed point from both
    sides, sweeping lo <- max(lo, step_lo(lo)) and hi <- min(hi, step_hi(hi)),
    and z <- max(z, step_z(z)) up from lo's start, until, in the units of the
    increasing map u = `unit`, the gap sum(u(hi)) - sum(u(z)) or the width
    sum(u(hi) - u(lo)) is at most target, or the last d = lo.size sweeps
    failed to halve it. Returns (lo, hi, z, sweeps, sum(u(z)), sum(u(hi)), width)."""
    d = lo.shape[0]
    z, widths = lo, []
    while True:
        u_hi = unit(hi)
        widths.append(float((u_hi - unit(lo)).sum()))
        low, up = float(unit(z).sum()), float(u_hi.sum())
        if not (min(up - low, widths[-1]) > target and (
                len(widths) <= d or widths[-1] < widths[-1 - d] / 2.0)):
            return lo, hi, z, len(widths) - 1, low, up, widths[-1]
        lo = np.maximum(lo, step_lo(lo))
        hi = np.minimum(hi, step_hi(hi))
        z = np.maximum(z, step_z(z))


def mf_run(model, init, max_steps, tol, record):
    """Mean-field sweep; its trace rows are (step, mean-field objective)."""
    measure = partial(_mf_objective, model.edge_i, model.edge_j, model.couplings, model.fields)
    return _sweep("mf", _mf_field_map(model), measure, init, model.n, max_steps, tol, record)


def bp_run(model, init, max_steps, tol, record):
    """BP sweep over the 2m directed-edge messages; its trace rows are
    (step, Bethe dual)."""
    measure = partial(_bethe_dual, model._dir_dst, model.theta, model.fields,
                      _log_cosh_total(model.couplings))
    return _sweep("bp", _bp_field_map(model), measure, init, 2 * model.m, max_steps, tol, record)
