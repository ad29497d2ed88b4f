"""Mean-field free energy, its gradient, and the synchronous tanh iteration.

The mean-field objective over product states x in [-1, 1]^n is

    F(x) = sum_e J_e x_i x_j + h . x + sum_i H((1 + x_i) / 2)

and the iteration x <- tanh(Jx + h) is a monotone map whose all-ones
trajectory decreases coordinate-wise to the maximal fixed point while F is
non-decreasing along it. mf_error_bound gives the convergence-rate guarantee
for the objective residual as a function of the step count and model norms.
"""

from __future__ import annotations

import math

import numpy as np

from . import _kernels
from .model import DomainError, IsingModel, ModelNorms
from .trace import IterationTrace


def bernoulli_entropy(x):
    """Elementwise H(Ber((1+x)/2)) in nats, stable at the endpoints x = +-1."""
    x = np.asarray(x, dtype=np.float64)
    out = np.full(x.shape, math.log(2.0))
    xp = 1.0 + x
    xm = 1.0 - x
    mp = xp > 0.0
    mm = xm > 0.0
    out[mp] -= 0.5 * xp[mp] * np.log(xp[mp])
    out[mm] -= 0.5 * xm[mm] * np.log(xm[mm])
    return out


def _check_state(model: IsingModel, x, name="x"):
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (model.n,):
        raise DomainError(f"{name} has shape {x.shape}, expected ({model.n},)")
    return x


def mf_objective(model: IsingModel, x) -> float:
    """Mean-field objective F(x); the endpoints |x_i| = 1 are legal."""
    x = _check_state(model, x)
    if x.size and float(np.max(np.abs(x))) > 1.0:
        raise DomainError("magnetizations must lie in [-1, 1]")
    return _kernels._mf_objective(model.edge_i, model.edge_j, model.couplings,
                                  model.fields, x)


def mf_gradient(model: IsingModel, x):
    """Gradient (Jx + h) - arctanh(x); requires |x_i| < 1 strictly."""
    x = _check_state(model, x)
    if x.size and float(np.max(np.abs(x))) >= 1.0:
        raise DomainError("gradient needs |x_i| < 1 strictly")
    return model.j_matvec(x) + model.fields - np.arctanh(x)


def mf_step(model: IsingModel, x):
    """One synchronous update tanh(Jx + h)."""
    x = _check_state(model, x)
    return np.tanh(model.j_matvec(x) + model.fields)


def mf_iterate(model: IsingModel, init="ones", max_steps=10**6, tol=1e-10,
               record=True):
    """Run x <- tanh(Jx + h) until the sup-norm step drops below tol.

    Returns (x, IterationTrace). The trace records the objective, step size,
    gradient l1 norm, and theorem bound per step starting at t = 0; pass
    record=False to skip the objective/gradient columns (left nan).
    """
    x, obj, step_inf, grad_l1, steps, converged = _kernels.mf_run(
        model, init, max_steps, tol, bool(record))
    t = np.arange(steps + 1, dtype=np.int64)
    trace = IterationTrace(algo="mf", t=t, objective=obj, step_inf=step_inf,
                           bound=_bound_array(model.norms(), t),
                           converged=converged, grad_l1=grad_l1)
    return x, trace


def mf_error_bound(norms: ModelNorms, t) -> float:
    """Objective residual bound min(S/t, (S/floor(t/2))^(4/3)) with S = |J|_1 + |h|_1.

    The 4/3-rate branch is indexed conservatively at floor(t/2) (it is proven
    at the doubled step count), so it reads +inf for t = 1.
    """
    t = int(t)
    if t < 1:
        raise DomainError("t must be >= 1")
    return float(_bound_array(norms, np.array([t]))[0])


def _bound_array(norms: ModelNorms, t: np.ndarray) -> np.ndarray:
    # In place: on the 2*10^5-step reference run behind --plot, one temporary
    # per operation would set the job's peak memory.
    s = norms.j_l1 + norms.h_l1
    out = np.full(t.shape, np.inf)
    np.divide(s, t, out=out, where=t >= 1)
    half = t // 2
    ok = half >= 1
    fast = np.divide(s, half, out=np.zeros(t.shape), where=ok)
    np.power(fast, 4.0 / 3.0, out=fast)
    np.minimum(out, fast, out=out, where=ok)
    return out


def mf_fixed_point_residual(model: IsingModel, x) -> float:
    """Sup-norm of tanh(Jx + h) - x; zero exactly at fixed points."""
    x = _check_state(model, x)
    return float(np.max(np.abs(mf_step(model, x) - x), initial=0.0))
