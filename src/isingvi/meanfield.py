"""Mean-field free energy, its gradient, and the synchronous tanh iteration.

The mean-field objective over product states x in [-1, 1]^n is

    F(x) = sum_e J_e x_i x_j + h . x + sum_i H((1 + x_i) / 2)

and the iteration x <- tanh(Jx + h) is a monotone map whose all-ones
trajectory decreases coordinate-wise to the maximal fixed point while F is
non-decreasing along it. mf_error_bound gives the convergence-rate guarantee
for the objective residual as a function of the step count and model norms.
"""

from __future__ import annotations

import numpy as np

from . import _kernels
from .errors import DomainError
from .model import IsingModel, ModelNorms


def bernoulli_entropy(x):
    """Elementwise H(Ber((1+x)/2)) in nats, stable at the endpoints x = +-1."""
    x = np.asarray(x, dtype=np.float64)
    return _kernels._entropy(np.stack([1.0 + x, 1.0 - x], axis=-1) / 2.0)


def mf_objective(model: IsingModel, x) -> float:
    """Mean-field objective F(x); the endpoints |x_i| = 1 are legal."""
    x = _kernels._vector(x, model.n, "x")
    if x.size and not float(np.max(np.abs(x))) <= 1.0:  # NaN fails it too
        raise DomainError("magnetizations must lie in [-1, 1]")
    return _kernels._mf_objective(model.edge_i, model.edge_j, model.couplings,
                                  model.fields, x)


def mf_gradient(model: IsingModel, x):
    """Gradient (Jx + h) - arctanh(x); requires |x_i| < 1 strictly."""
    x = _kernels._vector(x, model.n, "x")
    if x.size and not float(np.max(np.abs(x))) < 1.0:
        raise DomainError("gradient needs |x_i| < 1 strictly")
    return _kernels._mf_field_map(model)(x) - np.arctanh(x)


def mf_step(model: IsingModel, x):
    """One synchronous update tanh(Jx + h)."""
    x = _kernels._vector(x, model.n, "x")
    return np.tanh(_kernels._mf_field_map(model)(x))


def mf_iterate(model: IsingModel, init="ones", max_steps=10**6, tol=1e-10,
               record=True):
    """Run x <- tanh(Jx + h) until the sup-norm step drops below tol.

    Returns (x, IterationTrace). The trace records the objective and step
    size per step starting at t = 0; with record=False it keeps the final row
    alone (t = [steps], a nan objective), so its memory does not grow with the
    steps taken.
    """
    return _kernels.mf_run(model, init, max_steps, tol, bool(record))


def mf_error_bound(norms: ModelNorms, t):
    """Objective residual bound min(S/t, (S/floor(t/2))^(4/3)) with S = |J|_1 + |h|_1,
    for an int or an int array t; inf where t < 1.

    The 4/3-rate branch is indexed conservatively at floor(t/2) (it is proven
    at the doubled step count), so it reads +inf for t = 1.
    """
    t = np.asarray(t)
    s = norms.j_l1 + norms.h_l1
    out = np.full(t.shape, np.inf)
    pos = t >= 1
    out[pos] = s / t[pos]
    ok = t >= 2
    with np.errstate(over="ignore"):  # an overflow to inf loses to S/t in the min
        out[ok] = np.minimum(out[ok], (s / (t[ok] // 2)) ** (4.0 / 3.0))
    return out[()]
