"""Belief propagation on ferromagnetic pairwise models, message-space dual,
and the local (Bethe) variational objective.

Messages live on directed edges (flat length-2m arrays indexed as in
IsingModel). The synchronous update is

    nu'_{i->j} = tanh(h_i + sum_{k in N(i) \\ j} arctanh(theta_ik nu_{k->i}))

with theta = tanh(J) < 1. From the all-ones start the trajectory decreases
coordinate-wise to the maximal fixed point, and the dual objective

    Phi(nu) = sum_i F_i - sum_ij F_ij

is non-decreasing along it. At fixed points the dual equals the local primal
objective evaluated on the induced beliefs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .meanfield import bernoulli_entropy
from .errors import DomainError
from .model import IsingModel, ModelNorms

_FIXED_POINT_TOL = 1e-12


def bp_step(model: IsingModel, nu):
    """One synchronous message update; all reads from nu, all writes to the result."""
    field = _kernels._bp_field_map(model)(_kernels._vector(nu, 2 * model.m, "nu"))
    return np.tanh(field, out=field)


def bp_iterate(model: IsingModel, init="ones", max_steps=10**6, tol=1e-10,
               record=True):
    """Iterate bp_step until the sup-norm message change drops below tol.

    Returns (nu, IterationTrace); the trace objective column is the dual
    value per step; with record=False it keeps the final row alone
    (t = [steps], a nan dual).
    """
    # The field map and its index are built here, so that the sweep's time excludes them.
    _kernels._bp_field_map(model)
    return _kernels.bp_run(model, init, max_steps, tol, bool(record))


def dual_bethe(model: IsingModel, nu) -> float:
    """Message-space dual Phi(nu). Raises DomainError when a message is NaN or
    a log argument is out of range. Node terms take log(1 + theta nu) > -inf
    and log(1 - theta nu) >= -inf: theta nu = 1, a message of 1 where tanh(J)
    rounds to 1.0, gives the exact log 0, which the node sum absorbs."""
    nu = _kernels._vector(nu, 2 * model.m, "nu")
    t1 = _kernels._theta_nu(model.theta, nu, np.empty(nu.shape[0]))
    if t1.size and not (float(t1.min()) > -1.0 and float(t1.max()) <= 1.0):  # NaN fails
        bad = float(t1[~((t1 > -1.0) & (t1 <= 1.0))][0])
        raise DomainError(f"node term needs -1 < tanh(J) nu <= 1, got {bad:g}")
    te = t1[0::2] * nu[1::2]
    if te.size and not float((1.0 + te).min()) > 0.0:
        raise DomainError("nonpositive log argument in edge term")
    return _kernels._bethe_dual(model._dir_dst, model.theta, model.fields,
                                _kernels._log_cosh_total(model.couplings), nu)


def dual_bethe_gradient(model: IsingModel, nu):
    """Gradient of the dual; requires nu >= 0 entrywise.

    Uses the cancellation-free form
        g_d = theta phi_rev / (1 + theta nu_d phi_rev)
            - theta nu_rev / (1 + theta nu_d nu_rev)
    where rev is the reversed directed edge and phi = bp_step(nu).
    """
    nu = _kernels._vector(nu, 2 * model.m, "nu")
    if nu.size and not float(nu.min()) >= 0.0:  # NaN fails both checks
        raise DomainError("gradient requires nonnegative messages")
    if nu.size and not float(nu.max()) <= 1.0:
        raise DomainError("gradient requires messages in [0, 1]")
    # a row of an (m, 2) view is an edge; reversed, it holds the reverse edges' values
    phi_rev = bp_step(model, nu).reshape(-1, 2)[:, ::-1]
    nu2 = nu.reshape(-1, 2)
    nu_rev = nu2[:, ::-1]
    theta = model.theta[:, None]
    tn = theta * nu2
    return (theta * phi_rev / (1.0 + tn * phi_rev) - theta * nu_rev / (1.0 + tn * nu_rev)).ravel()


def node_estimates(model: IsingModel, nu):
    """Per-node magnetization estimates tanh(h_i + sum_in arctanh(theta nu))."""
    nu = _kernels._vector(nu, 2 * model.m, "nu")
    # a[d] is the value of edge d ^ 1, into src(d); the edges into a node and
    # the edges out of it both come in edge order, so the sum's order is kept
    a = _kernels._clamped_atanh(model.theta, nu)
    s = model.fields + np.bincount(model._dir_src, weights=a, minlength=model.n)
    return np.tanh(s)


@dataclass
class RegionMembership:
    """Location of a message vector relative to the update map phi."""

    in_s_pre: bool     # phi(nu) <= nu entrywise (trapped from above)
    in_s_post: bool    # nu <= phi(nu) entrywise (trapped from below)
    fixed_point: bool  # |phi(nu) - nu|_inf <= 1e-12
    slack: np.ndarray  # phi(nu) - nu


def region_membership(model: IsingModel, nu) -> RegionMembership:
    """Classify nu >= 0 against the pre/post fixed-point regions."""
    nu = _kernels._vector(nu, 2 * model.m, "nu")
    slack = bp_step(model, nu) - nu
    worst = float(np.max(np.abs(slack), initial=0.0))
    return RegionMembership(
        in_s_pre=bool(np.all(slack <= 0.0)),
        in_s_post=bool(np.all(slack >= 0.0)),
        fixed_point=worst <= _FIXED_POINT_TOL,
        slack=slack,
    )


@dataclass
class LocalDistribution:
    """Node means plus per-edge pair statistics (m_i, m_j, c_ij).

    The pair cell probabilities are p(s, s') = (1 + m_i s + m_j s' + c s s')/4;
    a valid member of the local polytope has nonnegative cells and edge
    marginals that match the node means.
    """

    node_means: np.ndarray   # (n,)
    edge_stats: np.ndarray   # (m, 3) rows (m_i, m_j, c)
    edges: np.ndarray        # (m, 2) node pairs, i < j: the model's read-only edges


def beliefs_from_messages(model: IsingModel, nu) -> LocalDistribution:
    """Node and edge beliefs induced by messages with |nu| < 1 strictly.

    Edge statistics come from the two-spin model with coupling J_ij and local
    fields arctanh(nu_{i->j}), arctanh(nu_{j->i}); node means come from
    node_estimates. The two agree exactly at fixed points (and only there in
    general), so off fixed points the result can violate local consistency.
    """
    nu = _kernels._vector(nu, 2 * model.m, "nu")
    if nu.size and not float(np.max(np.abs(nu))) < 1.0:
        raise DomainError("beliefs need |nu| < 1 strictly (arctanh must be finite)")
    means = node_estimates(model, nu)
    a = np.arctanh(nu[0::2])
    b = np.arctanh(nu[1::2])
    j = model.couplings
    # Cell log-weights for (s, s') in (+,+), (+,-), (-,+), (-,-).
    args = np.stack([j + a + b, -j + a - b, -j - a + b, j - a - b], axis=1)
    args -= args.max(axis=1, keepdims=True)
    cells = np.exp(args)
    cells /= cells.sum(axis=1, keepdims=True)
    mi = cells[:, 0] + cells[:, 1] - cells[:, 2] - cells[:, 3]
    mj = cells[:, 0] - cells[:, 1] + cells[:, 2] - cells[:, 3]
    c = cells[:, 0] - cells[:, 1] - cells[:, 2] + cells[:, 3]
    return LocalDistribution(node_means=means,
                             edge_stats=np.stack([mi, mj, c], axis=1),
                             edges=model.edges)


def _pair_cells(mi, mj, c):
    """Cell probabilities of the pair with means (mi, mj) and correlation c for
    the sign patterns (+,+), (+,-), (-,+), (-,-), on a new last axis; the
    arguments broadcast."""
    mi, mj, c = (np.asarray(a, dtype=np.float64)[..., None] for a in (mi, mj, c))
    si = np.array([1.0, 1.0, -1.0, -1.0])
    sj = np.array([1.0, -1.0, 1.0, -1.0])
    return (1.0 + mi * si + mj * sj + c * si * sj) / 4.0


def local_consistency_check(dist: LocalDistribution) -> float:
    """Worst local-polytope violation: the max over edges and sign patterns of
    |pair marginal - node marginal| plus the worst cell negativity."""
    if len(dist.edges) == 0:
        return 0.0
    mi = dist.edge_stats[:, 0]
    mj = dist.edge_stats[:, 1]
    mism = max(
        float(np.max(np.abs(mi - dist.node_means[dist.edges[:, 0]]), initial=0.0)),
        float(np.max(np.abs(mj - dist.node_means[dist.edges[:, 1]]), initial=0.0)),
    ) / 2.0
    cells = _pair_cells(*dist.edge_stats.T)
    neg = max(0.0, -float(cells.min()))
    return mism + neg


def primal_bethe(model: IsingModel, dist: LocalDistribution) -> float:
    """Local variational objective sum_e J E[x_i x_j] + h . m + entropy terms.

    The entropy is sum_e H(pair_e) - sum_i (deg_i - 1) H(node_i). Requires the
    local polytope invariants to hold within 1e-9.
    """
    if dist.node_means.shape != (model.n,) or dist.edge_stats.shape != (model.m, 3):
        raise DomainError("distribution shape does not match the model")
    if model.m and not np.array_equal(dist.edges, model.edges):
        raise DomainError("distribution edges do not match the model")
    viol = local_consistency_check(dist)
    if viol > 1e-9:
        raise DomainError(f"local polytope violation {viol:g} exceeds 1e-9")
    energy = float(model.fields @ dist.node_means)
    node_ent = bernoulli_entropy(dist.node_means)
    value = energy - float((model.degrees - 1).astype(np.float64) @ node_ent)
    if model.m:
        energy_e = float(model.couplings @ dist.edge_stats[:, 2])
        edge_ent = _kernels._entropy(_pair_cells(*dist.edge_stats.T))
        value += energy_e + float(edge_ent.sum())
    return value


def bp_error_bound(norms: ModelNorms, t):
    """Objective-residual bound sqrt(8 m n (1 + |J|_inf) / t) after t steps,
    for an int or an int array t; inf where t < 1."""
    t = np.asarray(t)
    out = np.full(t.shape, np.inf)
    pos = t >= 1
    out[pos] = np.sqrt(8.0 * norms.m * norms.n * (1.0 + norms.j_linf)
                       / t[pos].astype(np.float64))
    return out[()]


def bp_message_bound(norms: ModelNorms, t, h_min):
    """Message-space l1 bound 2 m (1 + |J|_inf) / (tanh(h_min) t) after t >= 1
    steps, for a model whose fields are all at least h_min > 0."""
    t = int(t)
    if t < 1:
        raise DomainError("t must be >= 1")
    h_min = float(h_min)
    if h_min <= 0.0:
        raise DomainError("h_min must be positive for the l1 bound")
    return 2.0 * norms.m * (1.0 + norms.j_linf) / (math.tanh(h_min) * t)

