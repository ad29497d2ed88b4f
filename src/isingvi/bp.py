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

from . import _kernels, textio
from .meanfield import bernoulli_entropy
from .model import DomainError, IsingModel, ModelNorms
from .trace import IterationTrace

_FIXED_POINT_TOL = 1e-12


def _check_messages(model: IsingModel, nu, name="nu"):
    nu = np.asarray(nu, dtype=np.float64)
    if nu.shape != (2 * model.m,):
        raise DomainError(f"{name} has shape {nu.shape}, expected ({2 * model.m},)")
    return nu


def bp_step(model: IsingModel, nu):
    """One synchronous message update; all reads from nu, all writes to the result."""
    nu = _check_messages(model, nu)
    _, exc_idx, seg_id = model.exclusion_index()
    return np.tanh(_kernels._bp_field(model.theta_dir, model.fields[model.dir_src],
                                      exc_idx, seg_id, nu))


def bp_iterate(model: IsingModel, init="ones", max_steps=10**6, tol=1e-10,
               record=True):
    """Iterate bp_step until the sup-norm message change drops below tol.

    Returns (nu, IterationTrace); the trace objective column is the dual
    value per step and the bound column the objective-residual guarantee.
    """
    # Built here, outside the sweep, so that the sweep's time excludes it.
    model.exclusion_index()
    nu, dual, step_inf, steps, converged = _kernels.bp_run(
        model, init, max_steps, tol, bool(record))
    t = np.arange(steps + 1, dtype=np.int64)
    trace = IterationTrace(algo="bp", t=t, objective=dual, step_inf=step_inf,
                           bound=_bound_array(model.norms(), t), converged=converged)
    return nu, trace


def dual_bethe(model: IsingModel, nu) -> float:
    """Message-space dual Phi(nu). Raises DomainError when a log argument is
    nonpositive (only reachable with negative messages)."""
    nu = _check_messages(model, nu)
    t1 = model.theta_dir * nu
    if t1.size and (float((1.0 + t1).min()) <= 0.0 or float((1.0 - t1).min()) <= 0.0):
        raise DomainError("nonpositive log argument in node term (message < -1)")
    te = model.theta_edge * nu[0::2] * nu[1::2]
    if te.size and float((1.0 + te).min()) <= 0.0:
        raise DomainError("nonpositive log argument in edge term")
    return _kernels._bethe_dual(model.dir_dst, model.theta_edge, model.theta_dir,
                                model.fields, _kernels._log_cosh_total(model.couplings), nu)


def dual_bethe_gradient(model: IsingModel, nu):
    """Gradient of the dual; requires nu >= 0 entrywise.

    Uses the cancellation-free form
        g_d = theta phi_rev / (1 + theta nu_d phi_rev)
            - theta nu_rev / (1 + theta nu_d nu_rev)
    where rev is the reversed directed edge and phi = bp_step(nu).
    """
    nu = _check_messages(model, nu)
    if nu.size and float(nu.min()) < 0.0:
        raise DomainError("gradient requires nonnegative messages")
    if nu.size and float(nu.max()) > 1.0:
        raise DomainError("gradient requires messages in [0, 1]")
    phi = bp_step(model, nu)
    rev = np.arange(2 * model.m, dtype=np.int64) ^ 1
    nu_rev = nu[rev]
    phi_rev = phi[rev]
    td = model.theta_dir
    return (td * phi_rev / (1.0 + td * nu * phi_rev)
            - td * nu_rev / (1.0 + td * nu * nu_rev))


def node_estimates(model: IsingModel, nu):
    """Per-node magnetization estimates tanh(h_i + sum_in arctanh(theta nu))."""
    nu = _check_messages(model, nu)
    a = _kernels._clamped_atanh(model.theta_dir, nu)
    s = model.fields + np.bincount(model.dir_dst, weights=a, minlength=model.n)
    return np.tanh(s)


@dataclass
class RegionMembership:
    """Location of a message vector relative to the update map phi."""

    in_s_pre: bool     # phi(nu) <= nu entrywise (trapped from above)
    in_s_post: bool    # nu <= phi(nu) entrywise (trapped from below)
    fixed_point: bool  # |phi(nu) - nu|_inf <= 1e-12
    slack: np.ndarray  # phi(nu) - nu

    @property
    def status(self) -> str:
        if self.fixed_point:
            return "fixed_point"
        if self.in_s_pre:
            return "in_S_pre"
        if self.in_s_post:
            return "in_S_post"
        return "neither"


def region_membership(model: IsingModel, nu) -> RegionMembership:
    """Classify nu >= 0 against the pre/post fixed-point regions."""
    nu = _check_messages(model, nu)
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
    edges: np.ndarray        # (m, 2) node pairs, i < j


def product_distribution(model: IsingModel, x) -> LocalDistribution:
    """The product (mean-field) point of the local polytope with c = m_i m_j."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (model.n,):
        raise DomainError(f"x has shape {x.shape}, expected ({model.n},)")
    mi = x[model.edge_i]
    mj = x[model.edge_j]
    stats = np.stack([mi, mj, mi * mj], axis=1) if model.m else np.zeros((0, 3))
    return LocalDistribution(node_means=x.copy(), edge_stats=stats,
                             edges=model.edges.copy())


def beliefs_from_messages(model: IsingModel, nu) -> LocalDistribution:
    """Node and edge beliefs induced by messages with |nu| < 1 strictly.

    Edge statistics come from the two-spin model with coupling J_ij and local
    fields arctanh(nu_{i->j}), arctanh(nu_{j->i}); node means come from
    node_estimates. The two agree exactly at fixed points (and only there in
    general), so off fixed points the result can violate local consistency.
    """
    nu = _check_messages(model, nu)
    if nu.size and float(np.max(np.abs(nu))) >= 1.0:
        raise DomainError("beliefs need |nu| < 1 strictly (arctanh must be finite)")
    means = node_estimates(model, nu)
    m = model.m
    if m == 0:
        return LocalDistribution(node_means=means, edge_stats=np.zeros((0, 3)),
                                 edges=model.edges.copy())
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
                             edges=model.edges.copy())


def _pair_cells(edge_stats):
    """(m, 4) cell probabilities for sign patterns (+,+), (+,-), (-,+), (-,-)."""
    mi = edge_stats[:, 0:1]
    mj = edge_stats[:, 1:2]
    c = edge_stats[:, 2:3]
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
    cells = _pair_cells(dist.edge_stats)
    neg = max(0.0, -float(cells.min()))
    return mism + neg


def _cell_entropy(cells):
    """Row-wise entropy -sum p log p with 0 log 0 = 0; cells clipped at 0."""
    p = np.clip(cells, 0.0, None)
    pos = p > 0.0
    terms = np.zeros_like(p)
    terms[pos] = p[pos] * np.log(p[pos])
    return -terms.sum(axis=1)


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
        edge_ent = _cell_entropy(_pair_cells(dist.edge_stats))
        value += energy_e + float(edge_ent.sum())
    return value


def bp_error_bound(norms: ModelNorms, t, h_min=None):
    """Objective-residual bound sqrt(8 m n (1 + |J|_inf) / t) after t steps.

    With h_min > 0 supplied, additionally returns the message-space l1 bound
    2 m (1 + |J|_inf) / (tanh(h_min) t) as a second tuple entry.
    """
    t = int(t)
    if t < 1:
        raise DomainError("t must be >= 1")
    thm2 = float(_bound_array(norms, np.array([t]))[0])
    if h_min is None:
        return thm2
    h_min = float(h_min)
    if h_min <= 0.0:
        raise DomainError("h_min must be positive for the l1 bound")
    l1 = 2.0 * norms.m * (1.0 + norms.j_linf) / (math.tanh(h_min) * t)
    return thm2, l1


def _bound_array(norms: ModelNorms, t: np.ndarray) -> np.ndarray:
    out = np.full(t.shape, np.inf)
    pos = t >= 1
    out[pos] = np.sqrt(8.0 * norms.m * norms.n * (1.0 + norms.j_linf)
                       / t[pos].astype(np.float64))
    return out


def messages_to_csv(model: IsingModel, nu, out=None):
    """Serialize directed messages as src,dst,nu rows in directed-id order.
    Writes to the open text file `out`, or returns the text when out is None."""
    nu = _check_messages(model, nu)
    return textio.emit(out, "src,dst,nu\n",
                       textio.rows((model.dir_src, model.dir_dst, nu)))


def messages_from_csv(model: IsingModel, source):
    """Parse messages_to_csv output (a string or an open text file), checking
    the src/dst pairs against the model."""
    _, sections = textio.read_csv(source, {"src,dst,nu": (int, int, float)})
    if "src,dst,nu" not in sections:
        raise DomainError("expected a src,dst,nu header")
    src, dst, nu = sections["src,dst,nu"]
    if len(nu) != 2 * model.m:
        raise DomainError(f"expected {2 * model.m} message rows, got {len(nu)}")
    wrong = np.flatnonzero((src != model.dir_src) | (dst != model.dir_dst))
    if wrong.size:
        raise DomainError(f"message row {wrong[0]} does not match the model edge order")
    return nu
