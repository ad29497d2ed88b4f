"""Exact small-instance references: full enumeration, transfer matrices for
chains and cycles, and brute-force grid maximizers for the two variational
objectives. These are deliberately independent of the iterative solvers so
they can serve as ground truth in tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .bp import LocalDistribution, primal_bethe
from .meanfield import bernoulli_entropy, mf_objective
from .model import DomainError, IsingModel, ModelError, model_hash


class SizeGuardError(RuntimeError):
    """Instance too large for an exact method; raise rather than thrash."""


@dataclass
class ExactResult:
    """Exact log partition function with per-node means and per-edge correlations."""

    log_z: float
    node_means: np.ndarray         # (n,) E[x_i]
    edge_correlations: np.ndarray  # (m,) E[x_i x_j] in canonical edge order


def exact_log_z(model: IsingModel, max_nodes: int = 24) -> ExactResult:
    """Exact enumeration over all 2^n configurations (guarded by max_nodes)."""
    if model.n > max_nodes:
        raise SizeGuardError(
            f"exact enumeration over 2^{model.n} states exceeds the "
            f"max_nodes={max_nodes} guard")
    log_z, means, corrs = _kernels.enumerate_exact(
        model.n, model.edge_i, model.edge_j, model.couplings, model.fields)
    return ExactResult(log_z=float(log_z), node_means=means, edge_correlations=corrs)


def transfer_matrix_log_z(model: IsingModel) -> float:
    """Exact log Z for a model whose graph is a single chain or a single cycle.

    Per-site 2x2 transfer matrices are multiplied with a running max rescale,
    so chains and cycles with thousands of nodes stay in range.
    """
    n = model.n
    if n == 1:
        if model.m:
            raise ModelError("graph is not a simple chain or cycle")
        return float(np.log(2.0 * np.cosh(model.fields[0])))
    deg = model.degrees
    if model.m == 0 or int(deg.max()) > 2:
        raise ModelError("graph is not a single chain or cycle")
    ends = np.flatnonzero(deg == 1)
    if len(ends) == 2 and model.m == n - 1:
        start, cycle = int(ends.min()), False
    elif len(ends) == 0 and model.m == n:
        start, cycle = 0, True
    else:
        raise ModelError("graph is not a single chain or cycle")
    adj = model.adjacency
    jmap = {(int(i), int(j)): float(model.couplings[e])
            for e, (i, j) in enumerate(model.edges)}
    order = [start]
    visited = {start}
    prev, cur = -1, start
    while len(order) < n:
        nbrs = [v for v, _ in adj[cur] if v != prev]
        if not nbrs:
            raise ModelError("graph is not connected as a single chain or cycle")
        nxt = min(nbrs)
        if nxt in visited:
            raise ModelError("graph is not connected as a single chain or cycle")
        order.append(nxt)
        visited.add(nxt)
        prev, cur = cur, nxt
    s = np.array([1.0, -1.0])
    h = model.fields
    acc = 0.0
    if not cycle:
        v = np.exp(h[order[0]] * s)
        c = float(v.max())
        acc += math.log(c)
        v = v / c
        for k in range(1, n):
            j = jmap[(min(order[k - 1], order[k]), max(order[k - 1], order[k]))]
            mk = np.exp(j * np.outer(s, s) + h[order[k]] * s[None, :])
            v = v @ mk
            c = float(v.max())
            acc += math.log(c)
            v = v / c
        return acc + math.log(float(v.sum()))
    mat = np.eye(2)
    for k in range(n):
        u, w = order[k], order[(k + 1) % n]
        j = jmap[(min(u, w), max(u, w))]
        mk = np.exp(h[u] * s[:, None] + j * np.outer(s, s))
        mat = mat @ mk
        c = float(np.abs(mat).max())
        acc += math.log(c)
        mat = mat / c
    return acc + math.log(float(np.trace(mat)))


def _golden_max(f, lo, hi, tol=1e-11):
    """Golden-section maximizer of a unimodal f on [lo, hi]."""
    gr = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = float(lo), float(hi)
    c = b - gr * (b - a)
    d = a + gr * (b - a)
    fc, fd = f(c), f(d)
    for _ in range(200):
        if b - a <= tol:
            break
        if fc < fd:
            a, c, fc = c, d, fd
            d = a + gr * (b - a)
            fd = f(d)
        else:
            b, d, fd = d, c, fc
            c = b - gr * (b - a)
            fc = f(c)
    x = 0.5 * (a + b)
    return x, f(x)


def _grid_maximize(f_tables, pair_terms):
    """Maximize sum_i f_i[k_i] + sum_(i,j) tab_ij[k_i, k_j] over index tuples.

    f_tables is (n, G); pair_terms is a list of (i, j, (G, G) table). The
    search is chunked over axis 0 so memory stays at O(G^(n-1)).
    """
    n, g = f_tables.shape
    if n == 1:
        k = int(np.argmax(f_tables[0]))
        return (k,), float(f_tables[0][k])
    ndim = n - 1
    ar = np.arange(g)

    def view(vec, axis):
        shape = [1] * ndim
        shape[axis] = g
        return vec.reshape(shape)

    rest = np.zeros((g,) * ndim)
    first_terms = []
    for i in range(1, n):
        rest = rest + view(f_tables[i], i - 1)
    for i, j, tab in pair_terms:
        if i == 0:
            first_terms.append((j, tab))
        elif j == 0:
            first_terms.append((i, tab.T))
        else:
            rest = rest + tab[view(ar, i - 1), view(ar, j - 1)]
    best_val = -np.inf
    best_idx = None
    for k0 in range(g):
        acc = rest
        for j, tab in first_terms:
            acc = acc + view(tab[k0], j - 1)
        flat = int(np.argmax(acc))
        val = float(f_tables[0][k0]) + float(acc.flat[flat])
        if val > best_val:
            best_val = val
            best_idx = (k0,) + tuple(int(q) for q in np.unravel_index(flat, acc.shape))
    return best_idx, best_val


def _coordinate_refine(x, value_fn, window, rounds):
    """Golden-section sweeps over each coordinate within +-window of the incumbent."""
    x = x.copy()
    for _ in range(rounds):
        for i in range(len(x)):
            lo = max(-1.0, x[i] - window)
            hi = min(1.0, x[i] + window)

            def f1(v, i=i):
                x2 = x.copy()
                x2[i] = v
                return value_fn(x2)

            v, fv = _golden_max(f1, lo, hi)
            if fv >= value_fn(x):
                x[i] = v
    return x


def _grid(resolution):
    npts = int(round(2.0 / resolution)) + 1
    if npts < 3:
        raise DomainError(f"grid resolution {resolution:g} too coarse")
    return np.linspace(-1.0, 1.0, npts)


def brute_force_mf_optimum(model: IsingModel, grid_resolution=0.02,
                           refine_rounds=3, max_nodes=6):
    """Grid search plus coordinate refinement for the mean-field objective.

    Returns (x, value). Cost grows as (2/resolution + 1)^n; guarded by max_nodes.
    """
    if model.n > max_nodes:
        raise SizeGuardError(f"mean-field grid search needs n <= {max_nodes}")
    grid = _grid(grid_resolution)
    f_tables = model.fields[:, None] * grid[None, :] + bernoulli_entropy(grid)[None, :]
    pair = np.outer(grid, grid)
    pair_terms = [(int(model.edge_i[e]), int(model.edge_j[e]),
                   model.couplings[e] * pair) for e in range(model.m)]
    idx, _ = _grid_maximize(f_tables, pair_terms)
    x = grid[list(idx)]
    x = _coordinate_refine(x, lambda v: mf_objective(model, v),
                           grid_resolution, refine_rounds)
    return x, mf_objective(model, x)


def _h2(mi, mj, c):
    """Entropy of the pair distribution with means (mi, mj) and correlation c."""
    out = 0.0
    for si, sj in ((1.0, 1.0), (1.0, -1.0), (-1.0, 1.0), (-1.0, -1.0)):
        p = (1.0 + mi * si + mj * sj + c * si * sj) / 4.0
        p = np.clip(p, 0.0, None)
        safe = np.where(p > 0.0, p, 1.0)
        out = out - p * np.log(safe)
    return out


def _edge_term(j_e, mi, mj):
    """max_c [J c + H2(mi, mj, c)] with the argmax; broadcasts over mi, mj.

    Stationarity in c is the quadratic (1-q)c^2 + 2(1+q)c + (1 - A - q + qB) = 0
    with q = exp(4J), A = (mi+mj)^2, B = (mi-mj)^2. Real roots are clipped to
    the feasible interval and compared with its endpoints by value.
    """
    j_e = float(j_e)
    mi = np.asarray(mi, dtype=np.float64)
    mj = np.asarray(mj, dtype=np.float64)
    lo = np.abs(mi + mj) - 1.0
    hi = 1.0 - np.abs(mi - mj)
    cands = [lo, hi]
    if j_e == 0.0:
        cands.append(np.clip(mi * mj, lo, hi))
    else:
        q = math.exp(min(4.0 * j_e, 700.0))
        a = 1.0 - q
        b = 2.0 * (1.0 + q)
        cc = 1.0 - (mi + mj) ** 2 - q + q * (mi - mj) ** 2
        disc = np.clip(b * b - 4.0 * a * cc, 0.0, None)
        sq = np.sqrt(disc)
        cands.append(np.clip((-b + sq) / (2.0 * a), lo, hi))
        cands.append(np.clip((-b - sq) / (2.0 * a), lo, hi))
    best_val = None
    best_c = None
    for c in cands:
        val = j_e * c + _h2(mi, mj, c)
        if best_val is None:
            best_val, best_c = val, np.broadcast_to(c, val.shape).copy()
        else:
            better = val > best_val
            best_val = np.where(better, val, best_val)
            best_c = np.where(better, c, best_c)
    return best_val, best_c


def brute_force_bethe_optimum(model: IsingModel, grid_resolution=0.02,
                              refine_rounds=3, max_params=8):
    """Grid search over node means (edge correlations optimized in closed form)
    plus coordinate refinement, for the local variational objective.

    Returns (LocalDistribution, value). Guarded by n + m <= max_params.
    """
    if model.n + model.m > max_params:
        raise SizeGuardError(f"local grid search needs n + m <= {max_params}")
    grid = _grid(grid_resolution)
    deg = model.degrees.astype(np.float64)
    f_tables = (model.fields[:, None] * grid[None, :]
                - (deg - 1.0)[:, None] * bernoulli_entropy(grid)[None, :])
    pair_terms = []
    for e in range(model.m):
        val_tab, _ = _edge_term(model.couplings[e], grid[:, None], grid[None, :])
        pair_terms.append((int(model.edge_i[e]), int(model.edge_j[e]), val_tab))
    idx, _ = _grid_maximize(f_tables, pair_terms)
    means = grid[list(idx)]

    def value_fn(mv):
        total = float(model.fields @ mv)
        total -= float((deg - 1.0) @ bernoulli_entropy(mv))
        for e in range(model.m):
            val, _ = _edge_term(model.couplings[e],
                                mv[model.edge_i[e]], mv[model.edge_j[e]])
            total += float(val)
        return total

    means = _coordinate_refine(means, value_fn, grid_resolution, refine_rounds)
    stats = np.zeros((model.m, 3))
    for e in range(model.m):
        mi, mj = means[model.edge_i[e]], means[model.edge_j[e]]
        _, c = _edge_term(model.couplings[e], mi, mj)
        stats[e] = (mi, mj, float(c))
    dist = LocalDistribution(node_means=means, edge_stats=stats,
                             edges=model.edges.copy())
    return dist, primal_bethe(model, dist)


def exact_result_to_csv(result: ExactResult, model: IsingModel | None = None) -> str:
    """Serialize: a log_z line, node,mean rows, then i,j,corr rows."""
    lines = []
    if model is not None:
        lines.append(f"# model_hash {model_hash(model)}")
    lines.append(f"log_z,{result.log_z:.17g}")
    lines.append("node,mean")
    for i, v in enumerate(result.node_means):
        lines.append(f"{i},{v:.17g}")
    lines.append("i,j,corr")
    if model is not None:
        for e, c in enumerate(result.edge_correlations):
            lines.append(f"{model.edge_i[e]},{model.edge_j[e]},{c:.17g}")
    else:
        for e, c in enumerate(result.edge_correlations):
            lines.append(f"{e},{e},{c:.17g}")
    return "\n".join(lines) + "\n"


def exact_result_from_csv(text: str):
    """Parse exact_result_to_csv output; returns (ExactResult, meta)."""
    meta = {}
    log_z = None
    means = []
    corrs = []
    section = None
    for raw in text.splitlines():
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            parts = line[1:].strip().split(None, 1)
            if len(parts) == 2:
                meta[parts[0]] = parts[1]
            continue
        if line.startswith("log_z,"):
            log_z = float(line.split(",", 1)[1])
        elif line == "node,mean":
            section = "node"
        elif line == "i,j,corr":
            section = "edge"
        elif section == "node":
            means.append(float(line.split(",")[1]))
        elif section == "edge":
            corrs.append(float(line.split(",")[2]))
        else:
            raise DomainError(f"unexpected line in exact CSV: {line!r}")
    if log_z is None:
        raise DomainError("exact CSV missing the log_z line")
    return ExactResult(log_z=log_z, node_means=np.array(means),
                       edge_correlations=np.array(corrs)), meta
