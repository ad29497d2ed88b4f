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


# Brute-force maximizers: grid spacing (also the coordinate-refinement window),
# refinement sweeps, and the size guards on their searches over 101^n points.
_RESOLUTION = 0.02
_GRID = np.linspace(-1.0, 1.0, int(round(2.0 / _RESOLUTION)) + 1)
_REFINE_ROUNDS = 3
_MF_MAX_NODES = 6
_BETHE_MAX_PARAMS = 8


@dataclass
class ExactResult:
    """Exact log partition function with per-node means and per-edge correlations."""

    log_z: float
    node_means: np.ndarray         # (n,) E[x_i]
    edge_correlations: np.ndarray  # (m,) E[x_i x_j] in canonical edge order


def exact_log_z(model: IsingModel, max_nodes: int = 24) -> ExactResult:
    """Exact enumeration over all 2^n configurations (guarded by max_nodes).

    Needs h >= 0, so that the all-plus state has the largest energy.
    """
    if model.n > max_nodes:
        raise SizeGuardError(
            f"exact enumeration over 2^{model.n} states exceeds the "
            f"max_nodes={max_nodes} guard")
    if np.any(model.fields < 0):
        raise DomainError("exact enumeration needs nonnegative fields")
    log_z, means, corrs = _kernels.enumerate_exact(model)
    return ExactResult(log_z=float(log_z), node_means=means, edge_correlations=corrs)


def transfer_matrix_log_z(model: IsingModel) -> float:
    """Exact log Z for a model whose graph is a single chain or a single cycle.

    A chain is a cycle closed by a zero coupling, so both (and n = 1) are the
    trace of a product of per-site 2x2 transfer matrices along one walk. The
    product is rescaled by its running max, so thousands of sites stay in range.
    """
    n, deg, dst = model.n, model.degrees, model.dir_dst
    if int(deg.max()) > 2:
        raise ModelError("graph is not a single chain or cycle")
    # Start at the lower end of a chain; a walk that returns to a node before
    # it has seen all n nodes means the graph is not connected.
    ends = np.flatnonzero(deg == 1)
    start = int(ends[0]) if len(ends) else 0
    out = np.argsort(model.dir_src, kind="stable")
    ptr = np.concatenate(([0], np.cumsum(deg)))
    s = np.array([1.0, -1.0])
    seen = np.zeros(n, dtype=bool)
    acc, mat = 0.0, np.eye(2)
    u, back = start, -1
    for _ in range(n):
        if seen[u]:
            raise ModelError("graph is not connected as a single chain or cycle")
        seen[u] = True
        nxt = [d for d in out[ptr[u]:ptr[u + 1]] if d != back]
        if nxt:
            d = min(nxt, key=lambda d: dst[d])
            j, u_next, back = model.dir_coupling[d], dst[d], d ^ 1
        else:  # the end of a chain: close the cycle with a zero coupling
            j, u_next = 0.0, start
        mat = mat @ np.exp(model.fields[u] * s[:, None] + j * np.outer(s, s))
        c = float(np.abs(mat).max())
        acc += math.log(c)
        mat = mat / c
        u = u_next
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


def _coordinate_refine(x, value_fn):
    """Golden-section sweeps over each coordinate within one grid step of the incumbent."""
    x = x.copy()
    for _ in range(_REFINE_ROUNDS):
        for i in range(len(x)):
            lo = max(-1.0, x[i] - _RESOLUTION)
            hi = min(1.0, x[i] + _RESOLUTION)

            def f1(v, i=i):
                x2 = x.copy()
                x2[i] = v
                return value_fn(x2)

            v, fv = _golden_max(f1, lo, hi)
            if fv >= value_fn(x):
                x[i] = v
    return x


def brute_force_mf_optimum(model: IsingModel):
    """Grid search plus coordinate refinement for the mean-field objective.

    Returns (x, value). Cost grows as 101^n; guarded by n <= 6.
    """
    if model.n > _MF_MAX_NODES:
        raise SizeGuardError(f"mean-field grid search needs n <= {_MF_MAX_NODES}")
    f_tables = model.fields[:, None] * _GRID[None, :] + bernoulli_entropy(_GRID)[None, :]
    pair = np.outer(_GRID, _GRID)
    pair_terms = [(int(model.edge_i[e]), int(model.edge_j[e]),
                   model.couplings[e] * pair) for e in range(model.m)]
    idx, _ = _grid_maximize(f_tables, pair_terms)
    x = _GRID[list(idx)]
    x = _coordinate_refine(x, lambda v: mf_objective(model, v))
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


def brute_force_bethe_optimum(model: IsingModel):
    """Grid search over node means (edge correlations optimized in closed form)
    plus coordinate refinement, for the local variational objective.

    Returns (LocalDistribution, value). Guarded by n + m <= 8.
    """
    if model.n + model.m > _BETHE_MAX_PARAMS:
        raise SizeGuardError(f"local grid search needs n + m <= {_BETHE_MAX_PARAMS}")
    deg = model.degrees.astype(np.float64)
    f_tables = (model.fields[:, None] * _GRID[None, :]
                - (deg - 1.0)[:, None] * bernoulli_entropy(_GRID)[None, :])
    pair_terms = []
    for e in range(model.m):
        val_tab, _ = _edge_term(model.couplings[e], _GRID[:, None], _GRID[None, :])
        pair_terms.append((int(model.edge_i[e]), int(model.edge_j[e]), val_tab))
    idx, _ = _grid_maximize(f_tables, pair_terms)
    means = _GRID[list(idx)]

    def value_fn(mv):
        total = float(model.fields @ mv)
        total -= float((deg - 1.0) @ bernoulli_entropy(mv))
        for e in range(model.m):
            val, _ = _edge_term(model.couplings[e],
                                mv[model.edge_i[e]], mv[model.edge_j[e]])
            total += float(val)
        return total

    means = _coordinate_refine(means, value_fn)
    stats = np.zeros((model.m, 3))
    for e in range(model.m):
        mi, mj = means[model.edge_i[e]], means[model.edge_j[e]]
        _, c = _edge_term(model.couplings[e], mi, mj)
        stats[e] = (mi, mj, float(c))
    dist = LocalDistribution(node_means=means, edge_stats=stats,
                             edges=model.edges.copy())
    return dist, primal_bethe(model, dist)


def exact_result_to_csv(result: ExactResult, model: IsingModel) -> str:
    """Serialize: the model hash, a log_z line, node,mean rows, then i,j,corr rows."""
    lines = [f"# model_hash {model_hash(model)}", f"log_z,{result.log_z:.17g}",
             "node,mean"]
    for i, v in enumerate(result.node_means):
        lines.append(f"{i},{v:.17g}")
    lines.append("i,j,corr")
    for e, c in enumerate(result.edge_correlations):
        lines.append(f"{model.edge_i[e]},{model.edge_j[e]},{c:.17g}")
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
