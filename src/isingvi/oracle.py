"""Exact references: log Z, node means and edge correlations by variable
elimination over a tree of cliques (Koller and Friedman, Probabilistic
Graphical Models, 2009, ch. 9-10), and brute-force grid maximizers of the two
variational objectives on tiny models. These are deliberately independent of
the iterative solvers so they can serve as ground truth in tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _kernels, textio
from .bp import LocalDistribution, _pair_cells, primal_bethe
from .meanfield import bernoulli_entropy, mf_objective
from .errors import DomainError, SizeGuardError
from .model import IsingModel, model_hash


# Brute-force maximizers: grid spacing (also the coordinate-refinement window),
# refinement sweeps, and the size guards on their searches over 101^n points.
_RESOLUTION = 0.02
_GRID = np.linspace(-1.0, 1.0, int(round(2.0 / _RESOLUTION)) + 1)
_REFINE_ROUNDS = 3
_MF_MAX_NODES = 6
_BETHE_MAX_PARAMS = 8
# Exact elimination: the most table entries, summed over all cliques, it stores.
_TABLE_BUDGET = 1 << 25


@dataclass
class ExactResult:
    """Exact log partition function with per-node means and per-edge correlations."""

    log_z: float
    node_means: np.ndarray         # (n,) E[x_i]
    edge_correlations: np.ndarray  # (m,) E[x_i x_j] in canonical edge order


def _cliques(model: IsingModel):
    """One elimination order with its cliques, from the graph alone.

    The order is the reverse of a greedy vertex order that adds, next to the
    frontier (the added nodes with a neighbour still to come), the node that
    least grows it, then the one with the fewest neighbours to come, then the
    lowest id; with no frontier, one of least degree. Eliminating v gives the
    clique [v, *its neighbours still to go, fill-in included, in elimination
    order], whose message goes to the clique of the second node. Returns
    {v: (clique, [(clique axis, edge id) of each coupling of v to a later
    node])} in elimination order. Raises SizeGuardError, before any table
    exists, once sum 2^|clique| exceeds _TABLE_BUDGET.
    """
    nbrs = [[] for _ in range(model.n)]
    for e, (i, j) in enumerate(model.edges.tolist()):
        nbrs[i].append((j, e))
        nbrs[j].append((i, e))
    left = model.degrees.tolist()  # neighbours not yet added
    added = [False] * model.n
    by_degree = iter(sorted(range(model.n), key=lambda v: (left[v], v)))
    frontier, rank = [], {}

    def growth(v):
        done = sum(added[u] and left[u] == 1 for u, _ in nbrs[v])
        return (left[v] > 0) - done, left[v], v

    for _ in range(model.n):
        boundary = {u for f in frontier for u, _ in nbrs[f] if not added[u]}
        v = min(boundary, key=growth) if boundary else next(
            u for u in by_degree if not added[u])
        added[v] = True
        for u, _ in nbrs[v]:
            left[u] -= 1
        frontier = [u for u in frontier + [v] if left[u]]
        rank[v] = -len(rank)  # elimination runs in reverse of this order
    # a clique's later nodes are v's later neighbours plus those of the
    # cliques whose message it receives (Liu's elimination tree)
    fill = [set() for _ in range(model.n)]
    cliques, total = {}, 0
    for v in reversed(rank):
        later = [(u, e) for u, e in nbrs[v] if rank[u] > rank[v]]
        clique = [v, *sorted(fill[v].union(u for u, _ in later), key=rank.__getitem__)]
        total += 1 << len(clique)
        if total > _TABLE_BUDGET:
            raise SizeGuardError(f"exact elimination needs more than {_TABLE_BUDGET} "
                                 f"table entries (a clique of {len(clique)} nodes)")
        if len(clique) > 1:
            fill[clique[1]].update(clique[2:])
        cliques[v] = clique, [(clique.index(u), e) for u, e in later]
    return cliques


def _spin(axis: int, ndim: int):
    """The spins (+1, -1) along one axis of an ndim-axis table."""
    return np.array([1.0, -1.0]).reshape((1,) * axis + (2,) + (1,) * (ndim - axis - 1))


def exact_log_z(model: IsingModel) -> ExactResult:
    """Exact log Z, node means and edge correlations over a tree of cliques.

    Eliminating v multiplies its field and coupling factors by the messages
    the clique receives, sums v out and sends the result to the clique of the
    next node; axes are in elimination order, so a reshape broadcasts it into
    that clique. Each table is renormalized by its max, whose log goes into
    log Z. A backward pass calibrates each table into the clique's belief,
    which holds v's mean and its couplings' correlations.
    """
    cliques = _cliques(model)
    h, j = model.fields.tolist(), model.couplings.tolist()
    logs, tables, inbox = [], {}, [1.0] * model.n
    for v, (clique, links) in cliques.items():
        w = len(clique)
        log_phi = _spin(0, w) * (h[v] + sum(j[e] * _spin(a, w) for a, e in links))
        top = float(log_phi.max())
        t = inbox[v] * np.exp(log_phi - top)
        scale = float(t.max())
        t /= scale
        logs += (top, math.log(scale))
        tables[v] = t
        if w == 1:
            logs.append(math.log(float(t.sum())))
        else:
            inbox[clique[1]] = inbox[clique[1]] * t.sum(axis=0).reshape(
                [2 if u in clique else 1 for u in cliques[clique[1]][0]])
    log_z = math.fsum(logs)

    means, corrs = np.empty(model.n), np.empty(model.m)
    for v, (clique, links) in reversed(cliques.items()):
        t = tables[v]  # becomes v's belief; the receiver's is already one
        if len(clique) == 1:
            t /= t.sum()
        else:
            up = tables[clique[1]].sum(axis=tuple(
                a for a, u in enumerate(cliques[clique[1]][0]) if u not in clique))
            f = t.sum(axis=0)
            t *= np.divide(up, f, out=np.zeros_like(f), where=f > 0)
        signed = t[0] - t[1]
        means[v] = signed.sum()
        for a, e in links:
            corrs[e] = (signed * _spin(a - 1, len(clique) - 1)).sum()
    return ExactResult(log_z=log_z, node_means=means, edge_correlations=corrs)


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
        val = j_e * c + _kernels._entropy(_pair_cells(mi, mj, c))
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
                             edges=model.edges)
    return dist, primal_bethe(model, dist)


def exact_result_to_csv(result: ExactResult, model: IsingModel, out):
    """Write to the open text file `out`: '# model_hash' and '# log_z' meta
    lines, node,mean rows, then i,j,corr rows."""
    means, corrs = result.node_means, result.edge_correlations
    textio.emit(
        out, f"# model_hash {model_hash(model)}\n# log_z {result.log_z:.17g}\nnode,mean\n",
        textio.rows((np.arange(len(means)), means)), "i,j,corr\n",
        textio.rows((model.edge_i, model.edge_j, corrs)))


_EXACT_SECTIONS = {"node,mean": (None, float), "i,j,corr": (None, None, float)}


def exact_result_from_csv(source):
    """Parse exact_result_to_csv output, a string or an open text file;
    returns (ExactResult, meta)."""
    meta, sections = textio.read_csv(source, _EXACT_SECTIONS)
    try:
        log_z = float(meta["log_z"])
    except (KeyError, ValueError) as exc:
        raise DomainError(f"exact CSV needs a numeric '# log_z' line: {exc}") from None
    empty = [np.zeros(0)]
    return ExactResult(log_z=log_z, node_means=sections.get("node,mean", empty)[0],
                       edge_correlations=sections.get("i,j,corr", empty)[0]), meta
