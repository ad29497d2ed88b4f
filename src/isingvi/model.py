"""Ferromagnetic Ising models: storage, validation, file grammar, topology generators.

A model is Pr(X = x) proportional to exp(x'Jx/2 + h.x) over x in {-1,+1}^n with
J_ij >= 0 on the edges of a simple graph and h_i >= 0. Edges are stored once
(unordered, i < j, lexicographically sorted); directed messages use a flat
index of length 2m where directed id 2e is i->j and 2e+1 is j->i, so the
reverse of directed id d is d ^ 1.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass

import numpy as np

from . import textio
from .textio import ParseError

# The largest node count whose float64 field array has a size numpy can
# represent; larger counts are not a model, smaller ones may still not fit
# in memory (MemoryError).
_MAX_NODES = sys.maxsize // 8


class ModelError(ValueError):
    """Invalid model data (bad coupling sign, self-loop, duplicate edge, ...)."""


class DomainError(ValueError):
    """Function argument outside its mathematical domain (e.g. |x_i| > 1)."""


@dataclass(frozen=True)
class ModelNorms:
    """Norms of (J, h) with J viewed as a matrix of entries (each edge counted twice)."""

    j_l1: float
    h_l1: float
    j_linf: float
    m: int
    n: int


class IsingModel:
    """Immutable ferromagnetic Ising model on a simple graph.

    Args:
        n: number of nodes (ids are dense integers 0..n-1).
        edges: (m, 2) array-like of node pairs, any orientation.
        couplings: length-m nonnegative reals J_e.
        fields: length-n reals h_i, default all zero.
        check_fields: when True (default) require h_i >= 0 for all i.
            Pass False only to build a candidate for validate_ferromagnetic.
    """

    def __init__(self, n, edges=None, couplings=None, fields=None, *, check_fields=True):
        n = int(n)
        if n < 1:
            raise ModelError(f"node count must be positive, got {n}")
        self.n = n

        if edges is None:
            edges = np.zeros((0, 2), dtype=np.int64)
        edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
        if couplings is None:
            couplings = np.zeros(len(edges))
        couplings = np.asarray(couplings, dtype=np.float64).reshape(-1)
        if len(couplings) != len(edges):
            raise ModelError(
                f"{len(edges)} edges but {len(couplings)} couplings")

        if edges.size:
            if edges.min() < 0 or edges.max() >= n:
                bad = edges[(edges < 0) | (edges >= n)].flat[0]
                raise ModelError(f"out-of-range node id {bad} (n={n})")
            if np.any(edges[:, 0] == edges[:, 1]):
                i = int(edges[edges[:, 0] == edges[:, 1]][0, 0])
                raise ModelError(f"self-loop at node {i}")
        if np.any(couplings < 0):
            raise ModelError(
                f"negative coupling {couplings[couplings < 0][0]:g} (model must be ferromagnetic)")
        if not np.all(np.isfinite(couplings)):
            raise ModelError("non-finite coupling")

        # Canonical edge order: i < j within each pair, pairs sorted lexicographically.
        lo = np.minimum(edges[:, 0], edges[:, 1])
        hi = np.maximum(edges[:, 0], edges[:, 1])
        order = np.lexsort((hi, lo))
        lo, hi, couplings = lo[order], hi[order], couplings[order]
        if len(lo) > 1:
            dup = (lo[1:] == lo[:-1]) & (hi[1:] == hi[:-1])
            if np.any(dup):
                k = int(np.flatnonzero(dup)[0])
                raise ModelError(f"duplicate edge ({lo[k]}, {hi[k]})")
        self.edges = np.stack([lo, hi], axis=1)
        self.couplings = couplings
        self.m = len(couplings)

        if fields is None:
            fields = np.zeros(n)
        fields = np.asarray(fields, dtype=np.float64).reshape(-1)
        if len(fields) != n:
            raise ModelError(f"expected {n} fields, got {len(fields)}")
        if not np.all(np.isfinite(fields)):
            raise ModelError("non-finite field")
        if check_fields and np.any(fields < 0):
            raise ModelError(
                f"negative field {fields[fields < 0][0]:g}; "
                "use validate_ferromagnetic(allow_sign_flip=True) for all-nonpositive fields")
        self.fields = fields

        # Directed edge arrays: directed id 2e is lo->hi, 2e+1 is hi->lo.
        m = self.m
        self.dir_src = np.empty(2 * m, dtype=np.int64)
        self.dir_dst = np.empty(2 * m, dtype=np.int64)
        self.dir_src[0::2] = lo
        self.dir_dst[0::2] = hi
        self.dir_src[1::2] = hi
        self.dir_dst[1::2] = lo
        self.dir_coupling = np.repeat(couplings, 2)
        self.degrees = np.bincount(self.dir_src, minlength=n).astype(np.int64)

        # Contiguous per-edge endpoint columns and tanh(J) caches for the kernels.
        self.edge_i = np.ascontiguousarray(lo)
        self.edge_j = np.ascontiguousarray(hi)
        self.theta_edge = np.tanh(couplings)
        self.theta_dir = np.repeat(self.theta_edge, 2)

        for a in (self.edges, self.couplings, self.fields, self.dir_src,
                  self.dir_dst, self.dir_coupling, self.degrees,
                  self.edge_i, self.edge_j, self.theta_edge, self.theta_dir):
            a.setflags(write=False)
        self._exclusion = None

    def j_matvec(self, x):
        """Return J @ x for the symmetric coupling matrix J."""
        x = np.asarray(x, dtype=np.float64)
        contrib = self.dir_coupling * x[self.dir_src]
        return np.bincount(self.dir_dst, weights=contrib, minlength=self.n)

    def exclusion_index(self):
        """Index arrays for message updates: for each directed edge d = (i -> j),
        the directed edges into i other than j -> i.

        Returns (exc_ptr, exc_idx, seg_id): exc_idx[exc_ptr[d]:exc_ptr[d+1]] lists
        the incoming directed ids in ascending order, and seg_id maps each entry
        of exc_idx back to d. Built lazily and cached.
        """
        if self._exclusion is None:
            # Directed ids sorted by destination: the edges into node i are the
            # run in_order[in_ptr[i]:in_ptr[i + 1]], ascending; d = (i -> j) takes
            # that run minus d ^ 1. Blocks of 4096 directed edges keep temporaries
            # small; freed whole-graph ones stay resident and add to peak RSS.
            ndir = 2 * self.m
            in_order = np.argsort(self.dir_dst, kind="stable")
            in_ptr = np.concatenate(([0], np.cumsum(self.degrees)))
            run = self.degrees[self.dir_src]
            exc_ptr = np.concatenate(([0], np.cumsum(run - 1)))
            exc_idx = np.empty(exc_ptr[-1], dtype=np.int64)
            for d0 in range(0, ndir, 4096):
                d = np.arange(d0, min(d0 + 4096, ndir))
                r = run[d]
                # each candidate's position in in_order, then its directed id
                cand = np.repeat(in_ptr[self.dir_src[d]] - np.cumsum(r) + r, r)
                cand += np.arange(cand.shape[0])
                cand = in_order[cand]
                exc_idx[exc_ptr[d0]:exc_ptr[d0 + len(d)]] = cand[cand != np.repeat(d ^ 1, r)]
            seg_id = np.repeat(np.arange(ndir, dtype=np.int64), run - 1)
            for a in (exc_ptr, exc_idx, seg_id):
                a.setflags(write=False)
            self._exclusion = (exc_ptr, exc_idx, seg_id)
        return self._exclusion

    def norms(self) -> ModelNorms:
        j_linf = float(self.couplings.max()) if self.m else 0.0
        return ModelNorms(
            j_l1=2.0 * float(self.couplings.sum()),
            h_l1=float(np.abs(self.fields).sum()),
            j_linf=j_linf,
            m=self.m,
            n=self.n,
        )

    def __repr__(self):
        return f"IsingModel(n={self.n}, m={self.m})"


def validate_ferromagnetic(model: IsingModel, allow_sign_flip: bool = False) -> IsingModel:
    """Check ferromagnetic invariants; optionally flip an all-nonpositive field.

    A model with h_i <= 0 for all i is equivalent to the flipped model under
    the global spin flip x -> -x, so with allow_sign_flip it is returned with
    h negated. Mixed-sign fields are rejected.
    """
    if np.any(model.couplings < 0):
        raise ModelError("negative coupling (model must be ferromagnetic)")
    h = model.fields
    if np.all(h >= 0):
        return model
    if np.all(h <= 0):
        if allow_sign_flip:
            return IsingModel(model.n, model.edges, model.couplings, -h)
        raise ModelError("negative field; pass allow_sign_flip=True to negate")
    raise ModelError("mixed-sign field is not supported")


_GRAMMAR = {"n": (int,), "node": (int, float), "edge": (int, int, float)}


def load_model(source) -> IsingModel:
    """Parse the line-oriented model grammar, from a string or an open text
    file, into a validated IsingModel.

    All-nonpositive fields are sign-flipped; mixed-sign fields raise ModelError.

    Grammar (UTF-8, '#' starts a comment):
        n <N>
        node <i> <h_i>     # optional per node, default 0
        edge <i> <j> <J_ij>

    The lines are read and converted by `textio.read_directives`; a
    malformed line raises ParseError naming it. Token counts, directives and
    numbers are checked as the file is read, the n directive and node ids
    once it has been read.
    """
    rows = textio.read_directives(source, _GRAMMAR)
    (counts, n_at), (ids, h, node_at), (i, j, c, edge_at) = (
        rows["n"], rows["node"], rows["edge"])
    if not len(counts):
        raise ParseError("missing n directive")
    if len(counts) > 1:
        raise ParseError(f"line {n_at[1]}: duplicate n directive")
    early = [(at[0], kind) for kind, at in (("node", node_at), ("edge", edge_at))
             if len(at) and at[0] < n_at[0]]
    if early:
        raise ParseError("line {}: {} before n directive".format(*min(early)))
    n = int(counts[0])
    if not 1 <= n <= _MAX_NODES:
        raise ParseError(f"line {n_at[0]}: node count must be in 1..{_MAX_NODES}, got {n}")
    _check_ids(node_at, n, ids)
    _check_ids(edge_at, n, i, j)
    # node lines are in file order, so the smallest index of a repeat is its first line
    order = np.argsort(ids, kind="stable")
    repeats = order[1:][np.diff(ids[order]) == 0]
    if repeats.size:
        k = repeats.min()
        raise ParseError(f"line {node_at[k]}: duplicate node {ids[k]}")
    fields = np.zeros(n)
    fields[ids] = h
    model = IsingModel(n, np.stack([i, j], axis=1), c, fields, check_fields=False)
    return validate_ferromagnetic(model, allow_sign_flip=True)


def _check_ids(at, n, *columns):
    """ParseError naming the first line with a node id outside 0..n-1."""
    ids = np.stack(columns, axis=1)
    outside = (ids < 0) | (ids >= n)
    bad = np.flatnonzero(outside.any(axis=1))
    if bad.size:
        k = bad[0]
        raise ParseError(f"line {at[k]}: out-of-range node id {ids[k][outside[k]][0]} (n={n})")


def _model_text(model: IsingModel):
    nodes = np.flatnonzero(model.fields != 0.0)
    return (f"n {model.n}\n",
            textio.rows((nodes, model.fields[nodes]), sep=" ", prefix="node "),
            textio.rows((model.edge_i, model.edge_j, model.couplings), sep=" ",
                        prefix="edge "))


def save_model(model: IsingModel, out=None):
    """Serialize to canonical form; load_model(save_model(m)) reproduces m
    bit-exactly. Writes to the open text file `out`, or returns the text
    when out is None."""
    return textio.emit(out, *_model_text(model))


def model_hash(model: IsingModel) -> str:
    """Stable 16-hex-digit identifier of the canonical serialized form."""
    return textio.digest(*_model_text(model))[:16]


def _fields_from_spec(n, h_spec):
    """Expand a field description: a scalar, or ('single', idx, value)."""
    if not isinstance(h_spec, tuple):
        return np.full(n, float(h_spec))
    _, idx, val = h_spec
    if not 0 <= idx < n:
        raise ModelError(f"field node {idx} out of range (n={n})")
    fields = np.zeros(n)
    fields[idx] = float(val)
    return fields


def _random_regular_edges(n, d, rng):
    # Pairing model: shuffle n*d stubs, pair consecutively, resample on collisions.
    if n * d % 2 != 0:
        raise ModelError(f"random_regular needs n*d even, got n={n}, d={d}")
    if d >= n:
        raise ModelError(f"random_regular needs d < n, got n={n}, d={d}")
    if d < 1:
        raise ModelError("random_regular needs d >= 1")
    stubs = np.repeat(np.arange(n, dtype=np.int64), d)
    for _ in range(10000):
        perm = rng.permutation(stubs)
        a, b = perm[0::2], perm[1::2]
        if np.any(a == b):
            continue
        lo, hi = np.minimum(a, b), np.maximum(a, b)
        keys = lo * n + hi
        if len(np.unique(keys)) != len(keys):
            continue
        return np.stack([lo, hi], axis=1)
    raise ModelError(f"could not sample a simple {d}-regular graph on {n} nodes")


def _random_tree_edges(n, rng):
    # Uniform labeled tree via a random Pruefer sequence.
    if n == 1:
        return np.zeros((0, 2), dtype=np.int64)
    if n == 2:
        return np.array([[0, 1]], dtype=np.int64)
    seq = rng.integers(0, n, size=n - 2)
    degree = np.ones(n, dtype=np.int64)
    for v in seq:
        degree[v] += 1
    edges = []
    import heapq
    leaves = [i for i in range(n) if degree[i] == 1]
    heapq.heapify(leaves)
    for v in seq:
        leaf = heapq.heappop(leaves)
        edges.append((leaf, int(v)))
        degree[v] -= 1
        if degree[v] == 1:
            heapq.heappush(leaves, int(v))
    u = heapq.heappop(leaves)
    w = heapq.heappop(leaves)
    edges.append((u, w))
    return np.array(edges, dtype=np.int64)


def generate_topology(kind, beta, h_spec=0.0, *, n=None, rows=None, cols=None,
                      degree=None, seed=0) -> IsingModel:
    """Build a standard test topology with uniform coupling beta and the field
    h_spec: a number for every node, or ('single', i, v) for node i alone.

    Kinds: cycle (n), grid (rows x cols, row-major, node 0 at the bottom-left
    corner), random_regular (n, degree, seed), random_tree (n, seed), star (n).
    Randomized kinds are reproducible given the seed.
    """
    if beta < 0:
        raise ModelError(f"coupling beta must be nonnegative, got {beta}")
    rng = np.random.default_rng(seed)
    # Checked before anything is allocated: numpy cannot size an (n, 2) int64
    # edge array past half the node bound of a model file.
    size = rows * cols if kind == "grid" and None not in (rows, cols) else n
    if size is not None and size > _MAX_NODES // 2:
        raise ModelError(f"{kind} node count must be at most {_MAX_NODES // 2}, got {size}")
    if kind == "cycle":
        if n is None or n < 3:
            raise ModelError("cycle needs n >= 3")
        edges = np.stack([np.arange(n), (np.arange(n) + 1) % n], axis=1)
    elif kind == "grid":
        if rows is None or cols is None or rows < 1 or cols < 1:
            raise ModelError("grid needs rows >= 1 and cols >= 1")
        idx = np.arange(size).reshape(rows, cols)
        right = np.stack([idx[:, :-1].ravel(), idx[:, 1:].ravel()], axis=1)
        up = np.stack([idx[:-1, :].ravel(), idx[1:, :].ravel()], axis=1)
        edges = np.concatenate([right, up], axis=0)
    elif kind == "random_regular":
        if n is None or degree is None:
            raise ModelError("random_regular needs n and degree")
        edges = _random_regular_edges(n, degree, rng)
    elif kind == "random_tree":
        if n is None or n < 1:
            raise ModelError("random_tree needs n >= 1")
        edges = _random_tree_edges(n, rng)
    elif kind == "star":
        if n is None or n < 2:
            raise ModelError("star needs n >= 2")
        edges = np.stack([np.zeros(n - 1, dtype=np.int64), np.arange(1, n)], axis=1)
    else:
        raise ModelError(f"unknown topology kind {kind!r}")
    couplings = np.full(len(edges), float(beta))
    return IsingModel(size, edges, couplings, _fields_from_spec(size, h_spec))
