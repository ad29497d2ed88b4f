"""Ferromagnetic Ising models: storage, validation, the model-file grammar.

A model is Pr(X = x) proportional to exp(x'Jx/2 + h.x) over x in {-1,+1}^n with
J_ij >= 0 on the edges of a simple graph and h_i >= 0. Edges are stored once
(unordered, i < j, lexicographically sorted); directed messages use a flat
index of length 2m where directed id 2e is i->j and 2e+1 is j->i, so the
reverse of directed id d is d ^ 1.

Model files are read by `load_model`, which checks each line in its block,
and written by `textio._model_text`, which `save_model` and `model_hash` feed
the model's columns. The topology generators live in `topology`, on the
standard library alone; `generate_topology` wraps their columns in an IsingModel.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import textio, topology
from .errors import DomainError, ModelError, ParseError
from .topology import _MAX_NODES, _check_weights

# Most nodes in a block of `IsingModel.exclusion_index`; it bounds a BP step's temporaries.
_BLOCK = 1024

__all__ = ["IsingModel", "ModelNorms", "ModelError", "DomainError", "load_model",
           "save_model", "model_hash", "generate_topology"]


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
        fields: length-n nonnegative reals h_i, default all zero.

    Each array is stored once: couplings and fields (copies; -0.0 is stored
    as 0.0) and degrees, read-only, and the directed-edge ends _dir_src and
    _dir_dst, writable because np.bincount copies a read-only index whole.
    The package reads those two; callers outside it read dir_src and dir_dst,
    read-only views of them. edges, rows (i, j) with i < j, and its columns
    edge_i, edge_j are views of dir_src. dir_coupling, J per directed edge,
    and theta, tanh(J) once per edge, are built on first read, and the BP
    field map, with the exclusion table of exclusion_index, on the first BP
    step.
    """

    def __init__(self, n, edges=None, couplings=None, fields=None):
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
        couplings += 0.0  # the sorted copy, in which -0.0 + 0.0 is 0.0
        self.couplings = couplings
        self.m = len(couplings)

        if fields is None:
            fields = np.zeros(n)
        fields = np.asarray(fields, dtype=np.float64).reshape(-1)
        if len(fields) != n:
            raise ModelError(f"expected {n} fields, got {len(fields)}")
        with np.errstate(over="ignore"):
            j_sum, h_l1 = float(couplings.sum()), float(np.abs(fields).sum())
        negative = fields[fields < 0]
        _check_weights(j_sum, h_l1, float(negative[0]) if negative.size else None)
        self.fields = fields + 0.0  # a copy, in which -0.0 + 0.0 is 0.0

        # Directed edge arrays: directed id 2e is lo->hi, 2e+1 is hi->lo.
        m = self.m
        self._dir_src = np.empty(2 * m, dtype=np.int64)
        self._dir_dst = np.empty(2 * m, dtype=np.int64)
        self._dir_src[0::2] = lo
        self._dir_dst[0::2] = hi
        self._dir_src[1::2] = hi
        self._dir_dst[1::2] = lo
        self.dir_src, self.dir_dst = self._dir_src.view(), self._dir_dst.view()
        self.degrees = np.bincount(self._dir_src, minlength=n).astype(np.int64, copy=False)

        for a in (self.couplings, self.fields, self.dir_src, self.dir_dst, self.degrees):
            a.setflags(write=False)
        self.edges = self.dir_src.reshape(-1, 2)
        self.edge_i, self.edge_j = self.edges.T
        self._bp_field = None  # set by _kernels._bp_field_map

    dir_coupling = cached_property(lambda self: _frozen(np.repeat(self.couplings, 2)))
    theta = cached_property(lambda self: _frozen(np.tanh(self.couplings)))

    def exclusion_index(self):
        """BP's exclusion table, one entry per directed edge, in blocks of one
        node degree k >= 1: k ascending, then node, at most _BLOCK nodes a
        block. Returns a tuple of blocks (out, h): column c of the read-only
        (k, size) array out lists, ascending, the directed edges out of the
        block's c-th node, and h[c] is its field. Their reverses out ^ 1 are
        the edges into that node, in ascending order too, as both follow the
        edge id; the edge out[p, c] excludes its own reverse. Built on each
        call.
        """
        # the edges out of i are outof[start[i]:start[i] + deg[i]]; nodes[lo:hi] have degree d[lo]
        deg = self.degrees
        outof = np.argsort(self._dir_src, kind="stable")
        start = np.cumsum(deg) - deg
        nodes = np.argsort(deg, kind="stable")
        d = deg[nodes]
        first = np.flatnonzero(np.diff(d, prepend=0))
        blocks = []
        for lo, hi in zip(first, [*first[1:], d.shape[0]]):
            for b in range(lo, hi, _BLOCK):
                block = nodes[b:min(b + _BLOCK, hi)]
                out = outof[start[block] + np.arange(d[lo])[:, None]]
                blocks.append((_frozen(out), _frozen(self.fields[block])))
        return tuple(blocks)

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


def _frozen(a):
    a.setflags(write=False)
    return a


_FIELDS = {"n": 1, "node": 2, "edge": 3}  # the fields after each directive


def load_model(source) -> IsingModel:
    """Parse the line-oriented model grammar, from a string or an open text
    file, into a validated IsingModel.

    All-nonpositive fields are negated, which is the global spin flip
    x -> -x of the same model; mixed-sign fields raise ModelError.

    Grammar (UTF-8, '#' starts a comment):
        n <N>
        node <i> <h_i>     # optional per node, default 0
        edge <i> <j> <J_ij>

    One pass reads the lines a block at a time from `textio.line_blocks`.
    A node or edge row after n with its field count is kept for its block's
    columns. Every other line takes the slow path, whose ParseError names
    it: a malformed, unknown or repeated directive raises at once, and the
    first row before n raises when n turns up, before n itself is read.
    Rows are converted when their block is read, so of several faults, one
    in the earliest faulty block is named.
    """
    n = early = None
    fields = seen = None        # size n: allocated at the first node row
    parts = []                  # the edge columns of each block
    for start, block in textio.line_blocks(source):
        split = {"node": ([], []), "edge": ([], [])}    # rows' tokens, their lines
        for lineno, line in enumerate(block, start):
            if "#" in line:
                line = line[:line.index("#")]
            tokens = line.split()
            if not tokens:
                continue
            kind = tokens[0]
            rows = split.get(kind)
            if rows is not None and n is not None and len(tokens) - 1 == _FIELDS[kind]:
                rows[0].append(tokens)
                rows[1].append(lineno)
                continue
            # the slow path: n, a row before n, or a malformed line
            count = _FIELDS.get(kind)
            if count != len(tokens) - 1:
                raise ParseError(f"line {lineno}: " + (
                    f"{kind!r} takes {count} fields, got {len(tokens) - 1}" if count else
                    f"unknown directive {kind!r}"))
            if kind != "n":
                early = early or f"line {lineno}: {kind} before n directive"
                continue
            if n is not None:
                raise ParseError(f"line {lineno}: duplicate n directive")
            if early:
                raise ParseError(early)
            n = int(textio.columns([tokens], [lineno], (None, int))[0][0])
            if not 1 <= n <= _MAX_NODES:
                raise ParseError(f"line {lineno}: node count must be in "
                                 f"1..{_MAX_NODES}, got {n}")
        (node_rows, node_at), (edge_rows, edge_at) = split.values()
        if node_rows:
            ids, h = textio.columns(node_rows, node_at, (None, int, float))
            _check_ids(node_at, n, ids[:, None])
            if seen is None:
                fields, seen = np.zeros(n), np.zeros(n, dtype=bool)
            repeat = seen[ids]      # a node of an earlier block, or of an earlier line
            order = np.argsort(ids, kind="stable")
            repeat[order[1:]] |= np.diff(ids[order]) == 0
            if repeat.any():
                k = repeat.argmax()
                raise ParseError(f"line {node_at[k]}: duplicate node {ids[k]}")
            seen[ids], fields[ids] = True, h
        if edge_rows:
            i, j, c = textio.columns(edge_rows, edge_at, (None, int, int, float))
            parts.append((_check_ids(edge_at, n, np.stack([i, j], axis=1)), c))
    if n is None:
        raise ParseError("missing n directive")
    if fields is not None and np.any(fields < 0):
        if np.any(fields > 0):
            raise ModelError("mixed-sign field is not supported")
        fields = -fields
    edges, couplings = map(np.concatenate, zip(*parts)) if parts else (None, None)
    del parts  # before IsingModel sorts the edges
    return IsingModel(n, edges, couplings, fields)


def _check_ids(at, n, ids):
    """`ids`, a row per line of `at`, unless a node id is outside 0..n-1."""
    outside = (ids < 0) | (ids >= n)
    if outside.any():
        k = outside.any(axis=1).argmax()
        raise ParseError(f"line {at[k]}: out-of-range node id {ids[k][outside[k]][0]} (n={n})")
    return ids


def _columns(model: IsingModel):
    """The model-file columns of `model`, as `textio._model_text` takes them."""
    nodes = np.flatnonzero(model.fields != 0.0)
    return (model.n, nodes, model.fields[nodes], model.edge_i, model.edge_j,
            model.couplings)


def save_model(model: IsingModel, out):
    """Write the canonical form to the open text file `out`; load_model on
    that file reproduces the model bit-exactly."""
    textio.emit(out, *textio._model_text(*_columns(model)))


def model_hash(model: IsingModel) -> str:
    """Stable 16-hex-digit identifier of the canonical serialized form."""
    return textio.digest(*textio._model_text(*_columns(model)))[:16]


def generate_topology(kind, beta, h_spec=0.0, *, n=None, rows=None, cols=None,
                      degree=None, seed=0) -> IsingModel:
    """The topology `topology.generate` builds, with its checks and arguments,
    as an IsingModel: a standard test topology with uniform coupling beta and
    the field h_spec, a number for every node or ('single', i, v) for node i
    alone. Kinds: cycle (n), grid (rows x cols), random_regular (n, degree,
    seed), random_tree (n, seed), star (n)."""
    size, nodes, h, lo, hi, couplings = topology.generate(
        kind, beta, h_spec, n=n, rows=rows, cols=cols, degree=degree, seed=seed)
    fields = np.zeros(size)
    fields[np.frombuffer(nodes, np.int64)] = np.frombuffer(h)
    return IsingModel(size, np.stack([np.frombuffer(lo, np.int64),
                                      np.frombuffer(hi, np.int64)], axis=1),
                      np.frombuffer(couplings), fields)
