"""The standard test topologies, built on the standard library alone.

`generate` returns a topology as the plain columns of a model file, which
`textio._model_text` writes, so `gen --topology` loads no numpy;
`model.generate_topology` wraps the same columns in an IsingModel. Edges come
in the canonical order, (lo, hi) pairs with lo < hi, ascending.

Random topologies are drawn from `random.Random(seed)`: a random labelled
tree from a uniform Pruefer sequence, and a random regular graph by
Steger-Wormald pairing (Combin. Probab. Comput. 8, 1999), which pairs two
random stubs of different, not yet adjacent nodes until none is left.
"""

from __future__ import annotations

import heapq
import math
import random
import sys
from array import array
from itertools import combinations

from .errors import ModelError

# The largest node count whose float64 field array has a size numpy can
# represent; larger counts are not a model, smaller ones may still not fit
# in memory (MemoryError).
_MAX_NODES = sys.maxsize // 8


def _check_weights(j_sum, h_l1, negative_field):
    """The checks of a model's couplings and fields that IsingModel makes, from
    the sum of the couplings, the sum of |h| and the first negative field
    (None if there is none): the kernels form 2J and 2h inside logaddexp, log
    cosh and elimination, where a NaN, an inf or an overflow turns every
    objective into NaN."""
    if not math.isfinite(2.0 * (j_sum + h_l1)):
        raise ModelError("non-finite coupling or field, or 2 (sum J + sum |h|) "
                         "overflows float64")
    if negative_field is not None:
        raise ModelError(f"negative field {negative_field:g} (fields must be >= 0)")


def _field_columns(n, h_spec):
    """The nonzero fields of a field description as (nodes, fields): a scalar
    for every node, or ('single', idx, value) for node idx alone."""
    if isinstance(h_spec, tuple):
        _, idx, val = h_spec
        if not 0 <= idx < n:
            raise ModelError(f"field node {idx} out of range (n={n})")
        nodes = [idx]
    else:
        nodes, val = range(n), h_spec
    val = float(val) + 0.0  # -0.0 + 0.0 is 0.0
    if val == 0.0:
        nodes = ()
    return array("q", nodes), array("d", [val]) * len(nodes)


def _random_regular_keys(n, d, rng):
    """Steger-Wormald pairing of d stubs per node: join two random stubs of
    different, not yet adjacent nodes until none is left, and start again
    when no such pair remains. Returns the edge keys lo * n + hi."""
    for _ in range(10000):
        stubs = [v for v in range(n) for _ in range(d)]
        keys = set()
        while stubs:
            k = len(stubs)
            i, j = rng.randrange(k), rng.randrange(k - 1)
            j += j >= i
            u, v = stubs[i], stubs[j]
            key = u * n + v if u < v else v * n + u
            if u != v and key not in keys:
                keys.add(key)
                for p in (max(i, j), min(i, j)):
                    stubs[p] = stubs[-1]
                    stubs.pop()
            elif all(a * n + b in keys for a, b in combinations(sorted(set(stubs)), 2)):
                break
        else:
            return keys
    raise ModelError(f"could not sample a simple {d}-regular graph on {n} nodes")


def _random_tree_keys(n, rng):
    """A uniform labelled tree, decoded from a random Pruefer sequence."""
    if n == 1:
        return []
    seq = [rng.randrange(n) for _ in range(n - 2)]
    degree = [1] * n
    for v in seq:
        degree[v] += 1
    leaves = [i for i in range(n) if degree[i] == 1]
    heapq.heapify(leaves)
    keys = []
    for v in seq:
        leaf = heapq.heappop(leaves)
        keys.append(leaf * n + v if leaf < v else v * n + leaf)
        degree[v] -= 1
        if degree[v] == 1:
            heapq.heappush(leaves, v)
    u, w = sorted(leaves)
    keys.append(u * n + w)
    return keys


def generate(kind, beta, h_spec=0.0, *, n=None, rows=None, cols=None, degree=None, seed=0):
    """A standard test topology with uniform coupling beta and the field h_spec:
    a number for every node, or ('single', i, v) for node i alone.

    Kinds: cycle (n), grid (rows x cols, row-major, node 0 at the bottom-left
    corner), random_regular (n, degree, seed), random_tree (n, seed), star (n).
    Randomized kinds are reproducible given the seed.

    Returns the model-file columns (n, nodes, fields, lo, hi, couplings): the
    node count, the nodes with a nonzero field and those fields, and the edges
    (lo, hi) in canonical order with their couplings. The checks are those of
    IsingModel, with a ModelError of the same message.
    """
    if beta < 0:
        raise ModelError(f"coupling beta must be nonnegative, got {beta}")
    # Checked before anything is allocated: numpy cannot size an (n, 2) int64
    # edge array past half the node bound of a model file.
    size = rows * cols if kind == "grid" and None not in (rows, cols) else n
    if size is not None and size > _MAX_NODES // 2:
        raise ModelError(f"{kind} node count must be at most {_MAX_NODES // 2}, got {size}")
    if kind in ("random_regular", "random_tree") and seed < 0:
        raise ModelError(f"{kind} needs a seed >= 0, got {seed}")
    # Each branch checks its sizes and gives the edge count m and a function
    # that lists the edges as keys lo * size + hi, so that sorting the keys
    # sorts the edges into canonical order.
    if kind == "cycle":
        if n is None or n < 3:
            raise ModelError("cycle needs n >= 3")
        m, edges = n, lambda: [i * (n + 1) + 1 for i in range(n - 1)] + [n - 1]
    elif kind == "grid":
        if rows is None or cols is None or rows < 1 or cols < 1:
            raise ModelError("grid needs rows >= 1 and cols >= 1")
        m = rows * (cols - 1) + cols * (rows - 1)
        edges = lambda: ([i * (size + 1) + 1 for i in range(size) if (i + 1) % cols]
                         + [i * (size + 1) + cols for i in range(size - cols)])
    elif kind == "random_regular":
        if n is None or degree is None:
            raise ModelError("random_regular needs n and degree")
        if n * degree % 2 != 0:
            raise ModelError(f"random_regular needs n*d even, got n={n}, d={degree}")
        if degree >= n:
            raise ModelError(f"random_regular needs d < n, got n={n}, d={degree}")
        if degree < 1:
            raise ModelError("random_regular needs d >= 1")
        m = n * degree // 2
        edges = lambda: _random_regular_keys(n, degree, random.Random(seed))
    elif kind == "random_tree":
        if n is None or n < 1:
            raise ModelError("random_tree needs n >= 1")
        m, edges = n - 1, lambda: _random_tree_keys(n, random.Random(seed))
    elif kind == "star":
        if n is None or n < 2:
            raise ModelError("star needs n >= 2")
        m, edges = n - 1, lambda: range(1, n)
    else:
        raise ModelError(f"unknown topology kind {kind!r}")
    # One request for the whole column, so that a size past memory fails
    # here at once, as numpy's arrays did, and not after lists grew to it.
    couplings = array("d", [float(beta) + 0.0]) * m
    keys = sorted(edges())
    lo = array("q", [k // size for k in keys])
    hi = array("q", [k % size for k in keys])
    nodes, fields = _field_columns(size, h_spec)
    _check_weights(sum(couplings), sum(map(abs, fields)),
                   next((h for h in fields if h < 0), None))
    return size, nodes, fields, lo, hi, couplings
