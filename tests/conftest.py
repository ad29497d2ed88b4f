import io
import os
import tempfile
import tracemalloc

import numpy as np
import pytest
from hypothesis import settings

from isingvi import IsingModel, generate_topology

# Property tests draw the same examples on every run and keep no example
# database, so a Tier-1 result does not depend on earlier runs. Hypothesis
# still caches source constants; they go to the temp directory, not the
# checkout.
os.environ.setdefault("HYPOTHESIS_STORAGE_DIRECTORY",
                      os.path.join(tempfile.gettempdir(), "isingvi-hypothesis"))
settings.register_profile("tier1", derandomize=True, database=None, deadline=None)
settings.load_profile("tier1")


def peak_bytes(fn, *args):
    """Call fn(*args) under tracemalloc; return (its result, the peak bytes
    traced during the call)."""
    tracemalloc.start()
    try:
        result = fn(*args)
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def text_of(write, *args) -> str:
    """The text that the artifact writer write(*args, out) writes to out."""
    out = io.StringIO()
    write(*args, out)
    return out.getvalue()


def chain2(beta=1.0, h=0.0):
    return IsingModel(2, np.array([[0, 1]]), np.array([beta]), np.full(2, float(h)))


def path3(beta=0.5, h=0.2):
    return IsingModel(3, np.array([[0, 1], [1, 2]]), np.full(2, beta),
                      np.full(3, float(h)))


def triangle(beta=0.4, h=0.1):
    return IsingModel(3, np.array([[0, 1], [0, 2], [1, 2]]), np.full(3, beta),
                      np.full(3, float(h)))


def cycle4(beta=0.4, h=0.1):
    return IsingModel(4, np.array([[0, 1], [1, 2], [2, 3], [0, 3]]),
                      np.full(4, beta), np.full(4, float(h)))


def star5(beta=0.3, h=0.2):
    edges = np.array([[0, k] for k in range(1, 5)])
    return IsingModel(5, edges, np.full(4, beta), np.full(5, float(h)))


def random_tree(n, rng, j_lo=0.1, j_hi=2.0, h_lo=0.0, h_hi=1.0):
    """Tree with node k attached to a random earlier node, random weights."""
    edges = [[int(rng.integers(0, k)), k] for k in range(1, n)]
    couplings = rng.uniform(j_lo, j_hi, size=n - 1)
    fields = rng.uniform(h_lo, h_hi, size=n)
    return IsingModel(n, np.array(edges), couplings, fields)


def random_ferro(n, m, rng, j_hi=1.0, h_hi=0.8):
    """Random simple graph with m edges, nonnegative couplings and fields."""
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    idx = rng.choice(len(pairs), size=min(m, len(pairs)), replace=False)
    edges = np.array([pairs[k] for k in sorted(idx)])
    couplings = rng.uniform(0.05, j_hi, size=len(edges))
    fields = rng.uniform(0.0, h_hi, size=n)
    return IsingModel(n, edges, couplings, fields)


def small_grid(rows, cols, beta=0.3, h=0.1):
    return generate_topology("grid", beta, h, rows=rows, cols=cols)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
