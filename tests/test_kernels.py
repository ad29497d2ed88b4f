import tracemalloc

import numpy as np
import pytest

from conftest import small_grid
from isingvi import DomainError, bp_iterate, mf_iterate


def test_record_false_skips_objective():
    model = small_grid(3, 3, 0.4, 0.1)
    _x, trace = mf_iterate(model, max_steps=100, tol=0.0, record=False)
    assert np.isnan(trace.objective[1:]).all()
    _nu, traceb = bp_iterate(model, max_steps=100, tol=0.0, record=False)
    assert np.isnan(traceb.objective[1:]).all()


def test_trace_memory_follows_steps_taken():
    model = small_grid(3, 3, 0.4, 0.1)
    tracemalloc.start()
    try:
        for record in (True, False):
            mf_iterate(model, max_steps=10**7, record=record)
            bp_iterate(model, max_steps=10**7, record=record)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1e6


@pytest.mark.parametrize("iterate, size", [(mf_iterate, lambda m: m.n),
                                           (bp_iterate, lambda m: 2 * m.m)])
def test_iterate_rejects_bad_arguments(iterate, size):
    model = small_grid(3, 3, 0.4, 0.1)
    n = size(model)
    for init in ("twos", np.ones(n + 1), np.full(n, 0.5).reshape(1, n),
                 np.concatenate([np.ones(n - 1), [1.5]])):
        with pytest.raises(DomainError):
            iterate(model, init=init)
    with pytest.raises(DomainError):
        iterate(model, max_steps=0)
    with pytest.raises(DomainError):
        iterate(model, tol=-1.0)
    x, _ = iterate(model, init=np.full(n, -1.0), max_steps=3)
    assert x.shape == (n,)
