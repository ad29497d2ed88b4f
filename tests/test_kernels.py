import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import small_grid
from isingvi import (DomainError, IsingModel, bp_iterate, bp_step, dual_bethe,
                     mf_gradient, mf_iterate, mf_objective, mf_step)


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


_UNIT = st.floats(0.0, 1.0)


@settings(max_examples=60)
@given(st.data())
def test_sweep_matches_one_step_functions(data):
    """The sweep shared by MF and BP, pinned bitwise at every step against the
    public one-step functions: the recorded objective (and MF's gradient l1
    norm) at x_t, the sup-norm step, and the same run with record off."""
    n = data.draw(st.integers(1, 8), label="n")
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    keep = data.draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    edges = [p for p, k in zip(pairs, keep) if k]
    m = len(edges)
    model = IsingModel(n, np.array(edges, dtype=np.int64).reshape(-1, 2),
                       data.draw(st.lists(_UNIT, min_size=m, max_size=m)),
                       data.draw(st.lists(_UNIT, min_size=n, max_size=n)))
    tol = data.draw(st.sampled_from([0.0, 1e-9]), label="tol")
    for iterate, step, objective in ((mf_iterate, mf_step, mf_objective),
                                     (bp_iterate, bp_step, dual_bethe)):
        state, trace = iterate(model, max_steps=40, tol=tol)
        x = np.ones(n if iterate is mf_iterate else 2 * m)
        for t in range(trace.steps + 1):
            if t:
                x, prev = step(model, x), x
                assert trace.step_inf[t] == float(np.max(np.abs(x - prev), initial=0.0))
            assert trace.objective[t] == objective(model, x), t
            if iterate is mf_iterate and float(np.max(np.abs(x))) < 1.0:
                assert trace.grad_l1[t] == float(np.abs(mf_gradient(model, x)).sum()), t
        assert np.array_equal(state, x)
        assert trace.converged == (trace.step_inf[-1] < tol)
        state_off, trace_off = iterate(model, max_steps=40, tol=tol, record=False)
        assert np.array_equal(state_off, state)
        assert np.array_equal(trace_off.step_inf, trace.step_inf, equal_nan=True)
        assert trace_off.converged == trace.converged
