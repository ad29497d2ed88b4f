from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import peak_bytes, small_grid
from isingvi import (DomainError, IsingModel, _kernels, bp_iterate, bp_step, dual_bethe,
                     generate_topology, mf_iterate, mf_objective, mf_step, node_estimates,
                     separation_oracle_bp, separation_oracle_mf)
from isingvi.model import _BLOCK


def test_record_false_skips_objective():
    model = small_grid(3, 3, 0.4, 0.1)
    _x, trace = mf_iterate(model, max_steps=100, tol=0.0, record=False)
    assert trace.objective.shape == (1,) and np.isnan(trace.objective).all()
    _nu, traceb = bp_iterate(model, max_steps=100, tol=0.0, record=False)
    assert traceb.objective.shape == (1,) and np.isnan(traceb.objective).all()


@pytest.mark.parametrize("record", [True, False])
@pytest.mark.parametrize("iterate,field_map", [(mf_iterate, "_mf_field_map"),
                                               (bp_iterate, "_bp_field_map")])
def test_sweep_evaluates_field_once_per_step(monkeypatch, iterate, field_map, record):
    calls = []
    make = getattr(_kernels, field_map)

    def counting(model):
        field = make(model)
        return lambda x: calls.append(1) or field(x)

    monkeypatch.setattr(_kernels, field_map, counting)
    _state, trace = iterate(small_grid(3, 3, 0.4, 0.1), max_steps=100, tol=1e-9, record=record)
    assert trace.steps > 1 and len(calls) == trace.steps


def test_trace_memory_follows_steps_taken():
    model = small_grid(3, 3, 0.4, 0.1)

    def to_tol():
        for record in (True, False):
            mf_iterate(model, max_steps=10**7, record=record)
            bp_iterate(model, max_steps=10**7, record=record)

    def unrecorded():
        for iterate in (mf_iterate, bp_iterate):
            iterate(model, max_steps=2 * 10**4, tol=0.0, record=False)

    assert peak_bytes(to_tol)[1] < 1e6
    # a run that records nothing keeps its final row alone: one column of
    # 2*10^4 steps would take 160 KB
    assert peak_bytes(unrecorded)[1] < 64 * 1024


def test_bp_working_set_per_directed_edge():
    """A fresh model, its exclusion index and a recorded BP run to tol 1e-10
    on a 100x100 grid peak at 8.1 float64 arrays of one entry per directed
    edge (7.84 measured): the index holds one entry per directed edge, tanh(J)
    is kept once per edge, and a step gathers one block of the index at a
    time."""
    bp_iterate(generate_topology("grid", 0.3, 0.05, rows=2, cols=2))  # lazy imports

    def build_and_run():
        model = generate_topology("grid", 0.3, 0.05, rows=100, cols=100)
        bp_iterate(model, tol=1e-10)
        return model

    model, peak = peak_bytes(build_and_run)
    assert peak <= 8.1 * 16 * model.m, peak / (16 * model.m)


@pytest.mark.parametrize("iterate, arrays", [(bp_iterate, 2.65), (mf_iterate, 2.0)])
def test_sweep_working_set_per_directed_edge(iterate, arrays):
    """A recorded sweep to tol 1e-10 on a 100x100 grid, over what the model
    holds once a one-step run has built its index and per-edge arrays, peaks
    below `arrays` float64 arrays of one entry per directed edge (measured:
    BP 2.52, the dual's two whole-graph arrays with two node arrays, and MF
    1.76). A read-only index given to np.bincount raises MF's to 2.51, and a
    BP step that sums each degree class in one block raises BP's to 4.92."""
    model = generate_topology("grid", 0.3, 0.05, rows=100, cols=100)
    iterate(model, max_steps=1)
    _, peak = peak_bytes(iterate, model)
    assert peak <= arrays * 16 * model.m, peak / (16 * model.m)


def test_step_sums_a_degree_class_in_blocks(monkeypatch):
    """On a 100x100 grid the 9,604 degree-4 nodes span ten blocks of at most
    _BLOCK nodes; bp_step equals, bitwise, the step that sums each
    degree class in one block."""
    model = generate_topology("grid", 0.3, 0.05, rows=100, cols=100)
    shapes = [out.shape for out, _ in model.exclusion_index()]
    assert [k for k, _ in shapes] == [2, 3] + [4] * 10
    assert max(size for _, size in shapes) == _BLOCK
    nu = np.random.default_rng(7).uniform(-1.0, 1.0, 2 * model.m)
    blocked = bp_step(model, nu)
    monkeypatch.setattr("isingvi.model._BLOCK", 10**4)
    whole = generate_topology("grid", 0.3, 0.05, rows=100, cols=100)
    assert [out.shape for out, _ in whole.exclusion_index()] == [(2, 4), (3, 392), (4, 9604)]
    assert bp_step(whole, nu).tobytes() == blocked.tobytes()


def test_bincount_reads_writable_indices(monkeypatch):
    """np.bincount copies a read-only index array whole, so every sweep, dual,
    estimate and cut passes the model's writable index arrays; callers still
    get read-only ones."""
    model = small_grid(4, 4, 0.3, 0.1)
    for name in ("dir_src", "dir_dst", "edges", "edge_i", "edge_j"):
        assert not getattr(model, name).flags.writeable, name
    calls, bincount = [], np.bincount

    def checked(x, *args, **kwargs):
        calls.append(x.flags.writeable)
        return bincount(x, *args, **kwargs)

    monkeypatch.setattr(np, "bincount", checked)
    nu = np.full(2 * model.m, 0.5)
    for run in (partial(bp_iterate, model, max_steps=5), partial(mf_iterate, model, max_steps=5),
                partial(dual_bethe, model, nu), partial(node_estimates, model, nu),
                partial(separation_oracle_bp, model, np.ones(2 * model.m)),
                partial(separation_oracle_mf, model, np.ones(model.n))):
        called = len(calls)
        run()
        assert len(calls) > called and all(calls), run


@pytest.mark.parametrize("iterate, size", [(mf_iterate, lambda m: m.n),
                                           (bp_iterate, lambda m: 2 * m.m)])
def test_iterate_rejects_bad_arguments(iterate, size):
    model = small_grid(3, 3, 0.4, 0.1)
    n = size(model)
    for init in ("twos", np.ones(n + 1), np.full(n, 0.5).reshape(1, n),
                 np.concatenate([np.ones(n - 1), [1.5]]),
                 np.concatenate([np.ones(n - 1), [np.nan]])):
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
    public one-step functions: the recorded objective at x_t, the sup-norm
    step, and the final row of the same run with record off."""
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
        assert np.array_equal(state, x)
        assert trace.converged == (trace.step_inf[-1] < tol)
        state_off, trace_off = iterate(model, max_steps=40, tol=tol, record=False)
        assert np.array_equal(state_off, state)
        assert trace_off.steps == trace.steps
        assert trace_off.step_inf.tobytes() == trace.step_inf[-1:].tobytes()
        assert trace_off.converged == trace.converged
