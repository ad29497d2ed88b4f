import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import chain2, path3, random_ferro, triangle
from isingvi import (DomainError, bernoulli_entropy, mf_error_bound,
                     mf_gradient, mf_iterate, mf_objective, mf_step)
from refimpl import bisect_root, fd_gradient, ref_mf_objective


def test_bernoulli_entropy_values():
    assert bernoulli_entropy(np.array([0.0]))[0] == pytest.approx(math.log(2), abs=1e-15)
    assert bernoulli_entropy(np.array([1.0]))[0] == 0.0
    assert bernoulli_entropy(np.array([-1.0]))[0] == 0.0
    # H((1+x)/2) with x = 0.5 -> p = 0.75
    want = -(0.75 * math.log(0.75) + 0.25 * math.log(0.25))
    assert bernoulli_entropy(np.array([0.5]))[0] == pytest.approx(want, abs=1e-15)


def test_objective_matches_reference(rng):
    for model in (chain2(1.0, 0.0), triangle(0.4, 0.1), random_ferro(8, 13, rng)):
        for _ in range(10):
            x = rng.uniform(-0.99, 0.99, size=model.n)
            assert mf_objective(model, x) == pytest.approx(
                ref_mf_objective(model, x), abs=1e-12)


def test_objective_at_endpoints():
    model = chain2(1.0, 0.5)
    # all-ones configuration: energy 1 + 1, zero entropy
    assert mf_objective(model, np.ones(2)) == pytest.approx(2.0, abs=1e-15)
    for x in ([1.0, 1.5], [1.0, np.nan]):
        with pytest.raises(DomainError):
            mf_objective(model, np.array(x))


def test_gradient_matches_fd(rng):
    model = triangle(0.5, 0.2)
    for _ in range(20):
        x = rng.uniform(-0.9, 0.9, size=model.n)
        g = mf_gradient(model, x)
        g_fd = fd_gradient(lambda v: ref_mf_objective(model, v), x)
        assert np.allclose(g, g_fd, atol=1e-6)
    for x in ([0.0, 1.0, 0.0], [0.0, np.nan, 0.0]):
        with pytest.raises(DomainError):
            mf_gradient(model, np.array(x))


def test_step_formula(rng):
    model = path3(0.5, 0.2)
    x = rng.uniform(-0.9, 0.9, size=3)
    j, h = model.couplings, model.fields
    want = np.tanh(np.array([j[0] * x[1], j[0] * x[0] + j[1] * x[2], j[1] * x[1]]) + h)
    assert np.array_equal(mf_step(model, x), want)


def test_iterate_monotone_from_ones():
    model = triangle(0.6, 0.15)
    x, trace = mf_iterate(model, init="ones", max_steps=400, tol=0.0)
    # coordinatewise non-increasing, exactly, from the all-ones start
    cur = np.ones(model.n)
    for _ in range(trace.steps):
        nxt = mf_step(model, cur)
        assert np.all(nxt <= cur)
        cur = nxt
    # the kernel trajectory is the step function's, exactly
    assert np.array_equal(cur, x)
    diffs = np.diff(trace.objective)
    assert diffs.min() >= -1e-11
    assert trace.t[0] == 0 and math.isnan(trace.step_inf[0])


def test_iterate_converges_to_fixed_point():
    model = triangle(1.0, 0.0)
    x, trace = mf_iterate(model, max_steps=10**5, tol=1e-13)
    assert trace.converged
    # symmetric fixed point solves x = tanh(2x)
    root = bisect_root(lambda v: math.tanh(2.0 * v) - v, 0.5, 0.999)
    assert np.allclose(x, root, atol=1e-10)
    assert np.abs(mf_step(model, x) - x).max() < 1e-12


def test_iterate_record_false():
    model = triangle(0.6, 0.15)
    x1, t1 = mf_iterate(model, max_steps=200, tol=1e-12, record=False)
    x2, t2 = mf_iterate(model, max_steps=200, tol=1e-12, record=True)
    assert np.array_equal(x1, x2)
    assert t1.steps == t2.steps
    assert np.array_equal(t1.t, [t2.steps]) and np.isnan(t1.objective).all()
    assert t1.step_inf[0] == t2.step_inf[-1]
    assert not np.isnan(t2.objective).any()


def test_iterate_custom_init():
    model = path3(0.4, 0.3)
    x0 = np.full(3, 0.5)
    x, trace = mf_iterate(model, init=x0, max_steps=50, tol=0.0)
    assert trace.steps == 50
    cur = x0.copy()
    for _ in range(50):
        cur = mf_step(model, cur)
    assert np.allclose(cur, x, atol=1e-13, rtol=0)


def test_error_bound_values():
    norms = chain2(1.0, 0.0).norms()
    assert norms.j_l1 == 2.0 and norms.h_l1 == 0.0
    assert mf_error_bound(norms, 1) == 2.0           # linear branch, S=2
    n8 = chain2(4.0, 0.0).norms()                    # S = 8
    assert mf_error_bound(n8, 16) == 0.5             # (8/8)^(4/3) = 1 > 8/16
    b = mf_error_bound(n8, 10**4)
    assert b == pytest.approx((8.0 / 5000.0) ** (4.0 / 3.0), rel=1e-12)
    assert b < 8e-4
    assert mf_error_bound(norms, 0) == math.inf
    bounds = mf_error_bound(n8, np.array([0, 1, 16, 10**4]))
    assert bounds.tolist() == [math.inf, 8.0, 0.5, b]


def test_bound_monotone_in_t():
    norms = triangle(0.7, 0.3).norms()
    vals = [mf_error_bound(norms, t) for t in range(1, 200)]
    assert all(a >= b for a, b in zip(vals, vals[1:]))


@settings(deadline=None, max_examples=25)
@given(st.integers(0, 10**6))
def test_step_is_monotone_map(seed):
    r = np.random.default_rng(seed)
    model = random_ferro(5, 6, r)
    x = r.uniform(-1, 1, size=5)
    y = np.minimum(x + r.uniform(0, 0.5, size=5), 1.0)
    sx, sy = mf_step(model, x), mf_step(model, y)
    assert np.all(sx <= sy)
