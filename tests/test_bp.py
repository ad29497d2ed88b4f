import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import chain2, cycle4, path3, random_ferro, random_tree, triangle
from isingvi import (DomainError, IsingModel, LocalDistribution,
                     beliefs_from_messages, bp_error_bound, bp_iterate,
                     bp_message_bound, bp_step, dual_bethe,
                     dual_bethe_gradient, exact_log_z, generate_topology,
                     local_consistency_check, mf_objective, node_estimates,
                     primal_bethe, region_membership)
from refimpl import fd_gradient, ref_bp_field, ref_dual_bethe


def test_step_by_hand():
    # path 0-1-2: message 0->1 depends only on h_0; 1->2 sees 0->1
    model = path3(0.5, 0.2)
    theta = math.tanh(0.5)
    nu = np.full(4, 0.3)
    out = bp_step(model, nu)
    d_01 = 0  # edges sorted: (0,1) then (1,2)
    assert out[d_01] == pytest.approx(math.tanh(0.2), abs=1e-15)
    d_12 = 2
    want = math.tanh(0.2 + math.atanh(theta * 0.3))
    assert out[d_12] == pytest.approx(want, abs=1e-15)


def test_dual_value_frozen():
    model = chain2(1.0, 0.0)
    assert dual_bethe(model, np.zeros(2)) == pytest.approx(
        math.log(4.0 * math.cosh(1.0)), abs=1e-12)
    for nu, term in (([-2.0, 0.5], "node term"), ([1.2, -1.2], "edge term"),
                     ([np.nan, 0.5], "node term"), ([1.5, 0.5], "node term")):
        with pytest.raises(DomainError, match=term):
            dual_bethe(model, np.array(nu))
    # tanh(20) is 1.0 in float64: messages of 1 give the node terms' exact
    # log(1 - tanh(J) nu) = log 0, which their log-sum-exp absorbs, so the
    # dual is log 2 + log cosh 20; tanh(J) nu = -1 is still refused, by name
    saturated = chain2(20.0, 0.0)
    assert dual_bethe(saturated, np.ones(2)) == pytest.approx(
        20.0 + math.log1p(math.exp(-40.0)), abs=1e-12)
    with pytest.raises(DomainError, match=r"^node term needs -1 < tanh\(J\) nu <= 1, got -1$"):
        dual_bethe(saturated, np.array([-1.0, 0.0]))


def test_dual_matches_reference(rng):
    for model in (chain2(0.7, 0.3), triangle(0.4, 0.1), cycle4(0.6, 0.0),
                  random_ferro(7, 11, rng)):
        for _ in range(8):
            nu = rng.uniform(-0.9, 0.9, size=2 * model.m)
            assert dual_bethe(model, nu) == pytest.approx(
                ref_dual_bethe(model, nu), abs=1e-11)


def test_dual_gradient_frozen():
    model = chain2(1.0, 0.0)
    g = dual_bethe_gradient(model, np.ones(2))
    want = -math.tanh(1.0) / (1.0 + math.tanh(1.0))
    assert np.allclose(g, want, atol=1e-14)


def test_dual_gradient_matches_fd(rng):
    model = cycle4(0.5, 0.2)
    for _ in range(15):
        nu = rng.uniform(0.05, 0.9, size=2 * model.m)
        g = dual_bethe_gradient(model, nu)
        g_fd = fd_gradient(lambda v: ref_dual_bethe(model, v), nu)
        assert np.allclose(g, g_fd, atol=1e-6)
        assert np.abs(g).max() <= 1.0 + 1e-12
    for bad in (-0.1, np.nan, 1.5):
        with pytest.raises(DomainError, match="^gradient requires"):
            dual_bethe_gradient(model, np.full(8, bad))


def test_iterate_tree_is_exact(rng):
    model = random_tree(9, rng)
    nu, trace = bp_iterate(model, max_steps=200, tol=1e-14)
    assert trace.converged
    exact = exact_log_z(model)
    assert trace.objective[-1] == pytest.approx(exact.log_z, abs=1e-9)
    assert np.allclose(node_estimates(model, nu), exact.node_means, atol=1e-9)


def test_iterate_monotone_from_ones():
    model = cycle4(0.7, 0.2)
    nu, trace = bp_iterate(model, init="ones", max_steps=300, tol=0.0)
    cur = np.ones(2 * model.m)
    for _ in range(40):
        nxt = bp_step(model, cur)
        assert np.all(nxt <= cur)
        cur = nxt
    assert np.diff(trace.objective).min() >= -1e-11


def test_iterate_from_zeros_increasing():
    model = cycle4(0.7, 0.2)
    cur = np.zeros(2 * model.m)
    for _ in range(40):
        nxt = bp_step(model, cur)
        assert np.all(nxt >= cur)
        cur = nxt
    nu_ones, t_ones = bp_iterate(model, init="ones", max_steps=2000, tol=1e-13)
    nu_zeros, t_zeros = bp_iterate(model, init="zeros", max_steps=2000, tol=1e-13)
    assert np.allclose(nu_ones, nu_zeros, atol=1e-10)
    assert t_ones.objective[-1] == pytest.approx(t_zeros.objective[-1], abs=1e-10)


def test_region_membership():
    model = cycle4(0.7, 0.2)
    nu1 = bp_step(model, np.ones(2 * model.m))
    r = region_membership(model, nu1)
    assert r.in_s_pre and not r.fixed_point
    r0 = region_membership(model, bp_step(model, np.zeros(2 * model.m)))
    assert r0.in_s_post
    nu_fix, _ = bp_iterate(model, max_steps=5000, tol=1e-15)
    rf = region_membership(model, nu_fix)
    assert rf.fixed_point
    assert abs(rf.slack).max() <= 1e-12


def test_region_membership_is_strict_about_fixed_points():
    """A fixed point is one that a step moves by at most 1e-12: messages 1e-9
    above the fixed point, which a step moves by ~5e-10, are not one."""
    model = cycle4(0.7, 0.2)
    nu_fix, _ = bp_iterate(model, max_steps=5000, tol=1e-15)
    near = region_membership(model, nu_fix + 1e-9)
    assert 1e-10 < abs(near.slack).max() < 1e-8
    assert near.in_s_pre and not near.fixed_point


def test_node_estimates_and_beliefs_zero_field():
    model = cycle4(0.9, 0.0)
    nu = np.zeros(2 * model.m)
    assert np.all(node_estimates(model, nu) == 0.0)
    dist = beliefs_from_messages(model, nu)
    assert np.allclose(dist.node_means, 0.0, atol=1e-15)
    assert np.allclose(dist.edge_stats[:, 2], math.tanh(0.9), atol=1e-14)


def test_beliefs_marginals_match_estimates_at_fixed_point():
    model = triangle(0.5, 0.3)
    nu, _ = bp_iterate(model, max_steps=5000, tol=1e-15)
    dist = beliefs_from_messages(model, nu)
    est = node_estimates(model, nu)
    assert np.allclose(dist.node_means, est, atol=1e-12)
    assert np.allclose(dist.edge_stats[:, 0], est[model.edges[:, 0]], atol=1e-12)
    assert np.allclose(dist.edge_stats[:, 1], est[model.edges[:, 1]], atol=1e-12)
    assert local_consistency_check(dist) <= 1e-12
    for bad in (1.0, np.nan):
        with pytest.raises(DomainError):
            beliefs_from_messages(model, np.full(2 * model.m, bad))


def test_primal_of_product_point_is_mf(rng):
    model = triangle(0.4, 0.2)
    for _ in range(10):
        x = rng.uniform(-0.8, 0.8, size=model.n)
        mi, mj = x[model.edge_i], x[model.edge_j]
        dist = LocalDistribution(node_means=x, edge_stats=np.stack([mi, mj, mi * mj], axis=1),
                                 edges=model.edges)
        assert primal_bethe(model, dist) == pytest.approx(
            mf_objective(model, x), abs=1e-12)


def test_primal_equals_dual_at_fixed_point():
    for model in (triangle(0.5, 0.3), cycle4(0.6, 0.1), path3(0.8, 0.4)):
        nu, trace = bp_iterate(model, max_steps=10**4, tol=1e-15)
        dist = beliefs_from_messages(model, nu)
        assert primal_bethe(model, dist) == pytest.approx(
            trace.objective[-1], abs=1e-9)
    # with no edges the nodes are independent: sum_i log 2 cosh h_i
    model = IsingModel(2, None, None, [0.4, 0.0])
    nu, _ = bp_iterate(model)
    assert primal_bethe(model, beliefs_from_messages(model, nu)) == pytest.approx(
        math.log(4.0 * math.cosh(0.4)), abs=1e-12)


def test_local_consistency_violation_frozen():
    model = chain2(0.5, 0.0)
    dist = LocalDistribution(node_means=np.array([0.0, 0.5]),
                             edge_stats=np.array([[0.0, 0.5, 1.0]]),
                             edges=model.edges.copy())
    # cell (+,-) = (1 + 0.0 - 0.5 - 1.0)/4 = -0.125 and means agree
    assert local_consistency_check(dist) == pytest.approx(0.125, abs=1e-15)
    with pytest.raises(DomainError, match="^local polytope violation"):
        primal_bethe(model, dist)
    # a consistent distribution whose shape or edges are not the model's
    ok = dict(node_means=np.zeros(2), edge_stats=np.zeros((1, 3)), edges=model.edges.copy())
    for bad, what in ((dict(node_means=np.zeros(3)), "shape"),
                      (dict(edge_stats=np.zeros((2, 3))), "shape"),
                      (dict(edges=np.array([[1, 0]])), "edges")):
        with pytest.raises(DomainError, match=f"^distribution {what} do(es)? not match"):
            primal_bethe(model, LocalDistribution(**{**ok, **bad}))


def test_primal_refuses_a_small_local_polytope_violation():
    """primal_bethe evaluates members of the local polytope only, to 1e-9: node
    means that disagree with their edges' pair marginals by 2e-6 (a violation
    of 1e-6) are refused, and the same beliefs unperturbed are accepted."""
    model = triangle(0.5, 0.3)
    nu, _ = bp_iterate(model, max_steps=5000, tol=1e-15)
    dist = beliefs_from_messages(model, nu)
    primal_bethe(model, dist)
    dist.node_means[0] += 2e-6
    assert local_consistency_check(dist) == pytest.approx(1e-6, rel=1e-3)
    with pytest.raises(DomainError, match="^local polytope violation"):
        primal_bethe(model, dist)


def test_error_bound_values():
    norms = cycle4(1.0, 0.0).norms()
    assert norms.m == 4 and norms.n == 4 and norms.j_linf == 1.0
    assert bp_error_bound(norms, 8) == pytest.approx(math.sqrt(32.0), abs=1e-12)
    assert bp_error_bound(norms, 10) == pytest.approx(math.sqrt(8 * 4 * 4 * 2.0 / 10),
                                                      abs=1e-12)
    assert bp_error_bound(norms, 0) == math.inf
    bounds = bp_error_bound(norms, np.array([0, 8, 10]))
    assert bounds[0] == math.inf
    assert bounds[1:].tolist() == [bp_error_bound(norms, 8), bp_error_bound(norms, 10)]
    l1 = bp_message_bound(norms, 10, h_min=0.5)
    assert l1 == pytest.approx(2 * 4 * 2.0 / (math.tanh(0.5) * 10), abs=1e-12)
    with pytest.raises(DomainError):
        bp_message_bound(norms, 0, h_min=0.5)
    with pytest.raises(DomainError):
        bp_message_bound(norms, 5, h_min=0.0)


def test_cycle_messages_closed_form():
    model = generate_topology("cycle", 0.55, 0.0, n=6)
    theta = math.tanh(0.55)
    nu = np.ones(2 * model.m)
    for t in range(1, 30):
        nu = bp_step(model, nu)
        assert np.allclose(nu, theta ** t, atol=1e-13, rtol=0)


_SWEEP_MODELS = {
    # the 9,604 degree-4 nodes span ten exclusion blocks
    "grid100x100": lambda: generate_topology("grid", 0.3, 0.05, rows=100, cols=100),
    # degree-1 blocks, whose sums have no terms
    "star50": lambda: generate_topology("star", 0.4, 0.05, n=50),
    "tree": lambda: generate_topology("random_tree", 0.5, 0.05, n=60, seed=3),
    "isolated": lambda: IsingModel(7, np.array([[1, 4], [4, 6], [1, 6], [2, 4]]),
                                   np.full(4, 0.3), np.linspace(0.0, 0.6, 7)),
}


@pytest.mark.parametrize("init", ["ones", "zeros", "random"])
@pytest.mark.parametrize("name", sorted(_SWEEP_MODELS))
def test_sweep_equals_iterated_bp_step(name, init):
    """bp_iterate, whose field overwrites its own arctanh scratch, equals
    bitwise an independent iteration of the public bp_step, with record on
    and off: the messages, the step_inf and dual columns, steps and
    converged. Starts: ones, zeros and a random init in [-1, 1], whose steps
    are not monotone. bp_step returns a fresh array and leaves its input
    unwritten."""
    model = _SWEEP_MODELS[name]()
    size = 2 * model.m
    start = {"ones": np.ones(size), "zeros": np.zeros(size),
             "random": np.random.default_rng(11).uniform(-1.0, 1.0, size)}[init]
    tol, max_steps = 1e-9, 30
    x, steps, duals = start.copy(), [math.nan], [dual_bethe(model, start)]
    while len(steps) <= max_steps and not steps[-1] < tol:
        before = x.copy()
        nxt = bp_step(model, x)
        assert not np.shares_memory(nxt, x) and x.tobytes() == before.tobytes()
        steps.append(float(np.max(np.abs(nxt - x), initial=0.0)))
        x = nxt
        duals.append(dual_bethe(model, x))
    arg = start if init == "random" else init
    nu, trace = bp_iterate(model, init=arg, max_steps=max_steps, tol=tol)
    assert nu.tobytes() == x.tobytes()
    assert trace.step_inf.tobytes() == np.array(steps).tobytes()
    assert trace.objective.tobytes() == np.array(duals).tobytes()
    assert trace.steps == len(steps) - 1 and trace.converged == (steps[-1] < tol)
    nu_off, off = bp_iterate(model, init=arg, max_steps=max_steps, tol=tol, record=False)
    assert nu_off.tobytes() == x.tobytes()
    assert off.step_inf.tobytes() == np.array(steps[-1:]).tobytes()
    assert off.steps == trace.steps and off.converged == trace.converged
    assert np.isnan(off.objective).all()


def test_custom_init_array():
    model = path3(0.5, 0.2)
    nu0 = np.full(4, 0.25)
    nu, trace = bp_iterate(model, init=nu0, max_steps=60, tol=0.0)
    cur = nu0.copy()
    for _ in range(60):
        cur = bp_step(model, cur)
    assert np.allclose(cur, nu, atol=1e-13, rtol=0)
    assert trace.steps == 60
    with pytest.raises(DomainError):
        bp_iterate(model, init=np.full(4, 1.5))


def test_single_node_and_empty_graph():
    lonely = IsingModel(1, None, None, np.array([0.8]))
    nu, trace = bp_iterate(lonely, max_steps=5, tol=1e-12)
    assert nu.shape == (0,)
    assert trace.objective[-1] == pytest.approx(
        math.log(2 * math.cosh(0.8)), abs=1e-14)
    assert node_estimates(lonely, nu)[0] == pytest.approx(math.tanh(0.8), abs=1e-15)


def test_saturated_coupling_is_finite_and_warning_free():
    # tanh(40) == 1.0 in float64: messages saturate at the all-ones start
    model = generate_topology("grid", 40.0, 0.0, rows=3, cols=3)
    assert model.theta.max() == 1.0
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        nu, trace = bp_iterate(model, max_steps=30, tol=0.0, record=True)
        nu_fast, trace_fast = bp_iterate(model, max_steps=30, tol=0.0, record=False)
        cur = np.ones(2 * model.m)
        for _ in range(30):
            cur = bp_step(model, cur)
    assert trace.steps == trace_fast.steps == 30
    assert np.all(np.isfinite(nu)) and np.array_equal(nu, nu_fast)
    assert np.all(np.isfinite(trace.objective))
    assert np.array_equal(cur, nu)


@settings(deadline=None, max_examples=25)
@given(st.integers(0, 10**6))
def test_step_is_monotone_map_on_box(seed):
    r = np.random.default_rng(seed)
    model = random_ferro(5, 7, r)
    lo = r.uniform(0, 1, size=2 * model.m)
    hi = np.minimum(lo + r.uniform(0, 0.5, size=2 * model.m), 1.0)
    assert np.all(bp_step(model, lo) <= bp_step(model, hi))


@settings(derandomize=True, max_examples=150)
@given(st.data())
def test_step_sums_in_ascending_id_order(data):
    """bp_step is bitwise tanh of the reference field, whose exclusion sums
    start from 0.0 and add the excluded in-edges in ascending id order, with
    no RuntimeWarning (an error under the test configuration). Models: any
    edge subset of n <= 10 nodes (isolated nodes, leaves, n = 1 and m = 0
    included) or a star; couplings include J = 0, where a negative message
    gives theta nu = -0.0, and J whose tanh rounds to 1.0."""
    n = data.draw(st.integers(1, 10), label="n")
    if n > 1 and data.draw(st.booleans(), label="star"):
        edges = [(0, k) for k in range(1, n)]
    else:
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        keep = data.draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
        edges = [p for p, k in zip(pairs, keep) if k]
    m = len(edges)
    magnitude = st.one_of(st.sampled_from([0.0, 19.5, 40.0]), st.floats(0.0, 40.0))
    model = IsingModel(n, np.array(edges, dtype=np.int64).reshape(-1, 2),
                       data.draw(st.lists(magnitude, min_size=m, max_size=m)),
                       data.draw(st.lists(magnitude, min_size=n, max_size=n)))
    nu = np.array(data.draw(st.lists(st.floats(-1.0, 1.0), min_size=2 * m, max_size=2 * m)))
    want = np.tanh(ref_bp_field(model, nu))
    assert np.array_equal(bp_step(model, nu).view(np.int64), want.view(np.int64))
