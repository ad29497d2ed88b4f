import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import (chain2, path3, peak_bytes, random_ferro, random_tree, star5, text_of,
                      triangle)
from isingvi import (IsingModel, SizeGuardError, bp_iterate,
                     brute_force_bethe_optimum, brute_force_mf_optimum,
                     exact_log_z, exact_result_from_csv, exact_result_to_csv,
                     generate_topology, mf_iterate, model_hash, primal_bethe)
from isingvi import oracle
from isingvi.oracle import _edge_term
from refimpl import cycle_log_z, golden_max, ref_moments


def random_chain(n, rng):
    edges = np.array([[k, k + 1] for k in range(n - 1)])
    return IsingModel(n, edges, rng.uniform(0.1, 1.5, size=n - 1),
                      rng.uniform(0.0, 0.7, size=n))


def test_exact_matches_enumeration(rng):
    # two triangles and an isolated node: the order restarts with no frontier
    apart = IsingModel(7, np.array([[0, 1], [1, 2], [0, 2], [3, 4], [4, 5], [3, 5]]),
                       np.linspace(0.2, 1.2, 6), np.linspace(0.0, 0.6, 7))
    for model in (chain2(1.0, 0.0), triangle(0.4, 0.1), star5(0.3, 0.2),
                  random_ferro(6, 9, rng), random_tree(7, rng), random_chain(8, rng),
                  apart):
        result = exact_log_z(model)
        log_z, means, corrs = ref_moments(model)
        assert result.log_z == pytest.approx(log_z, abs=1e-11)
        assert np.allclose(result.node_means, means, atol=1e-11)
        assert np.allclose(result.edge_correlations, corrs, atol=1e-11)


def test_exact_single_node():
    model = IsingModel(1, None, None, np.array([0.7]))
    result = exact_log_z(model)
    assert result.log_z == pytest.approx(math.log(2 * math.cosh(0.7)), abs=1e-14)
    assert result.node_means[0] == pytest.approx(math.tanh(0.7), abs=1e-14)


@pytest.mark.parametrize("n, j, h", [(3, 3.0, 0.5), (7, 3.0, 0.5), (17, 3.0, 0.5),
                                     (3000, 0.6, 0.5), (3000, 0.3, 0.0)])
def test_exact_cycle_closed_form(n, j, h):
    log_z = exact_log_z(generate_topology("cycle", j, h, n=n)).log_z
    assert log_z == pytest.approx(cycle_log_z(n, j, h), rel=1e-13, abs=0)


@pytest.mark.parametrize("topology", [dict(kind="grid", rows=40, cols=40),
                                      dict(kind="random_regular", n=200, degree=3)])
def test_size_guard_fires_before_any_table(topology, monkeypatch):
    """The guard fires while the cliques are worked out from the graph: after
    at most 64 elimination steps (each sorts its clique once; 42 on the grid,
    34 on the regular graph), before any table exists (no spin factor is
    made), with a peak below 5 MB."""
    model = generate_topology(beta=0.3, **topology)
    sorts, spins = [], []
    monkeypatch.setattr(oracle, "sorted", lambda *args, **kw: sorts.append(1) or sorted(
        *args, **kw), raising=False)
    monkeypatch.setattr(oracle, "_spin", lambda *args: spins.append(args))
    _, peak = peak_bytes(pytest.raises, SizeGuardError, exact_log_z, model)
    steps = len(sorts) - 1  # one sort orders the nodes by degree
    assert not spins and 0 < steps <= 64, (len(spins), steps)
    assert peak < 5e6


def test_size_guard(monkeypatch):
    # any order of a triangle adds bags of 1, 2 and 3 nodes: 2 + 4 + 8 entries
    small = triangle(0.4, 0.1)
    monkeypatch.setattr(oracle, "_TABLE_BUDGET", 13)
    with pytest.raises(SizeGuardError):
        exact_log_z(small)
    monkeypatch.setattr(oracle, "_TABLE_BUDGET", 14)
    assert math.isfinite(exact_log_z(small).log_z)
    monkeypatch.undo()
    for model in (generate_topology("random_tree", 0.3, 0.0, n=200, seed=0),
                  generate_topology("grid", 0.1, 0.0, rows=5, cols=5)):
        result = exact_log_z(model)
        assert math.isfinite(result.log_z)
        assert np.all(np.abs(result.node_means) <= 1.0)


def test_size_guard_on_a_tree(monkeypatch):
    # a tree eliminates with cliques of 2 and one root clique of 1: 4(n-1) + 2
    # entries, where the greedy order alone needs 57,277,694 on this tree
    tree = generate_topology("random_tree", 0.3, 0.1, n=5000, seed=0)
    monkeypatch.setattr(oracle, "_TABLE_BUDGET", 19997)
    with pytest.raises(SizeGuardError):
        exact_log_z(tree)
    monkeypatch.setattr(oracle, "_TABLE_BUDGET", 19998)
    assert math.isfinite(exact_log_z(tree).log_z)


def test_exact_saturated_model_is_finite():
    # every state but all-plus underflows to weight 0: no overflow, and no 0/0
    # in the backward pass
    result = exact_log_z(path3(400.0, 800.0))
    assert result.log_z == pytest.approx(2 * 400.0 + 3 * 800.0, rel=1e-15)
    assert np.array_equal(result.node_means, np.ones(3))
    assert np.array_equal(result.edge_correlations, np.ones(2))


@given(st.integers(1, 10), st.integers(0, 45), st.integers(0, 10**6))
def test_mf_bethe_log_z_ordering(n, m, seed):
    # MF* <= Bethe* <= log Z for ferromagnetic models, both solvers from all-ones
    model = random_ferro(n, min(m, n * (n - 1) // 2), np.random.default_rng(seed))
    log_z = exact_log_z(model).log_z
    _x, mf = mf_iterate(model, max_steps=10**5, tol=1e-14)
    _nu, bp = bp_iterate(model, max_steps=10**5, tol=1e-14)
    assert mf.converged and bp.converged
    slack = 1e-12 * max(1.0, abs(log_z))
    assert mf.objective[-1] <= bp.objective[-1] + slack
    assert bp.objective[-1] <= log_z + slack


def test_mf_bethe_log_z_ordering_on_a_strip():
    # MF* <= Bethe* <= log Z on a 100x10 strip near criticality (n = 1000) and
    # on a random tree of 10^4 nodes
    for name, model in (
            ("strip", generate_topology("grid", 0.34, 0.01, rows=100, cols=10)),
            ("tree", generate_topology("random_tree", 0.6, 0.1, n=10**4, seed=1))):
        log_z = exact_log_z(model).log_z
        _x, mf = mf_iterate(model, max_steps=10**5, tol=1e-13)
        _nu, bp = bp_iterate(model, max_steps=10**5, tol=1e-13)
        assert mf.converged and bp.converged
        slack = 1e-12 * max(1.0, abs(log_z))
        print(f"{name} n={model.n}: (log Z - Bethe*)/n "
              f"{(log_z - bp.objective[-1]) / model.n:.3g}, (Bethe* - MF*)/n "
              f"{(bp.objective[-1] - mf.objective[-1]) / model.n:.3g}, "
              f"MF {mf.steps} steps, BP {bp.steps} steps")
        assert mf.objective[-1] <= bp.objective[-1] + slack
        assert bp.objective[-1] <= log_z + slack


def test_brute_force_mf_single_node():
    model = IsingModel(1, None, None, np.array([0.6]))
    x, value = brute_force_mf_optimum(model)
    assert x[0] == pytest.approx(math.tanh(0.6), abs=1e-7)
    assert value == pytest.approx(math.log(2 * math.cosh(0.6)), abs=1e-10)


def test_brute_force_mf_matches_iteration():
    for model in (chain2(0.4, 0.2), path3(0.5, 0.3), triangle(0.3, 0.25)):
        x_it, trace = mf_iterate(model, max_steps=10**5, tol=1e-14)
        _x, value = brute_force_mf_optimum(model)
        it_value = trace.objective[-1]
        assert value == pytest.approx(it_value, abs=1e-6)
    with pytest.raises(SizeGuardError):
        brute_force_mf_optimum(generate_topology("cycle", 0.3, 0.1, n=8))


def test_brute_force_bethe_tree_matches_log_z():
    for model in (chain2(0.6, 0.3), path3(0.4, 0.2), IsingModel(2, [[0, 1]], [0.0], [0.3, 0.7])):
        dist, value = brute_force_bethe_optimum(model)
        assert value == pytest.approx(exact_log_z(model).log_z, abs=1e-6)
        assert primal_bethe(model, dist) == pytest.approx(value, abs=1e-12)
    # a zero coupling leaves the nodes independent: sum_i log 2 cosh h_i
    assert value == pytest.approx(math.log(4.0 * math.cosh(0.3) * math.cosh(0.7)), abs=1e-6)
    with pytest.raises(SizeGuardError):
        brute_force_bethe_optimum(generate_topology("grid", 0.3, 0.1, rows=3, cols=3))


def test_edge_term_matches_golden(rng):
    for _ in range(40):
        j = rng.uniform(0, 1.5)
        mi, mj = rng.uniform(-0.9, 0.9, size=2)
        lo = abs(mi + mj) - 1.0
        hi = 1.0 - abs(mi - mj)
        if hi - lo < 1e-6:
            continue

        def cell_value(c):
            cells = np.array([1 + mi + mj + c, 1 + mi - mj - c,
                              1 - mi + mj - c, 1 - mi - mj + c]) / 4.0
            if cells.min() < 0:
                return -np.inf
            ent = -np.sum(np.where(cells > 0, cells * np.log(
                np.where(cells > 0, cells, 1.0)), 0.0))
            return j * c + ent

        best_val, best_c = _edge_term(j, np.array([mi]), np.array([mj]))
        c_star = golden_max(cell_value, lo + 1e-12, hi - 1e-12)
        assert best_val[0] == pytest.approx(cell_value(c_star), abs=1e-9)
        assert best_c[0] == pytest.approx(c_star, abs=1e-5)


def test_exact_result_csv_round_trip(rng):
    model = random_ferro(5, 7, rng)
    result = exact_log_z(model)
    text = text_of(exact_result_to_csv, result, model)
    back, meta = exact_result_from_csv(text)
    assert meta["model_hash"] == model_hash(model)
    assert back.log_z == result.log_z
    assert np.array_equal(back.node_means, result.node_means)
    assert np.array_equal(back.edge_correlations, result.edge_correlations)
