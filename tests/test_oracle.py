import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import chain2, cycle4, path3, random_ferro, random_tree, star5, triangle
from isingvi import (DomainError, IsingModel, ModelError, SizeGuardError,
                     bp_iterate, brute_force_bethe_optimum, brute_force_mf_optimum,
                     exact_log_z, exact_result_from_csv, exact_result_to_csv,
                     generate_topology, mf_iterate, mf_objective, model_hash,
                     primal_bethe, transfer_matrix_log_z)
from isingvi.oracle import _edge_term
from refimpl import golden_max, ref_moments


def test_exact_matches_enumeration(rng):
    for model in (chain2(1.0, 0.0), triangle(0.4, 0.1), star5(0.3, 0.2),
                  random_ferro(6, 9, rng), random_tree(7, rng)):
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


def test_size_guard():
    model = generate_topology("grid", 0.1, 0.0, rows=5, cols=5)
    with pytest.raises(SizeGuardError):
        exact_log_z(model)
    small = triangle(0.4, 0.1)
    with pytest.raises(SizeGuardError):
        exact_log_z(small, max_nodes=small.n - 1)
    assert math.isfinite(exact_log_z(small, max_nodes=small.n).log_z)
    # 17 nodes fill two 2^16-state chunks, and both must be summed
    cyc = generate_topology("cycle", 3.0, 0.5, n=17)
    assert exact_log_z(cyc, max_nodes=17).log_z == pytest.approx(
        transfer_matrix_log_z(cyc), abs=1e-10)


def test_exact_rejects_negative_field():
    model = IsingModel(3, np.array([[0, 1], [1, 2]]), np.full(2, 0.4),
                       np.array([0.2, -0.1, 0.0]), check_fields=False)
    with pytest.raises(DomainError):
        exact_log_z(model)


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


def test_transfer_matrix_chain_and_cycle(rng):
    for n in (2, 3, 7):
        rng2 = np.random.default_rng(n)
        edges = np.array([[k, k + 1] for k in range(n - 1)])
        model = IsingModel(n, edges, rng2.uniform(0.1, 1.0, size=n - 1),
                           rng2.uniform(0, 0.7, size=n))
        assert transfer_matrix_log_z(model) == pytest.approx(
            exact_log_z(model).log_z, abs=1e-10)
    cyc = generate_topology("cycle", 0.6, 0.25, n=9)
    assert transfer_matrix_log_z(cyc) == pytest.approx(
        exact_log_z(cyc).log_z, abs=1e-10)


def test_transfer_matrix_rejects_non_paths():
    with pytest.raises(ModelError):
        transfer_matrix_log_z(star5(0.3, 0.1))
    two_chains = IsingModel(4, np.array([[0, 1], [2, 3]]), np.full(2, 0.4),
                            np.zeros(4))
    with pytest.raises(ModelError):
        transfer_matrix_log_z(two_chains)
    two_cycles = IsingModel(6, np.array([[0, 1], [1, 2], [0, 2],
                                         [3, 4], [4, 5], [3, 5]]),
                            np.full(6, 0.4), np.zeros(6))
    with pytest.raises(ModelError):
        transfer_matrix_log_z(two_cycles)


def test_transfer_matrix_triangle_is_cycle():
    tri = triangle(0.3, 0.1)
    assert transfer_matrix_log_z(tri) == pytest.approx(
        exact_log_z(tri).log_z, abs=1e-10)


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
    for model in (chain2(0.6, 0.3), path3(0.4, 0.2)):
        dist, value = brute_force_bethe_optimum(model)
        assert value == pytest.approx(exact_log_z(model).log_z, abs=1e-6)
        assert primal_bethe(model, dist) == pytest.approx(value, abs=1e-12)
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
    text = exact_result_to_csv(result, model)
    back, meta = exact_result_from_csv(text)
    assert meta["model_hash"] == model_hash(model)
    assert back.log_z == result.log_z
    assert np.array_equal(back.node_means, result.node_means)
    assert np.array_equal(back.edge_correlations, result.edge_correlations)
