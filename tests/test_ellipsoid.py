import math
import os

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import chain2, cycle4, path3, peak_bytes, small_grid, star5, triangle
from isingvi import (DomainError, EllipsoidState, FeasibilityError, IsingModel,
                     SeparationResult, bp_iterate, bp_step, ellipsoid_maximize,
                     ellipsoid_progress_csv, mf_iterate, mf_step, separation_oracle_bp,
                     separation_oracle_mf, solve_bethe_exponential, solve_mf_exponential)
from refimpl import fd_gradient, ref_separation_bp, ref_separation_mf


def box_oracle(x):
    """Separation oracle for the unit box [0, 1]^d."""
    x = np.asarray(x)
    over = np.maximum(-x, x - 1.0)
    k = int(np.argmax(over))
    if over[k] <= 0.0:
        return SeparationResult(True)
    g = np.zeros(len(x))
    g[k] = -1.0 if -x[k] >= x[k] - 1.0 else 1.0
    return SeparationResult(False, g, float(over[k]))


def test_maximize_over_box():
    c = np.ones(2)
    best, state = ellipsoid_maximize(box_oracle, c, 2, (-1.0, np.array([2.0, 3.0])),
                                     target_gap=1e-6, r_est=0.5)
    assert np.all(best >= -1e-12) and np.all(best <= 1.0 + 1e-12)
    assert 2.0 - float(c @ best) <= 1e-6
    assert state.min_upper - state.best_value <= 1e-6
    # sqrt factor keeps the shape matrix symmetric positive definite
    eig = np.linalg.eigvalsh(state.sqrt_shape @ state.sqrt_shape.T)
    assert eig.min() > 0.0
    csv = ellipsoid_progress_csv(state)
    assert csv.splitlines()[0] == "step,feasible,objective_best,violation"
    assert len(csv.splitlines()) == state.step + 1
    for box in ((0.0, 0.0), (1.0, [2.0, 0.5]), (0.0, np.inf), (np.nan, 1.0)):
        with pytest.raises(DomainError):
            ellipsoid_maximize(box_oracle, c, 2, box)


def test_infeasible_program_raises():
    calls = []

    def empty_oracle(x):
        calls.append(x.copy())
        g = np.zeros(2)
        g[0] = 1.0
        # halfspace x0 <= -100 excludes the whole starting ellipsoid
        return SeparationResult(False, g, float(x[0] + 100.0))

    with pytest.raises(FeasibilityError, match="excludes the whole ellipsoid"):
        ellipsoid_maximize(empty_oracle, np.ones(2), 2, (-4.0, 4.0),
                           max_steps=400, target_gap=1e-6)
    assert len(calls) == 1


@pytest.mark.parametrize("cut", [[np.nan, 1.0], [0.0, 0.0]])
def test_degenerate_cut_raises_at_once(cut):
    calls = []

    def bad_oracle(x):
        calls.append(x.copy())
        return SeparationResult(False, np.array(cut), 1.0)

    with pytest.raises(FeasibilityError, match=r"^step 1: the cut has \|L\^T g\| = (nan|0\.0)"):
        ellipsoid_maximize(bad_oracle, np.ones(2), 2, (-4.0, 4.0),
                           max_steps=400, target_gap=1e-6)
    assert len(calls) == 1


def test_bp_oracle_cuts_separate_feasible_points(rng):
    model = cycle4(0.6, 0.3)
    ndir = 2 * model.m
    # strictly feasible points: iterates from zero stay below the fixed point
    feasible = [np.zeros(ndir)]
    cur = np.zeros(ndir)
    for _ in range(30):
        cur = bp_step(model, cur)
        feasible.append(cur.copy())
    for _ in range(200):
        q = rng.uniform(-0.3, 1.3, size=ndir)
        res = separation_oracle_bp(model, q)
        if res.feasible:
            continue
        assert res.violation > 0.0
        for p in feasible:
            assert float(res.cut @ p) <= float(res.cut @ q) - res.violation + 1e-9


def test_mf_oracle_cuts_separate_feasible_points(rng):
    model = triangle(0.5, 0.4)
    feasible = [np.zeros(model.n)]
    cur = np.zeros(model.n)
    for _ in range(30):
        cur = mf_step(model, cur)
        feasible.append(cur.copy())
    for _ in range(200):
        q = rng.uniform(-0.3, 1.3, size=model.n)
        res = separation_oracle_mf(model, q)
        if res.feasible:
            continue
        for p in feasible:
            assert float(res.cut @ p) <= float(res.cut @ q) - res.violation + 1e-9


def test_bp_cut_gradient_matches_fd(rng):
    model = cycle4(0.6, 0.2)
    ndir = 2 * model.m
    checked = 0
    while checked < 25:
        q = rng.uniform(0.0, 1.0, size=ndir)
        slack = q - bp_step(model, q)
        k = int(np.argmax(slack))
        if slack[k] <= 1e-3:
            continue
        res = separation_oracle_bp(model, q)
        assert not res.feasible

        def constraint(v):
            arr = np.array(v)
            return float(arr[k] - bp_step(model, arr)[k])

        g_fd = fd_gradient(constraint, q, step=1e-6)
        assert np.allclose(res.cut, g_fd, atol=1e-6)
        checked += 1


def test_mf_cut_gradient_matches_fd(rng):
    model = star5(0.4, 0.1)
    checked = 0
    while checked < 25:
        q = rng.uniform(0.0, 1.0, size=model.n)
        slack = q - mf_step(model, q)
        k = int(np.argmax(slack))
        if slack[k] <= 1e-3:
            continue
        res = separation_oracle_mf(model, q)
        assert not res.feasible

        def constraint(v):
            arr = np.array(v)
            return float(arr[k] - mf_step(model, arr)[k])

        g_fd = fd_gradient(constraint, q, step=1e-6)
        assert np.allclose(res.cut, g_fd, atol=1e-6)
        checked += 1


def test_solve_bethe_matches_iteration():
    for model in (chain2(0.6, 0.3), path3(0.5, 0.25), cycle4(0.4, 0.3)):
        nu_ref, trace = bp_iterate(model, max_steps=10**5, tol=1e-14)
        ref = trace.objective[-1]
        nu, value, state = solve_bethe_exponential(model, 1e-6)
        assert abs(value - ref) <= 1e-6
        assert state.step > 0
        assert state.progress.shape == (state.step, 3)


def test_solve_mf_matches_iteration():
    for model in (chain2(0.6, 0.3), triangle(0.35, 0.3)):
        x_ref, trace = mf_iterate(model, max_steps=10**5, tol=1e-14)
        ref = trace.objective[-1]
        _x, value, _state = solve_mf_exponential(model, 1e-6)
        assert abs(value - ref) <= 1e-6


def test_solve_single_node_closed_form():
    lonely = IsingModel(1, None, None, np.array([0.5]))
    want = math.log(2.0 * math.cosh(0.5))
    _nu, vb, state = solve_bethe_exponential(lonely, 1e-8)
    assert vb == pytest.approx(want, abs=1e-12) and state is None
    _x, vm, _state = solve_mf_exponential(lonely, 1e-8)
    assert abs(vm - want) <= 1e-8


def test_solver_rejects_bad_epsilon():
    with pytest.raises(DomainError):
        solve_bethe_exponential(chain2(0.5, 0.2), 0.0)
    with pytest.raises(DomainError):
        solve_mf_exponential(chain2(0.5, 0.2), -1.0)


def test_step_count_scales_polylog():
    model = chain2(0.5, 1.0)
    d = 2 * model.m
    r_est = math.tanh(1.0) / 2.0
    gaps = [1e-4, 1e-6, 1e-8, 1e-10, 1e-12]

    def steps_from(box):
        return np.array([ellipsoid_maximize(
            lambda q: separation_oracle_bp(model, q), np.ones(d), d, box,
            target_gap=gap, r_est=r_est)[1].step for gap in gaps])

    # From the unit box, log(steps) grows like log(log(1/gap)).
    steps = steps_from((0.0, 1.0))
    xs = np.log(np.log([1.0 / g for g in gaps]))
    ys = np.log(steps)
    xc = xs - xs.mean()
    slope = float(xc @ (ys - ys.mean()) / (xc @ xc))
    assert 0.8 <= slope <= 1.2, (slope, steps)
    # From the solver's own box [0, bp_step(1)] the log-log fit also reads the
    # intercept (slope 1.27 on the counts 37, 64, 93, 121, 148), so fit steps
    # linearly against log(1/gap) instead.
    steps = steps_from((0.0, bp_step(model, np.ones(d))))
    xs = np.log([1.0 / g for g in gaps])
    slope, intercept = np.polyfit(xs, steps, 1)
    residual = float(np.abs(steps - (slope * xs + intercept)).max())
    print(f"box [0, bp_step(1)]: steps {steps.tolist()}, slope {slope:.3g} per "
          f"unit of log(1/gap), max residual {residual:.2g} steps")
    assert slope > 0 and residual <= 2.0, (slope, residual, steps)


@pytest.fixture(scope="module")
def certify_bethe():
    """The Bethe certificate of the benchmark's 4x4 grid, solved once."""
    model = small_grid(4, 4, 0.3, 0.1)
    return model, solve_bethe_exponential(model, 1e-6)[2]


def test_tracked_certificate_width_matches_factor(certify_bethe):
    _model, state = certify_bethe
    c = np.ones(state.center.shape[0])
    want = np.linalg.norm(state.sqrt_shape.T @ c)
    assert abs(np.linalg.norm(state.lt_c) - want) <= 1e-9 * want


@pytest.mark.parametrize("family", ["bethe", "mf"])
@pytest.mark.parametrize("name", ["grid4x4", "cycle4", "star5"])
def test_final_ellipsoid_contains_reference_optimum(certify_bethe, family, name):
    """The optimum of the perturbed region (a tol-1e-14 run from all ones)
    lies in the start box [0, step(1)] and in the final ellipsoid."""
    eps = 1e-6
    model = {"grid4x4": certify_bethe[0], "cycle4": cycle4(0.6, 0.3),
             "star5": star5(0.4, 0.1)}[name]
    if family == "bethe":
        b, step, iterate = eps / (2.0 * model.m), bp_step, bp_iterate
        state = (certify_bethe[1] if name == "grid4x4"
                 else solve_bethe_exponential(model, eps)[2])
    else:
        b, step, iterate = eps / 2.0, mf_step, mf_iterate
        state = solve_mf_exponential(model, eps)[2]
    pert = IsingModel(model.n, model.edges, model.couplings, model.fields + b)
    opt, _trace = iterate(pert, max_steps=10**6, tol=1e-14, record=False)
    assert np.all(opt >= 0.0) and np.all(opt <= step(pert, np.ones(opt.shape[0])))
    local = np.linalg.solve(state.sqrt_shape, opt - state.center)
    assert np.linalg.norm(local) <= 1.0 + 1e-9


@st.composite
def oracle_cases(draw):
    """A ferromagnetic model with n <= 6 (m = 0 and isolated nodes included) as
    (n, edges, couplings, fields), and one query per oracle. Queries lie in
    [0, 1]^d or in [-0.3, 1.3]^d, so that fixpoint cuts are drawn as well as
    box cuts on 2m up to 30 coordinates."""
    n = draw(st.integers(1, 6))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    edges = sorted(draw(st.sets(st.sampled_from(pairs), max_size=len(pairs)))) if pairs else []
    couplings = draw(st.lists(st.floats(0.0, 2.0), min_size=len(edges), max_size=len(edges)))
    fields = draw(st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n))
    lo, hi = draw(st.sampled_from([(0.0, 1.0), (-0.3, 1.3)]))
    queries = [draw(st.lists(st.floats(lo, hi), min_size=d, max_size=d))
               for d in (n, 2 * len(edges))]
    return n, edges, couplings, fields, *queries


@settings(max_examples=300)
@given(oracle_cases())
@example((1, [], [], [0.0], [0.0], []))
@example((1, [], [], [0.4], [1.25], []))
@example((4, [(0, 2), (2, 3)], [0.7, 1.1], [0.0, 0.3, 0.2, 0.0],
          [0.9, 0.0, 0.8, 0.95], [0.9, 0.6, 0.99, 0.2]))
def test_oracles_match_references(case):
    n, edges, couplings, fields, qx, qnu = case
    model = IsingModel(n, np.array(edges, dtype=np.int64).reshape(-1, 2), couplings, fields)
    for oracle, ref, q in ((separation_oracle_mf, ref_separation_mf, qx),
                           (separation_oracle_bp, ref_separation_bp, qnu)):
        res = oracle(model, np.array(q))
        feasible, cut, violation, margin = ref(model, q)
        assert res.feasible == feasible
        if feasible or margin <= 1e-9:
            continue
        assert np.max(np.abs(res.cut - cut)) <= 1e-12
        assert abs(res.violation - violation) <= 1e-12


def test_progress_memory_follows_steps():
    model = cycle4(0.4, 0.3)
    (_nu, _value, state), peak = peak_bytes(solve_bethe_exponential, model, 1e-10)
    assert peak < 64 * state.step, (peak, state.step)


def test_progress_csv_streams_its_columns():
    """Writing the progress of 10^5 steps to a file holds a block of rows at a
    time, not a copy of a column: below 8 bytes per row."""
    steps = 10**5
    progress = np.empty((steps, 3))
    progress[:, 0] = np.arange(steps) % 3 == 0
    progress[:, 1] = np.where(np.arange(steps) < 10, np.nan, np.linspace(1.0, 2.0, steps))
    progress[:, 2] = np.where(progress[:, 0] == 1.0, 0.0, np.linspace(0.5, 1e-9, steps))
    state = EllipsoidState(center=np.zeros(2), sqrt_shape=np.eye(2), lt_c=np.ones(2),
                           step=steps, best_value=2.0, min_upper=2.0, progress=progress)
    with open(os.devnull, "w", encoding="utf-8") as fh:
        _, peak = peak_bytes(ellipsoid_progress_csv, state, fh)
    assert peak < 8 * steps, peak / steps
