import math
import os
from functools import partial

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import isingvi.ellipsoid as ellipsoid
from isingvi import _kernels
from conftest import chain2, cycle4, path3, peak_bytes, small_grid, star5, text_of, triangle
from isingvi import (DomainError, EllipsoidState, FeasibilityError, IsingModel,
                     SeparationResult, bp_iterate, bp_step, ellipsoid_maximize,
                     ellipsoid_progress_csv, mf_iterate, mf_step, separation_oracle_bp,
                     separation_oracle_mf, solve_bethe_exponential, solve_mf_exponential,
                     generate_topology)
from isingvi.cli import main
from isingvi.svgplot import plot_lines
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
    best, state = ellipsoid_maximize(box_oracle, c, (-1.0, np.array([2.0, 3.0])),
                                     target_gap=1e-6, r_est=0.5)
    assert np.all(best >= -1e-12) and np.all(best <= 1.0 + 1e-12)
    assert 2.0 - float(c @ best) <= 1e-6
    assert state.min_upper - state.best_value <= 1e-6
    # sqrt factor keeps the shape matrix symmetric positive definite
    eig = np.linalg.eigvalsh(state.sqrt_shape @ state.sqrt_shape.T)
    assert eig.min() > 0.0
    csv = text_of(ellipsoid_progress_csv, state)
    assert csv.splitlines()[0] == "step,objective"
    assert len(csv.splitlines()) == state.step + 1
    for box in ((0.0, 0.0), (1.0, [2.0, 0.5]), (0.0, np.inf), (np.nan, 1.0)):
        with pytest.raises(DomainError, match="^box must"):
            ellipsoid_maximize(box_oracle, c, box)
    for gap in (0.0, np.nan):
        with pytest.raises(DomainError, match="^target_gap must"):
            ellipsoid_maximize(box_oracle, c, (0.0, 1.0), target_gap=gap)
    for objective in (np.ones((2, 2)), np.ones(0), 1.0, [np.inf, 1.0], [np.nan, 1.0]):
        with pytest.raises(DomainError, match="^objective must be a non-empty vector"):
            ellipsoid_maximize(box_oracle, objective, (0.0, 1.0))


def test_infeasible_program_raises():
    calls = []

    def empty_oracle(x):
        calls.append(x.copy())
        g = np.zeros(2)
        g[0] = 1.0
        # halfspace x0 <= -100 excludes the whole starting ellipsoid
        return SeparationResult(False, g, float(x[0] + 100.0))

    with pytest.raises(FeasibilityError, match="excludes the whole ellipsoid"):
        ellipsoid_maximize(empty_oracle, np.ones(2), (-4.0, 4.0), target_gap=1e-6)
    assert len(calls) == 1


def test_budget_without_a_feasible_point_raises():
    """A feasible set of one point that the centres never hit: every query is
    cut through, and the search stops at the budget of its formula, here
    8 + ceil(2 d^2 (log(R/target_gap) - log(target_gap))) with d = 2 and
    R = sqrt(2)/2."""
    point, calls = np.array([1.0 / 3.0, 1.0 / 7.0]), []

    def point_oracle(x):
        calls.append(x.copy())
        return SeparationResult(False, x - point, 0.0)

    budget = 8 + math.ceil(8.0 * (math.log(math.sqrt(2.0) / 2.0) - 2.0 * math.log(1e-3)))
    with pytest.raises(FeasibilityError,
                       match=f"^no feasible point found in {budget} ellipsoid steps"):
        ellipsoid_maximize(point_oracle, np.ones(2), (0.0, 1.0), target_gap=1e-3)
    assert len(calls) == budget
    # the last centre lies near the point
    assert np.abs(calls[-1] - point).max() < 1e-3


def test_budget_with_a_feasible_point_stops_at_the_budget():
    """A feasible set of no volume, the diagonal of the unit square, breaks the
    inner ball that the budget assumes: the search stops at the same budget
    of 116 steps with a feasible incumbent short of the target gap, and says
    so."""

    def diagonal_oracle(x):
        box = box_oracle(x)
        if not box.feasible or x[1] == x[0]:
            return box
        side = math.copysign(1.0, x[1] - x[0])
        return SeparationResult(False, np.array([-side, side]), 0.0)

    best, state = ellipsoid_maximize(diagonal_oracle, np.array([1.0, 0.0]), (0.0, 1.0),
                                     target_gap=1e-3)
    assert state.stop_reason == "budget" and state.step == 116
    assert best[0] == best[1] and state.best_value == best[0]
    assert state.min_upper - state.best_value > 1e-3


@pytest.mark.parametrize("cut", [[np.nan, 1.0], [0.0, 0.0]])
def test_degenerate_cut_raises_at_once(cut):
    calls = []

    def bad_oracle(x):
        calls.append(x.copy())
        return SeparationResult(False, np.array(cut), 1.0)

    with pytest.raises(FeasibilityError, match=r"^step 1: the cut has \|L\^T g\| = (nan|0\.0)"):
        ellipsoid_maximize(bad_oracle, np.ones(2), (-4.0, 4.0), target_gap=1e-6)
    assert len(calls) == 1


def test_bp_oracle_cuts_separate_feasible_points(rng):
    """In log-odds y = atanh(nu), the BP iterates from zero are post-fixpoints,
    so their y lie in the region, and every cut keeps them: a negative y_k is
    cut at its depth, the violated rows deep."""
    model = cycle4(0.6, 0.3)
    ndir = 2 * model.m
    feasible = [np.zeros(ndir)]
    cur = np.zeros(ndir)
    for _ in range(30):
        cur = bp_step(model, cur)
        feasible.append(np.arctanh(cur))
    kinds = {"box": 0, "rows": 0}
    for _ in range(200):
        q = rng.uniform(-0.3, 1.3, size=ndir)
        res = separation_oracle_bp(model, q)
        if res.feasible:
            continue
        if q.min() < 0.0:
            kinds["box"] += 1
            assert res.violation == -q.min()
        else:
            kinds["rows"] += 1
            assert res.violation > 0.0
        for p in feasible:
            assert float(res.cut @ p) <= float(res.cut @ q) - res.violation + 1e-9
    assert min(kinds.values()) > 10, kinds


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


def _violated_sum(psi, violated):
    """v -> sum over the fixed rows V of v_k - psi_k(v)."""
    return lambda v: float((np.array(v) - psi(np.array(v)))[violated].sum())


def test_bp_cut_gradient_matches_fd(rng):
    """The Bethe cut is the gradient in y of the violated rows' summed slack
    y_k - field_k(tanh y), V = {tanh y > bp_step(tanh y)} fixed at the query."""
    model = cycle4(0.6, 0.2)
    ndir = 2 * model.m
    field = _kernels._bp_field_map(model)
    checked = 0
    while checked < 25:
        q = rng.uniform(0.0, 1.5, size=ndir)
        excess = np.tanh(q) - bp_step(model, np.tanh(q))
        if np.max(excess) <= 1e-3:
            continue
        res = separation_oracle_bp(model, q)
        assert not res.feasible
        g_fd = fd_gradient(_violated_sum(lambda v: field(np.tanh(v)), excess > 0.0), q,
                           step=1e-6)
        assert np.allclose(res.cut, g_fd, atol=1e-6)
        checked += 1


def test_mf_cut_gradient_matches_fd(rng):
    model = star5(0.4, 0.1)
    step = partial(mf_step, model)
    checked = 0
    while checked < 25:
        q = rng.uniform(0.0, 1.0, size=model.n)
        if np.max(q - step(q)) <= 1e-3:
            continue
        res = separation_oracle_mf(model, q)
        assert not res.feasible
        g_fd = fd_gradient(_violated_sum(step, q - step(q) > 0.0), q, step=1e-6)
        assert np.allclose(res.cut, g_fd, atol=1e-6)
        checked += 1


def test_solve_bethe_matches_iteration():
    for model in (chain2(0.6, 0.3), path3(0.5, 0.25), cycle4(0.4, 0.3)):
        nu_ref, trace = bp_iterate(model, max_steps=10**5, tol=1e-14)
        ref = trace.objective[-1]
        nu, value, state = solve_bethe_exponential(model, 1e-6)
        assert abs(value - ref) <= 1e-6
        assert state.step > 0
        assert state.progress.shape == (state.step,)


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
    """The steps to a gap grow linearly in log(1/gap), from the unit box and
    from the solver's box: mean-field on chain2 from [0, mf_step(1)], and
    Bethe on path3, whose middle node's rows carry an arctanh term, in
    log-odds from [0, field(1)]. Both cut deep. The fit's largest residual is
    at most 2% of the counts' range, and the counts are pinned to within 1% or
    3 steps: an update whose s drops the deep-cut shrink (1 - alpha^2) takes
    44-45 MF steps at 1e-4.

    Bethe on chain2 is not linear. Its region is a box and its query stays on
    the diagonal, so every aggregated cut lies along (1, 1) and the ellipsoid
    grows along (1, -1) until a single-row cut throws the centre far off: to
    the gaps above it takes [25, 34, 46, 55, 100] steps from either box."""
    gaps = [1e-4, 1e-6, 1e-8, 1e-10, 1e-12]
    xs = np.log([1.0 / g for g in gaps])
    # model, dimension, oracle, the solver's box top, r_est, and the pinned
    # counts from the unit box and from the solver's box
    cases = [(chain2(0.5, 1.0), 2, separation_oracle_mf, mf_step, math.tanh(1.0) / 2.0,
              [38, 66, 95, 121, 152], [38, 66, 95, 121, 150]),
             (path3(), 4, separation_oracle_bp,
              lambda model, q: _kernels._bp_field_map(model)(q), None,
              [171, 293, 415, 535, 655], [134, 254, 376, 495, 619])]
    for model, d, oracle, top, r_est, *wants in cases:
        for box, want in zip(((0.0, 1.0), (0.0, top(model, np.ones(d)))), wants):
            steps = np.array([ellipsoid_maximize(
                lambda q: oracle(model, q), np.ones(d), box,
                target_gap=gap, r_est=r_est)[1].step for gap in gaps])
            slope, intercept = np.polyfit(xs, steps, 1)
            residual = float(np.abs(steps - (slope * xs + intercept)).max())
            print(f"{oracle.__name__}, box up to {box[1]}: steps {steps.tolist()}, slope "
                  f"{slope:.3g} per unit of log(1/gap), max residual {residual:.2g} steps")
            assert slope > 0 and residual <= 0.02 * (steps[-1] - steps[0]), \
                (slope, residual, steps)
            assert np.all(np.abs(steps - want) <= np.maximum(3, 0.01 * np.array(want))), \
                (steps, want)


def _optimum(pert, family):
    """The optimum of the perturbed region in the family's coordinates, from a
    tol-1e-15 run from all ones: x* for mean-field, and for Bethe the log-odds
    y* = field(nu*), which stays finite where nu* rounds to 1.0."""
    if family == "bethe":
        nu, _trace = bp_iterate(pert, max_steps=10**6, tol=1e-15, record=False)
        return _kernels._bp_field_map(pert)(nu)
    return mf_iterate(pert, max_steps=10**6, tol=1e-15, record=False)[0]


def _watched_solve(model, family, eps=1e-6):
    """Solve the model's family to eps while checking every oracle cut against
    the optimum of the perturbed region. Returns (state, cuts, worst,
    feasible): worst is the largest excess cut . opt - (cut . query -
    violation) over |cut|_1, which is <= 0 when no cut excludes the optimum,
    and feasible the oracle's answer at each call."""
    if family == "bethe":
        b, solve, name = eps / (2.0 * model.m), solve_bethe_exponential, "separation_oracle_bp"
    else:
        b, solve, name = eps / 2.0, solve_mf_exponential, "separation_oracle_mf"
    opt = _optimum(IsingModel(model.n, model.edges, model.couplings, model.fields + b), family)
    oracle = getattr(ellipsoid, name)
    seen = [0, -math.inf, []]

    def watched(mdl, q):
        res = oracle(mdl, q)
        seen[2].append(res.feasible)
        if not res.feasible:
            excess = float(res.cut @ opt) - (float(res.cut @ q) - res.violation)
            seen[0] += 1
            seen[1] = max(seen[1], excess / float(np.abs(res.cut).sum()))
        return res

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ellipsoid, name, watched)
        state = solve(model, eps)[2]
    return state, *seen


@pytest.fixture(scope="module")
def certify_bethe():
    """The Bethe certificate of the benchmark's 4x4 grid, solved once with its
    cuts watched: (model, state, cuts, worst excess, feasible answers)."""
    model = small_grid(4, 4, 0.3, 0.1)
    return model, *_watched_solve(model, "bethe")


@pytest.fixture(scope="module")
def certify_mf():
    """The mean-field certificate of the same grid, solved once with its cuts
    watched: (model, state, cuts, worst excess, feasible answers)."""
    model = small_grid(4, 4, 0.3, 0.1)
    return model, *_watched_solve(model, "mf")


def test_progress_rows_hold_measured_values(certify_bethe, certify_mf, tmp_path):
    """A progress row holds what its step measured: the query's objective when
    the oracle found the query feasible, nan when it did not, so the finite
    rows are the feasible answers. The incumbent is their running max,
    computed where it is read: `run --plot` draws it. Both solves of the
    benchmark's grid stop at their target gap, and `run` writes the stop
    reason and the certificate gap to summary.txt."""
    eps = 1e-6
    for _model, state, _cuts, _worst, answers in (certify_bethe, certify_mf):
        objective = state.progress
        feasible = np.array(answers)
        assert feasible.shape == objective.shape and 0 < feasible.sum() < feasible.size
        assert np.array_equal(np.isfinite(objective), feasible)
        best, want = math.nan, []
        for ok, value in zip(feasible.tolist(), objective.tolist()):
            if ok and (math.isnan(best) or value > best):
                best = value
            want.append(best)
        incumbent = np.fmax.accumulate(objective)
        assert np.array_equal(incumbent.view(np.int64), np.array(want).view(np.int64))
        assert incumbent[-1] == state.best_value
        assert state.stop_reason == "gap" and state.min_upper - state.best_value <= eps / 2.0
    # an infeasible row reads "k,nan" and a feasible one "k," and at most 24
    # characters of %.17g: no violation column, whose 17-digit Bethe depths
    # would add about 19 bytes a row
    for state in (certify_bethe[1], certify_mf[1]):
        size = len(text_of(ellipsoid_progress_csv, state))
        rows = sum(len(f"{k},nan\n") for k in range(1, state.step + 1))
        bound = len("step,objective\n") + rows + 21 * int(np.isfinite(state.progress).sum())
        assert size <= bound, (size, bound)

    state = certify_mf[1]
    assert main(["run", "--topology", "grid:4x4", "--beta", "0.3", "--field", "0.1",
                 "--algo", "ellipsoid_mf", "--eps", repr(eps), "--plot",
                 "--out", str(tmp_path)]) == 0
    assert (tmp_path / "objective.svg").read_text(encoding="utf-8") == plot_lines(
        "best feasible", range(1, state.step + 1), np.fmax.accumulate(state.progress),
        "ellipsoid_mf incumbent", "step", "objective best")
    lines = (tmp_path / "summary.txt").read_text(encoding="utf-8").splitlines()
    assert lines[-2:] == ["stop_reason gap",
                          f"certificate_gap {state.min_upper - state.best_value:.17g}"]


def test_tracked_certificate_width_matches_factor(certify_bethe):
    state = certify_bethe[1]
    c = np.ones(state.center.shape[0])
    want = np.linalg.norm(state.sqrt_shape.T @ c)
    assert abs(np.linalg.norm(state.lt_c) - want) <= 1e-9 * want


def _certificate(certify_bethe, certify_mf, family, name, eps=1e-6):
    """The family's solve of a named model at eps, with the perturbed model built
    as the solver builds it: (perturbed model, its map psi in the solver's
    coordinates, the point that psi maps to the top of the start box, state).
    Mean-field: psi = mf_step, from 1. Bethe, in log-odds y: psi(y) =
    field(tanh y), from inf, where tanh is 1."""
    model = {"grid4x4": certify_bethe[0], "cycle4": cycle4(0.6, 0.3),
             "star5": star5(0.4, 0.1)}[name]
    bethe = family == "bethe"
    b = eps / (2.0 * model.m) if bethe else eps / 2.0
    solve, solved = ((solve_bethe_exponential, certify_bethe) if bethe
                     else (solve_mf_exponential, certify_mf))
    state = solved[1] if name == "grid4x4" else solve(model, eps)[2]
    pert = IsingModel(model.n, model.edges, model.couplings, model.fields + b)
    d = state.center.shape[0]
    if bethe:
        field = _kernels._bp_field_map(pert)
        return pert, lambda y: field(np.tanh(y)), np.full(d, np.inf), state
    return pert, partial(mf_step, pert), np.ones(d), state


@pytest.mark.parametrize("family", ["bethe", "mf"])
@pytest.mark.parametrize("name", ["grid4x4", "cycle4", "star5"])
def test_final_ellipsoid_contains_reference_optimum(certify_bethe, certify_mf, family, name):
    """The optimum of the perturbed region (a tol-1e-15 run from all ones, in
    the solver's coordinates) lies in the start box [0, psi(top)] and in the
    final ellipsoid."""
    pert, psi, top, state = _certificate(certify_bethe, certify_mf, family, name)
    opt = _optimum(pert, family)
    assert np.all(opt >= 0.0) and np.all(opt <= psi(top))
    local = np.linalg.solve(state.sqrt_shape, opt - state.center)
    assert np.linalg.norm(local) <= 1.0 + 1e-9


@pytest.mark.parametrize("family", ["bethe", "mf"])
@pytest.mark.parametrize("name", ["grid4x4", "cycle4", "star5"])
def test_certificate_lies_in_monotone_sandwich(certify_bethe, certify_mf, family, name):
    """The solver's map psi is monotone and 0 <= psi(0), so lo = psi^k(0) is a
    post-fixpoint and up = psi^k(top) lies above the greatest fixed point,
    which maximizes the coordinate sum over the region. Hence the incumbent's
    sum is at most sum(up) and the certified upper bound at least sum(lo),
    up to 1e-12 d of round-off. The bracket comes from k = 200 sweeps of the
    perturbed map alone, so a wrong certificate fails here whatever the
    solver does inside."""
    pert, psi, up, state = _certificate(certify_bethe, certify_mf, family, name)
    d = state.center.shape[0]
    lo = np.zeros(d)
    for _ in range(200):
        lo, up = psi(lo), psi(up)
    tol = 1e-12 * d
    print(f"{family} {name}: sandwich [{lo.sum():.17g}, {up.sum():.17g}] of width "
          f"{up.sum() - lo.sum():.3g}, certificate [{state.best_value:.17g}, "
          f"{state.min_upper:.17g}]")
    assert state.best_value <= up.sum() + tol
    assert state.min_upper >= lo.sum() - tol


@pytest.mark.parametrize("family", ["bethe", "mf"])
@pytest.mark.parametrize("name", ["grid4x4", "grid3x3_beta2_h0", "regular10_3",
                                  "regular4_3_beta20_h0", "grid3x3_beta10_h0.01"])
def test_no_cut_excludes_the_optimum(certify_bethe, certify_mf, family, name):
    """Every oracle cut of a solve keeps the perturbed optimum, up to
    1e-12 |cut|_1: on the benchmark's 4x4 grid, on a low-temperature grid with
    no field but the perturbation, on a random 3-regular graph, and on two
    saturated models. On K4 at beta 20, h 0, tanh(J) is 1.0 in float64, every
    message's bp_step rounds to 1.0 and the Bethe oracle cuts only the side
    y <= field(1); on a 3x3 grid at beta 10, h 0.01, it cuts that side and
    rows whose 1/(1 - phi^2) rounding allowance reaches 1e8."""
    if name == "grid4x4":
        _state, cuts, worst, _answers = (certify_bethe if family == "bethe" else certify_mf)[1:]
    else:
        model = {"grid3x3_beta2_h0": small_grid(3, 3, 2.0, 0.0),
                 "regular10_3": generate_topology("random_regular", 0.6, 0.0, n=10, degree=3),
                 "regular4_3_beta20_h0": generate_topology("random_regular", 20.0, 0.0, n=4,
                                                           degree=3),
                 "grid3x3_beta10_h0.01": small_grid(3, 3, 10.0, 0.01)}[name]
        _state, cuts, worst, _answers = _watched_solve(model, family)
    print(f"{family} {name}: {cuts} cuts, worst excess {worst:.3g} |cut|_1")
    assert cuts > 0
    assert worst <= 1e-12, (cuts, worst)


@st.composite
def oracle_cases(draw):
    """A ferromagnetic model with n <= 6 (m = 0 and isolated nodes included) as
    (n, edges, couplings, fields), and one query per oracle. Mean-field queries
    lie in [0, 1]^n or in [-0.3, 1.3]^n, Bethe log-odds queries in [0, 3]^2m or
    in [-0.9, 3.9]^2m, so that fixpoint cuts are drawn as well as box cuts on
    2m up to 30 coordinates."""
    n = draw(st.integers(1, 6))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    edges = sorted(draw(st.sets(st.sampled_from(pairs), max_size=len(pairs)))) if pairs else []
    couplings = draw(st.lists(st.floats(0.0, 2.0), min_size=len(edges), max_size=len(edges)))
    fields = draw(st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n))
    lo, hi = draw(st.sampled_from([(0.0, 1.0), (-0.3, 1.3)]))
    queries = [draw(st.lists(st.floats(scale * lo, scale * hi), min_size=d, max_size=d))
               for d, scale in ((n, 1.0), (2 * len(edges), 3.0))]
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
    feasible = np.arange(steps) % 3 == 0
    progress = np.where(feasible, np.linspace(1.0, 2.0, steps), np.nan)
    state = EllipsoidState(center=np.zeros(2), sqrt_shape=np.eye(2), lt_c=np.ones(2),
                           step=steps, best_value=2.0, min_upper=2.0, stop_reason="gap",
                           progress=progress)
    with open(os.devnull, "w", encoding="utf-8") as fh:
        _, peak = peak_bytes(ellipsoid_progress_csv, state, fh)
    assert peak < 8 * steps, peak / steps


def test_bp_oracle_cuts_the_top_of_its_box_where_rows_saturate():
    """On K4 at beta 20, h 0, tanh(J) is 1.0 and bp_step rounds to 1.0 at any
    y >= 0 that is not tiny, so no row reads violated; the oracle then cuts
    the most violated side y_k <= field(1)_k, at its depth, as the reference
    does, and finds y = field(1) itself feasible."""
    model = generate_topology("random_regular", 20.0, 0.0, n=4, degree=3)
    top = _kernels._bp_field_map(model)(np.ones(2 * model.m))
    y = top.copy()
    y[5] += 3.0
    y[2] += 1.0
    res = separation_oracle_bp(model, y)
    feasible, cut, violation, _margin = ref_separation_bp(model, y.tolist())
    assert not res.feasible and not feasible
    assert res.cut.tolist() == cut == np.eye(2 * model.m)[5].tolist()
    assert res.violation == violation == 3.0
    assert separation_oracle_bp(model, top).feasible
