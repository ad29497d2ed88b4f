import math
import os
from functools import partial
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import isingvi.ellipsoid as ellipsoid
from isingvi import _kernels
from conftest import chain2, cycle4, path3, peak_bytes, small_grid, star5, text_of, triangle
from isingvi import (DomainError, EllipsoidState, FeasibilityError, IsingModel,
                     SeparationResult, SizeGuardError, bp_iterate, bp_step, dual_bethe,
                     ellipsoid_maximize, ellipsoid_progress_csv, mf_iterate, mf_step,
                     separation_oracle_bp, separation_oracle_mf, solve_bethe_exponential,
                     solve_mf_exponential, generate_topology)
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
    # in one dimension each cut keeps (1 - alpha)/2 of the interval
    best, state = ellipsoid_maximize(box_oracle, np.ones(1), (-1.0, 2.0), target_gap=1e-9)
    assert 1.0 - best[0] <= 1e-9 and state.step > 1 and state.min_upper - best[0] <= 1e-9
    for box in ((0.0, 0.0), (1.0, [2.0, 0.5]), (0.0, np.inf), (np.nan, 1.0)):
        with pytest.raises(DomainError, match="^box must"):
            ellipsoid_maximize(box_oracle, c, box)
    for gap in (0.0, np.nan):
        with pytest.raises(DomainError, match="^target_gap must"):
            ellipsoid_maximize(box_oracle, c, (0.0, 1.0), target_gap=gap)
    for objective in (np.ones((2, 2)), np.ones(0), 1.0, [np.inf, 1.0], [np.nan, 1.0]):
        with pytest.raises(DomainError, match="^objective must be a non-empty vector"):
            ellipsoid_maximize(box_oracle, objective, (0.0, 1.0))


def test_box_past_2_400_is_refused_before_any_step():
    """A box whose radius passes 2^400, where the squares in |L^T c| could
    overflow, is refused with DomainError before the first oracle call: the
    unit square [0, 1]^2 blown up by 2^501, in the box (0, (2^501,
    1.5 2^501))."""
    unit, calls = 2.0 ** 501, []
    with pytest.raises(DomainError, match=r"^box radius .* is past 2\^400"):
        ellipsoid_maximize(lambda x: calls.append(x) or box_oracle(x / unit),
                           np.array([1.0, 2.0]), (0.0, np.array([1.0, 1.5]) * unit),
                           target_gap=1e-6 * unit, r_est=0.25 * unit)
    assert calls == []


def test_ellipsoid_past_the_table_budget_is_refused(monkeypatch):
    """An ellipsoid whose d x d factor passes the exact layer's 2^25-entry
    table budget is refused with SizeGuardError, which names d and the step
    budget, before any oracle call and before np.diag allocates the factor:
    d = 5,793 is refused, and d = 5,792 passes the guard."""
    class Allocating(Exception):
        pass

    def diag(*args, **kwargs):
        raise Allocating

    calls = []
    monkeypatch.setattr(np, "diag", diag)
    oracle = lambda x: calls.append(x) or box_oracle(x)  # noqa: E731
    with pytest.raises(SizeGuardError, match=r"^an ellipsoid in d = 5793 dimensions, "
                       r"with a budget of \d+ steps"):
        ellipsoid_maximize(oracle, np.ones(5793), (0.0, 1.0))
    with pytest.raises(Allocating):
        ellipsoid_maximize(oracle, np.ones(5792), (0.0, 1.0))
    assert calls == []


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


def test_solve_bethe_matches_iteration(watched):
    """The value is within eps of a converged BP run's dual. The brackets of
    the three small models certify their solves; on the 3x3 grid at beta 2,
    h 0, the bracket stays open and the ellipsoid takes steps."""
    for model in (chain2(0.6, 0.3), path3(0.5, 0.25), cycle4(0.4, 0.3)):
        nu_ref, trace = bp_iterate(model, max_steps=10**5, tol=1e-14)
        ref = trace.objective[-1]
        nu, value, state = solve_bethe_exponential(model, 1e-6)
        assert abs(value - ref) <= 1e-6
        assert state.progress.shape == (state.step,)
    run = watched("grid3x3_beta2_h0", "bethe")
    _nu, trace = bp_iterate(run.model, max_steps=10**5, tol=1e-14)
    assert abs(run.value - trace.objective[-1]) <= 1e-6
    assert run.state.step > 0 and run.state.progress.shape == (run.state.step,)


def test_solve_mf_matches_iteration():
    for model in (chain2(0.6, 0.3), triangle(0.35, 0.3)):
        x_ref, trace = mf_iterate(model, max_steps=10**5, tol=1e-14)
        ref = trace.objective[-1]
        _x, value, _state = solve_mf_exponential(model, 1e-6)
        assert abs(value - ref) <= 1e-6


def test_solve_single_node_closed_form():
    # an edgeless model has no messages: its empty bracket certifies at once
    lonely = IsingModel(1, None, None, np.array([0.5]))
    want = math.log(2.0 * math.cosh(0.5))
    _nu, vb, state = solve_bethe_exponential(lonely, 1e-8)
    assert vb == pytest.approx(want, abs=1e-12)
    assert state.stop_reason == "bracket" and state.bracket_sweeps == 0
    assert state.best_value == state.min_upper == 0.0
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


# The models whose ellipsoid solves are watched: the benchmark's 4x4 grid, a
# cycle and a star, a low-temperature grid with no field but the perturbation,
# a random 3-regular graph, two saturated models, and the critical instance,
# regular:10:3 (seed 1) at J = atanh(1/2), h = 0, where the bracket stays open
# and the ellipsoid still takes thousands of steps from its start box. The
# brackets of the first three and of the 3x3 grid at beta 10 certify their
# solves; the others stay open. The 3x3 grid at beta 2, h 0.1 is solved at
# eps 1e-12 (_WATCHED_EPS, 1e-6 for the others): its mean-field cube
# [lo, lo + r] rounds to lo in every coordinate, while its Bethe bracket
# certifies the solve.
_WATCHED = {
    "grid4x4": lambda: small_grid(4, 4, 0.3, 0.1),
    "cycle4": lambda: cycle4(0.6, 0.3),
    "star5": lambda: star5(0.4, 0.1),
    "grid3x3_beta2_h0": lambda: small_grid(3, 3, 2.0, 0.0),
    "grid3x3_beta2_h0.1": lambda: small_grid(3, 3, 2.0, 0.1),
    "regular10_3": lambda: generate_topology("random_regular", 0.6, 0.0, n=10, degree=3),
    "regular4_3_beta20_h0": lambda: generate_topology("random_regular", 20.0, 0.0, n=4,
                                                      degree=3),
    "grid3x3_beta10_h0.01": lambda: small_grid(3, 3, 10.0, 0.01),
    "critical": lambda: generate_topology("random_regular", math.atanh(0.5), 0.0, n=10,
                                          degree=3, seed=1),
}
_WATCHED_EPS = {"grid3x3_beta2_h0.1": 1e-12}


def _optimum(pert, family, name):
    """The optimum of the perturbed region in the family's coordinates, from a
    tol-1e-15 run from all ones: x* for mean-field, and for Bethe the log-odds
    y* = field(nu*), which stays finite where nu* rounds to 1.0. On the
    critical instance, whose perturbed BP run would take 9·10^5 steps, every
    message of y* is the greatest root of y = h + 2 atanh(tanh(J) tanh y),
    bisected: the right side less y is concave and positive at 0."""
    if family == "bethe" and name == "critical":
        theta, h = math.tanh(float(pert.couplings[0])), float(pert.fields[0])
        lo, hi = 0.0, h + 2.0 * math.atanh(theta)
        for _ in range(200):
            mid = (lo + hi) / 2.0
            lo, hi = (mid, hi) if h + 2.0 * math.atanh(theta * math.tanh(mid)) > mid else (lo, mid)
        return np.full(2 * pert.m, lo)
    if family == "bethe":
        nu, _trace = bp_iterate(pert, max_steps=10**6, tol=1e-15, record=False)
        return _kernels._bp_field_map(pert)(nu)
    return mf_iterate(pert, max_steps=10**6, tol=1e-15, record=False)[0]


def _watched_solve(name, family, eps):
    """Solve the named model's family to eps while checking every oracle cut
    against the optimum opt of the perturbed region, in the search that the
    solver runs from its start box, if its bracket stays open, and in one
    more from the cold box [0, psi(top)], run whether or not the solver
    searches, so that the cuts of a wide search stay watched. psi is the
    solver's map in its coordinates: mf_step, topped at 1, or for Bethe
    y -> field(tanh y), topped at inf, where tanh is 1. Returns a namespace
    of model, pert, psi, top, opt, the solve's value and state, its point in
    the solver's coordinates, target_gap and r_est, the bracket's (lo, hi, z)
    as `_kernels._sandwich` returned them, the box (lo, hi) of its search
    (None when the bracket certified the solve), its answers (the oracle's
    feasible answer at each call of the search), and over both searches the
    cuts and worst, the largest excess cut . opt - (cut . query - violation)
    over |cut|_1, which is <= 0 when no cut excludes the optimum."""
    model = _WATCHED[name]()
    bethe = family == "bethe"
    b = eps / (2.0 * model.m) if bethe else eps / 2.0
    pert = IsingModel(model.n, model.edges, model.couplings, model.fields + b)
    if bethe:
        solve, field = solve_bethe_exponential, _kernels._bp_field_map(pert)
        psi, top = (lambda y: field(np.tanh(y))), np.full(2 * model.m, np.inf)
    else:
        solve = solve_mf_exponential
        psi, top = partial(mf_step, pert), np.ones(model.n)
    run = SimpleNamespace(model=model, pert=pert, psi=psi, top=top, answers=[], box=None,
                          opt=_optimum(pert, family, name), cuts=0, worst=-math.inf)
    solve_in, sandwich = ellipsoid._solve, _kernels._sandwich

    def solve_watched(oracle, step_lo, step_hi, step_z, top_, r, target_gap, unit, bracket_gap):
        def watched(q):
            res = oracle(q)
            run.answers.append(res.feasible)
            if not res.feasible:
                excess = float(res.cut @ run.opt) - (float(res.cut @ q) - res.violation)
                run.cuts += 1
                run.worst = max(run.worst, excess / float(np.abs(res.cut).sum()))
            return res

        run.r_est, run.target_gap = r / 2.0, target_gap
        ellipsoid_maximize(watched, np.ones(top_.shape[0]), (0.0, psi(top)),
                           target_gap=target_gap, r_est=run.r_est)
        run.answers = []
        run.point, state = solve_in(watched, step_lo, step_hi, step_z, top_, r, target_gap,
                                    unit, bracket_gap)
        return run.point, state

    def bracket(*args):
        out = sandwich(*args)
        run.lo, run.hi, run.z = out[:3]
        return out

    def maximize(separate, c, box, target_gap, r_est):
        run.box = box
        return ellipsoid_maximize(separate, c, box, target_gap=target_gap, r_est=r_est)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ellipsoid, "_solve", solve_watched)
        mp.setattr(_kernels, "_sandwich", bracket)
        mp.setattr(ellipsoid, "ellipsoid_maximize", maximize)
        _point, run.value, run.state = solve(model, eps)
    return run


@pytest.fixture(scope="module")
def watched():
    """name, family -> the watched solve of _watched_solve at the model's eps,
    run once a module."""
    runs = {}

    def get(name, family):
        if (name, family) not in runs:
            runs[name, family] = _watched_solve(name, family, _WATCHED_EPS.get(name, 1e-6))
        return runs[name, family]
    return get


def test_progress_rows_hold_measured_values(watched, tmp_path):
    """A progress row holds what its step measured: the query's objective when
    the oracle found the query feasible, nan when it did not, so the finite
    rows are the feasible answers. The incumbent is their running max,
    computed where it is read: `run --plot` draws it. The rows mix both
    answers in two solves whose bracket stays open, the critical instance's
    Bethe solve and the mean-field solve of a 3x3 grid at beta 2, h 0; both
    stop at their target gap, and `run` writes the bracket, the stop reason
    and the certificate gap to summary.txt, and counts the bracket's sweeps in
    steps_used."""
    eps = 1e-6
    for run in (watched("critical", "bethe"), watched("grid3x3_beta2_h0", "mf")):
        state = run.state
        objective = state.progress
        feasible = np.array(run.answers)
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
    for family in ("bethe", "mf"):
        state = watched("grid3x3_beta2_h0", family).state
        size = len(text_of(ellipsoid_progress_csv, state))
        rows = sum(len(f"{k},nan\n") for k in range(1, state.step + 1))
        bound = len("step,objective\n") + rows + 21 * int(np.isfinite(state.progress).sum())
        assert size <= bound, (size, bound)

    state = watched("grid3x3_beta2_h0", "mf").state
    assert main(["run", "--topology", "grid:3x3", "--beta", "2", "--field", "0",
                 "--algo", "ellipsoid_mf", "--eps", repr(eps), "--plot",
                 "--out", str(tmp_path)]) == 0
    assert (tmp_path / "objective.svg").read_text(encoding="utf-8") == plot_lines(
        "best feasible", range(1, state.step + 1), np.fmax.accumulate(state.progress),
        "ellipsoid_mf incumbent", "step", "objective best")
    lines = (tmp_path / "summary.txt").read_text(encoding="utf-8").splitlines()
    assert f"steps_used {state.bracket_sweeps + state.step}" in lines
    assert lines[-4:] == [f"bracket_sweeps {state.bracket_sweeps}",
                          f"bracket_width {state.bracket_width:.17g}",
                          "stop_reason gap",
                          f"certificate_gap {state.min_upper - state.best_value:.17g}"]


def test_tracked_certificate_width_matches_factor(watched):
    state = watched("grid3x3_beta2_h0", "bethe").state
    c = np.ones(state.center.shape[0])
    want = np.linalg.norm(state.sqrt_shape.T @ c)
    assert abs(np.linalg.norm(state.lt_c) - want) <= 1e-9 * want


@pytest.mark.parametrize("family", ["bethe", "mf"])
@pytest.mark.parametrize("name", list(_WATCHED))
def test_final_ellipsoid_contains_reference_optimum(watched, family, name):
    """Where the bracket certifies the solve, the oracle reads its answer z
    feasible, the optimum of the perturbed region (in the solver's
    coordinates) lies in [z, hi], and sum(opt - z) is at most the target gap,
    measured in messages tanh(y) for Bethe.
    Where it stays open, the optimum lies in the start box [lo, hi] of the
    solver's search and in its final ellipsoid, and the oracle reads the
    corner lo + r of the start box's inner cube [lo, lo + r], r = 2 r_est, as
    feasible."""
    run = watched(name, family)
    oracle = separation_oracle_bp if family == "bethe" else separation_oracle_mf
    if run.state.stop_reason == "bracket":
        assert run.box is None and run.point is run.z
        assert oracle(run.pert, run.z).feasible
        assert np.all(run.z <= run.opt) and np.all(run.opt <= run.hi)
        unit = np.tanh if family == "bethe" else (lambda v: v)
        assert float((unit(run.opt) - unit(run.z)).sum()) <= run.target_gap
        return
    lo, hi = run.box
    assert np.all(lo <= run.opt) and np.all(run.opt <= hi)
    assert oracle(run.pert, lo + 2.0 * run.r_est).feasible
    local = np.linalg.solve(run.state.sqrt_shape, run.opt - run.state.center)
    assert np.linalg.norm(local) <= 1.0 + 1e-9


@pytest.mark.parametrize("family", ["bethe", "mf"])
@pytest.mark.parametrize("name", ["grid4x4", "cycle4", "star5"])
def test_certificate_lies_in_monotone_sandwich(watched, family, name):
    """The solver's map psi is monotone and 0 <= psi(0), so lo = psi^k(0) is a
    post-fixpoint and up = psi^k(top) lies above the greatest fixed point,
    which maximizes the coordinate sum over the region. Hence the incumbent's
    sum is at most sum(up) and the certified upper bound at least sum(lo),
    up to 1e-12 d of round-off. A Bethe solve that its bracket certified
    states its certificate in messages, so there the sums are of tanh(lo)
    and tanh(up). The bracket comes from k = 200 sweeps of the perturbed map
    alone, so a wrong certificate fails here whatever the solver does
    inside."""
    run = watched(name, family)
    state, up = run.state, run.top
    d = up.shape[0]
    lo = np.zeros(d)
    for _ in range(200):
        lo, up = run.psi(lo), run.psi(up)
    if family == "bethe" and state.stop_reason == "bracket":
        lo, up = np.tanh(lo), np.tanh(up)
    tol = 1e-12 * d
    print(f"{family} {name}: sandwich [{lo.sum():.17g}, {up.sum():.17g}] of width "
          f"{up.sum() - lo.sum():.3g}, certificate [{state.best_value:.17g}, "
          f"{state.min_upper:.17g}]")
    assert state.best_value <= up.sum() + tol
    assert state.min_upper >= lo.sum() - tol


@pytest.mark.parametrize("family", ["bethe", "mf"])
@pytest.mark.parametrize("name", ["grid4x4", "grid3x3_beta2_h0", "grid3x3_beta2_h0.1",
                                  "regular10_3", "regular4_3_beta20_h0", "grid3x3_beta10_h0.01",
                                  "critical"])
def test_no_cut_excludes_the_optimum(watched, family, name):
    """Every oracle cut of a solve, and of a search from the cold box, keeps the
    perturbed optimum: its computed excess is at most 0. The cold search runs
    where the bracket certifies the solve too, so every case cuts: on the
    benchmark's 4x4 grid, whose bracket closes, on a
    low-temperature grid with no field but the perturbation, on a random
    3-regular graph, on two saturated models and on the critical instance. On
    K4 at beta 20, h 0, tanh(J) is 1.0 in float64, every message's bp_step
    rounds to 1.0 and the Bethe oracle cuts only the side y <= field(1); on a
    3x3 grid at beta 10, h 0.01, it cuts that side and rows whose
    1/(1 - phi^2) rounding allowance reaches 1e8."""
    run = watched(name, family)
    print(f"{family} {name}: {run.cuts} cuts, worst excess {run.worst:.3g} |cut|_1, "
          f"{run.state.bracket_sweeps} bracket sweeps and {run.state.step} steps")
    assert run.cuts > 0
    assert run.worst <= 0.0, (run.cuts, run.worst)


def test_lost_cube_search_starts_from_the_bracket(watched):
    """On the 3x3 grid at beta 2, h 0.1 and eps 1e-12, the mean-field cube
    [lo, lo + r] rounds to lo, and the search still starts from the bracket's
    lower side lo."""
    run = watched("grid3x3_beta2_h0.1", "mf")
    lo, _hi = run.box
    assert np.any(run.lo + 2.0 * run.r_est == run.lo)
    assert np.array_equal(lo, run.lo)


def test_critical_instance_keeps_the_ellipsoid_cutting(watched):
    """At the critical instance BP's fixed point nu* = 0 is critical, so the
    bracket closes slowly: from its start box the ellipsoid still takes over
    10^3 steps, which keeps this instance a test of the cuts. The value is
    within eps of the dual at nu* = 0, exact here as h = 0."""
    run = watched("critical", "bethe")
    print(f"critical bethe: {run.state.bracket_sweeps} bracket sweeps of width "
          f"{run.state.bracket_width:.3g}, then {run.state.step} steps")
    assert run.state.bracket_sweeps > 0 and run.state.step > 10**3
    assert abs(run.value - dual_bethe(run.model, np.zeros(2 * run.model.m))) <= 1e-6


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
    """A solve of over 10^4 steps, the critical instance's Bethe solve at eps
    3e-5, holds below 64 bytes a step: its progress grows with the steps
    taken."""
    (_nu, _value, state), peak = peak_bytes(solve_bethe_exponential, _WATCHED["critical"](), 3e-5)
    assert state.step >= 10**4 and peak < 64 * state.step, (peak, state.step)


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
