"""Acceptance checks for the variational Ising engine.

Each test prints one PASS/FAIL line with its measured margin before asserting,
so a red run still reports every criterion's actual numbers.
"""

import math
import time

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import cycle4, random_ferro, random_tree, triangle
from isingvi import (IsingModel, beliefs_from_messages, bp_error_bound,
                     bp_iterate, bp_message_bound, bp_step, dual_bethe,
                     dual_bethe_gradient, exact_log_z, generate_topology,
                     mf_error_bound, mf_gradient, mf_iterate, mf_objective,
                     mf_step, region_membership, solve_bethe_exponential,
                     solve_mf_exponential)
from isingvi.oracle import brute_force_bethe_optimum


def report(ok, label, msg):
    status = "PASS" if ok else "FAIL"
    print(f"{status} {label}: {msg}")
    assert ok, f"{label}: {msg}"


def corpus():
    """Twenty models: grids, regular graphs, and trees at two couplings."""
    models = []
    for rows, cols in ((5, 5), (10, 10), (20, 20)):
        for beta in (0.15, 0.6):
            for h in (0.0, 0.5):
                models.append((f"grid{rows}x{cols}_b{beta}_h{h}",
                               generate_topology("grid", beta, h,
                                                 rows=rows, cols=cols)))
    for n, d in ((30, 3), (50, 4)):
        for beta in (0.15, 0.6):
            models.append((f"regular{n}d{d}_b{beta}",
                           generate_topology("random_regular", beta, 0.25,
                                             n=n, degree=d, seed=n + d)))
    for n in (20, 40):
        for h in (0.0, 0.3):
            models.append((f"tree{n}_h{h}",
                           generate_topology("random_tree", 0.3, h,
                                             n=n, seed=n)))
    assert len(models) == 20
    return models


def test_1_bp_exact_on_trees():
    rng = np.random.default_rng(11)
    start = time.perf_counter()
    worst_dual = 0.0
    worst_belief = 0.0
    for _ in range(50):
        n = int(rng.integers(4, 15))
        model = random_tree(n, rng, j_lo=0.1, j_hi=2.0, h_lo=0.0, h_hi=1.0)
        nu, trace = bp_iterate(model, max_steps=400, tol=1e-14)
        exact = exact_log_z(model)
        worst_dual = max(worst_dual, abs(trace.objective[-1] - exact.log_z))
        dist = beliefs_from_messages(model, nu)
        worst_belief = max(
            worst_belief,
            float(np.abs(dist.node_means - exact.node_means).max()),
            float(np.abs(dist.edge_stats[:, 2] - exact.edge_correlations).max()))
    elapsed = time.perf_counter() - start
    ok = worst_dual <= 1e-8 and worst_belief <= 1e-8 and elapsed < 10.0
    report(ok, "acceptance-1-tree-exactness",
           f"50 trees, max |dual - log Z| = {worst_dual:.3g}, "
           f"max belief error = {worst_belief:.3g}, {elapsed:.2f}s")


def test_bp_exact_on_a_large_tree():
    # check 1 at n = 10^4, where elimination over a tree of cliques is exact
    model = generate_topology("random_tree", 0.6, 0.1, n=10**4, seed=0)
    start = time.perf_counter()
    exact = exact_log_z(model)
    exact_s = time.perf_counter() - start
    nu, trace = bp_iterate(model, max_steps=10**3, tol=1e-14)
    dual_gap = abs(trace.objective[-1] - exact.log_z)
    dist = beliefs_from_messages(model, nu)
    belief = max(float(np.abs(dist.node_means - exact.node_means).max()),
                 float(np.abs(dist.edge_stats[:, 2] - exact.edge_correlations).max()))
    report(trace.converged and dual_gap <= 1e-8 and belief <= 1e-8,
           "tree-exactness-n10000",
           f"|dual - log Z| = {dual_gap:.3g}, max belief error = {belief:.3g}, "
           f"exact {exact_s:.2f}s, BP {trace.steps} steps")


def test_2_cycle_closed_form():
    worst_msg = 0.0
    worst_dual = 0.0
    n = 12
    for theta_target in (0.3, 0.5, 0.9):
        beta = math.atanh(theta_target)
        model = generate_topology("cycle", beta, 0.0, n=n)
        theta = float(np.tanh(model.couplings[0]))
        lc = math.log(math.cosh(beta))
        nu = np.ones(2 * model.m)
        for t in range(1, 51):
            nu = bp_step(model, nu)
            worst_msg = max(worst_msg, float(np.abs(nu - theta ** t).max()))
            closed = n * (math.log(2.0 + 2.0 * theta ** (2 * t + 2))
                          - math.log1p(theta ** (2 * t + 1)) + lc)
            worst_dual = max(worst_dual, abs(dual_bethe(model, nu) - closed))
    ok = worst_msg <= 1e-12 and worst_dual <= 1e-10
    report(ok, "acceptance-2-cycle-closed-form",
           f"max message error {worst_msg:.3g}, max dual error {worst_dual:.3g}")


def _check_bounds(algo, models):
    iterate = mf_iterate if algo == "mf" else bp_iterate
    step = mf_step if algo == "mf" else bp_step
    bound = mf_error_bound if algo == "mf" else bp_error_bound
    worst_bound_margin = -np.inf
    worst_mono = np.inf
    coord_ok = True
    for label, model in models:
        _x, trace = iterate(model, init="ones", max_steps=10**4, tol=0.0)
        if algo == "mf":
            x_ref, _ = iterate(model, init="ones", max_steps=2 * 10**5,
                               tol=1e-13, record=False)
            ref_val = mf_objective(model, x_ref)
        else:
            nu_ref, _ = iterate(model, init="ones", max_steps=2 * 10**5,
                                tol=1e-13, record=False)
            ref_val = dual_bethe(model, nu_ref)
        reference = max(ref_val, float(trace.objective.max()))
        bounds = bound(model.norms(), trace.t)
        resid = reference - trace.objective
        margin = float((resid - bounds)[1:].max())
        worst_bound_margin = max(worst_bound_margin, margin)
        worst_mono = min(worst_mono, float(np.diff(trace.objective).min()))
        size = model.n if algo == "mf" else 2 * model.m
        cur = np.ones(size)
        for _ in range(300):
            nxt = step(model, cur)
            if not np.all(nxt <= cur):
                coord_ok = False
            cur = nxt
    return worst_bound_margin, worst_mono, coord_ok


def test_3_mf_bounds_and_monotonicity():
    margin, mono, coord_ok = _check_bounds("mf", corpus())
    ok = margin <= 1e-9 and mono >= -1e-11 and coord_ok
    report(ok, "acceptance-3-mf-rate-bound",
           f"20 models x 1e4 steps, worst residual-bound margin {margin:.3g}, "
           f"worst objective step {mono:.3g}, coordinatewise monotone {coord_ok}")


def test_4_bp_bounds_and_monotonicity():
    margin, mono, coord_ok = _check_bounds("bp", corpus())
    ok = margin <= 1e-9 and mono >= -1e-11 and coord_ok
    report(ok, "acceptance-4-bp-rate-bound",
           f"20 models x 1e4 steps, worst residual-bound margin {margin:.3g}, "
           f"worst objective step {mono:.3g}, coordinatewise monotone {coord_ok}")


def test_bp_message_rate_bound():
    """Not one of the nine checks: the l1 message rate beside check 4. On the
    twelve corpus models with fields h >= h_min > 0, |nu_t - nu*|_1 stays
    below bp_message_bound at every step t <= 2,000 from the all-ones start,
    against a tol-1e-13 reference nu*."""
    models = [(label, model) for label, model in corpus() if model.fields.min() > 0.0]
    worst, where = 0.0, None   # largest |nu_t - nu*|_1 / bound
    for label, model in models:
        h_min = float(model.fields.min())
        nu_star, _ = bp_iterate(model, init="ones", max_steps=2 * 10**5, tol=1e-13,
                                record=False)
        norms = model.norms()
        nu = np.ones(2 * model.m)
        for t in range(1, 2001):
            nu = bp_step(model, nu)
            ratio = float(np.abs(nu - nu_star).sum()) / bp_message_bound(norms, t, h_min)
            if ratio > worst:
                worst, where = ratio, f"{label} at t={t}"
    report(len(models) == 12 and worst < 1.0, "bp-message-rate-bound",
           f"{len(models)} models with h > 0 x 2,000 steps, worst |nu_t - nu*|_1 / bound "
           f"{worst:.3g} ({where})")


def _loglog_slope(ts, values):
    xs = np.log(ts)
    ys = np.log(values)
    xc = xs - xs.mean()
    return float(xc @ (ys - ys.mean()) / (xc @ xc))


def test_5_critical_decay_rates():
    n, d = 200, 3
    window = np.arange(100, 5001)

    beta_bp = math.atanh(1.0 / (d - 1))
    model = generate_topology("random_regular", beta_bp, 0.0, n=n, degree=d,
                              seed=2)
    _nu, trace = bp_iterate(model, init="ones", max_steps=5000, tol=0.0)
    ref = dual_bethe(model, np.zeros(2 * model.m))
    resid = ref - trace.objective[window]
    bp_slope = _loglog_slope(window, resid)

    model_mf = generate_topology("random_regular", 1.0 / d, 0.0, n=n, degree=d,
                                 seed=2)
    _x, trace_mf = mf_iterate(model_mf, init="ones", max_steps=5000, tol=0.0)
    ref_mf = mf_objective(model_mf, np.zeros(n))
    resid_mf = ref_mf - trace_mf.objective[window]
    mf_obj_slope = _loglog_slope(window, resid_mf)

    cur = np.ones(n)
    xs = np.empty(5001)
    xs[0] = 1.0
    for t in range(1, 5001):
        cur = mf_step(model_mf, cur)
        xs[t] = cur[0]
    # uniform init on a regular graph stays uniform, decaying to zero
    assert float(np.abs(cur).max()) < 0.05
    assert np.ptp(cur) == 0.0
    mf_param_slope = _loglog_slope(window, xs[window])

    ok = (abs(bp_slope + 2.0) <= 0.3 and abs(mf_obj_slope + 2.0) <= 0.3
          and abs(mf_param_slope + 0.5) <= 0.1)
    report(ok, "acceptance-5-critical-rates",
           f"bp residual slope {bp_slope:.3f} (want -2+-0.3), "
           f"mf residual slope {mf_obj_slope:.3f} (want -2+-0.3), "
           f"mf parameter slope {mf_param_slope:.3f} (want -0.5+-0.1)")


def test_6_fixed_point_optimality_and_gradient_signs():
    rng = np.random.default_rng(23)
    worst_gap = -np.inf
    worst_pre = -np.inf   # max gradient over pre-fixpoint samples, want <= 0
    worst_post = np.inf   # min gradient over post-fixpoint samples, want >= 0
    membership_ok = True
    for make in (triangle, cycle4):
        for beta in (0.2, 0.6):
            for h in (0.0, 0.3):
                model = make(beta, h)
                ndir = 2 * model.m
                nu_fix, _ = bp_iterate(model, max_steps=10**5, tol=1e-15)
                _dist, brute = brute_force_bethe_optimum(model)
                gap = brute - dual_bethe(model, nu_fix)
                worst_gap = max(worst_gap, gap)

                ones_path = [np.ones(ndir)]
                zeros_path = [np.zeros(ndir)]
                for _ in range(60):
                    ones_path.append(bp_step(model, ones_path[-1]))
                    zeros_path.append(bp_step(model, zeros_path[-1]))
                for _ in range(500):
                    t = int(rng.integers(0, 60))
                    u = rng.uniform(0, 1, size=ndir)
                    q = ones_path[t + 1] + u * (ones_path[t] - ones_path[t + 1])
                    r = region_membership(model, q)
                    if not (r.in_s_pre or r.fixed_point):
                        membership_ok = False
                    g = dual_bethe_gradient(model, q)
                    worst_pre = max(worst_pre, float(g.max()))

                    q = zeros_path[t] + u * (zeros_path[t + 1] - zeros_path[t])
                    r = region_membership(model, q)
                    if not (r.in_s_post or r.fixed_point):
                        membership_ok = False
                    g = dual_bethe_gradient(model, q)
                    worst_post = min(worst_post, float(g.min()))
    ok = (worst_gap <= 1e-3 and worst_pre <= 1e-12 and worst_post >= -1e-12
          and membership_ok)
    report(ok, "acceptance-6-fixed-point-optimality",
           f"8 models, max (brute - dual) = {worst_gap:.3g}, "
           f"max pre-region gradient {worst_pre:.3g}, "
           f"min post-region gradient {worst_post:.3g}, "
           f"membership consistent {membership_ok}")


def _solver_models():
    """Ten models with fields h > 0, whose monotone brackets certify their
    solves, and two at h = 0 whose brackets stay open, so that the ellipsoid
    search runs: a 3x3 grid at beta 2 and K4 at beta 20."""
    rng = np.random.default_rng(37)
    rf = random_ferro(6, 8, rng)
    lifted = IsingModel(rf.n, rf.edges, rf.couplings,
                        np.maximum(rf.fields, 0.2))
    tree8 = random_tree(8, rng, h_lo=0.2, h_hi=0.9)
    tree12 = random_tree(12, rng, h_lo=0.2, h_hi=0.9)
    return [
        IsingModel(2, np.array([[0, 1]]), np.array([0.6]), np.full(2, 0.3)),
        IsingModel(3, np.array([[0, 1], [1, 2]]), np.full(2, 0.5),
                   np.full(3, 0.25)),
        triangle(0.4, 0.3),
        cycle4(0.35, 0.2),
        generate_topology("star", 0.3, 0.4, n=5),
        generate_topology("cycle", 0.5, 0.2, n=6),
        generate_topology("grid", 0.4, 0.25, rows=2, cols=3),
        lifted,
        tree8,
        tree12,
        generate_topology("grid", 2.0, 0.0, rows=3, cols=3),
        generate_topology("random_regular", 20.0, 0.0, n=4, degree=3),
    ]


def _swept(step, x, max_sweeps=10**5):
    """x swept by step until a sweep moves no entry by more than 1e-16."""
    for _ in range(max_sweeps):
        x, prev = step(x), x
        if float(np.abs(x - prev).max()) <= 1e-16:
            break
    return x


def _monotone_bracket(model, family, eps):
    """(upper, lower): the perturbed model's public step swept from all ones
    and from zeros, by the solvers' documented perturbation (eps/2m on the
    Bethe messages, eps/2 on the means), with no solver code involved. The
    perturbed optimum lies between them, and every feasible point below upper."""
    b, step, d = ((eps / (2 * model.m), bp_step, 2 * model.m) if family == "bethe"
                  else (eps / 2, mf_step, model.n))
    pert = IsingModel(model.n, model.edges, model.couplings, model.fields + b)
    return tuple(_swept(lambda v: step(pert, v), np.full(d, s)) for s in (1.0, 0.0))


def test_7_ellipsoid_solvers_hit_epsilon():
    """Every solve lands within eps of a converged iteration's value, and in
    each family the ellipsoid finishes at least two of them: the bracket
    alone certifies the rest. Each returned point also lies in an
    independent monotone bracket of the perturbed optimum: at most its upper
    sweep, and its sum at most eps/2 below its lower sweep's."""
    eps = 1e-8
    slack = 1e-12
    worst = {"bethe": 0.0, "mf": 0.0}
    above = {"bethe": -np.inf, "mf": -np.inf}  # max(point - upper)
    short = {"bethe": -np.inf, "mf": -np.inf}  # sum(lower) - sum(point)
    by_bracket = {"bethe": [], "mf": []}  # bracket sweeps of each certified solve
    by_ellipsoid = {"bethe": [], "mf": []}  # (sweeps, steps) of each search
    worst_time = 0.0
    for model in _solver_models():
        start = time.perf_counter()
        nu_ref, _ = bp_iterate(model, max_steps=2 * 10**5, tol=1e-14)
        x_ref, _ = mf_iterate(model, max_steps=2 * 10**5, tol=1e-14)
        for family, solve, ref in (("bethe", solve_bethe_exponential, dual_bethe(model, nu_ref)),
                                   ("mf", solve_mf_exponential, mf_objective(model, x_ref))):
            point, value, state = solve(model, eps)
            worst[family] = max(worst[family], abs(value - ref))
            upper, lower = _monotone_bracket(model, family, eps)
            above[family] = max(above[family], float((point - upper).max()))
            short[family] = max(short[family], float(lower.sum() - point.sum()))
            if state.stop_reason == "bracket":
                by_bracket[family].append(state.bracket_sweeps)
            elif abs(value - ref) <= eps:
                by_ellipsoid[family].append((state.bracket_sweeps, state.step))
        worst_time = max(worst_time, time.perf_counter() - start)
    ok = (max(worst.values()) <= eps and worst_time < 60.0
          and min(map(len, by_ellipsoid.values())) >= 2
          and max(above.values()) <= slack and max(short.values()) <= eps / 2 + slack)
    report(ok, "acceptance-7-solver-accuracy",
           f"12 models at eps={eps:g}, max bethe error {worst['bethe']:.3g}, "
           f"max mf error {worst['mf']:.3g}, slowest model {worst_time:.2f}s; "
           + "; ".join(f"{family}: {len(by_bracket[family])} closed by the bracket, "
                       f"{len(by_ellipsoid[family])} by the ellipsoid (sweeps, steps) "
                       f"{by_ellipsoid[family]}, max(point - upper) {above[family]:.3g}, "
                       f"sum(lower) - sum(point) {short[family]:.3g} (eps/2 {eps / 2:g})"
                       for family in worst))


def test_8_gradient_finite_difference():
    rng = np.random.default_rng(41)
    step = 1e-5
    worst_mf = 0.0
    worst_dual = 0.0
    worst_norm = 0.0
    for model in (triangle(0.5, 0.2), cycle4(0.6, 0.3)):
        for _ in range(50):
            x = rng.uniform(-0.9, 0.9, size=model.n)
            g = mf_gradient(model, x)
            for k in range(model.n):
                hi = x.copy()
                lo = x.copy()
                hi[k] += step
                lo[k] -= step
                fd = (mf_objective(model, hi) - mf_objective(model, lo)) / (2 * step)
                worst_mf = max(worst_mf, abs(fd - g[k]) / (1.0 + abs(g[k])))
        ndir = 2 * model.m
        for _ in range(50):
            nu = rng.uniform(0.05, 0.9, size=ndir)
            g = dual_bethe_gradient(model, nu)
            worst_norm = max(worst_norm, float(np.abs(g).max()))
            for k in range(ndir):
                hi = nu.copy()
                lo = nu.copy()
                hi[k] += step
                lo[k] -= step
                fd = (dual_bethe(model, hi) - dual_bethe(model, lo)) / (2 * step)
                worst_dual = max(worst_dual, abs(fd - g[k]) / (1.0 + abs(g[k])))
    ok = worst_mf <= 1e-6 and worst_dual <= 1e-6 and worst_norm <= 1.0 + 1e-12
    report(ok, "acceptance-8-gradient-checks",
           f"100 points per gradient, worst mf fd error {worst_mf:.3g}, "
           f"worst dual fd error {worst_dual:.3g}, "
           f"max dual gradient norm {worst_norm:.6f}")


def test_9_field_initialization_advantage():
    model = generate_topology("grid", 0.384, ("single", 0, 5.0),
                              rows=40, cols=40)
    nu_ref, _ = bp_iterate(model, init="ones", max_steps=2 * 10**5, tol=1e-13,
                           record=False)
    ref = dual_bethe(model, nu_ref)
    _n1, t_ones = bp_iterate(model, init="ones", max_steps=50, tol=0.0)
    _n0, t_zeros = bp_iterate(model, init="zeros", max_steps=50, tol=0.0)
    resid_ones = ref - t_ones.objective[-1]
    resid_zeros = ref - t_zeros.objective[-1]
    ok = resid_ones <= 0.1 * resid_zeros
    report(ok, "acceptance-9-ones-init-advantage",
           f"40x40 grid with corner field, t=50 residuals: "
           f"ones {resid_ones:.3g} vs zeros {resid_zeros:.3g}")


_UNIT = st.floats(0.0, 1.0)


@settings(max_examples=80)
@given(st.data())
def test_all_ones_start_dominates(data):
    """Not one of the nine checks: the monotonicity behind them. On a random
    ferromagnetic graph with couplings and fields in [0, 1], the BP and MF
    iterates from all-ones dominate, coordinatewise at every step, the
    iterates from any start in [0, 1]."""
    n = data.draw(st.integers(1, 8), label="n")
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    keep = data.draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    edges = [p for p, k in zip(pairs, keep) if k]
    m = len(edges)
    model = IsingModel(n, np.array(edges, dtype=np.int64).reshape(-1, 2),
                       data.draw(st.lists(_UNIT, min_size=m, max_size=m)),
                       data.draw(st.lists(_UNIT, min_size=n, max_size=n)))
    x_top, x = np.ones(n), np.array(data.draw(st.lists(_UNIT, min_size=n, max_size=n)))
    nu_top = np.ones(2 * m)
    nu = np.array(data.draw(st.lists(_UNIT, min_size=2 * m, max_size=2 * m)))
    for t in range(1, 31):
        x_top, x = mf_step(model, x_top), mf_step(model, x)
        nu_top, nu = bp_step(model, nu_top), bp_step(model, nu)
        assert np.all(x_top >= x), f"MF step {t}: {x_top - x}"
        assert np.all(nu_top >= nu), f"BP step {t}: {nu_top - nu}"


def test_dimension_free_rates():
    """Not one of the nine checks: the paper's rates are dimension-free. On
    near-critical grids (beta 0.34, h 0.001) of n = 100 to 10^4 nodes, the
    per-node residual against a tol-1e-13 reference stays below the per-node
    bound for BP at t = 5, 20 and MF at t = 5, and from n = 2,500 to 10^4 it
    grows by at most 10%."""
    cases = (("bp", 5), ("bp", 20), ("mf", 5))
    per_node = {case: [] for case in cases}
    worst = 0.0   # largest residual / bound
    for side in (10, 30, 50, 100):
        model = generate_topology("grid", 0.34, 0.001, rows=side, cols=side)
        for algo, iterate, objective, bound in (
                ("bp", bp_iterate, dual_bethe, bp_error_bound),
                ("mf", mf_iterate, mf_objective, mf_error_bound)):
            ref_state, _ = iterate(model, max_steps=2 * 10**5, tol=1e-13, record=False)
            ref = objective(model, ref_state)
            ts = np.array([t for a, t in cases if a == algo])
            _state, trace = iterate(model, max_steps=int(ts.max()), tol=0.0)
            resid = ref - trace.objective[ts]
            worst = max(worst, float((resid / bound(model.norms(), ts)).max()))
            for t, r in zip(ts.tolist(), resid.tolist()):
                per_node[(algo, t)].append(r / model.n)
    growth = {case: vals[-1] / vals[-2] for case, vals in per_node.items()}
    ok = worst < 1.0 and max(growth.values()) <= 1.1
    report(ok, "dimension-free-rates",
           f"n = 100..10^4, worst residual/bound {worst:.3g}; residual/n growth "
           "from n = 2,500 to 10^4: " + ", ".join(
               f"{algo} t={t} {g:.3f}" for (algo, t), g in growth.items()) + " (want <= 1.1)")
