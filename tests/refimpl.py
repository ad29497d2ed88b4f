"""Independent slow reference implementations used only by the tests.

Everything here is written term-by-term from the defining formulas, with
plain python loops and itertools enumeration, deliberately sharing no code
with the package internals.
"""

import hashlib
import itertools
import math
import sys

import numpy as np


def ref_mf_objective(model, x):
    """Sum of coupling terms, field terms, and binary entropies."""
    total = 0.0
    for e in range(model.m):
        i, j = model.edges[e]
        total += model.couplings[e] * x[i] * x[j]
    for i in range(model.n):
        total += model.fields[i] * x[i]
        p = (1.0 + x[i]) / 2.0
        for q in (p, 1.0 - p):
            if q > 0.0:
                total -= q * math.log(q)
    return total


def ref_dual_bethe(model, nu):
    """Dual Bethe objective with explicit products instead of log sums."""
    incoming = [[] for _ in range(model.n)]
    for e in range(model.m):
        i, j = model.edges[e]
        theta = math.tanh(model.couplings[e])
        incoming[j].append(theta * nu[2 * e])      # i -> j
        incoming[i].append(theta * nu[2 * e + 1])  # j -> i
    total = 0.0
    for i in range(model.n):
        plus = math.exp(model.fields[i])
        minus = math.exp(-model.fields[i])
        for z in incoming[i]:
            plus *= 1.0 + z
            minus *= 1.0 - z
        total += math.log(plus + minus)
    for e in range(model.m):
        theta = math.tanh(model.couplings[e])
        total -= math.log(1.0 + theta * nu[2 * e] * nu[2 * e + 1])
        total += math.log(math.cosh(model.couplings[e]))
    return total


def ref_log_z(model):
    """log partition function by direct enumeration over all spin vectors."""
    weights = []
    for spins in itertools.product((-1.0, 1.0), repeat=model.n):
        energy = 0.0
        for e in range(model.m):
            i, j = model.edges[e]
            energy += model.couplings[e] * spins[i] * spins[j]
        for i in range(model.n):
            energy += model.fields[i] * spins[i]
        weights.append(energy)
    top = max(weights)
    return top + math.log(sum(math.exp(w - top) for w in weights))


def ref_moments(model):
    """(log_z, node means, edge correlations) by direct enumeration."""
    log_z = ref_log_z(model)
    means = [0.0] * model.n
    corrs = [0.0] * model.m
    for spins in itertools.product((-1.0, 1.0), repeat=model.n):
        energy = 0.0
        for e in range(model.m):
            i, j = model.edges[e]
            energy += model.couplings[e] * spins[i] * spins[j]
        for i in range(model.n):
            energy += model.fields[i] * spins[i]
        p = math.exp(energy - log_z)
        for i in range(model.n):
            means[i] += p * spins[i]
        for e in range(model.m):
            i, j = model.edges[e]
            corrs[e] += p * spins[i] * spins[j]
    return log_z, means, corrs


def cycle_log_z(n, j, h):
    """log Z of an n-cycle with uniform coupling j and field h, from the two
    eigenvalues of its 2x2 transfer matrix: n log l+ + log1p((l-/l+)^n)."""
    root = math.sqrt(math.exp(2.0 * j) * math.sinh(h) ** 2 + math.exp(-2.0 * j))
    plus = math.exp(j) * math.cosh(h) + root
    minus = math.exp(j) * math.cosh(h) - root
    return n * math.log(plus) + math.log1p((minus / plus) ** n)


def fd_gradient(fn, x, step=1e-5):
    """Central finite-difference gradient of a scalar function."""
    x = [float(v) for v in x]
    grad = []
    for k in range(len(x)):
        hi = list(x)
        lo = list(x)
        hi[k] += step
        lo[k] -= step
        grad.append((fn(hi) - fn(lo)) / (2.0 * step))
    return grad


def _ref_box_cut(q, hi):
    """The cut of the side of [0, hi_k] that q violates most as (False, cut,
    depth, inf), or None: -q_k <= 0 below the box, q_k <= hi_k above it."""
    over = [max(-v, v - top) for v, top in zip(q, hi)]
    if not over or max(over) <= 0.0:
        return None
    k = over.index(max(over))
    cut = [0.0] * len(q)
    cut[k] = -1.0 if -q[k] >= q[k] - hi[k] else 1.0
    return False, cut, over[k], math.inf


def _ref_separate(q, hi, row, upper=None):
    """Separation of q from {q in [0, hi] : q_k <= psi_k(q) for all k}, each
    psi_k concave on the box.

    row(k) gives (excess_k, depth_k, [d psi_k / d q_j for every j]): row k is
    violated when excess_k > 0, and depth_k bounds its slack q_k - psi_k(q)
    from below. The most violated side of [0, hi] is cut first. Otherwise
    the rows in V = {k : excess_k > 0} are cut together, deep, with the
    gradient of sum over V of q_k - psi_k(q), at the sum of their depths;
    with V empty, the most violated side q <= upper, when given. Returns
    (feasible, cut, violation, margin); margin is the smallest |excess_k| (a
    near-zero excess decides by round-off whether k is in V), inf for a cut
    of the first box.
    """
    d = len(q)
    cut = _ref_box_cut(q, [hi] * d)
    if cut is not None:
        return cut
    rows = [row(k) for k in range(d)]
    margin = min((abs(r[0]) for r in rows), default=math.inf)
    violated = [k for k in range(d) if rows[k][0] > 0.0]
    if violated:
        cut = [0.0] * d
        for k in violated:
            cut[k] += 1.0
            for j in range(d):
                cut[j] -= rows[k][2][j]
        return False, cut, sum(rows[k][1] for k in violated), margin
    cut = _ref_box_cut(q, upper) if upper is not None else None
    return (True, None, 0.0, margin) if cut is None else (*cut[:3], margin)


def _ref_allowance(model):
    """c eps with c = 3 (max degree + 2) and eps the machine epsilon."""
    degree = [0] * model.n
    for i, j in model.edges.tolist():
        degree[i] += 1
        degree[j] += 1
    return 3.0 * (max(degree, default=0) + 2.0) * sys.float_info.epsilon


def ref_separation_mf(model, x):
    """Separation from {x in [0,1]^n : x <= tanh(Jx + h)} with a dense J, by
    deep cuts at the summed slack, each violated row's less c eps, floored at
    0, with c = 3 (max degree + 2) and eps the machine epsilon."""
    n = model.n
    dense = [[0.0] * n for _ in range(n)]
    for e in range(model.m):
        i, j = model.edges[e]
        dense[i][j] = dense[j][i] = float(model.couplings[e])
    allowance = _ref_allowance(model)

    def row(k):
        phi = math.tanh(float(model.fields[k]) + sum(dense[k][j] * x[j] for j in range(n)))
        depth = max(0.0, x[k] - phi - allowance)
        return x[k] - phi, depth, [(1.0 - phi * phi) * v for v in dense[k]]

    return _ref_separate(list(x), 1.0, row)


def ref_separation_bp(model, y):
    """Separation from the Bethe region {y >= 0 : y <= F(y)} in log-odds
    y = atanh(nu), summing over the incoming messages of each directed edge
    i -> j (2e is i -> j, 2e+1 is j -> i): F_k(y) = h_i plus
    atanh(min(tanh(J) tanh y_c, 1 - 1e-15)) over the edges c into i other than
    j -> i. Row k is violated when tanh y_k > tanh F_k; its depth is
    y_k - atanh(tanh F_k) less c eps (y_k + 1/(1 - tanh^2 F_k)), floored at 0,
    with c = 3 (max degree + 2) and eps the machine epsilon. With no row
    violated, the side y <= F(inf) is cut."""
    ends = []
    for e in range(model.m):
        i, j = (int(v) for v in model.edges[e])
        ends += [(i, j), (j, i)]
    allowance = _ref_allowance(model)
    clamp = 1.0 - 1e-15

    def field(d, nus):
        """(F_d at messages nus, [d F_d / d y_c for every c])."""
        src, dst = ends[d]
        total = float(model.fields[src])
        partials = [0.0] * len(ends)
        for c, (a, b) in enumerate(ends):
            if b == src and a != dst:
                theta = math.tanh(model.couplings[c // 2])
                t = min(theta * nus[c], clamp)
                total += math.atanh(t)
                partials[c] = (1.0 - nus[c] ** 2) * theta / (1.0 - t * t)
        return total, partials

    nu = [math.tanh(v) for v in y]

    def row(k):
        total, partials = field(k, nu)
        phi = math.tanh(total)
        depth = 0.0
        if nu[k] > phi:
            depth = max(0.0, y[k] - math.atanh(phi) - allowance * (y[k] + 1.0 / (1.0 - phi * phi)))
        return nu[k] - phi, depth, partials

    upper = [field(k, [1.0] * len(ends))[0] for k in range(len(ends))]
    return _ref_separate(list(y), math.inf, row, upper)


def ref_bp_field(model, nu):
    """Field of the BP update per directed edge d = (i -> j), summed in a fixed
    order: numpy's arctanh(tanh(J) nu) per directed edge, clamped to
    |tanh(J) nu| <= 1 - 1e-15 as the package does, then h_i plus the values
    of the edges into i other than j -> i, added to 0.0 in ascending id order."""
    theta = np.repeat(np.tanh(np.asarray(model.couplings, dtype=np.float64)), 2)
    a = np.arctanh(np.clip(theta * np.asarray(nu, dtype=np.float64), -1.0 + 1e-15, 1.0 - 1e-15))
    ends = []
    for e in range(model.m):
        i, j = model.edges[e]
        ends += [(i, j), (j, i)]
    field = []
    for src, dst in ends:
        total = 0.0
        for q, (a_src, a_dst) in enumerate(ends):
            if a_dst == src and a_src != dst:
                total += float(a[q])
        field.append(float(model.fields[src]) + total)
    return np.array(field, dtype=np.float64)


def bisect_root(fn, lo, hi, tol=1e-14):
    """Root of fn on [lo, hi] by bisection; fn(lo) and fn(hi) must differ in sign."""
    flo = fn(lo)
    if flo == 0.0:
        return lo
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        fmid = fn(mid)
        if fmid == 0.0 or hi - lo < tol:
            return mid
        if (fmid > 0.0) == (flo > 0.0):
            lo, flo = mid, fmid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def golden_max(fn, lo, hi, tol=1e-12):
    """Golden-section maximum of a unimodal function on [lo, hi]."""
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = fn(c), fn(d)
    while b - a > tol:
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = fn(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = fn(d)
    return 0.5 * (a + b)


# Per-row artifact writers: each line formatted on its own with f"{v:.17g}".
# The package's block writers must reproduce their text byte for byte.

def ref_save_model(model):
    """Canonical model text: n, node lines for nonzero fields, edge lines."""
    out = [f"n {model.n}"]
    for i in range(model.n):
        h = model.fields[i]
        if h != 0.0:
            out.append(f"node {i} {h:.17g}")
    for e in range(model.m):
        i, j = model.edges[e]
        out.append(f"edge {i} {j} {model.couplings[e]:.17g}")
    return "\n".join(out) + "\n"


def ref_model_hash(model):
    return hashlib.sha256(ref_save_model(model).encode()).hexdigest()[:16]


def ref_node_csv(x):
    return "node,x\n" + "".join(f"{i},{v:.17g}\n" for i, v in enumerate(x))


def ref_trace_csv(trace, meta):
    """Trace CSV: sorted '# key value' lines, the header, one row per step."""
    columns = {"mf": "t,objective,step_inf",
               "bp": "t,dual_bethe,step_inf"}
    meta = {**meta, "algo": trace.algo, "converged": trace.converged}
    lines = [f"# {key} {meta[key]}" for key in sorted(meta)]
    lines.append(columns[trace.algo])
    cols = (trace.objective, trace.step_inf)
    for k in range(len(trace.t)):
        lines.append(",".join([str(int(trace.t[k]))] + [f"{float(c[k]):.17g}" for c in cols]))
    return "\n".join(lines) + "\n"


def ref_progress_csv(progress):
    lines = ["step,objective"]
    for step, value in enumerate(progress.tolist(), 1):
        lines.append(f"{step},{value:.17g}" if math.isfinite(value) else f"{step},nan")
    return "\n".join(lines) + "\n"


def ref_exact_csv(result, model):
    lines = [f"# model_hash {ref_model_hash(model)}", f"# log_z {result.log_z:.17g}",
             "node,mean"]
    for i, v in enumerate(result.node_means):
        lines.append(f"{i},{v:.17g}")
    lines.append("i,j,corr")
    for e, c in enumerate(result.edge_correlations):
        lines.append(f"{model.edges[e][0]},{model.edges[e][1]},{c:.17g}")
    return "\n".join(lines) + "\n"


def ref_report_rows(k, algo, t, objective, reference, n, bound):
    """A report's data rows for trace k. Of the rows with a finite objective
    it keeps the first, the last, and for each j >= 0 the first whose t is at
    least floor(10^(j/20)): walking the rows in order, a row is kept when it
    reaches the next such threshold."""
    finite = [i for i in range(len(t)) if math.isfinite(objective[i])]
    lines, j = [], 0
    for pos, i in enumerate(finite):
        keep = pos in (0, len(finite) - 1)
        while int(t[i]) >= math.floor(10 ** (j / 20)):
            keep, j = True, j + 1
        if keep:
            resid = (reference - objective[i]) / n
            lines.append(f"{k},{algo},{int(t[i])},{objective[i]:.17g},{resid:.17g},"
                         f"{bound[i]:.17g}\n")
    return "".join(lines)


def ref_bound_ratio(t, objective, reference, bound):
    """(largest (reference - objective) / bound, its first t) over the rows
    with t >= 1 and a finite objective, row by row."""
    best = None
    for i in range(len(t)):
        if int(t[i]) >= 1 and math.isfinite(objective[i]):
            ratio = (reference - float(objective[i])) / float(bound[i])
            if best is None or ratio > best[0]:
                best = (ratio, int(t[i]))
    return best


def ref_plot_points(xs, ys, log=False):
    """The polyline `points` text of svgplot.plot_lines, point by point: drop
    non-finite points (and nonpositive ones on log axes), take math.log10 on
    log axes, scale into the 720x460 plot with margins 76, 22, 40, 52 (y
    range padded by 5%), keep the M4 points and format each coordinate with 2
    decimals. M4 keeps, in each run of points in one pixel column
    min(floor(x), 697), the first, the last, the lowest y and the highest y,
    ties going to the earliest; the kept points stay in index order."""
    pts = []
    for x, y in zip(xs, ys):
        x, y = float(x), float(y)
        if math.isfinite(x) and math.isfinite(y) and not (log and (x <= 0 or y <= 0)):
            pts.append((math.log10(x), math.log10(y)) if log else (x, y))
    xlo, xhi = min(p[0] for p in pts), max(p[0] for p in pts)
    ylo, yhi = min(p[1] for p in pts), max(p[1] for p in pts)
    if xhi - xlo <= 0:
        xlo, xhi = xlo - 0.5, xhi + 0.5
    if yhi - ylo <= 0:
        ylo, yhi = ylo - 0.5, yhi + 0.5
    ypad = 0.05 * (yhi - ylo)
    ylo, yhi = ylo - ypad, yhi + ypad
    pw, ph = 720 - 76 - 22, 460 - 40 - 52
    pix = [(76 + pw * (x - xlo) / (xhi - xlo), 40 + ph * (yhi - y) / (yhi - ylo))
           for x, y in pts]
    col = [min(math.floor(x), 76 + pw - 1) for x, _ in pix]
    kept = set()
    start = 0
    for k in range(1, len(pix) + 1):
        if k == len(pix) or col[k] != col[start]:
            run = range(start, k)
            # min and max return the first of equal keys: ties go to the earliest
            kept.update((start, k - 1, min(run, key=lambda i: pix[i][1]),
                         max(run, key=lambda i: pix[i][1])))
            start = k
    return " ".join(f"{pix[i][0]:.2f},{pix[i][1]:.2f}" for i in sorted(kept))
