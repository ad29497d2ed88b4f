"""The verbs of the command line that need numpy: run, exact and report.

`cli` imports this module when one of them runs, so that `cli` itself and
`gen --topology` load no numpy, and after it has read the model: imported
before the parse, the solver modules raised the peak RSS of the BP job on a
200x200 grid from 39.98-40.05 to 41.08-41.17 MB at one checkout path, and
from 39.83-39.96 to 40.09-40.14 MB at another (5-6 runs each).
"""

from __future__ import annotations

import contextlib
import math
import os
import sys
from collections import namedtuple
from functools import partial

import numpy as np

from . import bp as bp_mod
from . import meanfield as mf_mod
from . import textio
from .ellipsoid import ellipsoid_progress_csv, solve_bethe_exponential, solve_mf_exponential
from .errors import DomainError
from .model import IsingModel, model_hash
from .oracle import exact_log_z, exact_result_from_csv, exact_result_to_csv
from .svgplot import plot_lines
from .trace import trace_from_csv, trace_meta, trace_norms, trace_to_csv

_MONOTONE_SLACK = 1e-11
_BOUND_SLACK = 1e-9


def _write(path: str, content):
    """Write `content` to path: a str, or a function that writes to the open file."""
    with open(path, "w", encoding="utf-8") as fh:
        if isinstance(content, str):
            fh.write(content)
        else:
            content(fh)


def _summary_text(pairs) -> str:
    return "\n".join(f"{k} {v}" for k, v in pairs) + "\n"


def _loglog_slope(ts, rs):
    """Least-squares slope of log r against log t (arrays); None with < 2 usable
    points. math.log, not np.log: they differ in the last bit on some values."""
    use = (ts > 0) & (rs > 0) & np.isfinite(rs)
    if np.count_nonzero(use) < 2:
        return None
    xs = np.array([math.log(t) for t in ts[use].tolist()])
    ys = np.array([math.log(r) for r in rs[use].tolist()])
    xc = xs - xs.mean()
    return float(xc @ (ys - ys.mean()) / (xc @ xc))


def _monotone_ok(values) -> bool:
    """Non-decreasing up to a slack relative to the objective's size
    (absolute for objectives of size <= 1)."""
    v = values[np.isfinite(values)]
    if v.size < 2:
        return True
    slack = _MONOTONE_SLACK * max(1.0, float(np.abs(v).max()))
    return bool(np.all(np.diff(v) >= -slack))


def _bound_ok(t, objective, bound, reference) -> bool:
    """reference - objective stays within bound (plus _BOUND_SLACK) at every
    recorded step t >= 1."""
    use = (t >= 1) & np.isfinite(objective)
    return not np.any(reference - objective[use] > bound[use] + _BOUND_SLACK)


def _log_rows(t):
    """Indices of the rows a report writes of the ascending steps t: the first,
    the last, and for each k >= 0 the first with t >= floor(10^(k/20)), about
    20 a decade. searchsorted allocates only the ~20 log10(t) indices, and a
    set dedupes them (np.unique imports numpy.ma, 1.3 MB)."""
    k = np.arange(int(20 * math.log10(max(t[-1], 1))) + 1)
    edges = np.floor(10.0 ** (k / 20)).astype(t.dtype)  # t's dtype: no cast of t
    return sorted({0, len(t) - 1, *np.searchsorted(t[:-1], edges).tolist()})


def _bound_ratio(t, objective, bound, reference):
    """(value, t) of the largest (reference - objective) / bound over the
    finite rows with t >= 1, the first t of a tie; None without such rows."""
    use = np.flatnonzero((t >= 1) & np.isfinite(objective))
    if not use.size:
        return None
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = (reference - objective[use]) / bound[use]
    i = int(np.argmax(ratio))
    return float(ratio[i]), int(t[use[i]])


def _node_csv(x, out):
    textio.emit(out, "node,x\n", textio.rows((np.arange(len(x)), x)))


# What the verbs need of one algorithm family, mean-field or BP: the name of
# its objective in plots; iterate(model, init=, max_steps=, tol=, record=) ->
# (state, trace); objective(model, state); the theorem bound(norms, t); the
# ellipsoid solve(model, eps) -> (point, value, state); marginals(model,
# state), the node means that final_state.csv holds; and the summary key of
# |objective - log Z| when exact.csv is present, or None.
_Family = namedtuple("_Family", "label iterate objective bound solve marginals exact_key")


def _family(algo: str) -> _Family:
    """The family of an --algo value or a trace's algo. Built per call from
    module attributes, so that wrappers installed on those attributes (as
    perfbench's tracer installs) are the functions called."""
    mf = _Family("objective", mf_mod.mf_iterate, mf_mod.mf_objective,
                 mf_mod.mf_error_bound, solve_mf_exponential, lambda model, x: x, None)
    bp = _Family("dual_bethe", bp_mod.bp_iterate, bp_mod.dual_bethe, bp_mod.bp_error_bound,
                 solve_bethe_exponential, bp_mod.node_estimates, "dual_minus_log_z")
    return {"mf": mf, "bp": bp, "ellipsoid_mf": mf, "ellipsoid_bethe": bp}[algo]


def _run_iterative(args, model: IsingModel) -> int:
    family = _family(args.algo)
    state, trace = family.iterate(model, init=args.init, max_steps=args.steps,
                                  tol=args.tol)
    meta = trace_meta(model, args.init, args.tol)
    _write(os.path.join(args.out, "trace.csv"), partial(trace_to_csv, trace, meta))
    _write(os.path.join(args.out, "final_state.csv"),
           partial(_node_csv, family.marginals(model, state)))

    finite = np.isfinite(trace.objective)
    final_obj = float(trace.objective[finite][-1]) if finite.any() else float("nan")
    best_obj = float(trace.objective[finite].max()) if finite.any() else float("nan")
    bound = family.bound(model.norms(), trace.t)
    pairs = [("model_hash", meta["model_hash"]), ("algo", args.algo),
             ("init", args.init), ("n", model.n), ("m", model.m),
             ("steps_used", trace.steps), ("converged", trace.converged),
             ("final_objective", f"{final_obj:.17g}"),
             ("objective_monotone", _monotone_ok(trace.objective)),
             ("bound_dominates", _bound_ok(trace.t, trace.objective, bound, best_obj))]

    exact_path = os.path.join(args.out, "exact.csv")
    if family.exact_key is not None and os.path.exists(exact_path):
        with open(exact_path, encoding="utf-8") as fh:
            result, emeta = exact_result_from_csv(fh)
        if emeta.get("model_hash") == meta["model_hash"]:
            gap = abs(final_obj - result.log_z)
            pairs.append(("exact_log_z", f"{result.log_z:.17g}"))
            pairs.append((family.exact_key, f"{gap:.17g}"))

    if args.plot:
        _write(os.path.join(args.out, "objective.svg"), plot_lines(
            family.label, trace.t, trace.objective, f"{args.algo} objective",
            "iteration", family.label))
        ref_steps = max(2 * trace.steps, 200000)
        ref_state, _ = family.iterate(model, init=state, max_steps=ref_steps - trace.steps,
                                      tol=1e-13, record=False)
        # the trace maximum if it tops the continued value by round-off only
        ref_value = family.objective(model, ref_state)
        if best_obj - ref_value <= 1e-14 * abs(best_obj):
            ref_value = max(ref_value, best_obj)
        residual = ref_value - trace.objective
        _write(os.path.join(args.out, "residual.svg"), plot_lines(
            "residual", trace.t, residual, f"{args.algo} residual vs reference "
            "(long run, tol 1e-13)", "iteration", "objective residual", log=True))
        # trace.t[k] == k, so the window t >= lo_t is the slice from lo_t
        lo_t = max(1, trace.steps // 10)
        slope = _loglog_slope(trace.t[lo_t:], residual[lo_t:])
        pairs.append(("reference_value", f"{ref_value:.17g}"))
        pairs.append(("reference_source", f"long_run(tol=1e-13,max_steps={ref_steps})"))
        if slope is not None:
            pairs.append(("residual_loglog_slope", f"{slope:.6g}"))

    _write(os.path.join(args.out, "summary.txt"), _summary_text(pairs))
    return 0


def _run_ellipsoid(args, model: IsingModel) -> int:
    family = _family(args.algo)
    point, value, state = family.solve(model, args.eps)
    _write(os.path.join(args.out, "final_state.csv"),
           partial(_node_csv, family.marginals(model, point)))
    _write(os.path.join(args.out, "progress.csv"), partial(ellipsoid_progress_csv, state))
    # the bracket's sweeps count as solver steps beside the ellipsoid's; the
    # bracket and the certificate of the perturbed problem are coordinate sums:
    # of means for mean-field, of messages for Bethe (of log-odds after a search)
    pairs = [("model_hash", model_hash(model)), ("algo", args.algo),
             ("eps", f"{args.eps:g}"), ("steps_used", state.bracket_sweeps + state.step),
             ("final_objective", f"{value:.17g}"),
             ("bracket_sweeps", state.bracket_sweeps),
             ("bracket_width", f"{state.bracket_width:.17g}"),
             ("stop_reason", state.stop_reason),
             ("certificate_gap", f"{state.min_upper - state.best_value:.17g}")]
    if args.plot and state.step:  # a solve its bracket certified ran no search to draw
        _write(os.path.join(args.out, "objective.svg"), plot_lines(
            "best feasible", range(1, state.step + 1), np.fmax.accumulate(state.progress),
            f"{args.algo} incumbent", "step", "objective best"))
    _write(os.path.join(args.out, "summary.txt"), _summary_text(pairs))
    print(f"value {value:.17g}")
    return 0


def _run(args, model: IsingModel) -> int:
    os.makedirs(args.out, exist_ok=True)
    if args.algo in ("mf", "bp"):
        return _run_iterative(args, model)
    return _run_ellipsoid(args, model)


def _exact(args, model: IsingModel) -> int:
    os.makedirs(args.out, exist_ok=True)
    result = exact_log_z(model)
    _write(os.path.join(args.out, "exact.csv"), partial(exact_result_to_csv, result, model))
    _write(os.path.join(args.out, "summary.txt"), _summary_text([
        ("model_hash", model_hash(model)), ("algo", "exact"),
        ("n", model.n), ("m", model.m),
        ("log_z", f"{result.log_z:.17g}")]))
    print(f"log_z {result.log_z:.17g}")
    return 0


def _report_parts(trace_texts) -> list:
    """Parse and check trace CSVs (open text files) sharing one model; return
    the report as textio parts: the '#' header of references, pass/fail checks,
    each checked trace's largest residual-to-bound ratio and the column header,
    then one iterable of row blocks per trace with rows. The checks and the
    ratio read every finite row; the table holds those `_log_rows` picks, and
    trace.csv keeps the rest. A row holds the free-energy-density residual
    against the max recorded objective of its algorithm, and the theorem bound
    from the header's norms. Every refusal is raised here, before anything is
    written."""
    parsed = [trace_from_csv(text) for text in trace_texts]
    hashes = {meta.get("model_hash") for _, meta in parsed}
    if len(hashes) != 1 or None in hashes:
        raise DomainError(f"traces disagree on the model hash: {sorted(map(str, hashes))}")
    norms = trace_norms(parsed[0][1])
    refs = {}
    for trace, _meta in parsed:
        vals = trace.objective[np.isfinite(trace.objective)]
        if vals.size:
            refs[trace.algo] = max(refs.get(trace.algo, -np.inf), float(vals.max()))
    lines = [f"# model_hash {sorted(hashes)[0]}", f"# n {norms.n}", f"# m {norms.m}"]
    for algo in sorted(refs):
        lines.append(f"# reference {algo} {refs[algo]:.17g} source=trace_max")
    body = []
    for k, (trace, _meta) in enumerate(parsed):
        tag = f"trace{k}({trace.algo})"
        bound = _family(trace.algo).bound(norms, trace.t)
        ref = refs.get(trace.algo)
        finite = np.isfinite(trace.objective)
        if finite.any() and ref is not None:
            mono = "PASS" if _monotone_ok(trace.objective) else "FAIL"
            bok = "PASS" if _bound_ok(trace.t, trace.objective, bound, ref) else "FAIL"
        else:
            mono = bok = "SKIP"
        lines.append(f"# check {tag} objective_monotone {mono}")
        lines.append(f"# check {tag} bound_dominates {bok}")
        lines.append(f"# check {tag} converged {'PASS' if trace.converged else 'FAIL'}")
        if mono == "SKIP":
            continue
        worst = _bound_ratio(trace.t, trace.objective, bound, ref)
        if worst is not None:
            lines.append(f"# bound_ratio {tag} {worst[0]:.17g} at t {worst[1]}")
        keep = np.flatnonzero(finite)
        keep = keep[_log_rows(trace.t[keep])]
        objective = trace.objective[keep]
        body.append(textio.rows((trace.t[keep], objective, (ref - objective) / norms.n,
                                 bound[keep]), prefix=f"{k},{trace.algo},"))
    lines.append("trace,algo,t,objective,density_residual,bound")
    return ["\n".join(lines) + "\n", *body]


def _report(args) -> int:
    with contextlib.ExitStack() as stack:
        parts = _report_parts([stack.enter_context(open(path, encoding="utf-8"))
                               for path in args.traces])
    if not args.out:
        textio.emit(sys.stdout, *parts)
        return 0
    _write(args.out, lambda fh: textio.emit(fh, *parts))
    for line in parts[0].splitlines():
        if line.startswith(("# check", "# reference")):
            print(line[2:])
    return 0
