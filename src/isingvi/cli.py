"""Command-line experiment driver.

Verbs:
    gen     build a model file from a topology spec
    run     run an algorithm on a model, writing trace/state/summary artifacts
    exact   exact log Z, means and correlations by variable elimination
    report  turn trace CSVs into a residual/bound report with invariant checks

Every model file and CSV artifact is written and read by the `textio` codec.

Exit codes: 0 success, 1 validation or parse error, 2 I/O error, 3 size
error (a model too wide for exact elimination, or one too large to allocate).
"""

from __future__ import annotations

import argparse
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
from .ellipsoid import (FeasibilityError, ellipsoid_progress_csv,
                        solve_bethe_exponential, solve_mf_exponential)
from .model import (DomainError, IsingModel, ModelError, ModelNorms,
                    generate_topology, load_model, model_hash, save_model)
from .oracle import (SizeGuardError, exact_log_z, exact_result_from_csv,
                     exact_result_to_csv)
from .svgplot import plot_lines
from .textio import ParseError
from .trace import trace_from_csv, trace_meta, trace_to_csv

_ALGOS = ("mf", "bp", "ellipsoid_bethe", "ellipsoid_mf")
_MONOTONE_SLACK = 1e-11
_BOUND_SLACK = 1e-9


class ConfigError(ValueError):
    """Bad command-line arguments."""


def _parse_field_spec(text: str):
    text = text.strip()
    if text.startswith("single:"):
        parts = text.split(":")
        if len(parts) != 3:
            raise ConfigError("field spec 'single' needs single:<node>:<value>")
        try:
            return ("single", int(parts[1]), float(parts[2]))
        except ValueError as exc:
            raise ConfigError(f"bad field spec {text!r}: {exc}") from exc
    try:
        return float(text)
    except ValueError as exc:
        raise ConfigError(f"bad field spec {text!r} (use a number or single:i:v)") from exc


def _topology_kwargs(spec: str) -> dict:
    parts = spec.strip().split(":")
    kind = parts[0]
    try:
        if kind == "cycle" and len(parts) == 2:
            return {"kind": "cycle", "n": int(parts[1])}
        if kind == "grid" and len(parts) == 2:
            rows, cols = parts[1].lower().split("x")
            return {"kind": "grid", "rows": int(rows), "cols": int(cols)}
        if kind == "regular" and len(parts) == 3:
            return {"kind": "random_regular", "n": int(parts[1]), "degree": int(parts[2])}
        if kind == "tree" and len(parts) == 2:
            return {"kind": "random_tree", "n": int(parts[1])}
        if kind == "star" and len(parts) == 2:
            return {"kind": "star", "n": int(parts[1])}
    except ValueError as exc:
        raise ConfigError(f"bad topology spec {spec!r}: {exc}") from exc
    raise ConfigError(
        f"bad topology spec {spec!r} (use cycle:N, grid:RxC, regular:N:D, "
        "tree:N, or star:N)")


def build_model(args) -> IsingModel:
    """The model read from --model, or generated from --topology and --beta."""
    if args.model is not None:
        with open(args.model, encoding="utf-8") as fh:
            return load_model(fh)
    if args.beta is None:
        raise ConfigError("--topology requires --beta")
    kwargs = _topology_kwargs(args.topology)
    return generate_topology(beta=args.beta, h_spec=_parse_field_spec(args.field),
                             seed=args.seed, **kwargs)


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
    denom = float(xc @ xc)
    if denom == 0.0:
        return None
    return float(xc @ (ys - ys.mean()) / denom)


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


def _node_csv(model: IsingModel, x, out):
    textio.emit(out, "node,x\n", textio.rows((np.arange(len(x)), x)))


# What the verbs need of one algorithm family, mean-field or BP: the name of
# its objective in plots; iterate(model, init=, max_steps=, tol=, record=) ->
# (state, trace); objective(model, state); the theorem bound(norms, t); the
# ellipsoid solve(model, eps, full_output=); write_state(model, state, out);
# and the summary key of |objective - log Z| when exact.csv is present, or None.
_Family = namedtuple("_Family", "label iterate objective bound solve write_state exact_key")


def _family(algo: str) -> _Family:
    """The family of an --algo value or a trace's algo. Built per call from
    module attributes, so that wrappers installed on those attributes (as
    perfbench's tracer installs) are the functions called."""
    mf = _Family("objective", mf_mod.mf_iterate, mf_mod.mf_objective,
                 mf_mod._bound_array, solve_mf_exponential, _node_csv, None)
    bp = _Family("dual_bethe", bp_mod.bp_iterate, bp_mod.dual_bethe, bp_mod._bound_array,
                 solve_bethe_exponential, bp_mod.messages_to_csv, "dual_minus_log_z")
    return {"mf": mf, "bp": bp, "ellipsoid_mf": mf, "ellipsoid_bethe": bp}[algo]


def _run_iterative(args, model: IsingModel) -> int:
    family = _family(args.algo)
    state, trace = family.iterate(model, init=args.init, max_steps=args.steps,
                                  tol=args.tol)
    meta = trace_meta(model, args.algo, args.init, args.tol)
    _write(os.path.join(args.out, "trace.csv"), trace_to_csv(trace, meta))
    _write(os.path.join(args.out, "final_state.csv"),
           partial(family.write_state, model, state))

    finite = np.isfinite(trace.objective)
    final_obj = float(trace.objective[finite][-1]) if finite.any() else float("nan")
    best_obj = float(trace.objective[finite].max()) if finite.any() else float("nan")
    pairs = [("model_hash", meta["model_hash"]), ("algo", args.algo),
             ("init", args.init), ("n", model.n), ("m", model.m),
             ("steps_used", trace.steps), ("converged", trace.converged),
             ("final_objective", f"{final_obj:.17g}"),
             ("objective_monotone", _monotone_ok(trace.objective)),
             ("bound_dominates",
              _bound_ok(trace.t, trace.objective, trace.bound, best_obj))]

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
            [(family.label, trace.t, trace.objective)],
            title=f"{args.algo} objective", xlabel="iteration", ylabel=family.label))
        ref_steps = max(2 * args.steps, 200000)
        ref_state, _ = family.iterate(model, init=args.init, max_steps=ref_steps,
                                      tol=1e-13, record=False)
        ref_value = family.objective(model, ref_state)
        residual = ref_value - trace.objective
        _write(os.path.join(args.out, "residual.svg"), plot_lines(
            [("residual", trace.t, residual)],
            title=f"{args.algo} residual vs reference (long run, tol 1e-13)",
            xlabel="iteration", ylabel="objective residual", xlog=True, ylog=True))
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
    point, value, state = family.solve(model, args.eps, full_output=True)
    _write(os.path.join(args.out, "final_state.csv"),
           partial(family.write_state, model, point))
    steps = state.step if state is not None else 0
    if state is not None:
        _write(os.path.join(args.out, "progress.csv"), partial(ellipsoid_progress_csv, state))
        if args.plot:
            rows = [(s, b) for s, _f, b, _v in state.progress if math.isfinite(b)]
            _write(os.path.join(args.out, "objective.svg"), plot_lines(
                [("best feasible", [r[0] for r in rows], [r[1] for r in rows])],
                title=f"{args.algo} incumbent", xlabel="step",
                ylabel="objective best"))
    _write(os.path.join(args.out, "summary.txt"), _summary_text([
        ("model_hash", model_hash(model)), ("algo", args.algo),
        ("eps", f"{args.eps:g}"), ("steps_used", steps),
        ("final_objective", f"{value:.17g}")]))
    print(f"value {value:.17g}")
    return 0


def _run(args) -> int:
    if args.steps < 1:
        raise ConfigError("steps must be >= 1")
    if args.tol < 0:
        raise ConfigError("tol must be >= 0")
    if args.eps <= 0:
        raise ConfigError("eps must be > 0")
    model = build_model(args)
    os.makedirs(args.out, exist_ok=True)
    if args.algo in ("mf", "bp"):
        return _run_iterative(args, model)
    return _run_ellipsoid(args, model)


def _exact(args) -> int:
    model = build_model(args)
    os.makedirs(args.out, exist_ok=True)
    result = exact_log_z(model)
    _write(os.path.join(args.out, "exact.csv"), partial(exact_result_to_csv, result, model))
    _write(os.path.join(args.out, "summary.txt"), _summary_text([
        ("model_hash", model_hash(model)), ("algo", "exact"),
        ("n", model.n), ("m", model.m),
        ("log_z", f"{result.log_z:.17g}")]))
    print(f"log_z {result.log_z:.17g}")
    return 0


def _gen(args) -> int:
    model = build_model(args)
    if args.out:
        _write(args.out, partial(save_model, model))
    else:
        save_model(model, sys.stdout)
    return 0


def emit_report(trace_texts) -> str:
    """Build a report from trace CSVs (strings or open text files) sharing one model.

    The report contains per-iteration free-energy-density residuals against a
    per-algorithm reference (the max recorded objective), theorem
    bound columns recomputed from the model norms in the trace headers, and a
    pass/fail matrix of the invariant checks. Deterministic for fixed inputs.
    """
    trace_texts = list(trace_texts)
    if not trace_texts:
        raise DomainError("report needs at least one trace")
    parsed = [trace_from_csv(text) for text in trace_texts]
    hashes = {meta.get("model_hash") for _, meta in parsed}
    if len(hashes) != 1 or None in hashes:
        raise DomainError(f"traces disagree on the model hash: {sorted(map(str, hashes))}")
    metas = [meta for _, meta in parsed]
    try:
        n = int(metas[0]["n"])
        norms_kw = {k: float(metas[0][k]) for k in ("j_l1", "h_l1", "j_linf")}
        norms_kw.update(m=int(metas[0]["m"]), n=n)
    except KeyError as exc:
        raise DomainError(f"trace header missing model metadata: {exc}") from exc
    norms = ModelNorms(**norms_kw)
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
        if not finite.any() or ref is None:
            lines.append(f"# check {tag} objective_monotone SKIP")
            lines.append(f"# check {tag} bound_dominates SKIP")
            continue
        mono = _monotone_ok(trace.objective)
        bok = _bound_ok(trace.t, trace.objective, bound, ref)
        lines.append(f"# check {tag} objective_monotone {'PASS' if mono else 'FAIL'}")
        lines.append(f"# check {tag} bound_dominates {'PASS' if bok else 'FAIL'}")
        lines.append(f"# check {tag} converged {'PASS' if trace.converged else 'FAIL'}")
        keep = np.flatnonzero(finite)
        objective = trace.objective[keep]
        body.append(textio.rows((trace.t[keep], objective, (ref - objective) / norms.n,
                                 bound[keep]), prefix=f"{k},{trace.algo},"))
    lines.append("trace,algo,t,objective,density_residual,bound")
    return textio.emit(None, "\n".join(lines) + "\n", *body)


def _report(args) -> int:
    with contextlib.ExitStack() as stack:
        text = emit_report(stack.enter_context(open(path, encoding="utf-8"))
                           for path in args.traces)
    if args.out:
        _write(args.out, text)
    for line in text.splitlines():
        if line.startswith("# check") or line.startswith("# reference"):
            print(line[2:])
    if not args.out:
        sys.stdout.write(text)
    return 0


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ConfigError(message)


def _add_model_source(p):
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--model", help="model file path")
    source.add_argument("--topology",
                        help="cycle:N | grid:RxC | regular:N:D | tree:N | star:N")
    p.add_argument("--beta", type=float, help="uniform coupling for --topology")
    p.add_argument("--field", default="0", help="field: a number or single:i:v")
    p.add_argument("--seed", type=int, default=0)


def _build_parser():
    parser = _Parser(prog="isingvi", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("gen", help="generate a model file")
    _add_model_source(p_gen)
    p_gen.add_argument("--out", help="output model file (default stdout)")
    p_gen.set_defaults(verb=_gen)

    p_run = sub.add_parser("run", help="run an algorithm")
    _add_model_source(p_run)
    p_run.add_argument("--algo", default="bp", choices=_ALGOS)
    p_run.add_argument("--init", default="ones", choices=("ones", "zeros"))
    p_run.add_argument("--steps", type=int, default=10**6)
    p_run.add_argument("--tol", type=float, default=1e-10)
    p_run.add_argument("--eps", type=float, default=1e-8)
    p_run.add_argument("--out", required=True, help="output directory")
    p_run.add_argument("--plot", action="store_true",
                       help="write objective and residual SVG plots")
    p_run.set_defaults(verb=_run)

    p_exact = sub.add_parser("exact", help="exact log Z by variable elimination")
    _add_model_source(p_exact)
    p_exact.add_argument("--out", required=True, help="output directory")
    p_exact.set_defaults(verb=_exact)

    p_rep = sub.add_parser("report", help="summarize trace CSVs")
    p_rep.add_argument("traces", nargs="+", help="trace CSV files")
    p_rep.add_argument("--out", help="output report file (default stdout)")
    p_rep.set_defaults(verb=_report)
    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        return args.verb(args)
    except SizeGuardError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except MemoryError as exc:
        print(f"error: not enough memory: {exc}", file=sys.stderr)
        return 3
    except (ConfigError, ModelError, ParseError, DomainError, FeasibilityError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
