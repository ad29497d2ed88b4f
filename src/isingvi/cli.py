"""Command-line experiment driver.

Verbs:
    gen     build a model file from a topology spec
    run     run an algorithm on a model, writing trace/state/summary artifacts
    exact   exact log Z, means and correlations by variable elimination
    report  turn trace CSVs into a residual/bound report with invariant checks

Every model file and CSV artifact is written and read by the `textio` codec.
`gen --topology` needs only the standard library: it writes the columns of
`topology.generate` through `textio._model_text`, the one model-file writer.
run, exact and report are in `verbs`, which loads numpy and is imported when
one of them runs, after the model is read; `gen --model` imports `model` to
read its file.

Exit codes: 0 success, 1 validation or parse error, 2 I/O error, 3 size
error (a model too wide for exact elimination, an ellipsoid search whose
d x d factor would pass 2^25 entries (d >= 5,793), or a model too large to
allocate).
"""

from __future__ import annotations

import argparse
import math
import sys

from . import textio, topology
from .errors import DomainError, FeasibilityError, ModelError, ParseError, SizeGuardError

_ALGOS = ("mf", "bp", "ellipsoid_bethe", "ellipsoid_mf")


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


def _topology_args(args) -> dict:
    """The keyword arguments of `topology.generate` given by --topology,
    --beta, --field and --seed."""
    if args.beta is None:
        raise ConfigError("--topology requires --beta")
    return dict(beta=args.beta, h_spec=_parse_field_spec(args.field), seed=args.seed,
                **_topology_kwargs(args.topology))


def build_model(args):
    """The IsingModel read from --model, or generated from --topology and --beta."""
    from .model import generate_topology, load_model

    if args.model is not None:
        with open(args.model, encoding="utf-8") as fh:
            return load_model(fh)
    return generate_topology(**_topology_args(args))


def _run(args) -> int:
    if args.steps < 1:
        raise ConfigError("steps must be >= 1")
    if not args.tol >= 0:
        raise ConfigError("tol must be >= 0")
    if not 0 < args.eps < math.inf:
        raise ConfigError(f"eps must be finite and > 0, got {args.eps:g}")
    model = build_model(args)
    from . import verbs
    return verbs._run(args, model)


def _exact(args) -> int:
    model = build_model(args)
    from . import verbs
    return verbs._exact(args, model)


def _report(args) -> int:
    from . import verbs
    return verbs._report(args)


def _gen(args) -> int:
    if args.model is not None:
        from .model import _columns
        columns = _columns(build_model(args))
    else:
        columns = topology.generate(**_topology_args(args))
    parts = textio._model_text(*columns)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            textio.emit(fh, *parts)
    else:
        textio.emit(sys.stdout, *parts)
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
