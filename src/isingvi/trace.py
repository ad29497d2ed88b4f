"""Per-iteration traces of the variational iterations and their CSV form.

A trace holds measured values only. Its CSV carries a commented header with
the model hash, sizes and norms, from which a report computes the theorem
bounds (`meanfield.mf_error_bound`, `bp.bp_error_bound`) without the model
file. The columns are `t,objective,step_inf` (mean-field) and
`t,dual_bethe,step_inf` (BP).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import textio
from .errors import DomainError
from .model import ModelNorms, model_hash


@dataclass
class IterationTrace:
    """Recorded trajectory of mf_iterate or bp_iterate, starting at t = 0.

    objective holds the mean-field objective (algo "mf") or the message-space
    dual (algo "bp"); step_inf is nan at t = 0. A record=False run keeps its
    final row alone, with a nan objective. The theorem bound is a function of
    t and the model norms alone, given by meanfield.mf_error_bound and
    bp.bp_error_bound, so it is not stored.
    """

    algo: str
    t: np.ndarray
    objective: np.ndarray
    step_inf: np.ndarray
    converged: bool

    @property
    def steps(self) -> int:
        return int(self.t[-1])


_COLUMNS = {
    "mf": ("t", "objective", "step_inf"),
    "bp": ("t", "dual_bethe", "step_inf"),
}


# Header line -> column kinds
_SECTIONS = {",".join(c): (int, float, float) for c in _COLUMNS.values()}


def _fmt(v) -> str:
    return f"{float(v):.17g}"


def trace_to_csv(trace: IterationTrace, meta: dict, out):
    """Write a trace to the open text file `out`, its rows a block at a time;
    meta entries become leading '# key value' lines, but for the algo and
    converged entries, which the trace's own values replace."""
    if trace.algo not in _COLUMNS:
        raise DomainError(f"unknown trace algo {trace.algo!r}")
    meta = {**meta, "algo": trace.algo, "converged": trace.converged}
    head = "".join(f"# {key} {meta[key]}\n" for key in sorted(meta))
    textio.emit(out, head + ",".join(_COLUMNS[trace.algo]) + "\n", textio.rows(
        (np.asarray(trace.t, dtype=np.int64), trace.objective, trace.step_inf)))


def trace_from_csv(source) -> tuple[IterationTrace, dict]:
    """Parse trace_to_csv output, a string or an open text file; returns the
    trace and its meta dict."""
    meta, sections = textio.read_csv(source, _SECTIONS)
    algo = meta.get("algo")
    if algo not in _COLUMNS:
        raise DomainError(f"unknown trace algo {algo!r}")
    header = ",".join(_COLUMNS[algo])
    if list(sections) != [header]:
        raise DomainError(f"a trace of algo {algo!r} has the one header {header!r}, "
                          f"found {list(sections)}")
    t, objective, step_inf = sections[header]
    if not len(t):
        raise DomainError("trace CSV has no data rows")
    trace = IterationTrace(algo=algo, t=t, objective=objective, step_inf=step_inf,
                           converged=meta.get("converged", "") == "True")
    return trace, meta


def trace_meta(model, init, tol) -> dict:
    """Standard comment-header entries of a trace on this model, but for the
    algo and converged entries, which trace_to_csv takes from the trace."""
    norms = model.norms()
    init_label = init if isinstance(init, str) else "custom"
    return {
        "model_hash": model_hash(model),
        "n": model.n,
        "m": model.m,
        "j_l1": _fmt(norms.j_l1),
        "h_l1": _fmt(norms.h_l1),
        "j_linf": _fmt(norms.j_linf),
        "init": init_label,
        "tol": _fmt(tol),
    }


def trace_norms(meta: dict) -> ModelNorms:
    """The model norms that trace_meta wrote into a trace's header; sizes and
    norms that no model has (n < 1, m < 0, a negative or non-finite norm)
    raise DomainError."""
    try:
        norms = ModelNorms(j_l1=float(meta["j_l1"]), h_l1=float(meta["h_l1"]),
                           j_linf=float(meta["j_linf"]), m=int(meta["m"]), n=int(meta["n"]))
    except KeyError as exc:
        raise DomainError(f"trace header missing model metadata: {exc}") from exc
    except ValueError as exc:
        raise DomainError(f"trace header has a bad model norm: {exc}") from exc
    if norms.n < 1 or norms.m < 0 or not all(
            0.0 <= v < np.inf for v in (norms.j_l1, norms.h_l1, norms.j_linf)):
        raise DomainError(f"trace header has sizes or norms no model has: {norms}")
    return norms
