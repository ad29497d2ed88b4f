"""Timing spans around the public functions of every `isingvi` module.

`Tracer.install()` replaces each public function (and each public method of
the classes a module defines) with a wrapper that records a span, in every
module namespace that binds the same object, so `from .bp import bp_step` in
`ellipsoid` is traced as well as `bp.bp_step`. `uninstall()` restores the
originals. No program file changes.

A span is (name, start, end, parent, job); spans stay in memory and are
written out when the run ends. A few functions also get attributes read from
their arguments and results (step counts, sizes, bytes) so that per-step and
per-byte rates are measured where the work happens.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import os
import time
from statistics import median

PACKAGE = "isingvi"
ROOT_LAYER = "perfbench"


def _iterate_attrs(args, result):
    bound = args()
    return {"record": bool(bound.get("record", True)), "steps": int(result[1].steps),
            "ndir": 2 * int(bound["model"].m)}


# Attribute readers, keyed by span name: reader(args, result), where args()
# returns the call's arguments by parameter name. Readers that need only the
# result do not call it, so hot calls skip the argument binding. They read
# only public names.
ATTRS = {
    "bp.bp_iterate": _iterate_attrs,
    "meanfield.mf_iterate": _iterate_attrs,
    "oracle.exact_log_z": lambda a, r: {"states": 2 ** int(a()["model"].n)},
    "trace.trace_to_csv": lambda a, r: {"bytes": len(r), "rows": len(a()["trace"].t)},
    "ellipsoid.ellipsoid_maximize": lambda a, r: {"steps": int(r[1].step)},
    "ellipsoid.separation_oracle_bp": lambda a, r: {"feasible": bool(r.feasible)},
    "ellipsoid.separation_oracle_mf": lambda a, r: {"feasible": bool(r.feasible)},
    "svgplot.plot_lines": lambda a, r: {"bytes": len(r)},
}


def _arguments(signature, args, kwargs) -> dict:
    bound = signature.bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


class Tracer:
    """Collects spans; `job` tags every span opened while it is set."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names = []        # span name per span
        self.start = []
        self.end = []
        self.parent = []       # index of the enclosing span, -1 at the root
        self.job = []
        self.attrs = {}        # span index -> dict
        self.current_job = ""
        self._stack = []
        self._patches = []     # (owner, attribute, original)

    def open(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.job.append(self.current_job)
        self.end.append(None)
        self._stack.append(idx)
        self.start.append(self.clock())
        return idx

    def close(self, idx: int):
        self.end[idx] = self.clock()
        self._stack.pop()

    def wrap(self, name: str, fn):
        reader = ATTRS.get(name)
        signature = inspect.signature(fn) if reader else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if reader is not None:
                try:
                    self.attrs[idx] = reader(lambda: _arguments(signature, args, kwargs),
                                             result)
                except (AttributeError, IndexError, KeyError, TypeError) as exc:
                    self.attrs[idx] = {"error": repr(exc)}
            return result

        return traced

    def install(self, src_dir: str):
        """Wrap every public function and method of the package's modules."""
        pkg_dir = os.path.join(src_dir, PACKAGE)
        modules = [importlib.import_module(PACKAGE)]
        for fname in sorted(os.listdir(pkg_dir)):
            if fname.endswith(".py") and fname != "__init__.py":
                modules.append(importlib.import_module(f"{PACKAGE}.{fname[:-3]}"))
        wrappers = {}  # id(original) -> wrapper
        for mod in modules[1:]:
            layer = mod.__name__.rsplit(".", 1)[1]
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrappers[id(obj)] = (obj, self.wrap(f"{layer}.{attr}", obj))
                elif inspect.isclass(obj):
                    for meth, fn in list(vars(obj).items()):
                        if not meth.startswith("_") and inspect.isfunction(fn):
                            self._patch(obj, meth, self.wrap(f"{layer}.{attr}.{meth}", fn))
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._patch(mod, attr, hit[1])

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def __len__(self):
        return len(self.names)

    def write_csv_gz(self, path: str):
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write("index,name,start,end,parent,job\n")
            for i, name in enumerate(self.names):
                fh.write(f"{i},{name},{self.start[i]!r},{self.end[i]!r},"
                         f"{self.parent[i]},{self.job[i]}\n")


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


def durations(tr: Tracer, lo: int = 0, hi: int | None = None) -> list:
    hi = len(tr) if hi is None else hi
    return [tr.end[i] - tr.start[i] for i in range(lo, hi)]


def self_times(tr: Tracer, lo: int = 0, hi: int | None = None) -> list:
    """Duration of each span in [lo, hi) minus the durations of its direct children."""
    hi = len(tr) if hi is None else hi
    out = durations(tr, lo, hi)
    for i in range(lo, hi):
        p = tr.parent[i]
        if p >= lo:
            out[p - lo] -= tr.end[i] - tr.start[i]
    return out


def layer_self_times(tr: Tracer, lo: int = 0, hi: int | None = None) -> dict:
    """Self time summed per layer (module) over spans [lo, hi)."""
    out = {}
    for i, s in zip(range(lo, len(tr) if hi is None else hi), self_times(tr, lo, hi)):
        layer = layer_of(tr.names[i])
        out[layer] = out.get(layer, 0.0) + s
    return out


def _ratio(num, den, scale=1.0):
    return num / den * scale if den else None


def round_metrics(tr: Tracer, lo: int, hi: int) -> dict:
    """Per-layer metrics of the traced spans [lo, hi) (one round of one workload).

    A metric is None when its layer did no work in the round.
    """
    dur = durations(tr, lo, hi)
    selfs = self_times(tr, lo, hi)
    tot, self_tot, spans = {}, {}, {}
    kernel_under = {}  # span index -> time of its direct children in `_kernels`
    for k, i in enumerate(range(lo, hi)):
        name = tr.names[i]
        tot[name] = tot.get(name, 0.0) + dur[k]
        self_tot[name] = self_tot.get(name, 0.0) + selfs[k]
        spans.setdefault(name, []).append(i)
        if layer_of(name) == "_kernels" and tr.parent[i] >= lo:
            kernel_under[tr.parent[i]] = kernel_under.get(tr.parent[i], 0.0) + dur[k]
    count = {name: len(idx) for name, idx in spans.items()}

    def attrs(name):
        return [(i, tr.attrs.get(i, {})) for i in spans.get(name, [])]

    def kernel_time(i):
        return kernel_under.get(i, 0.0)

    m = {"model.load_s": tot.get("model.load_model"),
         "model.exclusion_index_s": tot.get("model.IsingModel.exclusion_index")}
    for algo, span in (("bp", "bp.bp_iterate"), ("mf", "meanfield.mf_iterate")):
        runs = [(kernel_time(i), a) for i, a in attrs(span) if "steps" in a]
        for rec, label in ((True, "record"), (False, "norecord")):
            sel = [(t, a) for t, a in runs if a["record"] == rec]
            m[f"kernels.{algo}_step_us.{label}"] = _ratio(
                sum(t for t, _ in sel), sum(a["steps"] for _, a in sel), 1e6)
        m[f"kernels.{algo}_ns_per_dir_edge"] = _ratio(
            sum(t for t, _ in runs), sum(a["steps"] * a["ndir"] for _, a in runs), 1e9)
        m[f"{algo}.steps"] = sum(a["steps"] for _, a in runs)
    states = sum(a.get("states", 0) for _, a in attrs("oracle.exact_log_z"))
    m["kernels.enumerate_s"] = tot.get("_kernels.enumerate_exact")
    m["kernels.enumerate_ns_per_state"] = _ratio(m["kernels.enumerate_s"] or 0.0, states, 1e9)
    m["bp.bp_step_calls"] = count.get("bp.bp_step", 0)
    m["bp.bp_step_us"] = _ratio(tot.get("bp.bp_step", 0.0), m["bp.bp_step_calls"], 1e6)

    ell = attrs("ellipsoid.ellipsoid_maximize")
    for kind in ("bethe", "mf"):
        solver = f"ellipsoid.solve_{kind}_exponential"
        m[f"ellipsoid.steps.{kind}"] = sum(
            a.get("steps", 0) for i, a in ell if tr.parent[i] >= lo
            and tr.names[tr.parent[i]] == solver)
    queries = attrs("ellipsoid.separation_oracle_bp") + attrs("ellipsoid.separation_oracle_mf")
    m["ellipsoid.feasible_frac"] = _ratio(sum(a.get("feasible", False) for _, a in queries),
                                          len(queries))
    m["ellipsoid.oracle_us.bethe"] = _ratio(tot.get("ellipsoid.separation_oracle_bp", 0.0),
                                            count.get("ellipsoid.separation_oracle_bp"), 1e6)
    m["ellipsoid.oracle_us.mf"] = _ratio(tot.get("ellipsoid.separation_oracle_mf", 0.0),
                                         count.get("ellipsoid.separation_oracle_mf"), 1e6)
    m["ellipsoid.update_us"] = _ratio(self_tot.get("ellipsoid.ellipsoid_maximize", 0.0),
                                      sum(a.get("steps", 0) for _, a in ell), 1e6)
    m["oracle.exact_log_z_s"] = tot.get("oracle.exact_log_z")

    writes = attrs("trace.trace_to_csv")
    m["trace.write_s"] = tot.get("trace.trace_to_csv")
    m["trace.write_bytes"] = sum(a.get("bytes", 0) for _, a in writes)
    m["trace.rows"] = sum(a.get("rows", 0) for _, a in writes)
    m["trace.read_s"] = tot.get("trace.trace_from_csv")
    m["svgplot.plot_s"] = tot.get("svgplot.plot_lines")
    m["svgplot.bytes"] = sum(a.get("bytes", 0) for _, a in attrs("svgplot.plot_lines"))
    m["cli.self_s"] = sum(s for n, s in self_tot.items() if layer_of(n) == "cli") or None
    return m


def median_metrics(rounds: list) -> dict:
    """Median of each metric over rounds, skipping rounds where it is None."""
    out = {}
    for key in rounds[0]:
        vals = [r[key] for r in rounds if r.get(key) is not None]
        out[key] = median(vals) if vals else None
    return out
