"""The benchmark's workloads: which CLI jobs they run and how their outputs are checked.

A workload is a list of set-up jobs (the `gen` calls that build its model
files) and a list of timed jobs that make up one round. Jobs name only files
inside the workload's work directory, so the program sees nothing but the
generated model files. The output checks rest on facts that hold for any
correct implementation (orderings, closed forms, decay rates), not on this
implementation's own numbers.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

# BP on a d-regular graph at h=0 is critical at tanh(J) = 1/(d-1), MF at J = 1/d.
CRITICAL_N, CRITICAL_DEGREE = 200, 3
CRITICAL_BETA_BP = math.atanh(1.0 / (CRITICAL_DEGREE - 1))
CRITICAL_BETA_MF = 1.0 / CRITICAL_DEGREE
# Recorded steps of each critical run. The hidden reference run behind --plot
# takes max(2*budget, 200000) steps, so a larger budget mostly adds recorded
# steps and trace rows; 2*10^4 keeps three rounds of this workload in 30 s.
CRITICAL_BUDGET = 20000
SLOPE_TARGET, SLOPE_MARGIN = -2.0, 0.3
ELLIPSOID_EPS = 1e-6
# Round-off slack, relative to the objective's magnitude: about 450 ulps.
# Objectives are sums over up to 10^5 terms, so an absolute slack is wrong
# for large models and too loose for small ones.
REL_SLACK = 1e-13

CHECK_KEYS = ("objective_monotone", "bound_dominates")


@dataclass
class Job:
    """One CLI call: `verb` names the metric it is timed under."""

    key: str
    verb: str
    argv: list
    out: str | None = None          # output directory, emptied before each round
    copy_in: tuple | None = None    # (file, directory): copied there before the job


@dataclass
class Workload:
    setup: list
    jobs: list
    check: object                   # check() -> list of CheckResult


@dataclass
class CheckResult:
    job: str
    name: str
    ok: bool
    detail: str = ""


def read_summary(path: str) -> dict:
    """summary.txt as a dict of its `key value` lines."""
    out = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            parts = line.split(None, 1)
            if len(parts) == 2:
                out[parts[0]] = parts[1].strip()
    return out


def read_objective_column(path: str) -> list:
    """Second column (the objective) of a trace CSV, skipping `#` lines and the header."""
    values = []
    header = True
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if line.startswith("#") or not line.strip():
                continue
            if header:
                header = False
                continue
            values.append(float(line.split(",")[1]))
    return values


def slack(*values) -> float:
    return REL_SLACK * max([1.0] + [abs(v) for v in values if math.isfinite(v)])


def monotone_violation(values) -> float:
    """Largest drop between consecutive finite entries, minus the scaled slack (<= 0 passes)."""
    finite = [v for v in values if math.isfinite(v)]
    if len(finite) < 2:
        return -math.inf
    worst = max(a - b for a, b in zip(finite, finite[1:]))
    return worst - slack(*finite)


def count_false_flags(summary: dict) -> int:
    """Check lines the program itself wrote as False into summary.txt."""
    return sum(1 for k in CHECK_KEYS if summary.get(k) == "False")


def output_totals(jobs) -> dict:
    """Bytes the jobs wrote into their output directories, the solver steps their
    summaries report, and the False check lines in those summaries."""
    totals = {"bytes": 0, "steps": 0, "flags_false": 0}
    for job in jobs:
        if not job.out or not os.path.isdir(job.out):
            continue
        copied = os.path.basename(job.copy_in[0]) if job.copy_in else None
        for name in os.listdir(job.out):
            if name != copied:
                totals["bytes"] += os.path.getsize(os.path.join(job.out, name))
        path = os.path.join(job.out, "summary.txt")
        if os.path.isfile(path):
            summary = read_summary(path)
            steps = summary.get("steps_used", "")
            totals["steps"] += int(steps) if steps.isdigit() else 0
            totals["flags_false"] += count_false_flags(summary)
    return totals


def _cli(*args) -> list:
    return [str(a) for a in args]


def _gen(key, path, topology, beta, field_value, seed) -> Job:
    return Job(key, "gen", _cli("gen", "--topology", topology, "--beta", repr(beta),
                                "--field", field_value, "--seed", seed, "--out", path))


def _run(key, algo, model, out, *extra) -> Job:
    return Job(key, algo, _cli("run", "--model", model, "--algo", algo, *extra,
                               "--out", out), out=out)


def _report(key, traces, out) -> Job:
    return Job(key, "report", _cli("report", *traces, "--out", os.path.join(out, "report.txt")),
               out=out)


def _check_monotone(job, trace_path) -> CheckResult:
    excess = monotone_violation(read_objective_column(trace_path))
    return CheckResult(job, "objective_monotone_scaled", excess <= 0.0,
                       f"worst drop beyond slack {excess:.3g}")


def _check_nonempty(job, path, prefix="") -> CheckResult:
    ok = os.path.isfile(path) and os.path.getsize(path) > 0
    if ok and prefix:
        with open(path, encoding="utf-8") as fh:
            ok = fh.read(len(prefix)) == prefix
    return CheckResult(job, f"output {os.path.basename(path)}", ok)


def _check_le(job, name, lo, hi) -> CheckResult:
    return CheckResult(job, name, lo <= hi + slack(lo, hi), f"{lo:.17g} <= {hi:.17g}")


def grid_solve(seed: int, work: str) -> Workload:
    """BP and MF to tol 1e-10 on a 200x200 grid: per-edge sweep cost, parsing, big CSVs."""
    j = lambda *p: os.path.join(work, *p)  # noqa: E731
    model = j("grid200.txt")
    jobs = [_run("bp", "bp", model, j("bp"), "--tol", "1e-10"),
            _run("mf", "mf", model, j("mf"), "--tol", "1e-10"),
            _report("report", [j("bp", "trace.csv"), j("mf", "trace.csv")], j("report"))]

    def check():
        bp, mf = read_summary(j("bp", "summary.txt")), read_summary(j("mf", "summary.txt"))
        res = [CheckResult("bp", "converged", bp.get("converged") == "True"),
               CheckResult("mf", "converged", mf.get("converged") == "True"),
               _check_le("mf", "MF* <= Bethe*", float(mf["final_objective"]),
                         float(bp["final_objective"])),
               _check_monotone("bp", j("bp", "trace.csv")),
               _check_monotone("mf", j("mf", "trace.csv")),
               _check_nonempty("report", j("report", "report.txt"))]
        return res

    return Workload([_gen("gen", model, "grid:200x200", 0.3, "0.05", seed)], jobs, check)


def critical_trace(seed: int, work: str) -> Workload:
    """Critical BP and MF on a random 3-regular graph, h=0: fixed per-step cost, trace I/O."""
    j = lambda *p: os.path.join(work, *p)  # noqa: E731
    n, m = CRITICAL_N, CRITICAL_N * CRITICAL_DEGREE // 2
    topo = f"regular:{n}:{CRITICAL_DEGREE}"
    setup = [_gen("gen_bp", j("crit_bp.txt"), topo, CRITICAL_BETA_BP, "0", seed),
             _gen("gen_mf", j("crit_mf.txt"), topo, CRITICAL_BETA_MF, "0", seed)]
    budget = ("--tol", "0", "--steps", CRITICAL_BUDGET, "--plot")
    jobs = [_run("bp", "bp", j("crit_bp.txt"), j("bp"), *budget),
            _run("mf", "mf", j("crit_mf.txt"), j("mf"), *budget),
            _report("report_bp", [j("bp", "trace.csv")], j("report_bp")),
            _report("report_mf", [j("mf", "trace.csv")], j("report_mf"))]
    # At h=0 the optima are the paramagnetic values in closed form.
    optimum = {"bp": n * math.log(2.0) + m * math.log(math.cosh(CRITICAL_BETA_BP)),
               "mf": n * math.log(2.0)}

    def check():
        res = []
        for algo in ("bp", "mf"):
            s = read_summary(j(algo, "summary.txt"))
            res.append(_check_le(algo, "final <= closed-form optimum",
                                 float(s["final_objective"]), optimum[algo]))
            slope = float(s.get("residual_loglog_slope", "nan"))
            res.append(CheckResult(algo, "residual slope -2 +- 0.3",
                                   abs(slope - SLOPE_TARGET) <= SLOPE_MARGIN,
                                   f"slope {slope:.4f}"))
            res.append(_check_monotone(algo, j(algo, "trace.csv")))
            for svg in ("objective.svg", "residual.svg"):
                res.append(_check_nonempty(algo, j(algo, svg), "<svg"))
            res.append(_check_nonempty(f"report_{algo}", j(f"report_{algo}", "report.txt")))
        return res

    return Workload(setup, jobs, check)


def certify(seed: int, work: str) -> Workload:
    """Exact log Z, ellipsoid certificates and reference runs on 4x5 / 4x4 grids."""
    j = lambda *p: os.path.join(work, *p)  # noqa: E731
    g45, g44 = j("grid4x5.txt"), j("grid4x4.txt")
    eps = ("--eps", repr(ELLIPSOID_EPS))
    exact_csv = j("exact", "exact.csv")
    jobs = [Job("exact", "exact", _cli("exact", "--model", g45, "--out", j("exact")),
                out=j("exact")),
            _run("bp45", "bp", g45, j("bp45")),
            _run("mf45", "mf", g45, j("mf45")),
            _run("ell_bethe", "ellipsoid_bethe", g44, j("ell_bethe"), *eps),
            _run("ell_mf", "ellipsoid_mf", g44, j("ell_mf"), *eps),
            _run("bp44", "bp", g44, j("bp44"), "--tol", "1e-13"),
            _run("mf44", "mf", g44, j("mf44"), "--tol", "1e-13"),
            _report("report", [j("bp45", "trace.csv"), j("mf45", "trace.csv")], j("report"))]
    for job in jobs[1:3]:
        job.copy_in = (exact_csv, job.out)

    def value(d, key="final_objective"):
        return float(read_summary(j(d, "summary.txt"))[key])

    def check():
        log_z, bethe, mf = value("exact", "log_z"), value("bp45"), value("mf45")
        res = [_check_le("bp45", "Bethe* <= log Z", bethe, log_z),
               _check_le("mf45", "MF* <= Bethe*", mf, bethe)]
        for job, ref in (("ell_bethe", "bp44"), ("ell_mf", "mf44")):
            gap = abs(value(job) - value(ref))
            res.append(CheckResult(job, f"|{job} - {ref}| <= eps", gap <= ELLIPSOID_EPS,
                                   f"gap {gap:.3g}"))
        for job in ("bp45", "mf45", "bp44", "mf44"):
            res.append(_check_monotone(job, j(job, "trace.csv")))
        res.append(_check_nonempty("report", j("report", "report.txt")))
        return res

    return Workload([_gen("gen45", g45, "grid:4x5", 0.3, "0.1", seed),
                     _gen("gen44", g44, "grid:4x4", 0.3, "0.1", seed)], jobs, check)


WORKLOADS = {"grid-solve": grid_solve, "critical-trace": critical_trace,
             "certify": certify}
