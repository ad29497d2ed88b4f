"""Tests of the benchmark's own logic: span arithmetic, tracer installation and
the output checks. Run with `python -m pytest perfbench/test_perfbench.py`.
"""

import math
import os
import sys

import pytest

import tracing
import workloads

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def fake_clock(times):
    it = iter(times)
    return lambda: next(it)


def test_self_times_on_synthetic_tree():
    # root [0, 10] > a [1, 4] > c [2, 3];  root > b [5, 9]
    tr = tracing.Tracer(clock=fake_clock([0, 1, 2, 3, 4, 5, 9, 10]))
    root = tr.open("perfbench.job")
    a = tr.open("bp.a")
    c = tr.open("_kernels.c")
    tr.close(c)
    tr.close(a)
    b = tr.open("bp.b")
    tr.close(b)
    tr.close(root)
    assert tracing.self_times(tr) == [3, 2, 1, 4]
    layers = tracing.layer_self_times(tr)
    assert layers == {"perfbench": 3, "bp": 6, "_kernels": 1}
    assert sum(layers.values()) == tr.end[root] - tr.start[root]
    # A window that starts inside the tree treats its first span as a root.
    assert tracing.self_times(tr, a, c + 1) == [2, 1]


def test_round_metrics_rates_and_absent_layers():
    tr = tracing.Tracer(clock=fake_clock([0, 1, 1.5, 3.5, 4, 10]))
    root = tr.open("perfbench.bp")
    it = tr.open("bp.bp_iterate")
    k = tr.open("_kernels.bp_run")
    tr.close(k)
    tr.close(it)
    tr.attrs[it] = {"record": True, "steps": 100, "ndir": 40}
    tr.close(root)
    m = tracing.round_metrics(tr, 0, len(tr))
    assert m["kernels.bp_step_us.record"] == pytest.approx(2.0 / 100 * 1e6)
    assert m["kernels.bp_ns_per_dir_edge"] == pytest.approx(2.0 / 4000 * 1e9)
    assert m["bp.steps"] == 100
    assert m["kernels.bp_step_us.norecord"] is None
    assert m["kernels.enumerate_s"] is None
    assert m["bp.bp_step_calls"] == 0


def test_install_wraps_every_binding_and_uninstall_restores():
    sys.path.insert(0, SRC)
    try:
        import isingvi.bp
        import isingvi.ellipsoid
        import numpy as np
        from isingvi.model import generate_topology

        original = isingvi.bp.bp_step
        tr = tracing.Tracer()
        tr.install(SRC)
        try:
            assert isingvi.ellipsoid.bp_step is isingvi.bp.bp_step is not original
            model = isingvi.model.generate_topology("cycle", 0.3, 0.1, n=4)
            isingvi.ellipsoid.separation_oracle_bp(model, np.full(8, 0.5))
            isingvi.bp.bp_iterate(model, max_steps=50, tol=1e-12)
        finally:
            tr.uninstall()
        assert isingvi.bp.bp_step is original and isingvi.ellipsoid.bp_step is original
        assert isingvi.model.generate_topology is generate_topology
        names = set(tr.names)
        assert {"model.generate_topology", "ellipsoid.separation_oracle_bp", "bp.bp_step",
                "bp.bp_iterate", "_kernels.bp_run", "model.IsingModel.exclusion_index"} <= names
        attrs = [tr.attrs[i] for i, n in enumerate(tr.names) if n == "bp.bp_iterate"]
        assert attrs[0]["record"] is True and attrs[0]["ndir"] == 8 and attrs[0]["steps"] > 1
    finally:
        sys.path.remove(SRC)


def test_monotone_slack_scales_with_magnitude():
    big = [30000.0, 30000.5, 30000.5 - 3.7e-10, 30000.6]
    assert workloads.monotone_violation(big) <= 0.0
    assert workloads.monotone_violation([30000.0, 30000.0 - 1e-6]) > 0.0
    # The same absolute drop fails on an objective of size 1.
    assert workloads.monotone_violation([1.0, 1.0 - 3.7e-10]) > 0.0
    assert workloads.monotone_violation([1.0, math.nan, 2.0]) <= 0.0


# ------------------------------------------------------------ output checks

def write_summary(path, **pairs):
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(f"{k} {v}\n" for k, v in pairs.items())


def write_trace(path, values):
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("# algo bp\nt,dual_bethe,step_inf,bound_thm2\n")
        fh.writelines(f"{t},{v!r},nan,inf\n" for t, v in enumerate(values))


def write_text(path, text="x\n"):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def write_report(directory):
    os.makedirs(directory, exist_ok=True)
    write_text(str(directory / "report.txt"))


def failed(wl):
    return {(r.job, r.name) for r in wl.check() if not r.ok}


def certify_outputs(tmp, bethe=12.0, mf=11.0, log_z=13.0, ell_bethe=12.4, ell_mf=11.6):
    wl = workloads.certify(0, str(tmp))
    write_summary(str(tmp / "exact" / "summary.txt"), log_z=log_z)
    for job, value in (("bp45", bethe), ("mf45", mf), ("bp44", 12.4), ("mf44", 11.6)):
        write_summary(str(tmp / job / "summary.txt"), final_objective=value, converged=True)
        write_trace(str(tmp / job / "trace.csv"), [value - 1, value])
    write_summary(str(tmp / "ell_bethe" / "summary.txt"), final_objective=ell_bethe)
    write_summary(str(tmp / "ell_mf" / "summary.txt"), final_objective=ell_mf)
    write_report(tmp / "report")
    return wl


def test_certify_checks_pass_then_reject_perturbations(tmp_path):
    assert failed(certify_outputs(tmp_path / "ok")) == set()
    assert failed(certify_outputs(tmp_path / "a", bethe=13.5)) == {
        ("bp45", "Bethe* <= log Z")}
    assert failed(certify_outputs(tmp_path / "b", mf=12.5)) == {("mf45", "MF* <= Bethe*")}
    assert failed(certify_outputs(tmp_path / "c", ell_bethe=12.4 + 2e-6)) == {
        ("ell_bethe", "|ell_bethe - bp44| <= eps")}
    assert failed(certify_outputs(tmp_path / "d", ell_mf=11.6 - 2e-6)) == {
        ("ell_mf", "|ell_mf - mf44| <= eps")}
    wl = certify_outputs(tmp_path / "e")
    write_trace(str(tmp_path / "e" / "bp44" / "trace.csv"), [12.0, 12.4, 12.3])
    assert failed(wl) == {("bp44", "objective_monotone_scaled")}


def critical_outputs(tmp, bp_final=None, slope=-2.01, svg="<svg></svg>"):
    wl = workloads.critical_trace(0, str(tmp))
    n, m = workloads.CRITICAL_N, workloads.CRITICAL_N * workloads.CRITICAL_DEGREE // 2
    bp_opt = n * math.log(2) + m * math.log(math.cosh(workloads.CRITICAL_BETA_BP))
    finals = {"bp": bp_opt - 1e-7 if bp_final is None else bp_final,
              "mf": n * math.log(2) - 1e-7}
    for algo, final in finals.items():
        write_summary(str(tmp / algo / "summary.txt"), final_objective=repr(final),
                      residual_loglog_slope=slope)
        write_trace(str(tmp / algo / "trace.csv"), [final - 1, final])
        for name in ("objective.svg", "residual.svg"):
            write_text(str(tmp / algo / name), svg)
        write_report(tmp / f"report_{algo}")
    return wl, bp_opt


def test_critical_checks_pass_then_reject_perturbations(tmp_path):
    wl, bp_opt = critical_outputs(tmp_path / "ok")
    assert failed(wl) == set()
    wl, _ = critical_outputs(tmp_path / "a", bp_final=bp_opt + 1e-6)
    assert failed(wl) == {("bp", "final <= closed-form optimum")}
    wl, _ = critical_outputs(tmp_path / "b", slope=-1.6)
    assert failed(wl) == {("bp", "residual slope -2 +- 0.3"),
                          ("mf", "residual slope -2 +- 0.3")}
    wl, _ = critical_outputs(tmp_path / "c", svg="not a plot")
    assert ("bp", "output objective.svg") in failed(wl)


def grid_outputs(tmp, bp_final=100.0, mf_final=90.0, mf_converged=True):
    wl = workloads.grid_solve(0, str(tmp))
    for algo, final, conv in (("bp", bp_final, True), ("mf", mf_final, mf_converged)):
        write_summary(str(tmp / algo / "summary.txt"), final_objective=final,
                      converged=conv, objective_monotone=False)
        write_trace(str(tmp / algo / "trace.csv"), [final - 1, final])
    write_report(tmp / "report")
    return wl


def test_grid_checks_pass_then_reject_perturbations(tmp_path):
    assert failed(grid_outputs(tmp_path / "ok")) == set()
    assert failed(grid_outputs(tmp_path / "a", mf_final=101.0)) == {("mf", "MF* <= Bethe*")}
    assert failed(grid_outputs(tmp_path / "b", mf_converged=False)) == {("mf", "converged")}


def test_output_totals_count_bytes_steps_and_false_flags(tmp_path):
    wl = certify_outputs(tmp_path)
    write_summary(str(tmp_path / "bp45" / "summary.txt"), steps_used=45,
                  objective_monotone=False, bound_dominates=True, converged=False)
    copied = tmp_path / "bp45" / "exact.csv"
    write_text(str(copied), "copied in, not an output\n")
    totals = workloads.output_totals(wl.jobs)
    assert totals["steps"] == 45 and totals["flags_false"] == 1
    everything = sum(f.stat().st_size for f in tmp_path.rglob("*") if f.is_file())
    assert totals["bytes"] == everything - copied.stat().st_size
