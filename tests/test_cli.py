import contextlib
import io
import math
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import peak_bytes, text_of
from isingvi import bp as bp_mod
from isingvi import (IterationTrace, exact_result_from_csv, generate_topology, load_model,
                     trace_from_csv, trace_meta, trace_to_csv)
from isingvi import meanfield as mf_mod
from isingvi.cli import main
from isingvi.verbs import _bound_ok, _monotone_ok
from refimpl import cycle_log_z, ref_bound_ratio


def read(path):
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def summary_dict(path):
    out = {}
    for line in read(path).splitlines():
        key, _, value = line.partition(" ")
        out[key] = value
    return out


def test_gen_writes_parsable_model(tmp_path, capsys):
    out = tmp_path / "model.txt"
    assert main(["gen", "--topology", "cycle:6", "--beta", "0.4",
                 "--field", "0.2", "--out", str(out)]) == 0
    model = load_model(read(out))
    assert (model.n, model.m) == (6, 6)
    assert np.all(model.fields == 0.2)
    out2 = tmp_path / "model2.txt"
    main(["gen", "--topology", "cycle:6", "--beta", "0.4", "--field", "0.2",
          "--out", str(out2)])
    assert read(out) == read(out2)
    # without --out the model goes to stdout
    capsys.readouterr()
    assert main(["gen", "--topology", "cycle:6", "--beta", "0.4", "--field", "0.2"]) == 0
    assert capsys.readouterr().out == read(out)


def test_gen_single_node_field(tmp_path):
    out = tmp_path / "model.txt"
    assert main(["gen", "--topology", "grid:3x3", "--beta", "0.3",
                 "--field", "single:0:5.0", "--out", str(out)]) == 0
    assert [line for line in read(out).splitlines()
            if line.startswith("node")] == ["node 0 5"]
    for spec in ("single:0", "single:x:1", "abc", "single:9:1.0"):
        assert main(["gen", "--topology", "grid:3x3", "--beta", "0.3",
                     "--field", spec, "--out", str(out)]) == 1


def test_run_bp_with_exact_cross_check(tmp_path):
    gen = tmp_path / "tree.txt"
    main(["gen", "--topology", "tree:10", "--beta", "0.4", "--field", "0.3",
          "--seed", "3", "--out", str(gen)])
    run = tmp_path / "out"
    assert main(["exact", "--model", str(gen), "--out", str(run)]) == 0
    assert main(["run", "--model", str(gen), "--algo", "bp", "--tol", "1e-13",
                 "--out", str(run)]) == 0
    summary = summary_dict(run / "summary.txt")
    assert summary["converged"] == "True"
    assert float(summary["dual_minus_log_z"]) <= 1e-8
    assert summary["objective_monotone"] == "True"
    assert summary["bound_dominates"] == "True"
    trace, meta = trace_from_csv(read(run / "trace.csv"))
    assert meta["model_hash"] == summary["model_hash"]
    assert trace.algo == "bp"


def test_bp_final_state_is_exact_node_means_on_a_tree(tmp_path):
    """BP is exact on trees, so the node means of BP's final_state.csv agree
    with those exact.csv holds for the same model file to 1e-9."""
    gen, run = tmp_path / "tree.txt", tmp_path / "out"
    assert main(["gen", "--topology", "tree:40", "--beta", "0.5", "--field", "0.2",
                 "--seed", "8", "--out", str(gen)]) == 0
    assert main(["exact", "--model", str(gen), "--out", str(run)]) == 0
    assert main(["run", "--model", str(gen), "--algo", "bp", "--tol", "1e-14",
                 "--out", str(run)]) == 0
    lines = read(run / "final_state.csv").splitlines()
    assert lines[0] == "node,x"
    rows = [line.split(",") for line in lines[1:]]
    assert [int(i) for i, _ in rows] == list(range(40))
    with open(run / "exact.csv", encoding="utf-8") as fh:
        exact, _ = exact_result_from_csv(fh)
    assert np.max(np.abs(np.array([float(x) for _, x in rows]) - exact.node_means)) <= 1e-9


def test_run_mf_writes_artifacts(tmp_path):
    run = tmp_path / "out"
    assert main(["run", "--topology", "grid:4x4", "--beta", "0.3", "--field",
                 "0.2", "--algo", "mf", "--tol", "1e-12", "--out", str(run)]) == 0
    summary = summary_dict(run / "summary.txt")
    assert summary["algo"] == "mf"
    assert summary["objective_monotone"] == "True"
    state = read(run / "final_state.csv")
    assert state.splitlines()[0] == "node,x"
    assert len(state.splitlines()) == 17


def test_rerun_is_byte_identical(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    args = ["run", "--topology", "grid:3x4", "--beta", "0.35", "--field", "0.1",
            "--algo", "bp", "--steps", "2000", "--tol", "1e-12"]
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    for name in ("trace.csv", "final_state.csv", "summary.txt"):
        assert read(a / name) == read(b / name)


def test_plot_outputs_svg(tmp_path):
    run = tmp_path / "out"
    assert main(["run", "--topology", "cycle:8", "--beta", "0.5", "--field",
                 "0.2", "--algo", "bp", "--steps", "400", "--tol", "0",
                 "--out", str(run), "--plot"]) == 0
    for name in ("objective.svg", "residual.svg"):
        text = read(run / name)
        assert text.startswith("<svg")
        assert "polyline" in text
    summary = summary_dict(run / "summary.txt")
    assert "reference_value" in summary
    assert summary["reference_source"].startswith("long_run")


def test_near_critical_bp_residual_slope(tmp_path):
    beta = math.atanh(0.5)  # (d-1) tanh(beta) = 1 for d = 3
    run = tmp_path / "out"
    assert main(["run", "--topology", "regular:200:3", "--beta", repr(beta),
                 "--field", "0", "--seed", "5", "--algo", "bp", "--steps",
                 "500", "--tol", "0", "--out", str(run), "--plot"]) == 0
    summary = summary_dict(run / "summary.txt")
    assert float(summary["residual_loglog_slope"]) <= -1.0
    # the slope is the least-squares fit over the last nine tenths, t >= 50
    trace, _ = trace_from_csv(read(run / "trace.csv"))
    reference = float(summary["reference_value"])

    def fit(lo):
        pts = [(math.log(t), math.log(reference - obj))
               for t, obj in zip(trace.t.tolist(), trace.objective.tolist())
               if t >= lo and reference - obj > 0]
        mx = sum(x for x, _ in pts) / len(pts)
        my = sum(y for _, y in pts) / len(pts)
        return (sum((x - mx) * (y - my) for x, y in pts)
                / sum((x - mx) ** 2 for x, _ in pts))

    assert summary["residual_loglog_slope"] == f"{fit(50):.6g}"
    assert f"{fit(250):.6g}" != f"{fit(50):.6g}"


@pytest.mark.parametrize("algo, topology, beta, field, steps, tol, steps_above_tol", [
    ("bp", "regular:30:3", math.atanh(0.5), "1e-4", 2000, "0", True),
    ("mf", "regular:30:3", 1.0 / 3.0, "1e-4", 2000, "0", True),
    ("bp", "regular:30:3", math.atanh(0.5), "1e-4", 2000, "1e-9", True),
    ("bp", "grid:3x3", 0.3, "0.5", 500, "0", False),
    ("mf", "grid:3x3", 0.3, "0.5", 500, "0", False),
    # a budget of twice --steps would be 2*10^12
    ("bp", "grid:3x3", 0.3, "0.5", 10**12, "1e-4", True),
])
def test_plot_reference_matches_a_run_from_the_start(tmp_path, monkeypatch, algo, topology,
                                                     beta, field, steps, tol, steps_above_tol):
    """The reference behind --plot continues the recorded run, a run from the
    start, to tol 1e-13 for ref_steps steps in all: twice the steps the run
    took, at least 2*10^5. Its value is, bitwise, that of the run continued
    so, also where a recorded step is below 1e-13 (steps_above_tol False), or
    the trace's maximum where that lies above it by rounding."""
    gen = tmp_path / "model.txt"
    assert main(["gen", "--topology", topology, "--beta", repr(beta), "--field", field,
                 "--seed", "1", "--out", str(gen)]) == 0
    module, name, objective = ((bp_mod, "bp_iterate", bp_mod.dual_bethe) if algo == "bp"
                               else (mf_mod, "mf_iterate", mf_mod.mf_objective))
    iterate, calls = getattr(module, name), []

    def spy(model, **kwargs):
        calls.append(kwargs)
        return iterate(model, **kwargs)

    monkeypatch.setattr(module, name, spy)
    run = tmp_path / "out"
    assert main(["run", "--model", str(gen), "--algo", algo, "--steps", str(steps),
                 "--tol", tol, "--out", str(run), "--plot"]) == 0
    monkeypatch.undo()
    trace, _ = trace_from_csv(read(run / "trace.csv"))
    assert bool(np.all(trace.step_inf[1:] >= 1e-13)) == steps_above_tol
    ref_steps = max(2 * trace.steps, 200000)
    ref_call = calls[-1]
    assert (ref_call["max_steps"], ref_call["tol"], ref_call["record"]) == (
        ref_steps - trace.steps, 1e-13, False)
    model = load_model(read(gen))
    state, _ = iterate(model, max_steps=steps, tol=float(tol))
    assert np.array_equal(ref_call["init"], state)
    ref_state, _ = iterate(model, init=state, max_steps=ref_steps - trace.steps, tol=1e-13,
                           record=False)
    summary = summary_dict(run / "summary.txt")
    top, continued = float(np.nanmax(trace.objective)), objective(model, ref_state)
    assert continued >= top - 1e-14 * abs(top)
    assert summary["reference_value"] == f"{max(continued, top):.17g}"
    assert summary["reference_source"] == f"long_run(tol=1e-13,max_steps={ref_steps})"


def test_plot_keeps_a_reference_below_the_trace_by_more_than_rounding(tmp_path, monkeypatch):
    """The trace maximum replaces the continued reference value only when it
    tops it by rounding (1e-14 relative). A continued value 1e-9 relative
    below it is kept; the recorded duals come from the sweep, not from
    bp.dual_bethe, so lowering that function lowers the reference alone."""
    dual = bp_mod.dual_bethe
    monkeypatch.setattr(bp_mod, "dual_bethe",
                        lambda model, nu: dual(model, nu) * (1.0 - 1e-9))
    run = tmp_path / "out"
    assert main(["run", "--topology", "grid:3x3", "--beta", "0.3", "--field", "0.5",
                 "--algo", "bp", "--steps", "500", "--tol", "1e-12", "--out", str(run),
                 "--plot"]) == 0
    trace, _ = trace_from_csv(read(run / "trace.csv"))
    top = float(np.nanmax(trace.objective))
    reference = float(summary_dict(run / "summary.txt")["reference_value"])
    assert reference < top
    assert reference == pytest.approx(top * (1.0 - 1e-9), rel=1e-13)


def test_plot_residuals_are_nonnegative(tmp_path):
    """At the fixed point the recorded dual wobbles in its last bit, and on
    this run the trace's maximum lies above the continued run's value, by no
    more than round-off; the reference is the larger of the two, so no
    residual is negative."""
    gen, run = tmp_path / "model.txt", tmp_path / "out"
    assert main(["gen", "--topology", "grid:3x3", "--beta", "0.3", "--field", "0.5",
                 "--out", str(gen)]) == 0
    assert main(["run", "--model", str(gen), "--algo", "bp", "--steps", "500", "--tol", "0",
                 "--out", str(run), "--plot"]) == 0
    trace, _ = trace_from_csv(read(run / "trace.csv"))
    model = load_model(read(gen))
    state, _ = bp_mod.bp_iterate(model, max_steps=500, tol=0.0)
    ref_state, _ = bp_mod.bp_iterate(model, init=state, max_steps=200000 - trace.steps,
                                     tol=1e-13, record=False)
    top, continued = float(np.nanmax(trace.objective)), bp_mod.dual_bethe(model, ref_state)
    assert top - 1e-14 * abs(top) <= continued < top
    reference = float(summary_dict(run / "summary.txt")["reference_value"])
    assert reference == top
    residual = reference - trace.objective[np.isfinite(trace.objective)]
    assert residual.min() == 0.0


def test_run_ellipsoid(tmp_path):
    # a 3x3 grid at beta 2, h 0, where the bracket stays open and the
    # ellipsoid search runs
    run = tmp_path / "out"
    model = ["--topology", "grid:3x3", "--beta", "2", "--field", "0"]
    argv = ["run", *model, "--algo", "ellipsoid_bethe", "--eps", "1e-6"]
    assert main([*argv, "--out", str(run)]) == 0
    summary = summary_dict(run / "summary.txt")
    ref = tmp_path / "ref"
    main(["run", *model, "--algo", "bp", "--tol", "1e-14", "--out", str(ref)])
    ref_val = float(summary_dict(ref / "summary.txt")["final_objective"])
    assert abs(float(summary["final_objective"]) - ref_val) <= 1e-6
    assert summary["stop_reason"] == "gap"
    assert float(summary["certificate_gap"]) <= 1e-6 / 2.0
    progress = read(run / "progress.csv").splitlines()
    assert progress[0] == "step,objective"
    assert len(progress) - 1 == int(summary["steps_used"]) - int(summary["bracket_sweeps"]) > 0
    # the node means of the solution's messages, not the 2m messages
    state = read(run / "final_state.csv").splitlines()
    assert state[0] == "node,x" and len(state) == 10
    # --plot adds the incumbent plot and leaves every other artifact as it was
    plotted = tmp_path / "plotted"
    assert main([*argv, "--plot", "--out", str(plotted)]) == 0
    assert read(plotted / "objective.svg").startswith("<svg")
    assert sorted(p.name for p in plotted.iterdir()) == sorted(
        [p.name for p in run.iterdir()] + ["objective.svg"])
    for name in ("summary.txt", "progress.csv", "final_state.csv"):
        assert (plotted / name).read_bytes() == (run / name).read_bytes()


def test_plot_draws_only_a_search_that_ran(tmp_path):
    """`--plot` draws the incumbent of an ellipsoid search. A solve that its
    bracket certified runs no search, so it writes no objective.svg and
    leaves every other artifact as it was; an open bracket's search is drawn."""
    certified = ["run", "--topology", "grid:4x4", "--beta", "0.3", "--field", "0.1",
                 "--algo", "ellipsoid_bethe", "--eps", "1e-6"]
    for name, extra in (("plain", []), ("plotted", ["--plot"])):
        assert main([*certified, *extra, "--out", str(tmp_path / name)]) == 0
    plain, plotted = tmp_path / "plain", tmp_path / "plotted"
    assert summary_dict(plotted / "summary.txt")["stop_reason"] == "bracket"
    assert sorted(p.name for p in plotted.iterdir()) == sorted(p.name for p in plain.iterdir())
    for path in plain.iterdir():
        assert (plotted / path.name).read_bytes() == path.read_bytes()
    searched = tmp_path / "searched"
    assert main(["run", "--topology", "grid:3x3", "--beta", "2", "--field", "0",
                 "--algo", "ellipsoid_bethe", "--eps", "1e-6", "--plot",
                 "--out", str(searched)]) == 0
    assert "<polyline" in read(searched / "objective.svg")


def test_edgeless_model_runs_both_solvers_alike(tmp_path):
    """On one node with no edge, the Bethe solve has no message to search,
    and still writes the artifacts and summary keys of the mean-field solve,
    its value log(2 cosh h) as both families give it."""
    model = ["--topology", "grid:1x1", "--beta", "0.3", "--field", "0.5", "--eps", "1e-6"]
    runs = {algo: tmp_path / algo for algo in ("ellipsoid_bethe", "ellipsoid_mf")}
    for algo, out in runs.items():
        assert main(["run", *model, "--algo", algo, "--out", str(out)]) == 0
    files = [sorted(p.name for p in out.iterdir()) for out in runs.values()]
    assert files[0] == files[1] == ["final_state.csv", "progress.csv", "summary.txt"]
    bethe, mf = (summary_dict(out / "summary.txt") for out in runs.values())
    assert list(bethe) == list(mf)
    assert bethe["stop_reason"] == "bracket" and bethe["steps_used"] == "0"
    for summary in (bethe, mf):
        assert abs(float(summary["final_objective"]) - math.log(2.0 * math.cosh(0.5))) <= 1e-6


def test_exact_verb_and_transfer_matrix(tmp_path):
    run = tmp_path / "out"
    assert main(["exact", "--topology", "cycle:7", "--beta", "0.45", "--field",
                 "0.3", "--out", str(run)]) == 0
    log_z = float(summary_dict(run / "summary.txt")["log_z"])
    assert log_z == pytest.approx(cycle_log_z(7, 0.45, 0.3), rel=1e-13, abs=0)
    # the exact verb is the one exact path; the transfer matrix is gone
    assert main(["run", "--topology", "cycle:7", "--beta", "0.45", "--field",
                 "0.3", "--algo", "transfer_matrix", "--out", str(tmp_path / "tm")]) == 1


def test_report_verb(tmp_path, capsys):
    run_bp, run_mf = tmp_path / "bp", tmp_path / "mf"
    base = ["--topology", "grid:3x3", "--beta", "0.3", "--field", "0.2"]
    main(["run"] + base + ["--algo", "bp", "--tol", "1e-12", "--out", str(run_bp)])
    main(["run"] + base + ["--algo", "mf", "--tol", "1e-12", "--out", str(run_mf)])
    # a record=False trace of the same model has no finite objective: its
    # objective checks skip, and its converged check is still reported
    model = generate_topology("grid", 0.3, 0.2, rows=3, cols=3)
    _nu, final = bp_mod.bp_iterate(model, tol=1e-12, record=False)
    (tmp_path / "final.csv").write_text(
        text_of(trace_to_csv, final, trace_meta(model, "ones", 1e-12)))
    traces = [str(run_bp / "trace.csv"), str(run_mf / "trace.csv"), str(tmp_path / "final.csv")]
    rep = tmp_path / "report.csv"
    capsys.readouterr()
    assert main(["report", *traces, "--out", str(rep)]) == 0
    text = read(rep)
    assert "# check trace0(bp) objective_monotone PASS" in text
    assert "# check trace1(mf) bound_dominates PASS" in text
    assert ("# check trace2(bp) objective_monotone SKIP\n"
            "# check trace2(bp) bound_dominates SKIP\n"
            "# check trace2(bp) converged PASS\n") in text
    assert "trace,algo,t,objective,density_residual,bound" in text
    # with --out, stdout gets the check and reference lines without their '# '
    assert capsys.readouterr().out == "".join(
        line[2:] + "\n" for line in text.splitlines()
        if line.startswith(("# check", "# reference")))
    rep2 = tmp_path / "report2.csv"
    main(["report", *traces, "--out", str(rep2)])
    assert read(rep) == read(rep2)
    # without --out, stdout gets the report alone
    capsys.readouterr()
    assert main(["report", *traces]) == 0
    assert capsys.readouterr().out == text


def _long_trace(path, rows):
    """Write an MF trace of rows + 1 recorded steps on a 5-cycle to path."""
    t = np.arange(rows + 1)
    step = np.r_[np.nan, 1.0 / (1.0 + t[1:]) ** 2]
    trace = IterationTrace("mf", t, 2.0 - 1.0 / (1.0 + t), step, False)
    model = generate_topology("cycle", 0.3, 0.1, n=5)
    path.write_text(text_of(trace_to_csv, trace, trace_meta(model, "ones", 0.0)))


def test_report_streams_to_its_file(tmp_path, capsys):
    """report --out prints its check lines from the header and peaks below
    twice the bytes of the trace it reads. On a 2*10^4-row trace its table
    holds about 20 rows a decade: t = 0, 1 and T among them, in increasing
    order."""
    trace, rep = tmp_path / "trace.csv", tmp_path / "report.txt"
    rows = 2 * 10**4
    _long_trace(trace, rows)
    capsys.readouterr()
    code, peak = peak_bytes(main, ["report", str(trace), "--out", str(rep)])
    assert code == 0
    size = os.path.getsize(trace)
    assert peak < 2 * size, (peak, size)
    text = read(rep)
    assert capsys.readouterr().out == "".join(
        line[2:] for line in text.splitlines(keepends=True)
        if line.startswith(("# check", "# reference")))
    ts = [int(line.split(",")[2]) for line in text.split(
        "trace,algo,t,objective,density_residual,bound\n")[1].splitlines()]
    assert len(ts) <= 20 * math.log10(rows) + 3
    assert {0, 1, rows} <= set(ts)
    assert all(a < b for a, b in zip(ts, ts[1:]))


def test_report_bound_ratio_reads_every_row(tmp_path):
    """The bound_ratio line names the largest residual-to-bound ratio of every
    recorded row, here at t = 1234, a step the table leaves out; a zero bound
    over a zero residual reads nan, without a warning."""
    model = generate_topology("cycle", 0.3, 0.1, n=5)
    t = np.arange(3001)
    bound = bp_mod.bp_error_bound(model.norms(), t)
    # residual bound/2, held from t = 1000 to 1234, then bound/4, and 0 at the
    # end, so that the trace's maximum is its last objective: non-increasing
    resid = np.where(t < 1000, bound / 2, np.where(t <= 1234, bound[1000] / 2, bound / 4))
    resid[0], resid[-1] = resid[1], 0.0
    trace = IterationTrace("bp", t, 50.0 - resid, np.full(t.size, 0.5), False)
    path, rep = tmp_path / "trace.csv", tmp_path / "report.txt"
    path.write_text(text_of(trace_to_csv, trace, trace_meta(model, "ones", 0.0)))
    assert main(["report", str(path), "--out", str(rep)]) == 0
    parsed, _ = trace_from_csv(read(path))
    ref = float(parsed.objective.max())
    ratio, at = ref_bound_ratio(parsed.t, parsed.objective, ref, bound)
    assert at == 1234
    head, body = read(rep).split("trace,algo,t,objective,density_residual,bound\n")
    assert f"# bound_ratio trace0(bp) {ratio:.17g} at t 1234\n" in head
    assert "# check trace0(bp) objective_monotone PASS\n" in head
    assert "0,bp,1234," not in body
    # a one-node model has bound 0 and residual 0 from t = 1: the ratio is nan
    one = tmp_path / "one"
    assert main(["run", "--topology", "grid:1x1", "--beta", "0.3", "--algo", "mf",
                 "--out", str(one)]) == 0
    assert main(["report", str(one / "trace.csv"), "--out", str(rep)]) == 0
    assert "# bound_ratio trace0(mf) nan at t 1\n" in read(rep)


def test_report_on_a_t0_trace_writes_no_bound_ratio(tmp_path):
    """A trace whose one row is t = 0 has no step for a bound: report writes its
    checks and its row, and no bound_ratio line."""
    model = generate_topology("cycle", 0.3, 0.1, n=5)
    trace = IterationTrace("mf", np.array([0]), np.array([1.5]), np.array([np.nan]), False)
    path, rep = tmp_path / "trace.csv", tmp_path / "report.txt"
    path.write_text(text_of(trace_to_csv, trace, trace_meta(model, "ones", 0.0)))
    assert main(["report", str(path), "--out", str(rep)]) == 0
    head, body = read(rep).split("trace,algo,t,objective,density_residual,bound\n")
    assert "# check trace0(mf) objective_monotone PASS\n" in head
    assert "# check trace0(mf) bound_dominates PASS\n" in head
    assert "# check trace0(mf) converged FAIL\n" in head
    assert "# bound_ratio" not in head
    assert body.startswith("0,mf,0,1.5,0,inf\n")


def test_verbs_load_only_what_they_use(tmp_path):
    """Importing the CLI and `gen --topology` of every kind load neither numpy
    nor hashlib's OpenSSL module: the generators and the model writer are
    stdlib, and a model is hashed with CPython's builtin SHA-256. The numpy
    verbs load no numpy.random (5 MB of resident memory), since seeded graphs
    are drawn from Python's random."""
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code = ("import sys; from isingvi.cli import main; "
            "code = main(sys.argv[1:]) if sys.argv[1:] else None; "
            "print(code, *(name in sys.modules for name in "
            "('numpy', '_hashlib', 'numpy.random')))")
    _long_trace(tmp_path / "trace.csv", 10)

    def loaded(*argv):
        out = subprocess.run([sys.executable, "-c", code, *argv], capture_output=True,
                             text=True, env=env, cwd=tmp_path, check=True)
        return out.stdout.splitlines()[-1]

    assert loaded() == "None False False False"
    for spec in ("grid:4x4", "cycle:5", "star:5", "tree:5", "regular:10:3"):
        assert loaded("gen", "--topology", spec, "--beta", "0.3", "--field", "0.1",
                      "--seed", "3", "--out", "m.txt") == "0 False False False", spec
    assert loaded("gen", "--model", "m.txt", "--out", "copy.txt") == "0 True False False"
    assert loaded("run", "--model", "m.txt", "--out", "run") == "0 True False False"
    assert loaded("run", "--topology", "tree:5", "--beta", "0.3", "--out", "run") == \
        "0 True False False"
    assert loaded("exact", "--topology", "regular:10:3", "--beta", "0.3",
                  "--out", "exact") == "0 True False False"
    assert loaded("report", "trace.csv", "--out", "report.txt") == "0 True False False"


def test_report_rejects_mixed_models(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    main(["run", "--topology", "cycle:4", "--beta", "0.3", "--algo", "bp",
          "--out", str(a)])
    main(["run", "--topology", "cycle:5", "--beta", "0.3", "--algo", "bp",
          "--out", str(b)])
    assert main(["report", str(a / "trace.csv"), str(b / "trace.csv")]) == 1
    # a refused report is refused before its output file is opened
    rep = tmp_path / "report.txt"
    rep.write_text("an earlier report\n")
    assert main(["report", str(a / "trace.csv"), str(b / "trace.csv"), "--out", str(rep)]) == 1
    assert rep.read_text() == "an earlier report\n"
    assert main(["report"]) == 1


def test_exit_codes(tmp_path, monkeypatch, capsys):
    assert main(["run", "--model", str(tmp_path / "missing.txt"), "--algo",
                 "bp", "--out", str(tmp_path / "o")]) == 2
    # a model file that is not UTF-8 is a parse error with its line number
    (tmp_path / "utf16.txt").write_bytes(b"\xff\xfen 2\nedge 0 1 0.5\n")
    capsys.readouterr()
    for verb in (["gen"], ["run", "--out", str(tmp_path / "o")]):
        assert main([*verb, "--model", str(tmp_path / "utf16.txt")]) == 1
        assert capsys.readouterr().err.startswith("error: line 1: not UTF-8 text")
    # a node count too large to allocate is a size error; numpy.zeros is
    # replaced so that the test allocates nothing
    (tmp_path / "huge.txt").write_text("n 100000000000\nedge 0 1 0.5\n")
    zeros = np.zeros

    def guarded_zeros(shape, *args, **kwargs):
        if np.prod(shape, dtype=float) > 1e9:
            raise MemoryError(f"Unable to allocate an array with shape {shape}")
        return zeros(shape, *args, **kwargs)

    monkeypatch.setattr(np, "zeros", guarded_zeros)
    assert main(["run", "--model", str(tmp_path / "huge.txt"), "--out",
                 str(tmp_path / "o")]) == 3
    assert capsys.readouterr().err.startswith("error: not enough memory: Unable")
    monkeypatch.undo()
    assert main(["run", "--topology", "blob:9", "--beta", "0.3", "--algo",
                 "bp", "--out", str(tmp_path / "o")]) == 1
    # random topologies need a seed numpy accepts; the others ignore it
    for spec, seed in (("regular:10:3", "-1"), ("tree:10", "-5")):
        capsys.readouterr()
        assert main(["gen", "--topology", spec, "--beta", "0.3", "--seed", seed]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err
    assert main(["gen", "--topology", "cycle:5", "--beta", "0.3", "--seed", "-1",
                 "--out", str(tmp_path / "cycle.txt")]) == 0
    # topology node counts numpy cannot size are model errors, raised before
    # anything is allocated
    for spec in ("cycle:576460752303423488", "cycle:99999999999999999999",
                 "grid:99999999999x99999999999",
                 "star:99999999999999999999", "tree:99999999999999999999",
                 "regular:100000000000000000000:4"):
        capsys.readouterr()
        assert main(["gen", "--topology", spec, "--beta", "0.3"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "node count must be at most" in err
    # the size guard fires before any table is allocated
    for wide in ("grid:40x40", "regular:200:3"):
        code, peak = peak_bytes(main, ["exact", "--topology", wide, "--beta", "0.3",
                                       "--out", str(tmp_path / "o")])
        assert code == 3
        assert peak < 5e6
    assert main(["exact", "--topology", "tree:10000", "--beta", "0.3",
                 "--out", str(tmp_path / "o")]) == 0
    assert main(["run", "--topology", "cycle:4", "--beta", "0.3", "--algo",
                 "simulated_annealing", "--out", str(tmp_path / "o")]) == 1
    assert main(["run", "--topology", "cycle:4", "--algo", "bp",
                 "--out", str(tmp_path / "o")]) == 1   # --beta missing
    assert main(["run", "--topology", "cycle:4", "--beta", "0.3", "--model",
                 "x.txt", "--algo", "bp", "--out", str(tmp_path / "o")]) == 1
    assert main([]) == 1
    assert main(["run", "--topology", "cycle:4", "--beta", "not_a_number",
                 "--algo", "bp", "--out", str(tmp_path / "o")]) == 1
    assert main(["run", "--topology", "cycle:4", "--beta", "0.3", "--algo",
                 "exact", "--out", str(tmp_path / "o")]) == 1   # a verb only
    assert main(["run", "--topology", "cycle:4", "--beta", "0.3"]) == 1
    assert main(["gen", "--topology", "cycle:4"]) == 1   # --beta missing
    # bad budgets, topology specs and field specs: one error line each
    cycle = ["--topology", "cycle:4", "--beta", "0.3"]
    bad = [["run", *cycle, "--algo", algo, *arg, "--out", str(tmp_path / "o")]
           for algo in ("bp", "ellipsoid_mf")
           for arg in (["--steps", "0"], ["--tol", "-1"], ["--tol", "nan"])]
    bad += [["gen", "--topology", spec, "--beta", "0.3"]
            for spec in ("grid:axb", "grid:3", "cycle:x", "cycle:2", "grid:0x3", "star:1",
                         "tree:0", "regular:7:3", "regular:4:4", "regular:5:0")]
    bad += [["gen", *cycle, "--field", field] for field in ("single:x:0.5", "single:9:0.5")]
    for argv in bad:
        capsys.readouterr()
        assert main(argv) == 1, argv
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err
    # a negative field is rejected by the model type, in the CLI's terms
    assert main(["gen", *cycle, "--field", "-0.5"]) == 1
    assert capsys.readouterr().err == "error: negative field -0.5 (fields must be >= 0)\n"


def test_extreme_inputs_exit_cleanly(tmp_path, capsys):
    # eps near the bottom of float64: the default step budget stays finite,
    # and the search starts from the bracket although its cube rounds away
    for algo in ("ellipsoid_bethe", "ellipsoid_mf"):
        assert main(["run", "--topology", "grid:2x2", "--beta", "0.3", "--field", "0.1",
                     "--algo", algo, "--eps", "1e-320", "--out", str(tmp_path / algo)]) == 0
        assert "Traceback" not in capsys.readouterr().err
        steps = int(summary_dict(tmp_path / algo / "summary.txt")["steps_used"])
        assert steps <= 500, (algo, steps)
    # a huge eps takes the minimum step budget; a non-finite eps, or one whose
    # field perturbation overflows the model, is rejected naming eps
    for algo, eps, code in (("ellipsoid_bethe", "1e300", 0), ("ellipsoid_mf", "1e300", 0),
                            ("ellipsoid_bethe", "1e308", 0), ("ellipsoid_mf", "1e308", 1),
                            ("ellipsoid_bethe", "inf", 1), ("ellipsoid_mf", "inf", 1),
                            ("ellipsoid_bethe", "nan", 1)):
        assert main(["run", "--topology", "cycle:4", "--beta", "0.3", "--algo", algo,
                     "--eps", eps, "--out", str(tmp_path / "eps")]) == code
        err = capsys.readouterr().err
        if code:
            assert err.startswith("error: eps ") and err.count("\n") == 1, err
        else:
            assert err == ""
    # fields so large that the Bethe bracket is 10^185 wide in log-odds while
    # its messages meet: it closes in messages, and its value is BP's
    for k, (topology, beta, field) in enumerate((("cycle:4", "0.3", "1e200"),
                                                 ("cycle:4", "0.3", "1e125"),
                                                 ("grid:3x3", "2", "single:0:1e200"))):
        model = ["run", "--topology", topology, "--beta", beta, "--field", field]
        summaries = []
        for algo in (["ellipsoid_bethe", "--eps", "1e-6"], ["bp"]):
            out = tmp_path / f"field{k}{algo[0]}"
            assert main([*model, "--algo", *algo, "--out", str(out)]) == 0
            summaries.append(summary_dict(out / "summary.txt"))
        assert summaries[0]["stop_reason"] == "bracket", (field, summaries[0])
        assert summaries[0]["final_objective"] == summaries[1]["final_objective"], \
            (field, summaries)
        assert capsys.readouterr().err == ""
    # beside a critical component, whose bracket stays open, an edge from a
    # 1e200 field leaves a search box too wide to search: one error line
    critical = generate_topology("random_regular", math.atanh(0.5), 0.0, n=10, degree=3, seed=1)
    (tmp_path / "apart.txt").write_text("n 12\nnode 0 1e200\nedge 0 1 0.3\n" + "".join(
        f"edge {i + 2} {j + 2} {w!r}\n"
        for (i, j), w in zip(critical.edges.tolist(), critical.couplings.tolist())))
    assert main(["run", "--model", str(tmp_path / "apart.txt"), "--algo", "ellipsoid_bethe",
                 "--eps", "1e-6", "--out", str(tmp_path / "apart")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: box radius ") and err.count("\n") == 1, err
    # the largest magnitudes whose 2J and 2h fit in float64 give finite runs
    (tmp_path / "big.txt").write_text("n 1\nnode 0 8.9e307\n")
    for verb in (["run", "--algo", "bp"], ["run", "--algo", "mf"], ["exact"]):
        out = tmp_path / verb[-1]
        assert main([*verb, "--model", str(tmp_path / "big.txt"), "--out", str(out)]) == 0
        summary = summary_dict(out / "summary.txt")
        assert math.isfinite(float(summary.get("final_objective", summary.get("log_z"))))
    # couplings so large that the objective is constant at 4e300 plot cleanly
    for algo in ("mf", "bp"):
        assert main(["run", "--topology", "cycle:4", "--beta", "1e300", "--algo", algo,
                     "--steps", "3", "--tol", "0", "--plot", "--out", str(tmp_path / "huge")]) == 0
        assert capsys.readouterr().err == ""
    # past them, the model is rejected with one error line
    (tmp_path / "bigger.txt").write_text("n 1\nnode 0 9e307\n")
    capsys.readouterr()
    for source in (["--model", str(tmp_path / "bigger.txt")],
                   ["--topology", "cycle:3", "--beta", "1e308"],
                   ["--topology", "cycle:3", "--beta", "0.3", "--field", "1e308"]):
        for verb in (["run", "--algo", "bp"], ["run", "--algo", "mf"], ["exact"]):
            assert main([*verb, *source, "--out", str(tmp_path / "o")]) == 1
            err = capsys.readouterr().err
            assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("algo", ["ellipsoid_bethe", "ellipsoid_mf"])
def test_bracket_certifies_a_40x40_grid(tmp_path, algo):
    """On a 40x40 grid at beta 0.3, h 0.05 the ellipsoid's d^2 budget and
    d x d factor cannot run (d = 6,240 Bethe log-odds, 1,600 means), but the
    monotone bracket certifies both optima to eps 1e-6 alone: the run takes
    no ellipsoid step, its value lies within eps of a tol-1e-15 run, and its
    peak stays below an eighth of one d x d float64 matrix."""
    model = generate_topology("grid", 0.3, 0.05, rows=40, cols=40)
    bethe = algo == "ellipsoid_bethe"
    iterate, objective, d = ((bp_mod.bp_iterate, bp_mod.dual_bethe, 2 * model.m) if bethe
                             else (mf_mod.mf_iterate, mf_mod.mf_objective, model.n))
    code, peak = peak_bytes(main, ["run", "--topology", "grid:40x40", "--beta", "0.3",
                                   "--field", "0.05", "--algo", algo, "--eps", "1e-6",
                                   "--out", str(tmp_path)])
    summary = summary_dict(tmp_path / "summary.txt")
    state, trace = iterate(model, max_steps=10**6, tol=1e-15, record=False)
    ref = objective(model, state) if trace.converged else math.nan
    print(f"{algo}: {summary['bracket_sweeps']} sweeps, |value - reference| "
          f"{abs(float(summary['final_objective']) - ref):.3g}, peak {peak / 1e6:.2f} MB")
    assert code == 0 and summary["stop_reason"] == "bracket"
    assert summary["steps_used"] == summary["bracket_sweeps"]
    assert read(tmp_path / "progress.csv") == "step,objective\n"
    assert float(summary["certificate_gap"]) <= 1e-6 / 2.0
    assert abs(float(summary["final_objective"]) - ref) <= 1e-6
    assert peak < d * d, (peak, d)


def test_bethe_cuts_stay_finite_where_tanh_j_rounds_to_one(tmp_path):
    """At beta 20, tanh(J) is 1.0 in float64, and a Bethe query reaches
    nu_e = 1: the cut's factor theta/(1 - (theta nu)^2) reads theta nu clamped
    as the field does, so it stays finite and no divide warning is raised."""
    assert main(["run", "--topology", "cycle:3", "--beta", "20", "--field", "0.2",
                 "--algo", "ellipsoid_bethe", "--eps", "1e-320",
                 "--out", str(tmp_path / "o")]) == 0


def test_saturated_bethe_certificate_matches_bp(tmp_path):
    """K4 at beta 20, h 0: tanh(J) is 1.0, and the Bethe certificate's messages
    tanh(y) round to 1.0, so the dual is evaluated at tanh(J) nu = 1, the
    exact log 0 of its node terms. At eps 1e-16 the run exits 0 with BP's
    final objective."""
    base = ["run", "--topology", "regular:4:3", "--beta", "20", "--field", "0"]
    assert main([*base, "--algo", "ellipsoid_bethe", "--eps", "1e-16",
                 "--out", str(tmp_path / "eb")]) == 0
    assert main([*base, "--algo", "bp", "--out", str(tmp_path / "bp")]) == 0
    got, want = (summary_dict(tmp_path / d / "summary.txt")["final_objective"]
                 for d in ("eb", "bp"))
    assert got == want == "120"


_HUGE_STEPS = str(10**30)


@st.composite
def _cli_argv(draw):
    """A `gen` or `run` argument list: each option takes one of its good
    values (degenerate topologies, extreme numbers) seven times in eight,
    else a bad one, so that most drawn argument lists pass validation."""
    def pick(good, bad):
        return draw(st.sampled_from(bad if draw(st.integers(0, 7)) == 0 else good))

    top = pick(("grid:1x1", "tree:1", "star:2", "cycle:3", "grid:2x2", "regular:4:3"),
               ("star:1", "cycle:2", "grid:0x2", "tree:x"))
    argv = ["--topology", top,
            "--beta", pick(("0", "0.3", "20", "1e300", "1e-320"),
                           ("-0.5", "nan", "inf", "1e308", "x")),
            "--field", pick(("0", "0.3", "20", "1e-320", "single:0:1"),
                            ("-0.5", "nan", "inf", "1e308", "x", "single:5:1")),
            "--seed", pick(("0", "7"), ("-1",))]
    if draw(st.booleans()):
        return ["gen", *argv]
    steps = pick(("1", "50", _HUGE_STEPS), ("0", "-3", "1.5"))
    # a huge budget with a tolerance the run meets; tol 0 would spend it all
    tol = pick(("1e-3", "inf", "1e300") if steps == _HUGE_STEPS else ("0", "1e-3", "inf"),
               ("-1", "nan", "x"))
    # eps below 1e-300 takes thousands of ellipsoid steps beyond one node
    eps = pick(("1e-3", "1e300") + (("1e-320",) if top in ("grid:1x1", "tree:1") else ()),
               ("0", "-1", "nan", "inf", "x"))
    algo = draw(st.sampled_from(("bp", "mf", "ellipsoid_bethe", "ellipsoid_mf")))
    return ["run", *argv, "--algo", algo, "--steps", steps, "--tol", tol, "--eps", eps]


@settings(max_examples=120, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(_cli_argv())
def test_cli_argument_fuzz_exits_cleanly(tmp_path, argv):
    """Whatever the arguments, the CLI exits with a documented code (0-3) and
    at most one `error:` line, and raises nothing: no traceback, no warning."""
    if argv[0] == "run":
        argv = [*argv, "--out", str(tmp_path / "run")]
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2, 3), (code, argv)
    assert err.getvalue().count("error:") <= 1, (err.getvalue(), argv)
    assert (code == 0) == (err.getvalue() == ""), (code, err.getvalue(), argv)


def test_nonpositive_fields_are_sign_flipped(tmp_path):
    edges = "edge 0 1 0.4\nedge 1 2 0.4\n"
    for name, fields in (("neg", (-0.2, -0.1, 0)), ("pos", (0.2, 0.1, 0)),
                         ("mixed", (-0.2, 0.1, 0))):
        nodes = "".join(f"node {i} {h}\n" for i, h in enumerate(fields))
        (tmp_path / f"{name}.txt").write_text("n 3\n" + nodes + edges)
    for name in ("neg", "pos"):
        assert main(["run", "--model", str(tmp_path / f"{name}.txt"),
                     "--out", str(tmp_path / name)]) == 0
    assert read(tmp_path / "neg" / "summary.txt") == read(tmp_path / "pos" / "summary.txt")
    assert main(["run", "--model", str(tmp_path / "mixed.txt"),
                 "--out", str(tmp_path / "mixed")]) == 1


def test_monotone_slack_scales_with_objective():
    # a rounding-size drop on an objective of size 3e4 is monotone
    big = np.array([3.0e4, 3.0e4 + 1.0, 3.0e4 + 1.0 - 8e-10, 3.0e4 + 2.0])
    assert _monotone_ok(big)
    # on an objective of size 1 the slack stays 1e-11 absolute
    small = np.array([0.5, 1.0, 1.0 - 1e-9, 1.0])
    assert not _monotone_ok(small)
    assert _monotone_ok(np.array([np.nan, 1.0]))


def test_bound_check_fails_a_bound_exceeded_by_1e_6():
    """bound_dominates tolerates rounding (1e-9) above the theorem bound, not
    an excess of 1e-6 at one step; t = 0, where the bound is inf, is not
    checked."""
    t = np.arange(5)
    bound = np.array([np.inf, 1.0, 0.5, 0.25, 0.125])
    reference = 3.0
    objective = reference - np.array([7.0, 1.0, 0.5, 0.25, 0.125])
    assert _bound_ok(t, objective, bound, reference)
    objective[2] -= 1e-6
    assert not _bound_ok(t, objective, bound, reference)


def test_console_script(tmp_path):
    """The installed console script, or in a checkout `python -m isingvi.cli`
    with src on PYTHONPATH: exit codes reach the calling process."""
    exe = shutil.which("isingvi")
    env = None
    if exe is None:
        src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")]))}
    cmd = [exe] if exe else [sys.executable, "-m", "isingvi.cli"]
    out = subprocess.run([*cmd, "gen", "--topology", "star:5", "--beta", "0.3"],
                         capture_output=True, text=True, env=env, cwd=tmp_path)
    assert out.returncode == 0
    model = load_model(out.stdout)
    assert (model.n, model.m) == (5, 4)
    bad = subprocess.run([*cmd, "gen", "--topology", "star:5"],
                         capture_output=True, text=True, env=env, cwd=tmp_path)
    assert (bad.returncode, bad.stdout) == (1, "")
    assert bad.stderr == "error: --topology requires --beta\n"
