import math
import shutil
import subprocess
import time

import numpy as np
import pytest

from isingvi import load_model, trace_from_csv
from isingvi.cli import _monotone_ok, emit_report, main
from refimpl import cycle_log_z


def read(path):
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def summary_dict(path):
    out = {}
    for line in read(path).splitlines():
        key, _, value = line.partition(" ")
        out[key] = value
    return out


def test_gen_writes_parsable_model(tmp_path):
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


def test_run_ellipsoid(tmp_path):
    run = tmp_path / "out"
    assert main(["run", "--topology", "cycle:4", "--beta", "0.4", "--field",
                 "0.3", "--algo", "ellipsoid_bethe", "--eps", "1e-7",
                 "--out", str(run)]) == 0
    summary = summary_dict(run / "summary.txt")
    ref = tmp_path / "ref"
    main(["run", "--topology", "cycle:4", "--beta", "0.4", "--field", "0.3",
          "--algo", "bp", "--tol", "1e-14", "--out", str(ref)])
    ref_val = float(summary_dict(ref / "summary.txt")["final_objective"])
    assert abs(float(summary["final_objective"]) - ref_val) <= 1e-7
    progress = read(run / "progress.csv")
    assert progress.splitlines()[0] == "step,feasible,objective_best,violation"


def test_exact_verb_and_transfer_matrix(tmp_path):
    run = tmp_path / "out"
    assert main(["exact", "--topology", "cycle:7", "--beta", "0.45", "--field",
                 "0.3", "--out", str(run)]) == 0
    log_z = float(summary_dict(run / "summary.txt")["log_z"])
    assert log_z == pytest.approx(cycle_log_z(7, 0.45, 0.3), rel=1e-13, abs=0)
    # the exact verb is the one exact path; the transfer matrix is gone
    assert main(["run", "--topology", "cycle:7", "--beta", "0.45", "--field",
                 "0.3", "--algo", "transfer_matrix", "--out", str(tmp_path / "tm")]) == 1


def test_report_verb(tmp_path):
    run_bp, run_mf = tmp_path / "bp", tmp_path / "mf"
    base = ["--topology", "grid:3x3", "--beta", "0.3", "--field", "0.2"]
    main(["run"] + base + ["--algo", "bp", "--tol", "1e-12", "--out", str(run_bp)])
    main(["run"] + base + ["--algo", "mf", "--tol", "1e-12", "--out", str(run_mf)])
    rep = tmp_path / "report.csv"
    assert main(["report", str(run_bp / "trace.csv"), str(run_mf / "trace.csv"),
                 "--out", str(rep)]) == 0
    text = read(rep)
    assert "# check trace0(bp) objective_monotone PASS" in text
    assert "# check trace1(mf) bound_dominates PASS" in text
    assert "trace,algo,t,objective,density_residual,bound" in text
    rep2 = tmp_path / "report2.csv"
    main(["report", str(run_bp / "trace.csv"), str(run_mf / "trace.csv"),
          "--out", str(rep2)])
    assert read(rep) == read(rep2)


def test_report_rejects_mixed_models(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    main(["run", "--topology", "cycle:4", "--beta", "0.3", "--algo", "bp",
          "--out", str(a)])
    main(["run", "--topology", "cycle:5", "--beta", "0.3", "--algo", "bp",
          "--out", str(b)])
    assert main(["report", str(a / "trace.csv"), str(b / "trace.csv")]) == 1
    assert main(["report"]) == 1
    with pytest.raises(Exception):
        emit_report([])


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
    for wide in ("grid:40x40", "regular:200:3"):
        start = time.perf_counter()
        assert main(["exact", "--topology", wide, "--beta", "0.3",
                     "--out", str(tmp_path / "o")]) == 3
        assert time.perf_counter() - start < 1.0
    assert main(["exact", "--topology", "tree:200", "--beta", "0.3",
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


def test_console_script(tmp_path):
    exe = shutil.which("isingvi")
    if exe is None:
        pytest.skip("console script not on PATH")
    out = subprocess.run([exe, "gen", "--topology", "star:5", "--beta", "0.3"],
                         capture_output=True, text=True)
    assert out.returncode == 0
    model = load_model(out.stdout)
    assert (model.n, model.m) == (5, 4)
