from dataclasses import replace

import numpy as np
import pytest

from conftest import cycle4, path3, peak_bytes, text_of
from isingvi import (DomainError, ParseError, bp_iterate, mf_iterate, model_hash,
                     trace_from_csv, trace_meta, trace_norms, trace_to_csv)
from isingvi.cli import main
from isingvi.svgplot import plot_lines
from refimpl import ref_plot_points


def test_round_trip_mf():
    model = path3(0.5, 0.2)
    _x, trace = mf_iterate(model, max_steps=40, tol=0.0)
    meta = trace_meta(model, "ones", 0.0)
    text = text_of(trace_to_csv, trace, meta)
    back, meta2 = trace_from_csv(text)
    assert back.algo == "mf"
    assert trace_norms(meta2) == model.norms()
    assert np.array_equal(back.t, trace.t)
    assert np.array_equal(back.objective, trace.objective)
    assert np.array_equal(back.step_inf[1:], trace.step_inf[1:])
    assert back.converged == trace.converged
    assert meta2["model_hash"] == model_hash(model)
    assert int(meta2["n"]) == 3 and int(meta2["m"]) == 2
    # blank lines anywhere are skipped
    spaced, meta3 = trace_from_csv(text.replace("\n", "\n\n"))
    assert meta3 == meta2 and np.array_equal(spaced.t, back.t)
    assert np.array_equal(spaced.objective, back.objective)
    # the trace's own algo and converged state replace a caller's
    text = text_of(trace_to_csv, trace, {**meta, "algo": "bp", "converged": not trace.converged})
    back, _meta = trace_from_csv(text)
    assert back.algo == "mf" and back.converged == trace.converged


def test_round_trip_bp_handles_nan():
    model = cycle4(0.5, 0.2)
    _nu, trace = bp_iterate(model, max_steps=30, tol=0.0)
    trace = replace(trace, objective=np.full(31, np.nan))
    text = text_of(trace_to_csv, trace, trace_meta(model, "ones", 0.0))
    back, _meta = trace_from_csv(text)
    assert np.isnan(back.objective).all() and len(back.objective) == 31
    assert np.array_equal(back.step_inf[1:], trace.step_inf[1:])
    with pytest.raises(DomainError, match="unknown trace algo 'gibbs'"):
        text_of(trace_to_csv, replace(trace, algo="gibbs"), {})


def test_from_csv_rejects_garbage(tmp_path):
    with pytest.raises(DomainError):
        trace_from_csv("")
    with pytest.raises(DomainError):
        trace_from_csv("# algo mf\n")
    with pytest.raises(ParseError, match="^line 1: row before a header; the headers are "
                                         "'t,objective,step_inf', 't,dual_bethe,step_inf'$"):
        trace_from_csv("t,objective\n0,1.0,2.0\n")
    # a mean-field trace in the former four-column format
    model = path3(0.5, 0.2)
    old = tmp_path / "old.csv"
    old.write_text("".join(f"# {k} {v}\n" for k, v in trace_meta(model, "ones", 0.0).items())
                   + "# algo mf\n# converged False\nt,objective,step_inf,grad_l1\n0,1.0,nan,0.5\n")
    with pytest.raises(ParseError, match="^line 11: row before a header"):
        trace_from_csv(old.read_text())
    assert main(["report", str(old)]) == 1


def test_plot_lines_deterministic():
    xs = list(range(1, 20))
    ys = [1.0 / x for x in xs]
    a = plot_lines("residual", xs, ys, "decay", "t", "r", log=True)
    b = plot_lines("residual", xs, ys, "decay", "t", "r", log=True)
    assert a == b
    assert a.startswith("<svg")
    assert "polyline" in a and "decay" in a


def test_plot_lines_drops_bad_points():
    xs = [0, 1, 2, 3]
    ys = [0.0, float("nan"), 4.0, 8.0]
    svg = plot_lines("s", xs, ys, "", "", "", log=True)
    assert svg.startswith("<svg")
    assert svg.count("<polyline") == 1 and svg.split('points="')[1].count(",") == 2
    empty = plot_lines("s", [0], [0.0], "", "", "", log=True)
    assert empty.startswith("<svg") and "<polyline" not in empty


@pytest.mark.parametrize("log", [False, True])
def test_plot_lines_scales_points_as_arrays(log):
    """A 2*10^4-point series, shaped like a trace's residual (t from 0, a NaN
    and a zero among the values), plots the per-point reference's coordinates
    and peaks below 128 bytes per point. np.log10 may differ from math.log10
    in the last bit; 2-decimal pixel coordinates do not show that."""
    n = 2 * 10**4
    t = np.arange(n)
    ys = 3.0 / (t + 1.0) ** 2 + np.random.default_rng(5).uniform(0.0, 1e-9, n)
    ys[7], ys[11] = np.nan, 0.0
    svg, peak = peak_bytes(plot_lines, "residual", t, ys, "", "", "", log)
    assert peak < 128 * n, peak / n
    assert svg.split('points="')[1].split('"')[0] == ref_plot_points(t, ys, log)


def _points(svg):
    """The polyline's (x, y) pixel coordinates as floats."""
    text = svg.split('points="')[1].split('"')[0]
    return [tuple(map(float, p.split(","))) for p in text.split()]


@pytest.mark.parametrize("repeat", [1, 30, 300])
def test_plot_lines_keeps_at_most_four_points_per_column(repeat):
    """x = 0..622 puts point k on the pixel boundary 76 + k exactly, `repeat`
    times over; the right edge, pixel 698, joins column 697. Whatever the
    length, no column keeps more than 4 points."""
    xs = np.repeat(np.arange(623.0), repeat)
    ys = np.random.default_rng(repeat).normal(size=xs.size)
    svg = plot_lines("s", xs, ys, "", "", "")
    columns = np.bincount([min(int(x), 697) for x, _ in _points(svg)])
    assert columns.max() <= 4 and columns.sum() <= 4 * 622
    assert svg.split('points="')[1].split('"')[0] == ref_plot_points(xs, ys)


@pytest.mark.parametrize("log", [False, True])
def test_plot_lines_long_series_is_bounded_by_canvas(log):
    n = 2 * 10**5
    t = np.arange(1, n + 1)
    ys = np.exp(np.random.default_rng(7).normal(size=n)) / t
    svg = plot_lines("residual", t, ys, "", "", "", log)
    assert len(_points(svg)) <= 4 * 622
    assert len(svg.encode()) < 40_000


def test_plot_lines_degenerate_series():
    # one point, and a constant series, sit in the middle of padded ranges
    assert _points(plot_lines("s", [3], [2.0], "", "", "")) == [(387.0, 224.0)]
    # a constant so large that a 0.5 pad rounds away is padded in proportion
    assert _points(plot_lines("s", [0, 1], [1e300, 1e300], "", "", "")) == [
        (76.0, 224.0), (698.0, 224.0)]
    xs, ys = np.arange(10**4), np.full(10**4, 5.0)
    svg = plot_lines("s", xs, ys, "", "", "")
    points = _points(svg)
    assert {y for _, y in points} == {224.0} and len(points) <= 2 * 622
    assert svg.split('points="')[1].split('"')[0] == ref_plot_points(xs, ys)
    # all points in one column: the first, the highest (1), the lowest (3)
    # and the last
    ys = [0.5, 1.0, 0.25, 0.0, 0.75]
    assert _points(plot_lines("s", [5.0] * 5, ys, "", "", "")) == [
        (387.0, 224.0), (387.0, 56.73), (387.0, 391.27), (387.0, 140.36)]
    # ties go to the earliest point: in column 76 indices 0 (first, highest),
    # 1 (lowest) and 4 (last)
    xs, ys = [0.0, 0.001, 0.002, 0.003, 0.004, 10.0], [1.0, 0.0, 1.0, 0.0, 1.0, 0.5]
    assert _points(plot_lines("s", xs, ys, "", "", "")) == [
        (76.0, 56.73), (76.06, 391.27), (76.25, 56.73), (698.0, 224.0)]


@pytest.mark.parametrize("log", [False, True])
def test_plot_lines_long_series_drops_bad_points(log):
    """Non-finite points, and on log axes nonpositive ones, are dropped before
    the M4 points are picked."""
    n = 2 * 10**4
    rng = np.random.default_rng(11)
    t = np.arange(n)
    ys = rng.normal(size=n)
    ys[rng.integers(0, n, 500)] = np.nan
    ys[rng.integers(0, n, 50)] = np.inf
    ys[rng.integers(0, n, 50)] = 0.0
    svg = plot_lines("s", t, ys, "", "", "", log)
    assert svg.split('points="')[1].split('"')[0] == ref_plot_points(t, ys, log)
