import hashlib
import io
import math
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import text_of
from isingvi import (DomainError, IsingModel, ParseError, bp_error_bound,
                     bp_iterate, exact_log_z, exact_result_from_csv,
                     generate_topology, load_model, mf_error_bound,
                     mf_iterate, model_hash, node_estimates, save_model,
                     solve_bethe_exponential, solve_mf_exponential,
                     trace_from_csv, trace_meta, trace_norms)
from isingvi import textio
from isingvi.cli import main
from refimpl import (ref_bound_ratio, ref_exact_csv, ref_model_hash, ref_node_csv,
                     ref_progress_csv, ref_report_rows, ref_save_model, ref_trace_csv)

SPECIAL = [0.0, -0.0, math.nan, -math.nan, math.inf, -math.inf, 5e-324, -5e-324,
           2.2250738585072009e-308, 1.7976931348623157e308, 0.1, 1.0 / 3.0]


def bits_to_floats(bits):
    return np.array(bits, dtype=np.uint64).view(np.float64)


any_float = st.one_of(
    st.integers(0, 2**64 - 1).map(lambda b: float(bits_to_floats([b])[0])),
    st.sampled_from(SPECIAL),
    st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True))


@given(pool=st.lists(any_float, min_size=1, max_size=12),
       picks=st.lists(st.integers(0, 11), max_size=300))
@settings(max_examples=300)
def test_format_floats_matches_per_value_format(pool, picks):
    # repeated picks from a small pool: the formatter's distinct-value path
    values = np.array(pool + [pool[k % len(pool)] for k in picks], dtype=np.float64)
    assert textio.format_floats(values) == [f"{v:.17g}" for v in values.tolist()]


def test_format_floats_keeps_signed_zero_and_nan_bits():
    values = bits_to_floats([0, 1 << 63, 0x7FF8000000000000, 0xFFF8000000000001, 1])
    assert textio.format_floats(values) == ["0", "-0", "nan", "nan", "4.9406564584124654e-324"]
    assert textio.format_floats(np.zeros(0)) == []


def test_rows_span_blocks(monkeypatch):
    monkeypatch.setattr(textio, "BLOCK_ROWS", 4)
    ints = np.arange(11) - 3
    floats = np.repeat([0.1, -0.0, 2.5e-300], [5, 3, 3])
    expect = "".join(f"x {i} {v:.17g}\n" for i, v in zip(ints.tolist(), floats.tolist()))
    assert "".join(textio.rows((ints, floats), sep=" ", prefix="x ")) == expect
    assert list(textio.rows((ints[:0], floats[:0]))) == []


def test_save_load_round_trip_is_bit_exact():
    model = IsingModel(3, [[0, 1], [1, 2]], [-0.0, 0.7], [5e-324, 0.0, 1.0 / 3.0])
    back = load_model(text_of(save_model, model))
    assert np.array_equal(back.edges, model.edges)
    for a, b in ((back.couplings, model.couplings), (back.fields, model.fields)):
        assert np.array_equal(a.view(np.int64), b.view(np.int64))
    assert text_of(save_model, back) == text_of(save_model, model) == ref_save_model(model)
    assert model_hash(model) == ref_model_hash(model)


def test_writers_stream_to_files_in_blocks(monkeypatch, tmp_path):
    monkeypatch.setattr(textio, "BLOCK_ROWS", 3)
    model = generate_topology("grid", 0.3, 0.1, rows=3, cols=4)
    path = tmp_path / "model.txt"
    with open(path, "w", encoding="utf-8") as fh:
        save_model(model, fh)
    assert path.read_text() == ref_save_model(model)
    with open(path, encoding="utf-8") as fh:
        assert text_of(save_model, load_model(fh)) == ref_save_model(model)
    assert model_hash(model) == hashlib.sha256(
        ref_save_model(model).encode()).hexdigest()[:16]


def test_parse_errors_name_their_line(monkeypatch):
    monkeypatch.setattr(textio, "BLOCK_ROWS", 2)
    good = "n 3\nnode 0 0.5\nedge 0 1 0.3\nedge 1 2 0.3\n"
    assert load_model(good).m == 2
    cases = {"n 3\nedge 0 1 0.3\n\nedge 1 x 0.3\n": "4:",        # bad id, second block
             "n 3\nedge 0 1 0.3\nedge 1 2 0.3\nnode 7 1\n": "4:",  # out of range
             "n 3\nedge 0 1 0.3\nedge 1 2 0.3\nedge 2 5 1\n": "4:",
             "n 3\nnode 1 1\n# c\nnode 1 2\n": "4:",              # duplicate node
             "n 3\n# c\nnode 1 1\nnode 1 2\n": "4:",              # ... in one block
             # two faults: the earlier block's is named
             "n 3\nedge 0 7 0.3\nedge 0 1 0.3\nedge 1 x 0.3\n": "2: out-of-range",
             "n 3\nedge 0 1 zz\n": "2:",
             "n 3\nedge 0 1 0.3\nwhat 1 2\n": "3:",               # unknown directive
             "n 3\nedge 0 99999999999999999999 0.3\n": "2:",      # id overflow
             "node 0 0.5\nn 3\n": "1: node before n directive",
             "edge 0 1 0.5\nn 3\n": "1: edge before n directive",
             "n 0\n": "1: node count must be in 1[.][.]",
             "n -1\n": "1: node count must be in 1[.][.]",
             # around the n line: a malformed line at once, a row before n at n
             "node 0 1\nwhat 1\nn 3\n": "2: unknown directive 'what'",
             "node 0 1\n# c\n# d\nn 3\n": "1: node before n directive",
             "node 0 1\nn 0\n": "1: node before n directive",
             "n 3\n# c\n# d\nn 3\n": "4: duplicate n directive",
             "edge 0 1\nn 3\n": "1: 'edge' takes 3 fields, got 2"}
    for text, where in cases.items():
        with pytest.raises(ParseError, match=f"^line {where}"):
            load_model(text)


def test_non_utf8_reports_its_line(tmp_path):
    path = tmp_path / "model.txt"
    path.write_bytes(b"n 3\n" + b"edge 0 1 0.5\n" * 5000 + b"# caf\xe9\nedge 1 2 0.5\n")
    with open(path, encoding="utf-8") as fh, pytest.raises(ParseError, match="^line 5002:"):
        load_model(fh)


TRACE_HEADER = "t,dual_bethe,step_inf\n"
EXACT_HEAD = "# model_hash 0123456789abcdef\n# log_z 1.5\n"


def trace_with(**header):
    """A one-row BP trace whose header holds these entries over valid ones;
    an entry of None is left out."""
    header = {"algo": "bp", "model_hash": "0123456789abcdef", "n": "4", "m": "4",
              "j_l1": "4", "h_l1": "0", "j_linf": "1", **header}
    return "".join(f"# {k} {v}\n" for k, v in header.items()
                   if v is not None) + TRACE_HEADER + "0,1,nan\n"


READERS = {"trace": trace_from_csv, "header": lambda src: trace_norms(trace_from_csv(src)[1]),
           "exact": exact_result_from_csv}


@pytest.mark.parametrize("kind, text, error, line", [
    ("trace", "# algo bp\n" + TRACE_HEADER + "0,1,nan\n" + TRACE_HEADER, ParseError, 4),
    ("trace", "# algo bp\n0,1,nan\n" + TRACE_HEADER, ParseError, 2),
    ("trace", "# algo bp\n" + TRACE_HEADER + "0,1\n", ParseError, 3),
    ("trace", "# algo bp\n" + TRACE_HEADER, DomainError, None),
    ("trace", "# algo bp\n", DomainError, None),
    ("trace", TRACE_HEADER + "0,1,nan\n", DomainError, None),
    ("trace", "# algo bp\nt,dual_bethe,step_inf,bound_thm2\n0,1,nan,inf\n", ParseError, 2),
    ("header", trace_with(n="four"), DomainError, None),
    ("header", trace_with(m="4.5"), DomainError, None),
    ("header", trace_with(j_l1="x"), DomainError, None),
    ("header", trace_with(j_l1=None), DomainError, None),
    ("header", trace_with(n="0"), DomainError, None),
    ("header", trace_with(m="-4"), DomainError, None),
    ("header", trace_with(h_l1="-0.5"), DomainError, None),
    ("header", trace_with(j_linf="inf"), DomainError, None),
    ("header", trace_with(j_l1="nan"), DomainError, None),
    ("exact", EXACT_HEAD + "node,mean\n0,0.5\nnode,mean\n", ParseError, 5),
    ("exact", "0,0.5,1\n" + EXACT_HEAD + "node,mean\n", ParseError, 1),
    ("exact", EXACT_HEAD + "node,mean\n0,0.5\ni,j,corr\n0,1\n", ParseError, 6),
    ("exact", "# model_hash 0123456789abcdef\nnode,mean\n0,0.5\n", DomainError, None),
    ("exact", EXACT_HEAD + "extra,2\nnode,mean\n0,0.5\n", ParseError, 3),
    ("exact", "# model_hash 0123456789abcdef\n# log_z x\nnode,mean\n0,0.5\n",
     DomainError, None),
    ("exact", "# model_hash 0123456789abcdef\nlog_z,1.5\nnode,mean\n0,0.5\n",
     ParseError, 2),
], ids=["trace-repeated-header", "trace-row-before-header", "trace-field-count",
        "trace-no-rows", "trace-no-header", "trace-no-algo", "trace-bound-column",
        "header-n-not-int", "header-m-not-int", "header-j-l1-not-float",
        "header-j-l1-missing", "header-n-zero", "header-m-negative",
        "header-h-l1-negative", "header-j-linf-inf", "header-j-l1-nan",
        "exact-repeated-header",
        "exact-row-before-header", "exact-field-count", "exact-no-log-z",
        "exact-extra-lines", "exact-log-z-not-float", "exact-log-z-row"])
def test_malformed_csv_is_rejected(tmp_path, capsys, kind, text, error, line):
    with pytest.raises(error, match=None if line is None else f"^line {line}:"):
        READERS[kind](io.StringIO(text))
    # the CLI reads traces in report and exact.csv in run: one error line, exit 1
    name = "exact.csv" if kind == "exact" else "trace.csv"
    (tmp_path / name).write_text(text)
    argv = (["run", "--topology", "cycle:3", "--beta", "0.3", "--out", str(tmp_path)]
            if kind == "exact" else ["report", str(tmp_path / name)])
    capsys.readouterr()
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err


def read(path):
    with open(path, encoding="utf-8") as fh:
        return fh.read()


@pytest.mark.parametrize("block_rows", [3, textio.BLOCK_ROWS])
def test_cli_artifacts_match_per_row_writers(tmp_path, monkeypatch, block_rows):
    """Every artifact the CLI writes equals the per-row reference writers' text
    for the same values, with blocks of 3 rows and of the default size."""
    monkeypatch.setattr(textio, "BLOCK_ROWS", block_rows)
    out = lambda *p: os.path.join(tmp_path, *p)  # noqa: E731
    assert main(["gen", "--topology", "grid:2x3", "--beta", "0.3", "--field", "0.1",
                 "--out", out("grid.txt")]) == 0
    assert main(["gen", "--topology", "cycle:4", "--beta", "0.4", "--field", "0.3",
                 "--out", out("cycle.txt")]) == 0
    grid = load_model(read(out("grid.txt")))
    cycle = load_model(read(out("cycle.txt")))
    assert read(out("grid.txt")) == ref_save_model(grid)
    assert read(out("cycle.txt")) == ref_save_model(cycle)

    assert main(["exact", "--model", out("grid.txt"), "--out", out("bp")]) == 0
    assert read(out("bp", "exact.csv")) == ref_exact_csv(exact_log_z(grid), grid)

    for algo, iterate, final in (
            ("bp", bp_iterate, lambda nu: ref_node_csv(node_estimates(grid, nu))),
            ("mf", mf_iterate, ref_node_csv)):
        argv = ["run", "--model", out("grid.txt"), "--algo", algo, "--tol", "1e-12",
                "--out", out(algo)]
        assert main(argv + (["--plot"] if algo == "mf" else [])) == 0
        state, trace = iterate(grid, tol=1e-12)
        meta = trace_meta(grid, "ones", 1e-12)
        assert meta["model_hash"] == ref_model_hash(grid)
        assert read(out(algo, "final_state.csv")) == final(state)
        assert read(out(algo, "trace.csv")) == ref_trace_csv(trace, meta)

    eps = "1e-6"
    for algo, solve, final in (
            ("ellipsoid_bethe", solve_bethe_exponential,
             lambda nu: ref_node_csv(node_estimates(cycle, nu))),
            ("ellipsoid_mf", solve_mf_exponential, ref_node_csv)):
        assert main(["run", "--model", out("cycle.txt"), "--algo", algo, "--eps", eps,
                     "--out", out(algo)]) == 0
        point, _, state = solve(cycle, float(eps))
        assert read(out(algo, "final_state.csv")) == final(point)
        assert read(out(algo, "progress.csv")) == ref_progress_csv(state.progress)

    traces = [out("bp", "trace.csv"), out("mf", "trace.csv")]
    assert main(["report", *traces, "--out", out("report.txt")]) == 0
    head, body = read(out("report.txt")).split(
        "trace,algo,t,objective,density_residual,bound\n")
    parsed = [trace_from_csv(read(p))[0] for p in traces]
    norms = grid.norms()
    expect = ""
    for k, trace in enumerate(parsed):
        bound = (mf_error_bound if trace.algo == "mf" else bp_error_bound)(norms, trace.t)
        ref = float(np.nanmax(trace.objective))
        expect += ref_report_rows(k, trace.algo, trace.t, trace.objective, ref, grid.n, bound)
        ratio, at = ref_bound_ratio(trace.t, trace.objective, ref, bound)
        assert f"# bound_ratio trace{k}({trace.algo}) {ratio:.17g} at t {at}\n" in head
    assert body == expect
    assert head.startswith(f"# model_hash {ref_model_hash(grid)}\n")
