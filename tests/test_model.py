import contextlib
import hashlib
import io
import os
import re
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import cycle4, peak_bytes, random_ferro, star5, text_of, triangle
from isingvi import (IsingModel, ModelError, ParseError, generate_topology,
                     load_model, mf_step, model_hash, save_model)
from isingvi.cli import main
from isingvi.model import _BLOCK


def test_edges_canonicalized():
    m = IsingModel(4, np.array([[3, 1], [2, 0], [1, 0]]),
                   np.array([0.3, 0.2, 0.1]), np.zeros(4))
    assert m.edges.tolist() == [[0, 1], [0, 2], [1, 3]]
    assert m.couplings.tolist() == [0.1, 0.2, 0.3]
    # the edge list and its columns are read-only views of dir_src
    assert (m.edge_i.tolist(), m.edge_j.tolist()) == ([0, 0, 1], [1, 2, 3])
    for a in (m.edges, m.edge_i, m.edge_j):
        assert np.shares_memory(a, m.dir_src) and not a.flags.writeable


def test_directed_edge_layout():
    m = triangle(0.4, 0.1)
    assert m.m == 3
    for e in range(m.m):
        i, j = m.edges[e]
        assert (m.dir_src[2 * e], m.dir_dst[2 * e]) == (i, j)
        assert (m.dir_src[2 * e + 1], m.dir_dst[2 * e + 1]) == (j, i)
        assert m.dir_coupling[2 * e] == m.couplings[e]
    # reverse of directed edge d is d ^ 1
    for d in range(2 * m.m):
        r = d ^ 1
        assert m.dir_src[d] == m.dir_dst[r]


def test_degrees_and_adjacency():
    m = star5(0.3, 0.2)
    assert m.degrees.tolist() == [4, 1, 1, 1, 1]
    assert sorted(m.dir_dst[m.dir_src == 0].tolist()) == [1, 2, 3, 4]
    assert m.dir_dst[m.dir_src == 2].tolist() == [0]


def test_rejects_bad_models():
    with pytest.raises(ModelError):
        IsingModel(0, None, None, None)
    with pytest.raises(ModelError):
        IsingModel(3, np.array([[0, 0]]), np.array([0.1]), np.zeros(3))
    with pytest.raises(ModelError):
        IsingModel(3, np.array([[0, 1], [1, 0]]), np.array([0.1, 0.2]), np.zeros(3))
    with pytest.raises(ModelError):
        IsingModel(3, np.array([[0, 5]]), np.array([0.1]), np.zeros(3))
    with pytest.raises(ModelError):
        IsingModel(2, np.array([[0, 1]]), np.array([np.nan]), np.zeros(2))
    with pytest.raises(ModelError):
        IsingModel(2, np.array([[0, 1]]), np.array([0.1]), np.array([1.0, np.inf]))
    with pytest.raises(ModelError, match="1 edges but 2 couplings"):
        IsingModel(3, np.array([[0, 1]]), np.array([0.1, 0.2]), np.zeros(3))
    with pytest.raises(ModelError, match="expected 3 fields, got 2"):
        IsingModel(3, np.array([[0, 1]]), np.array([0.1]), np.zeros(2))


def test_constructor_rejects_non_ferromagnetic():
    # the sign flip of all-nonpositive fields is load_model's, tested in test_cli
    for couplings, fields in (([-0.5], [0.0, 0.0]), ([0.5], [-0.3, -0.1]),
                              ([0.5], [-0.3, 0.1])):
        with pytest.raises(ModelError) as err:
            IsingModel(2, np.array([[0, 1]]), np.array(couplings), np.array(fields))
        # the message names no Python function: no identifier followed by "("
        assert "negative" in str(err.value) and not re.search(r"\w\(", str(err.value))


def test_norms():
    m = IsingModel(3, np.array([[0, 1], [1, 2]]), np.array([0.25, 0.75]),
                   np.array([0.5, 0.0, 1.5]))
    norms = m.norms()
    assert norms.j_l1 == 2.0          # 2 * (0.25 + 0.75)
    assert norms.h_l1 == 2.0
    assert norms.j_linf == 0.75
    assert (norms.m, norms.n) == (2, 3)
    lonely = IsingModel(1, None, None, np.array([0.7]))
    assert lonely.norms().j_linf == 0.0


def test_mf_step_matches_dense(rng):
    m = random_ferro(7, 12, rng)
    dense = np.zeros((m.n, m.n))
    for e in range(m.m):
        i, j = m.edges[e]
        dense[i, j] = dense[j, i] = m.couplings[e]
    for _ in range(5):
        x = rng.uniform(-1, 1, size=m.n)
        assert np.allclose(mf_step(m, x), np.tanh(dense @ x + m.fields), atol=1e-14)


def test_rejects_magnitudes_past_float64():
    # 2 (sum J + sum |h|) must be finite: the kernels form 2J and 2h
    assert IsingModel(1, None, None, [8.9e307]).fields[0] == 8.9e307
    for n, edges, couplings, fields in ((1, None, None, [9e307]),
                                        (3, [[0, 1], [1, 2], [0, 2]], [1e308] * 3, None),
                                        (3, [[0, 1]], [6e307], [3e307, 0.0, 0.0])):
        with pytest.raises(ModelError, match="overflows float64"):
            IsingModel(n, edges, couplings, fields)


def test_exclusion_index_matches_naive(rng):
    isolated = IsingModel(7, np.array([[1, 4], [4, 6], [1, 6], [2, 4]]),
                          np.full(4, 0.3), np.linspace(0.0, 0.6, 7))
    for m in (random_ferro(6, 9, rng),
              generate_topology("grid", 0.3, 0.0, rows=4, cols=5),
              generate_topology("random_regular", 0.3, 0.0, n=20, degree=3, seed=1),
              generate_topology("star", 0.3, 0.0, n=6),
              generate_topology("random_tree", 0.3, 0.0, n=12, seed=2),
              isolated, IsingModel(3)):
        # the definition: the nodes of degree k >= 1, k ascending, then node
        # ascending, in blocks (out, h) of one degree; column c of out lists
        # the directed edges out of its node, ascending, their reverses are
        # the edges into it, ascending, and h[c] is its field
        blocks = m.exclusion_index()
        nodes = sorted((i for i in range(m.n) if m.degrees[i]), key=lambda i: m.degrees[i])
        columns = [(out[:, c].tolist(), h[c]) for out, h in blocks for c in range(out.shape[1])]
        assert len(columns) == len(nodes)
        for (outof, field), i in zip(columns, nodes):
            assert outof == [q for q in range(2 * m.m) if m.dir_src[q] == i]
            assert [q ^ 1 for q in outof] == [q for q in range(2 * m.m) if m.dir_dst[q] == i]
            assert field == m.fields[i]
        for out, h in blocks:
            assert out.dtype == np.int64 and not out.flags.writeable and not h.flags.writeable
            assert 1 <= out.shape[1] <= _BLOCK
        # one table entry per directed edge
        assert sum(out.size for out, _ in blocks) == 2 * m.m


def test_save_load_round_trip_exact(rng):
    m = random_ferro(9, 14, rng)
    again = load_model(text_of(save_model, m))
    assert again.n == m.n
    assert np.array_equal(again.edges, m.edges)
    assert np.array_equal(again.couplings, m.couplings)
    assert np.array_equal(again.fields, m.fields)
    assert model_hash(again) == model_hash(m)


def test_spin_flipped_round_trip_is_bit_exact():
    # the flip negates the zero fields too; the model stores them as 0.0
    m = load_model("n 3\nnode 0 -0.5\nedge 0 1 0.4\n")
    again = load_model(text_of(save_model, m))
    assert m.fields.view(np.int64).tolist() == np.array([0.5, 0.0, 0.0]).view(np.int64).tolist()
    assert np.array_equal(again.fields.view(np.int64), m.fields.view(np.int64))
    assert model_hash(again) == model_hash(m)


def test_model_does_not_alias_the_callers_fields():
    h = np.array([0.1, 0.2, 0.3])
    m = IsingModel(3, [[0, 1], [1, 2]], [0.5, 0.5], fields=h)
    before = model_hash(m)
    h[0] = -5.0
    assert m.fields.tolist() == [0.1, 0.2, 0.3]
    assert model_hash(m) == before



def test_negative_zero_coupling_is_zero(tmp_path):
    neg = IsingModel(2, [[0, 1]], [-0.0])
    zero = IsingModel(2, [[0, 1]], [0.0])
    assert text_of(save_model, neg).splitlines()[-1] == "edge 0 1 0"
    assert model_hash(neg) == model_hash(zero)
    for beta in ("-0", "0"):
        assert main(["gen", "--topology", "cycle:3", f"--beta={beta}",
                     "--out", str(tmp_path / f"{beta}.txt")]) == 0
    assert (tmp_path / "-0.txt").read_text() == (tmp_path / "0.txt").read_text()
    assert "edge 0 1 0\n" in (tmp_path / "0.txt").read_text()

@settings(deadline=None, max_examples=30)
@given(st.integers(1, 8), st.integers(0, 900000), st.integers(0, 12))
def test_save_load_round_trip_property(n, seed, extra_edges):
    r = np.random.default_rng(seed)
    if n >= 2:
        m_edges = min(extra_edges, n * (n - 1) // 2)
        model = random_ferro(n, max(1, m_edges), r) if m_edges else IsingModel(
            n, None, None, r.uniform(0, 1, size=n))
    else:
        model = IsingModel(1, None, None, r.uniform(0, 1, size=1))
    again = load_model(text_of(save_model, model))
    assert np.array_equal(again.couplings, model.couplings)
    assert np.array_equal(again.fields, model.fields)
    assert np.array_equal(again.edges, model.edges)


def test_parse_errors():
    with pytest.raises(ParseError):
        load_model("node 0 0.5\n")
    with pytest.raises(ParseError):
        load_model("n 2\nn 3\n")
    with pytest.raises(ParseError):
        load_model("n 2\nedge 0 5 0.3\n")
    with pytest.raises(ParseError):
        load_model("n 2\nwhat 1 2\n")
    with pytest.raises(ParseError):
        load_model("n 2\nedge 0 1 abc\n")
    for text in ("node 0 1\n", "\n\n"):
        with pytest.raises(ParseError, match="^missing n directive$"):
            load_model(text)


def test_load_memory_per_directed_edge(tmp_path):
    """Parsing a model file read from an open file holds at most 7 float64
    arrays per directed edge (6.62 measured on this 100x100 grid)."""
    path = tmp_path / "grid.txt"
    with open(path, "w", encoding="utf-8") as fh:
        save_model(generate_topology("grid", 0.3, 0.05, rows=100, cols=100), fh)
    for _ in range(2):      # the first load's one-time allocations are not counted
        with open(path, encoding="utf-8") as fh:
            model, peak = peak_bytes(load_model, fh)
    assert peak <= 7 * 8 * 2 * model.m


# Model files with malformed lines: wrong token counts, non-numeric tokens,
# out-of-range and duplicate ids, duplicate or bad n, comments, blank lines,
# CRLF and tabs. Tokens are mostly valid, so most lines reach the later
# checks. Node counts stay small or beyond int64: no example allocates much.
_IDS = st.sampled_from(["0", "1", "2", "0", "1", "2", "0", "1", "2", "3", "-1", "7", "1_0", "abc",
                        "2.5", "99999999999999999999", "\u00e9"])
_VALUES = st.sampled_from(["0.5", "0.25", "0", "-0", "1e-3", "0.5", "0.25", "-0.25",
                           "nan", "1e999", "-inf", "abc", "0x10"])
_COUNTS = st.sampled_from(["3", "3", "4", "0", "-1", "2.5", "abc", "99999999999999999999"])
_SEP = st.sampled_from([" ", " ", "\t", " \t  "])
_TAIL = st.sampled_from(["", "", " ", "\t", " # note", "#x 1 2"])
_EXTRA = st.sampled_from([(), (), (), (), ("0.5",)])


def _line(kind, i, j, value, count, sep, tail, extra, drop):
    tokens = {"n": [count], "node": [i, value], "edge": [i, j, value], "": []}.get(kind, [i])
    tokens = [kind, *tokens, *extra]
    return sep.join(tokens[:len(tokens) - drop]) + tail


_LINE = st.builds(_line, st.sampled_from(["edge"] * 6 + ["node"] * 3 + [
    "n", "Edge", "what", "#edge", "", ""]), _IDS, _IDS, _VALUES, _COUNTS, _SEP, _TAIL,
    _EXTRA, st.sampled_from([0, 0, 0, 0, 0, 1, 2]))
_MODEL_TEXT = st.builds(
    lambda head, lines, newline: newline.join(head + lines) + newline,
    st.sampled_from([[], ["n 3"], ["n 4"], ["# c", "", "n 3"], ["n 3\t# size"], ["n 4"]]),
    st.lists(_LINE, max_size=8), st.sampled_from(["\n", "\r\n"]))


def _load_outcome(text):
    try:
        load_model(text)
    except (ParseError, ModelError) as exc:
        return exc
    return None


def _well_formed(text):
    """Every line is blank, a comment, or a directive with its token count."""
    for line in text.split("\n"):
        tokens = line.split("#", 1)[0].split()
        if tokens and (tokens[0], len(tokens)) not in {("n", 2), ("node", 3), ("edge", 4)}:
            return False
    return True


@settings(max_examples=400)
@given(_MODEL_TEXT)
def test_grammar_fuzz_raises_only_model_errors(text):
    error = _load_outcome(text)
    if not _well_formed(text):
        assert isinstance(error, ParseError)
    if isinstance(error, ParseError) and not str(error).startswith("missing n"):
        assert str(error).startswith("line ")


@settings(max_examples=60)
@given(_MODEL_TEXT)
def test_grammar_fuzz_cli_exits_cleanly(text):
    error = _load_outcome(text)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "model.txt")
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = main(["run", "--model", path, "--steps", "20",
                         "--out", os.path.join(tmp, "out")])
    if error is None:
        assert code == 0
    else:
        assert code == 1
        assert err.getvalue() == f"error: {error}\n"


def test_model_hash_sensitivity():
    a = cycle4(0.4, 0.1)
    b = cycle4(0.4, 0.1)
    c = cycle4(0.41, 0.1)
    assert model_hash(a) == model_hash(b)
    assert model_hash(a) != model_hash(c)
    assert len(model_hash(a)) == 16


def test_generate_topology_shapes():
    cyc = generate_topology("cycle", 0.5, 0.0, n=6)
    assert (cyc.n, cyc.m) == (6, 6)
    assert np.all(cyc.degrees == 2)
    grid = generate_topology("grid", 0.5, 0.0, rows=3, cols=4)
    assert (grid.n, grid.m) == (12, 3 * 3 + 2 * 4)
    reg = generate_topology("random_regular", 0.5, 0.0, n=10, degree=3, seed=4)
    assert np.all(reg.degrees == 3)
    tree = generate_topology("random_tree", 0.5, 0.0, n=9, seed=4)
    assert tree.m == 8
    for n, edges in ((1, []), (2, [[0, 1]])):
        tree = generate_topology("random_tree", 0.5, 0.0, n=n, seed=4)
        assert (tree.n, tree.m, tree.edges.tolist()) == (n, n - 1, edges)
    star = generate_topology("star", 0.5, 0.0, n=7)
    assert star.degrees.max() == 6
    with pytest.raises(ModelError):
        generate_topology("moebius", 0.5, 0.0, n=4)
    with pytest.raises(ModelError):
        generate_topology("cycle", -0.5, 0.0, n=4)
    with pytest.raises(ModelError, match="^random_regular needs n and degree$"):
        generate_topology("random_regular", 0.3)


def test_generate_topology_deterministic():
    a = generate_topology("random_regular", 0.3, 0.1, n=20, degree=3, seed=11)
    b = generate_topology("random_regular", 0.3, 0.1, n=20, degree=3, seed=11)
    c = generate_topology("random_regular", 0.3, 0.1, n=20, degree=3, seed=12)
    assert np.array_equal(a.edges, b.edges)
    assert not np.array_equal(a.edges, c.edges)


def test_random_regular_pairs_stubs_at_n1000_d7():
    """Steger-Wormald pairing draws 7-regular graphs on 1000 nodes, where a
    whole random pairing is almost never simple: every degree is 7, the graph
    is simple, and one seed always gives the same graph."""
    a = generate_topology("random_regular", 0.3, 0.0, n=1000, degree=7, seed=5)
    assert a.m == 3500 and np.all(a.degrees == 7)
    keys = a.edge_i * a.n + a.edge_j
    assert np.all(a.edge_i < a.edge_j) and np.unique(keys).size == a.m
    b = generate_topology("random_regular", 0.3, 0.0, n=1000, degree=7, seed=5)
    c = generate_topology("random_regular", 0.3, 0.0, n=1000, degree=7, seed=6)
    assert np.array_equal(a.edges, b.edges) and not np.array_equal(a.edges, c.edges)


def _gen_text(*argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["gen", *argv]) == 0
    return out.getvalue()


_SPECS = st.one_of(
    st.integers(3, 30).map(lambda n: (f"cycle:{n}", dict(kind="cycle", n=n))),
    st.tuples(st.integers(1, 9), st.integers(1, 9)).map(
        lambda rc: (f"grid:{rc[0]}x{rc[1]}", dict(kind="grid", rows=rc[0], cols=rc[1]))),
    st.integers(2, 30).map(lambda n: (f"star:{n}", dict(kind="star", n=n))),
    st.integers(1, 30).map(lambda n: (f"tree:{n}", dict(kind="random_tree", n=n))),
    st.tuples(st.integers(2, 24), st.integers(1, 5)).filter(
        lambda nd: nd[1] < nd[0] and nd[0] * nd[1] % 2 == 0).map(
        lambda nd: (f"regular:{nd[0]}:{nd[1]}",
                    dict(kind="random_regular", n=nd[0], degree=nd[1]))))
_VALUES = st.one_of(st.sampled_from([0.0, -0.0, 0.1, 0.3, 5e-324]), st.floats(0.0, 4.0))


@settings(max_examples=60)
@given(spec=_SPECS, beta=_VALUES, field=_VALUES, single=st.booleans(),
       seed=st.integers(0, 2**40), data=st.data())
def test_gen_writes_the_model_save_model_writes(spec, beta, field, single, seed, data):
    """`gen --topology` writes its model through the same writer as save_model,
    from the standard library's columns: the bytes agree over every kind,
    signed-zero couplings and fields, uniform and single-node fields and
    seeds, and the written model hashes as the generated one."""
    spec, kwargs = spec
    size = kwargs.get("n") or kwargs["rows"] * kwargs["cols"]
    if single:
        node = data.draw(st.integers(0, size - 1))
        field_arg, h_spec = f"single:{node}:{field!r}", ("single", node, field)
    else:
        field_arg, h_spec = repr(field), field
    text = _gen_text("--topology", spec, f"--beta={beta!r}", f"--field={field_arg}",
                     "--seed", str(seed))
    model = generate_topology(beta=beta, h_spec=h_spec, seed=seed, **kwargs)
    assert text == text_of(save_model, model)
    assert model_hash(load_model(text)) == model_hash(model)


def test_gen_grids_keep_their_bytes():
    """The grid models of the benchmark are pinned to the bytes that the numpy
    generators wrote (SHA-256 of each file)."""
    for spec, field, digest in (
            ("grid:4x4", "0.1",
             "9d129d1cfa8d0345b591d76caf06509137b9bc7bdfe808e0fba626343bef0061"),
            ("grid:4x5", "0.1",
             "da03e7835c31b2b44b07e3ce2c82e2bb09a39f81680b1ed39ba563b3847d8c58"),
            ("grid:200x200", "0.05",
             "510e2609a61b6e7742b7208921c42fb05a6d7017c64fbc4f16d1bad90b0cd9f6")):
        text = _gen_text("--topology", spec, "--beta", "0.3", "--field", field)
        assert hashlib.sha256(text.encode()).hexdigest() == digest, spec


def test_single_field_spec():
    m = generate_topology("grid", 0.384, ("single", 0, 5.0), rows=4, cols=4)
    assert m.fields[0] == 5.0
    assert np.all(m.fields[1:] == 0.0)
    for idx in (-1, 16):
        with pytest.raises(ModelError):
            generate_topology("grid", 0.384, ("single", idx, 5.0), rows=4, cols=4)
