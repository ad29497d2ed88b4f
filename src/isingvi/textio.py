"""The text codec of every artifact: model files, CSV outputs and reports.

Writing works a block of rows at a time and needs only the standard library,
so that `gen --topology` writes a model file without loading numpy.
`format_floats` gives the `%.17g` text of a block of floats, formatting each
distinct value once, so a column of repeated couplings or converged messages
costs a few formats. `rows` turns columns (numpy arrays or `array.array`s)
into blocks of lines, and `emit` writes blocks straight to an open text
file; `digest` hashes the same blocks without building the whole text.
`_model_text` gives the lines of a model file from its plain columns; it is
the one writer of the model grammar that `model.load_model` reads.

Reading works a block of lines at a time, and only it loads numpy.
`line_blocks` reads lines from a string or an open file as they come, and
`columns` converts a block's split lines column by column with `map(int)` /
`map(float)`. `model.load_model` reads model files with them, and `read_csv`
the CSV artifacts; a malformed line raises `ParseError` naming its line.
"""

from __future__ import annotations

import io
import itertools

from .errors import ParseError

try:
    # CPython's own SHA-256 module, as random.py takes _sha512: hashlib loads
    # OpenSSL's libcrypto, about 3.6 MB of resident memory in every verb
    from _sha256 import sha256
except ImportError:
    from hashlib import sha256

# Rows per block: enough that the per-block calls cost little per row, few
# enough that a block's strings stay well under a megabyte.
BLOCK_ROWS = 1024


def format_floats(values) -> list:
    """The `%.17g` text of each float of the iterable `values`, in order.

    Each distinct value is formatted once. Zeros are formatted every time,
    since 0.0 == -0.0 would share one text, so -0.0 stays "-0"; every NaN
    differs from every other and reads "nan".
    """
    memo = {}
    known = memo.get

    def fmt(v):
        text = f"{v:.17g}"
        if v:
            memo[v] = text
        return text

    return [known(v) or fmt(v) for v in values]


def rows(columns, sep=",", prefix=""):
    """Yield the lines `prefix + sep.join(row)` of `columns`, a block at a time.

    Each column is a numpy array or an `array.array`, read a block at a time
    through `.tolist()`, or a range; integers are written as decimal integers
    and floats `%.17g`. All have the same length. Every line ends in a newline.
    """
    n = len(columns[0])
    joiner = "\n" + prefix
    for lo in range(0, n, BLOCK_ROWS):
        text = []
        for c in columns:
            block = c[lo:lo + BLOCK_ROWS]
            values = list(block) if isinstance(block, range) else block.tolist()
            text.append(format_floats(values) if isinstance(values[0], float)
                        else list(map(str, values)))
        yield prefix + joiner.join(map(sep.join, zip(*text))) + "\n"


def _model_text(n, nodes, fields, lo, hi, couplings):
    """The parts of a model file: the node count n, a `node i h` line for each
    i in `nodes` with its field, and an `edge i j J` line for each edge, in
    the order given (the canonical order is (lo, hi) pairs with lo < hi,
    ascending)."""
    return (f"n {n}\n", rows((nodes, fields), sep=" ", prefix="node "),
            rows((lo, hi, couplings), sep=" ", prefix="edge "))


def _blocks(parts):
    return itertools.chain.from_iterable([p] if isinstance(p, str) else p for p in parts)


def emit(out, *parts):
    """Write `parts` (strings, or iterables of string blocks) in order to the
    open text file `out`."""
    out.writelines(_blocks(parts))


def digest(*parts) -> str:
    """Hex SHA-256 of the UTF-8 text `emit` would write for `parts`, hashed a
    block at a time."""
    h = sha256()
    for block in _blocks(parts):
        h.update(block.encode())
    return h.hexdigest()


def line_blocks(source):
    """Yield (number of the first line, list of lines) for consecutive blocks
    of BLOCK_ROWS lines of `source`, a string or an open text file. Lines
    keep their ends.

    Bytes that do not decode raise ParseError with the line they are on.
    """
    lines = io.StringIO(source, newline=None) if isinstance(source, str) else source
    start = 1
    while True:
        block = []
        try:
            block.extend(itertools.islice(lines, BLOCK_ROWS))
        except UnicodeDecodeError as exc:
            # The decoder fails on a whole chunk; the lines before the bad
            # byte in that chunk follow the lines already read.
            lineno = start + len(block)
            if isinstance(exc.object, bytes):
                lineno += exc.object[:exc.start].count(b"\n")
            raise ParseError(f"line {lineno}: not UTF-8 text ({exc.reason})") from exc
        if not block:
            return
        yield start, block
        start += len(block)


def columns(split, at, kinds) -> list:
    """Convert the split lines `split` (token lists of len(kinds)) column by
    column: kinds[c] is int or float (an array) or None (column skipped).
    `at` holds the line number of each entry. Returns the converted columns.
    """
    import numpy as np

    cols = list(zip(*split)) or [()] * len(kinds)
    out = []
    for col, kind in zip(cols, kinds):
        if kind is None:
            continue
        dtype = np.int64 if kind is int else np.float64
        try:
            out.append(np.fromiter(map(kind, col), dtype, len(col)))
        except (ValueError, OverflowError):
            for k, token in enumerate(col):
                try:
                    dtype(kind(token))
                except (ValueError, OverflowError) as exc:
                    raise ParseError(f"line {at[k]}: {exc}") from None
            raise
    return out


def read_csv(source, sections) -> tuple:
    """Parse a CSV artifact into (meta, {header: columns}).

    Lines starting with '#' are `# key value` meta entries; blank lines are
    skipped. `sections` maps each header line to the kinds of its columns
    (as in `columns`); the lines after a header are its rows, up to the next
    header. A row before the first header raises ParseError. Rows are
    converted a block at a time; only sections that occur are keys of the
    result.
    """
    import numpy as np

    meta = {}
    parts = {}          # header -> converted columns of each block
    key = None
    for start, block in line_blocks(source):
        split = {}      # header -> (token lists, line numbers) of this block
        for lineno, raw in enumerate(block, start):
            line = raw.strip()
            if not line:
                continue
            if line[0] == "#":
                entry = line[1:].split(None, 1)
                if len(entry) == 2:
                    meta[entry[0]] = entry[1]
                continue
            if line in sections:
                if line in parts:
                    raise ParseError(f"line {lineno}: repeated header {line!r}")
                key = line
                parts[key] = [columns([], [], sections[key])]
                continue
            if key is None:
                raise ParseError(f"line {lineno}: row before a header; the headers "
                                 f"are {', '.join(map(repr, sections))}")
            tokens = line.split(",")
            if len(tokens) != len(sections[key]):
                raise ParseError(f"line {lineno}: expected {len(sections[key])} fields, "
                                 f"got {len(tokens)}")
            lists = split.setdefault(key, ([], []))
            lists[0].append(tokens)
            lists[1].append(lineno)
        for k, (tokens, at) in split.items():
            parts[k].append(columns(tokens, at, sections[k]))
    return meta, {k: [np.concatenate(c) for c in zip(*blocks)] for k, blocks in parts.items()}
