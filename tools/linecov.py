"""List the lines of `src/isingvi` that the Tier-1 suite never runs.

Runs the suite in this process under a `sys.settrace` hook that traces only
frames whose code lies in `src/isingvi`, then prints each executable line (a
line that some code object's `co_lines` names) that never ran, as
`path:line`, and their count. Standard library only, so it works where the
`coverage` package is not installed. Run from anywhere:

    python tools/linecov.py [extra pytest arguments]

The suite runs several times slower under the tracer (about 2 minutes in all),
so a timing test may fail; the scan still reports every line. Code that runs
only in a subprocess the suite starts counts as unrun. This script is not part
of Tier-1: pytest collects only `tests` and `perfbench`.
"""

from __future__ import annotations

import os
import sys
import threading
from collections import defaultdict

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PKG = os.path.join(ROOT, "src", "isingvi") + os.sep

_hits = defaultdict(set)  # file name -> line numbers that ran


def _local(frame, event, arg):
    if event == "line":
        _hits[frame.f_code.co_filename].add(frame.f_lineno)
    return _local


def _global(frame, event, arg):
    """On each call, trace the frame's lines if its code is in the package."""
    if not frame.f_code.co_filename.startswith(PKG):
        return None
    _hits[frame.f_code.co_filename].add(frame.f_lineno)
    return _local


def executable_lines(path: str) -> set:
    """The lines of the file that its code objects, nested ones included, map
    bytecode to; line 0, a module's entry, is left out."""
    with open(path, encoding="utf-8") as fh:
        stack = [compile(fh.read(), path, "exec")]
    lines = set()
    while stack:
        code = stack.pop()
        lines.update(line for _, _, line in code.co_lines() if line)
        stack.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return lines


def main(argv) -> int:
    import pytest

    os.chdir(ROOT)
    sys.path.insert(0, os.path.join(ROOT, "src"))
    threading.settrace(_global)
    sys.settrace(_global)
    try:
        status = pytest.main(["-q", "--continue-on-collection-errors", *argv])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    unrun = []
    for name in sorted(os.listdir(PKG)):
        if name.endswith(".py"):
            path = os.path.join(PKG, name)
            ran = _hits.get(path, set())
            unrun += [f"src/isingvi/{name}:{line}"
                      for line in sorted(executable_lines(path) - ran)]
    print(f"\npytest exit status {int(status)}; {len(unrun)} lines never ran:")
    print("\n".join(unrun))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
