"""Every name that a module of the package or of the tests imports is used
there: read as a name in its code, or exported through its __all__. The
repository has no linter, so this scan stands in for one."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted([*(ROOT / "src" / "isingvi").glob("*.py"), *(ROOT / "tests").glob("*.py")])


def unused_imports(tree):
    """Imported names of the module `tree` that it never reads or exports."""
    imported = {}
    exported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            # `import a.b` binds `a`
            imported.update((a.asname or a.name.split(".")[0], node.lineno) for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update((a.asname or a.name, node.lineno) for a in node.names if a.name != "*")
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            exported.update(ast.literal_eval(node.value))
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)} | exported
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_scan_finds_unused_imports():
    tree = ast.parse("import os, sys as system\nimport os.path\nfrom a import (b, c as d, e)\n"
                     "__all__ = ['e']\nprint(sys, d)\n")
    assert unused_imports(tree) == [(1, "system"), (2, "os"), (3, "b")]


def test_no_unused_imports():
    assert SOURCES
    found = {str(p.relative_to(ROOT)): unused_imports(ast.parse(p.read_text(), str(p)))
             for p in SOURCES}
    assert {p: names for p, names in found.items() if names} == {}
