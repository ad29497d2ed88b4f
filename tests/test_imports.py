"""Every name that a module of the package or of the tests imports is used
there: read as a name in its code, or exported through its __all__. Every
module-level private name of the package is read somewhere in the package.
Every name that a package class stores is read as an attribute somewhere in
the package or the tests. The repository has no linter, so these scans stand
in for one."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src" / "isingvi").glob("*.py"))
SOURCES = sorted([*PACKAGE, *(ROOT / "tests").glob("*.py")])


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


def unread_private_names(trees):
    """(module, line, name) of each module-level private name (`_f`, `_C`,
    `_X = ...`) defined in the modules {module: tree} that none of them reads,
    as a name, an attribute or an imported name."""
    defined = []
    read = set()
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
            else:
                continue
            defined += [(module, node.lineno, name) for name in names
                        if name.startswith("_") and not name.startswith("__")]
        for n in ast.walk(tree):
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
                read.add(n.id)
            elif isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load):
                read.add(n.attr)
            elif isinstance(n, ast.ImportFrom):
                read.update(a.name for a in n.names)
    return sorted(d for d in defined if d[2] not in read)


def test_scan_finds_unread_private_names():
    trees = {"a": ast.parse("import b\n_A, (_B, c) = 1, (2, 3)\n__d__ = 4\n_e: int = 5\n"
                            "def _f():\n    return _A\nclass _G:\n    pass\n"
                            "def h(x):\n    x._i = b._j\n"),
             "b": ast.parse("from a import _f\n_i = 6\n_j = 7\n")}
    assert unread_private_names(trees) == [("a", 2, "_B"), ("a", 4, "_e"), ("a", 7, "_G"),
                                           ("b", 2, "_i")]


def test_no_unread_private_names():
    assert PACKAGE
    assert unread_private_names({p.name: ast.parse(p.read_text(), str(p)) for p in PACKAGE}) == []


def _names(decorators):
    """The names of decorators such as `dataclass`, `dataclass(frozen=True)`."""
    for d in decorators:
        d = d.func if isinstance(d, ast.Call) else d
        yield d.id if isinstance(d, ast.Name) else getattr(d, "attr", None)


def stored_names(tree):
    """(line, Class.name) of each name that a class of the module `tree` stores:
    the fields of a @dataclass, the attributes that its __init__ assigns on
    self, and its cached_property names."""
    stored = []
    for cls in (n for n in ast.walk(tree) if isinstance(n, ast.ClassDef)):
        is_dataclass = "dataclass" in _names(cls.decorator_list)
        names = []
        for node in cls.body:
            if (is_dataclass and isinstance(node, ast.AnnAssign)) or (
                    isinstance(node, ast.Assign) and isinstance(node.value, ast.Call)
                    and "cached_property" in _names([node.value])):
                names += [(t.lineno, t.id) for t in ast.walk(node)
                          if isinstance(t, ast.Name) and isinstance(t.ctx, ast.Store)]
            elif isinstance(node, ast.FunctionDef) and \
                    "cached_property" in _names(node.decorator_list):
                names.append((node.lineno, node.name))
            elif isinstance(node, ast.FunctionDef) and node.name == "__init__":
                names += [(t.lineno, t.attr) for t in ast.walk(node)
                          if isinstance(t, ast.Attribute) and isinstance(t.ctx, ast.Store)
                          and isinstance(t.value, ast.Name) and t.value.id == "self"]
        stored += [(line, f"{cls.name}.{name}") for line, name in names]
    return stored


def unread_stored_names(package, readers):
    """(module, line, Class.name) of each name stored by a class of the modules
    {module: tree} in `package` that no tree in `readers` reads as an attribute."""
    read = {n.attr for tree in readers for n in ast.walk(tree)
            if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)}
    return sorted((module, line, name) for module, tree in package.items()
                  for line, name in stored_names(tree) if name.split(".")[1] not in read)


def test_scan_finds_unread_stored_names():
    package = {"a": ast.parse(
        "@dataclass(frozen=True)\nclass R:\n    x: int\n    y: int = 0\n"
        "class P:\n    z: int\n    w = cached_property(lambda self: 1)\n"
        "    def __init__(self):\n        self.u, self.v = 1, 2\n        other.t = 3\n"
        "    @functools.cached_property\n    def s(self):\n        return 4\n"
        "    def f(self):\n        self.q = 5\n")}
    reader = ast.parse("r.y\np.v\np.s = 6\n")
    assert unread_stored_names(package, [reader]) == [
        ("a", 3, "R.x"), ("a", 7, "P.w"), ("a", 9, "P.u"), ("a", 12, "P.s")]


def test_no_unread_stored_names():
    trees = {p: ast.parse(p.read_text(), str(p)) for p in SOURCES}
    package = {p.name: trees[p] for p in PACKAGE}
    assert unread_stored_names(package, trees.values()) == []
