"""Every function, method and module constant in the package is used.

A module-level function, a non-dunder method of a module-level class or
a non-dunder name assigned at module level counts as used when it is
read as an identifier (a name, an attribute or an imported name)
somewhere in the Python sources of src/, tests/, demos/ or bench/.  A
word inside a string or a comment is no use, and neither is a ``def``
line or an assignment to the name.  The package ``__init__.py`` only
re-exports names, so it is not searched.
"""

import ast
import os

ROOT = os.path.join(os.path.dirname(__file__), "..")
PACKAGE = os.path.join(ROOT, "src", "adeltors")
SEARCHED = ("src", "tests", "demos", "bench")


def _module_trees():
    for fname in sorted(os.listdir(PACKAGE)):
        if fname.endswith(".py"):
            with open(os.path.join(PACKAGE, fname)) as fh:
                yield ast.parse(fh.read())


def _defined_names():
    names = set()
    for tree in _module_trees():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                names.add(node.name)
            elif isinstance(node, ast.ClassDef):
                names.update(sub.name for sub in node.body
                             if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef))
                             and not (sub.name.startswith("__") and sub.name.endswith("__")))
    return names


def _used_identifiers():
    skip = os.path.abspath(os.path.join(PACKAGE, "__init__.py"))
    used = set()
    for top in SEARCHED:
        for dirpath, _, files in os.walk(os.path.join(ROOT, top)):
            for fname in files:
                path = os.path.abspath(os.path.join(dirpath, fname))
                if not fname.endswith(".py") or path == skip:
                    continue
                with open(path) as fh:
                    tree = ast.parse(fh.read())
                for node in ast.walk(tree):
                    if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                        used.add(node.id)
                    elif isinstance(node, ast.Attribute):
                        used.add(node.attr)
                    elif isinstance(node, ast.alias):
                        used.add(node.name.split(".")[-1])
    return used


def test_every_function_has_a_caller():
    used = _used_identifiers()
    dead = sorted(name for name in _defined_names() if name not in used)
    assert not dead, f"functions without callers: {dead}"


def _module_constants():
    names = set()
    for tree in _module_trees():
        for node in tree.body:
            targets = node.targets if isinstance(node, ast.Assign) else \
                [node.target] if isinstance(node, ast.AnnAssign) else []
            for target in targets:
                names.update(n.id for n in ast.walk(target) if isinstance(n, ast.Name))
    return {n for n in names if not (n.startswith("__") and n.endswith("__"))}


def test_every_module_constant_is_read():
    used = _used_identifiers()
    dead = sorted(name for name in _module_constants() if name not in used)
    assert not dead, f"module constants never read: {dead}"
