"""Every function and method in the package has a caller.

A module-level function or a non-dunder method of a module-level class
counts as used when its name occurs as an identifier (a name, an
attribute or an imported name) somewhere in the Python sources of src/,
tests/, demos/ or bench/.  A word inside a string or a comment is no
use, and neither is a ``def`` line.  The package ``__init__.py`` only
re-exports names, so it is not searched.
"""

import ast
import os

ROOT = os.path.join(os.path.dirname(__file__), "..")
PACKAGE = os.path.join(ROOT, "src", "adeltors")
SEARCHED = ("src", "tests", "demos", "bench")


def _defined_names():
    names = set()
    for fname in sorted(os.listdir(PACKAGE)):
        if not fname.endswith(".py"):
            continue
        with open(os.path.join(PACKAGE, fname)) as fh:
            tree = ast.parse(fh.read())
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
                    if isinstance(node, ast.Name):
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
