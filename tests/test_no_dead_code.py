"""Every function and method in the package has a caller.

A module-level function or a non-dunder method of a module-level class
counts as used when its name appears as a whole word somewhere in the
Python sources of src/, tests/, demos/ or bench/ other than on its own
``def`` line.  The package ``__init__.py`` only re-exports names, so it
is not searched.
"""

import ast
import os
import re

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


def _searched_lines():
    skip = os.path.abspath(os.path.join(PACKAGE, "__init__.py"))
    lines = []
    for top in SEARCHED:
        for dirpath, _, files in os.walk(os.path.join(ROOT, top)):
            for fname in files:
                path = os.path.abspath(os.path.join(dirpath, fname))
                if fname.endswith(".py") and path != skip:
                    with open(path) as fh:
                        lines.extend(fh.read().splitlines())
    return lines


def test_every_function_has_a_caller():
    text = "\n".join(re.sub(r"^(\s*(?:async\s+)?def\s+)\w+", r"\1", line)
                     for line in _searched_lines())
    used = set(re.findall(r"\w+", text))
    dead = sorted(name for name in _defined_names() if name not in used)
    assert not dead, f"functions without callers: {dead}"
