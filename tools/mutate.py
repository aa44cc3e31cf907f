"""Seeded operator mutation testing of one source file.

    python3 tools/mutate.py src/adeltors/ratfunc.py --within _div RatXY.val \\
        --count 30 --seed 1 [-- PYTEST_ARGS...]

Run it from the repository root.  It lists the mutation sites of the
file (of the definitions from FIRST through LAST with --within), picks
--count of them with random.Random(--seed), and runs
``python -m pytest -x -q PYTEST_ARGS`` (default ``tests``) once on the
unmutated file, which must pass, and then once per mutant.  A mutant is
killed when its run reports failed tests (pytest exit code 1) or takes
more than three times the unmutated run, survives when its run passes,
and is reported as an error on any other exit code (an interrupted run,
a usage error, no tests collected).  Each run is made in a temporary
copy of the repository, never in the working tree, and bytecode caching
is off, so that no stale compiled module is read.

The mutations, each one site at a time:
  a + b  <->  a - b
  a < b  <->  a <= b   (and a > b <-> a >= b)
  a == b <->  a != b
  an early return (one that is not the last statement of its
  function) replaced by ``pass``
"""

from __future__ import annotations

import argparse
import ast
import bisect
import os
import random
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass

SWAPS = {ast.Add: "-", ast.Sub: "+", ast.Lt: "<=", ast.LtE: "<", ast.Gt: ">=", ast.GtE: ">",
         ast.Eq: "!=", ast.NotEq: "=="}
SYMBOL = {ast.Add: "+", ast.Sub: "-", ast.Lt: "<", ast.LtE: "<=", ast.Gt: ">", ast.GtE: ">=",
          ast.Eq: "==", ast.NotEq: "!="}
NESTED = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
COPY_IGNORE = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache", ".hypothesis",
                                     ".bench_out", ".benchmarks")


@dataclass(frozen=True)
class Mutant:
    start: tuple[int, int]      # (line, column) of the replaced text, 1-based line
    end: tuple[int, int]
    old: str
    new: str
    where: str                  # the enclosing definition

    def describe(self) -> str:
        return f"line {self.start[0]}:{self.start[1]} in {self.where}: {self.old!r} -> {self.new!r}"


class _Text:
    """A source text with (line, column) <-> offset conversions, lines 1-based."""

    def __init__(self, source: str):
        self.source = source
        self.starts = [0]
        for line in source.splitlines(keepends=True):
            self.starts.append(self.starts[-1] + len(line))

    def offset(self, line: int, col: int) -> int:
        return self.starts[line - 1] + col

    def pos(self, offset: int) -> tuple[int, int]:
        line = bisect.bisect_right(self.starts, offset)
        return line, offset - self.starts[line - 1]


def _operator_site(text: _Text, left, right, op, where):
    """The operator written between nodes left and right, as a Mutant, or
    None when the text between them is more than brackets, blanks and
    the operator."""
    a = text.offset(left.end_lineno, left.end_col_offset)
    b = text.offset(right.lineno, right.col_offset)
    between, sym = text.source[a:b], SYMBOL[type(op)]
    at = between.find(sym)
    if at < 0 or (between[:at] + between[at + len(sym):]).strip(" \t\n\\()"):
        return None
    return Mutant(text.pos(a + at), text.pos(a + at + len(sym)), sym, SWAPS[type(op)], where)


def _own_statements(func):
    """The statements of a function, not of functions or classes nested in it."""
    todo = list(func.body)
    while todo:
        node = todo.pop()
        yield node
        todo.extend(child for child in ast.iter_child_nodes(node)
                    if isinstance(child, ast.stmt) and not isinstance(child, NESTED))


def _function_sites(text: _Text, func, where):
    for node in ast.walk(func):
        if isinstance(node, ast.BinOp) and type(node.op) in SWAPS:
            yield _operator_site(text, node.left, node.right, node.op, where)
        elif isinstance(node, ast.Compare):
            lefts = [node.left] + node.comparators[:-1]
            for left, op, right in zip(lefts, node.ops, node.comparators):
                if type(op) in SWAPS:
                    yield _operator_site(text, left, right, op, where)
    for node in _own_statements(func):
        if isinstance(node, ast.Return) and node is not func.body[-1]:
            a = text.offset(node.lineno, node.col_offset)
            b = text.offset(node.end_lineno, node.end_col_offset)
            yield Mutant(text.pos(a), text.pos(b), text.source[a:b], "pass", where)


def sites(source: str, within: tuple[str, str] | None) -> list[Mutant]:
    """Every mutation site of the module's functions and methods, of the
    definitions from within[0] through within[1] when given."""
    text = _Text(source)
    spans: dict[str, tuple[int, int]] = {}
    found: set[Mutant] = set()

    def visit(node, prefix):
        name = prefix + node.name
        first = min([node.lineno] + [d.lineno for d in node.decorator_list])
        spans[name] = (first, node.end_lineno)
        if isinstance(node, ast.ClassDef):
            for sub in node.body:
                if isinstance(sub, (ast.FunctionDef, ast.ClassDef)):
                    visit(sub, name + ".")
        else:
            found.update(m for m in _function_sites(text, node, name) if m is not None)

    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            visit(node, "")
    lo, hi = 1, len(text.starts)
    if within:
        missing = [n for n in within if n not in spans]
        if missing:
            raise SystemExit(f"no definition named {missing[0]!r}")
        lo, hi = spans[within[0]][0], spans[within[1]][1]
    return sorted((m for m in found if lo <= m.start[0] <= hi), key=lambda m: (m.start, m.new))


def apply(source: str, m: Mutant) -> str:
    text = _Text(source)
    a, b = text.offset(*m.start), text.offset(*m.end)
    assert source[a:b] == m.old, (source[a:b], m)
    return source[:a] + m.new + source[b:]


def run(mutant_source: str, path: str, pytest_args: list[str], timeout: float | None) -> int | None:
    """The pytest exit code of the tests run on a temporary copy of the
    repository holding mutant_source at path; None when the run takes
    longer than timeout seconds."""
    root = os.getcwd()
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        copy = os.path.join(tmp, "repo")
        shutil.copytree(root, copy, ignore=COPY_IGNORE)
        with open(os.path.join(copy, path), "w") as fh:
            fh.write(mutant_source)
        paths = [os.path.join(copy, "src")] + os.environ.get("PYTHONPATH", "").split(os.pathsep)
        env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1",
                   PYTHONPATH=os.pathsep.join(filter(None, paths)))
        cmd = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *pytest_args]
        try:
            return subprocess.run(cmd, cwd=copy, env=env, stdout=subprocess.DEVNULL,
                                  stderr=subprocess.DEVNULL, timeout=timeout).returncode
        except subprocess.TimeoutExpired:
            return None


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    pytest_args = ["tests"]
    if "--" in argv:
        at = argv.index("--")
        argv, pytest_args = argv[:at], argv[at + 1:] or pytest_args
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("file", help="the source file to mutate, relative to the repository root")
    ap.add_argument("--within", nargs=2, metavar=("FIRST", "LAST"),
                    help="mutate only the definitions from FIRST through LAST (e.g. RatXY.val)")
    ap.add_argument("--count", type=int, default=30)
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args(argv)
    with open(args.file) as fh:
        source = fh.read()
    every = sites(source, tuple(args.within) if args.within else None)
    chosen = sorted(random.Random(args.seed).sample(every, min(args.count, len(every))),
                    key=lambda m: (m.start, m.new))
    print(f"{len(every)} sites, {len(chosen)} chosen (seed {args.seed})", flush=True)
    start = time.perf_counter()
    code = run(source, args.file, pytest_args, None)
    baseline = time.perf_counter() - start
    if code != 0:
        print(f"the unmutated run exits {code}, not 0: fix the selection first", file=sys.stderr)
        return 2
    print(f"unmutated run passes in {baseline:.1f} s", flush=True)
    tally = {"killed": 0, "survived": 0, "error": 0}
    for m in chosen:
        code = run(apply(source, m), args.file, pytest_args, 3 * baseline)
        if code is None:
            outcome, note = "killed", " (timeout)"
        elif code in (0, 1):
            outcome, note = ("survived", "killed")[code], ""
        else:
            outcome, note = "error", f" (exit {code})"
        tally[outcome] += 1
        print(f"{outcome:8s} {m.describe()}{note}", flush=True)
    print(f"killed {tally['killed']} of {len(chosen)}, {tally['error']} errors")
    return 1 if tally["error"] else 0


if __name__ == "__main__":
    raise SystemExit(main())
