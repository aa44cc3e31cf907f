"""Seeded mutation fuzz of the object reader.

Valid object documents get one to three mutations: a key dropped,
renamed or retyped (any value swapped for one of another JSON type), or
a row of a `diff` block truncated or extended.  Each mutant must be
refused with InputError, which cli.main reports as one `input error
[...]` line with exit 2 (any other exception out of the reader would end
in exit 1 or 3), or be read as the complex it states: printed back in
object form, the complex must equal the document's own statement, with
a missing `world` read as the base world and a missing table as empty,
and parts summed block-diagonally.
"""

import re
from fractions import Fraction

from hypothesis import given, settings, strategies as st

from adeltors.cli import InputError, object_from_json
from adeltors.complexes import merge_strands
from adeltors.localize import Site

SITE = Site("zint", T=(2, 3))

SEEDS = [
    {"world": "Int", "degrees": {"1": 2, "0": 2}, "diff": {"1": [["2", "4"], ["6", "8"]]}},
    {"world": "IntInv(2)", "degrees": {"1": 1, "0": 1}, "diff": {"1": [["3/2"]]}},
    {"world": "Int", "degrees": {"1": 1, "0": 2}, "diff": {"1": [["0"], ["0"]]}},
    {"world": "Rat", "degrees": {"2": 1, "1": 2, "0": 1},
     "diff": {"2": [["1"], ["-1"]], "1": [["1", "1"]]}},
    {"parts": [{"world": "Int", "degrees": {"1": 1, "0": 1}, "diff": {"1": [["6"]]}},
               {"world": "Int", "degrees": {"0": 2}, "diff": {}}]},
    [{"world": "Int", "degrees": {"2": 1, "1": 1}, "diff": {"2": [["4"]]}},
     {"world": "Int", "degrees": {"1": 1}}],
]

# one value of each JSON type: null, bool, number, string, array, object
POOL = [None, True, 0, 1.5, "s", [], {}]


def _kind(v):
    return {bool: "bool", int: "number", float: "number", str: "string", list: "array",
            dict: "object", type(None): "null"}[type(v)]


def _sites(doc, path=()):
    """Every mutation of doc: (op, path, argument)."""
    out = [("retype", path, v) for v in POOL if _kind(v) != _kind(doc)]
    if isinstance(doc, dict):
        for k, v in doc.items():
            out += [("drop", path, k), ("rename", path, k)]
            out += _sites(v, path + (k,))
    elif isinstance(doc, list):
        for i, v in enumerate(doc):
            if isinstance(v, list) and all(isinstance(e, str) for e in v):
                out += [("truncate", path + (i,), None), ("extend", path + (i,), None)]
            out += _sites(v, path + (i,))
    return out


def _mutate(doc, op, path, arg):
    if not path:
        if op == "retype":
            return arg
        if op == "truncate":
            return doc[:-1]
        if op == "extend":
            return doc + ["0"]
        out = {k: v for k, v in doc.items() if k != arg}
        if op == "rename":
            out[arg + "_"] = doc[arg]
        return out
    head, rest = path[0], path[1:]
    out = list(doc) if isinstance(doc, list) else dict(doc)
    out[head] = _mutate(doc[head], op, rest, arg)
    return out


def _printed(C):
    """A single-world complex in object form, entries as exact strings."""
    if C.is_empty():
        return {"degrees": {}, "diff": {}}
    M = merge_strands(C)
    return {"world": C.single_world().name,
            "degrees": {str(n): M.rank(n) for n in M.degrees()},
            "diff": {str(n): [[str(e) for e in row] for row in B]
                     for (n, _, _), B in M.blocks.items()}}


def _stated(doc):
    """(world, ranks, blocks) an accepted document states; a document
    with an unknown key, a rank that is no int, a degree key not written
    -?[0-9]+ or a block not rank(n-1) rows of rank(n) entries states
    nothing."""
    if isinstance(doc, dict) and "parts" in doc:
        assert set(doc) == {"parts"}, doc
        doc = doc["parts"]
    if isinstance(doc, list):
        total = (None, {}, {})
        for part in doc:
            total = _sum(total, _stated(part))
        return total
    assert set(doc) <= {"world", "degrees", "diff"}, doc
    tables = [*doc.get("degrees", {}).items(), *doc.get("diff", {}).items()]
    assert all(re.fullmatch("-?[0-9]+", n) for n, _ in tables), doc
    assert all(type(r) is int for r in doc.get("degrees", {}).values()), doc
    ranks = {int(n): r for n, r in doc.get("degrees", {}).items() if r}
    blocks = {int(n): [[Fraction(str(e)) for e in row] for row in M]
              for n, M in doc.get("diff", {}).items()}
    assert all(len(M) == ranks.get(n - 1, 0) and all(len(row) == ranks.get(n, 0) for row in M)
               for n, M in blocks.items()), doc
    return (doc.get("world", SITE.base.name) if ranks else None), ranks, blocks


def _sum(a, b):
    """The block-diagonal sum of two statements of one world."""
    (wa, ra, da), (wb, rb, db) = a, b
    assert wa is None or wb is None or wa == wb
    ranks = {n: ra.get(n, 0) + rb.get(n, 0) for n in ra.keys() | rb.keys()}
    blocks = {}
    for n in da.keys() | db.keys():
        M = [[0] * ranks[n] for _ in range(ranks[n - 1])]
        for D, r0, c0 in ((da, 0, 0), (db, ra.get(n - 1, 0), ra.get(n, 0))):
            for i, row in enumerate(D.get(n, [])):
                M[r0 + i][c0:c0 + len(row)] = row
        blocks[n] = M
    return wa or wb, ranks, blocks


def _statement_printed(doc):
    world, ranks, blocks = _stated(doc)
    out = {"degrees": {str(n): r for n, r in ranks.items()},
           "diff": {str(n): [[str(e) for e in row] for row in M]
                    for n, M in blocks.items() if any(e != 0 for row in M for e in row)}}
    return {"world": world, **out} if world else out


def test_seeds_print_back_as_stated():
    for doc in SEEDS:
        assert _printed(object_from_json(doc, SITE)) == _statement_printed(doc)


@settings(derandomize=True, max_examples=300, deadline=None, database=None)
@given(st.sampled_from(SEEDS), st.lists(st.integers(0, 10 ** 6), min_size=1, max_size=3))
def test_mutants_are_refused_or_read_as_stated(seed, picks):
    doc = seed
    for pick in picks:
        sites = _sites(doc)
        doc = _mutate(doc, *sites[pick % len(sites)])
    try:
        C = object_from_json(doc, SITE)
    except InputError:
        return
    assert _printed(C) == _statement_printed(doc), doc
