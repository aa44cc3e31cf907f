"""Seeded mutation fuzz of the poset and assembly readers.

Valid poset and assembly documents get one to three mutations: a key
dropped, renamed or retyped (any value swapped for one of another JSON
type), a name swapped for another, or a list cut short or extended by a
copy of its last item.  Each mutant goes through `cli.main` (`spectrum`
or `assembly`) and must either exit 2 with one `input error [...]` line,
or be read as the document it states: a poset as the listed elements
under the reflexive-transitive closure of its relations, printed back
as its dimensions and covering edges; an assembly as its subposet and
alpha on the fixed poset, which `assembly` accepts (exit 0, with the
classes of alpha) exactly when alpha is a dimension- and order-preserving
retraction onto the subposet, and refuses with exit 1 otherwise.
"""

import contextlib
import io
import json
import os
import tempfile

from hypothesis import given, settings, strategies as st

from adeltors import cli

CHAIN = {"elements": [{"id": "m"}, {"id": "p1"}, {"id": "g"}],
         "relations": [["m", "p1"], ["p1", "g"]]}
FAN = {"elements": [{"id": "m"}, {"id": "p1"}, {"id": "p2"}, {"id": "g"}],
       "relations": [["m", "p1"], ["m", "p2"], ["p1", "g"], ["p2", "g"]]}
POSET_SEEDS = [CHAIN, FAN, {"elements": [{"id": "m"}]},
               {"elements": [{"id": "a"}, {"id": "b"}], "relations": []}]
ASSEMBLY_SEEDS = [
    (CHAIN, {"subposet": ["m", "p1", "g"], "alpha": {"m": "m", "p1": "p1", "g": "g"}}),
    (FAN, {"subposet": ["m", "p1", "p2", "g"],
           "alpha": {"m": "m", "p1": "p1", "p2": "p2", "g": "g"}}),
    (FAN, {"subposet": ["m", "p1", "g"], "alpha": {"m": "m", "p1": "p1", "p2": "p1", "g": "g"}}),
]

# one value of each JSON type: null, bool, number, string, array, object
POOL = [None, True, 0, 1.5, "s", [], {}]
NAMES = ["m", "p1", "p2", "g", "z"]


def _kind(v):
    return {bool: "bool", int: "number", float: "number", str: "string", list: "array",
            dict: "object", type(None): "null"}[type(v)]


def _sites(doc, path=()):
    """Every mutation of doc: (op, path, argument)."""
    out = [("retype", path, v) for v in POOL if _kind(v) != _kind(doc)]
    if isinstance(doc, str):
        out += [("swap", path, name) for name in NAMES if name != doc]
    elif isinstance(doc, dict):
        for k, v in doc.items():
            out += [("drop", path, k), ("rename", path, k)]
            out += _sites(v, path + (k,))
    elif isinstance(doc, list):
        out += [("truncate", path, None)] + ([("extend", path, None)] if doc else [])
        for i, v in enumerate(doc):
            out += _sites(v, path + (i,))
    return out


def _mutate(doc, op, path, arg):
    if not path:
        if op in ("retype", "swap"):
            return arg
        if op == "truncate":
            return doc[:-1]
        if op == "extend":
            return doc + doc[-1:]
        out = {k: v for k, v in doc.items() if k != arg}
        if op == "rename":
            out[arg + "_"] = doc[arg]
        return out
    head, rest = path[0], path[1:]
    out = list(doc) if isinstance(doc, list) else dict(doc)
    out[head] = _mutate(doc[head], op, rest, arg)
    return out


def _mutant(seed, picks):
    """Each pick chooses a kind of mutation, then a site of that kind, so
    that the many retypes do not crowd out the rest."""
    doc = seed
    for pick in picks:
        by_op = {}
        for site in _sites(doc):
            by_op.setdefault(site[0], []).append(site)
        ops = sorted(by_op)
        sites = by_op[ops[pick % len(ops)]]
        doc = _mutate(doc, *sites[pick // len(ops) % len(sites)])
    return doc


def _run(*docs):
    """cli.main on the documents written to files: (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        paths = []
        for k, doc in enumerate(docs):
            paths.append(os.path.join(tmp, f"{k}.json"))
            with open(paths[-1], "w") as fh:
                json.dump(doc, fh)
        cmd = "spectrum" if len(docs) == 1 else "assembly"
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main([cmd, *paths] + (["--dot"] if cmd == "spectrum" else []))
    return code, out.getvalue(), err.getvalue()


def _poset_stated(doc):
    """(elements, order) a poset document states, None for one of another
    shape, a relation naming an unlisted element or a cycle."""
    if not (isinstance(doc, dict) and set(doc) <= {"elements", "relations"}
            and isinstance(doc.get("elements"), list)
            and all(isinstance(e, dict) and set(e) == {"id"} and isinstance(e["id"], str)
                    for e in doc["elements"])):
        return None
    rels = doc.get("relations", [])
    els = {e["id"] for e in doc["elements"]}
    if not (isinstance(rels, list) and all(isinstance(r, list) and len(r) == 2
                                           and all(isinstance(x, str) and x in els for x in r)
                                           for r in rels)):
        return None
    order = {(e, e) for e in els} | {tuple(r) for r in rels}
    while True:
        more = {(a, d) for a, b in order for c, d in order if b == c} - order
        if not more:
            break
        order |= more
    if any(a != b and (b, a) in order for a, b in order):
        return None
    return els, order


def _dims(els, order):
    dim = {}
    while len(dim) < len(els):
        for p in els - set(dim):
            below = [q for q in els if q != p and (q, p) in order]
            if all(q in dim for q in below):
                dim[p] = max((dim[q] + 1 for q in below), default=0)
    return dim


def _covers(els, order):
    return {(q, p) for q, p in order if q != p and not any(
        q != m != p and (q, m) in order and (m, p) in order for m in els)}


def _assembly_stated(P, doc):
    """The classes of a stated assembly on the poset P = (els, order),
    "fails" for a well-formed one that is no retraction of the required
    kind, None for a document of another shape or naming names outside P."""
    els, order = P
    if not (isinstance(doc, dict) and set(doc) == {"subposet", "alpha"}
            and isinstance(doc["subposet"], list) and isinstance(doc["alpha"], dict)
            and all(isinstance(x, str) for x in doc["subposet"])
            and all(isinstance(x, str) for x in doc["alpha"].values())
            and set(doc["subposet"]) | set(doc["alpha"]) <= els):
        return None
    sub, alpha = set(doc["subposet"]), doc["alpha"]
    dim = _dims(els, order)
    if not (set(alpha) == els and set(alpha.values()) <= sub
            and all(alpha[x] == x for x in sub)
            and all((alpha[q], alpha[p]) in order for q, p in order)
            and all(dim[alpha[p]] == dim[p] for p in els)):
        return "fails"
    return {x: sorted(p for p in els if alpha[p] == x) for x in sub}


def _input_error(code, out, err, check):
    return (code == 2 and not out and err.startswith(f"input error [{check}]: ")
            and err.count("\n") == 1)


def test_seeds_read_as_stated():
    for doc in POSET_SEEDS:
        assert _run(doc)[0] == 0
    for poset, doc in ASSEMBLY_SEEDS:
        code, out, _ = _run(poset, doc)
        assert code == 0 and json.loads(out)["classes"] == _assembly_stated(
            _poset_stated(poset), doc)


@settings(derandomize=True, max_examples=150, deadline=None, database=None)
@given(st.sampled_from(POSET_SEEDS), st.lists(st.integers(0, 10 ** 6), min_size=1, max_size=3))
def test_poset_mutants_are_refused_or_read_as_stated(seed, picks):
    doc = _mutant(seed, picks)
    code, out, err = _run(doc)
    stated = _poset_stated(doc)
    if stated is None:
        assert _input_error(code, out, err, "poset-validation"), doc
        return
    els, order = stated
    assert code == 0, (doc, err)
    printed = json.loads(out)
    dims = _dims(els, order)
    assert (sorted(printed["elements"]), printed["dims"], printed["dimension"]) == (
        sorted(els), dims, max(dims.values(), default=0)), doc
    edges = {tuple(line.strip().rstrip(";").replace('"', "").split(" -> "))
             for line in printed["dot"].splitlines() if "->" in line}
    assert edges == _covers(els, order), doc


@settings(derandomize=True, max_examples=150, deadline=None, database=None)
@given(st.sampled_from(ASSEMBLY_SEEDS), st.lists(st.integers(0, 10 ** 6), min_size=1, max_size=3))
def test_assembly_mutants_are_refused_or_read_as_stated(seed, picks):
    poset, doc = seed
    doc = _mutant(doc, picks)
    code, out, err = _run(poset, doc)
    stated = _assembly_stated(_poset_stated(poset), doc)
    if stated is None:
        assert _input_error(code, out, err, "assembly-validation"), doc
    elif stated == "fails":
        assert code == 1 and not json.loads(out)["ok"], doc
    else:
        assert code == 0 and json.loads(out)["classes"] == stated, doc
