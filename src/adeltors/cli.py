"""Command-line surface.

Subcommands: spectrum | assembly | shape | adelic | tors | verify.
Reports are JSON with sorted keys, embed the backend and truncation set
so no claim is scope-free, and every check line carries a stable check
identifier.  Exit codes: 0 success, 1 a certificate or invariant
failed or the object was refused (outside the classifier's rule table
or the degree window), 2 bad input, 3 an internal error (a defect, one
`internal error [<command>]` line).  TTG_SEED seeds the randomized
property suites.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import re
import sys
from fractions import Fraction

from .adelic import AdelicCube, is_adelic_object, reconstruct_limit
from .complexes import DEGREE_HI, DEGREE_LO, ChainComplex, DegreeWindowError
from .homology import UnsupportedMixedShape, homology
from .library import library, random_complex
from .localize import HypothesisFailed, Site, TruncationTooSmall, UnsupportedRegionError
from .oracle import OracleMismatch
from .posets import (AssemblyError, RangeError, assembly_from_json, down_closure, load_poset,
                     torus_poset, validate_assembly)
from .ratfunc import parse_ratxy
from .shapes import (build_ifull, build_igeq, build_iminus, full_cube,
                     iminus_count, punctured_cube, to_dot)
from .torsion import chromatic_report, cousin_report, one_tors_vertex, reconstruct, tors
from .worlds import world_from_name


class InputError(ValueError):
    """Bad input, reported as one `input error [<check>]` line with exit
    2; check names the input at fault when it is not the command's own."""

    def __init__(self, message: str, check: str | None = None):
        super().__init__(message)
        self.check = check


# What reading a malformed poset or assembly file can raise: OSError from
# the file, ValueError (JSONDecodeError, or a PosetError from a document of
# the wrong shape or a poset that is none).
_BAD_POSET_FILE = (OSError, ValueError)


def _emit(doc, out=None):
    text = json.dumps(doc, sort_keys=True, indent=2) + "\n"
    if out:
        try:
            with open(out, "w") as fh:
                fh.write(text)
        except OSError as exc:
            raise InputError(f"cannot write --out: {exc}") from None
    else:
        sys.stdout.write(text)


MAX_PRIME = 10 ** 9
MAX_D = 10   # shape --d: each step up doubles the time and memory of a shape
MAX_HEIGHT = 100   # tors --backend formal --height: one report line per height
MAX_RANK = 256   # object generators in all: the cube holds dense identity blocks of each rank


def _is_prime(n: int) -> bool:
    return 2 <= n <= MAX_PRIME and all(n % q for q in range(2, math.isqrt(n) + 1))


def _truncation(text: str) -> tuple[int, ...]:
    """Parse --T: distinct comma-separated primes up to MAX_PRIME."""
    try:
        T = tuple(int(t) for t in text.split(","))
    except ValueError:
        raise InputError(f"--T must list primes, got {text!r}") from None
    for p in T:
        if not _is_prime(p):
            raise InputError(f"--T: {p} is not a prime up to {MAX_PRIME}")
    if len(set(T)) != len(T):
        raise InputError(f"--T: primes must be distinct, got {text!r}")
    return T


def _site(args) -> Site:
    backend = args.backend
    if backend == "zint":
        return Site("zint", T=_truncation(args.T) if args.T else (2, 3))
    if backend == "valrank2":
        if args.T:
            raise InputError("--T applies to --backend zint only")
        return Site("valrank2")
    raise InputError(f"backend {backend!r} has no exact worlds")


# Generators of an object live one degree inside the window: the cube's
# cones and limits shift degrees by one.
OBJECT_LO, OBJECT_HI = DEGREE_LO + 1, DEGREE_HI - 1


def load_object(path: str, site: Site) -> ChainComplex:
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise InputError(f"cannot read object file: {exc}")
    return object_from_json(doc, site)


def _by_degree(table) -> dict:
    """The JSON object table with int keys: each written -?[0-9]+, each degree once."""
    out = {}
    for k, v in table.items():
        if not re.fullmatch("-?[0-9]+", k) or int(k) in out:
            raise InputError(f"degree key {k!r} is not an integer or repeats one",
                             check="object")
        out[int(k)] = v
    return out


def _check_rank(total: int):
    if total > MAX_RANK:
        raise InputError(f"{total} generators: an object has at most {MAX_RANK}", check="object")


def object_from_json(doc, site: Site) -> ChainComplex:
    """An object document: {"world": ..., "degrees": ..., "diff": ...}, each
    key optional and no other, or a list of parts, alone or as {"parts":
    [...]}, read as their direct sum."""
    if isinstance(doc, dict) and "parts" in doc:
        if set(doc) != {"parts"} or not isinstance(doc["parts"], list):
            raise InputError('a sum of parts is {"parts": [...]}, with no other key',
                             check="object")
        doc = doc["parts"]
    if isinstance(doc, list):
        out = ChainComplex.zero(site.backend)
        for part in doc:
            out = out.dsum(object_from_json(part, site))
            _check_rank(sum(map(out.rank, out.degrees())))
        return out
    if not isinstance(doc, dict):
        raise InputError(f"an object is a JSON object or a list of parts, not {doc!r}")
    unknown = sorted(set(doc) - {"world", "degrees", "diff"})
    if unknown:
        raise InputError(f"unknown key {unknown[0]!r}: an object has world, degrees and diff, "
                         f"or parts alone", check="object")
    for key, kind in (("world", str), ("degrees", dict), ("diff", dict)):
        if not isinstance(doc.get(key, kind()), kind):
            raise InputError(f"{key!r} must be a {'string' if kind is str else 'JSON object'}",
                             check="object")
    if not all(isinstance(M, list) and all(isinstance(row, list) for row in M)
               for M in doc.get("diff", {}).values()):
        raise InputError("each 'diff' value must be a list of rows, each a list", check="object")
    try:
        w = world_from_name(doc.get("world", site.base.name), site.backend)
        if w.backend != site.backend:
            raise InputError(f"'world' must name a {site.backend} world, not {w.name}",
                             check="object")
        ranks = _by_degree(doc.get("degrees", {}))
        for n in sorted(ranks):
            if type(ranks[n]) is not int or ranks[n] < 0:    # a bool or a float is no rank
                raise InputError(f"degree {n} has rank {ranks[n]!r}: ranks are "
                                 f"nonnegative integers", check="object")
            if ranks[n] and not OBJECT_LO <= n <= OBJECT_HI:
                raise InputError(f"generator in degree {n}: objects live in degrees "
                                 f"[{OBJECT_LO}, {OBJECT_HI}]", check="object")
        _check_rank(sum(ranks.values()))
        parse = (lambda s: Fraction(s)) if site.backend == "zint" else parse_ratxy
        diffs = {n: [[parse(str(e)) for e in row] for row in M]
                 for n, M in _by_degree(doc.get("diff", {})).items()}
        for n in sorted(diffs):
            if not (ranks.get(n) and ranks.get(n - 1)):
                raise InputError(f"diff in degree {n} needs generators in degrees "
                                 f"{n} and {n - 1}", check="object")
        return ChainComplex.single(w, ranks, diffs)
    except InputError:
        raise
    except (ValueError, ZeroDivisionError) as exc:
        # bad numbers, rational functions, world names and exponents, the
        # complex's own shape, world and degree checks, a zero denominator
        raise InputError(f"bad object description: {exc}")


def complex_to_json(C: ChainComplex):
    return {"degrees": {str(n): [[w.name, r] for (w, r) in C.strand_list(n)]
                        for n in C.degrees()},
            "homology": homology(C).to_json()}


# -- subcommands ------------------------------------------------------------------------


def cmd_spectrum(args) -> int:
    try:
        P = load_poset(args.file)
    except _BAD_POSET_FILE as exc:
        raise InputError(str(exc), check="poset-validation") from None
    doc = {"check": "poset-validation", "ok": True,
           "elements": list(P.elements),
           "dims": {e: P.dim[e] for e in P.elements},
           "dimension": P.dimension}
    if args.dot:
        doc["dot"] = _poset_dot(P)
    _emit(doc, args.out)
    return 0


def _poset_dot(P):
    lines = ["digraph poset {"]
    for e in P.elements:
        lines.append(f'  "{e}" [label="{e} (dim {P.dim[e]})"];')
    for (q, p) in sorted(P.order):
        if q != p and not any(q != m != p and P.leq(q, m) and P.leq(m, p)
                              for m in P.elements):
            lines.append(f'  "{q}" -> "{p}";')
    lines.append("}")
    return "\n".join(lines) + "\n"


def cmd_assembly(args) -> int:
    try:
        P = load_poset(args.poset)
        with open(args.assembly) as fh:
            doc = json.load(fh)
    except _BAD_POSET_FILE as exc:
        raise InputError(str(exc), check="assembly-validation") from None
    try:
        A = assembly_from_json(P, doc)
    except AssemblyError as exc:
        _emit({"check": "assembly-validation", "ok": False,
               "error": type(exc).__name__, "detail": str(exc)}, args.out)
        return 1
    except ValueError as exc:
        raise InputError(str(exc), check="assembly-validation") from None
    _emit({"check": "assembly-validation", "ok": True,
           "classes": {x: sorted(A.classes(x)) for x in sorted(A.subposet)}},
          args.out)
    return 0


def cmd_shape(args) -> int:
    d = args.d
    try:
        if d > MAX_D:
            raise InputError(f"--d {d} is above {MAX_D}")
        if args.index == "iminus":
            shape = build_iminus(d)
        elif args.index == "ifull":
            shape = build_ifull(d)
        elif args.index.startswith("igeq:"):
            cut = args.index.split(":")[1]
            if not cut.isdigit():
                raise InputError(f"filtration cut {cut!r} is not a nonnegative integer")
            shape = build_igeq(d, int(cut))
        elif args.index == "pcube":
            shape = punctured_cube(d)
        elif args.index == "cube":
            shape = full_cube(d)
        else:
            raise InputError(f"unknown index kind {args.index!r}")
    except RangeError as exc:
        raise InputError(str(exc)) from None
    doc = {"check": "cube-combinatorics", "kind": args.index, "d": d,
           "vertices": len(shape.vertices),
           "plain_vertices": len(shape.plain_vertices()),
           "formula_iminus": iminus_count(d)}
    if args.dot:
        doc["dot"] = to_dot(shape, include_dummies=args.index == "ifull")
    _emit(doc, args.out)
    return 0


def cmd_adelic(args) -> int:
    site = _site(args)
    X = load_object(args.object, site) if args.object else site.unit()
    cube = AdelicCube(site)
    try:
        D = cube.tensor(X)
    except (TruncationTooSmall, UnsupportedRegionError) as exc:
        print(f"certificate failure [truncation-support]: {exc}", file=sys.stderr)
        return 1
    member = is_adelic_object(D, cube)
    rep = reconstruct_limit(D, X)
    doc = {"check": "adelic-model", "backend": site.backend,
           "truncation": list(site.T),
           "rings": {v.name: cube.ring_name(v.label) for v in cube.shape.vertices},
           "vertices": {v.name: complex_to_json(D.value(v.name))
                        for v in cube.shape.vertices},
           "arrows": [f"{s}->{t}" for (s, t, _) in D.shape.arrows],
           "membership": member, "reconstruction": rep.to_json()}
    if args.dot:
        doc["dot"] = D.dot(annotate={v.name: cube.ring_name(v.label)
                                     for v in cube.shape.vertices})
    _emit(doc, args.out)
    return 0 if member and rep.agree else 1


def cmd_tors(args) -> int:
    if args.backend == "formal":
        for flag, given in (("--object", args.object is not None), ("--T", args.T is not None),
                            ("--dot", args.dot)):
            if given:
                raise InputError(f"{flag} does not apply to --backend formal")
        height = 2 if args.height is None else args.height
        if not 0 <= height <= MAX_HEIGHT:
            raise InputError(f"--height {height} is outside [0, {MAX_HEIGHT}]")
        _emit(chromatic_report(height), args.out)
        return 0
    if args.height is not None:
        raise InputError("--height applies to --backend formal only")
    site = _site(args)
    X = load_object(args.object, site) if args.object else site.unit()
    cube = AdelicCube(site)
    try:
        TD = tors(site, X, cube)
    except (TruncationTooSmall, UnsupportedRegionError) as exc:
        print(f"certificate failure [truncation-support]: {exc}", file=sys.stderr)
        return 1
    rt = reconstruct(site, TD, X, cube)
    doc = {"check": "torsion-model", "backend": site.backend,
           "truncation": list(site.T),
           "vertices": {v.name: {"ring": TD.ring_names[v.name],
                                 "homology": homology(TD.value(v.name)).to_json()}
                        for v in TD.shape.plain_vertices()},
           "arrows": [f"{s}->{t} ({k})" for (s, t, k) in TD.shape.arrows],
           "membership": rt.validation.to_json(), "roundtrip": rt.to_json(),
           "cousin": cousin_report(site, X)}
    if args.dot:
        doc["dot"] = TD.dot(annotate=dict(TD.ring_names))
    _emit(doc, args.out)
    return 0 if rt.validation.ok and rt.agree else 1


# Criterion-9 mutants of the torus assembly: each must raise AssemblyError.
ASSEMBLY_MUTANTS = {
    "dimension-drop": {"H10xC2": "e"},     # collapse a subtorus class to the point
    "order-break": {"C2": "H11"},          # finite sample to an incomparable subtorus
    "moved-top": {"G": "H10"},             # not a retraction on the subposet
}


def _accepted_assembly_mutants(P, A) -> list[str]:
    """Names of the mutants that validate_assembly fails to refuse."""
    accepted = []
    for name, change in ASSEMBLY_MUTANTS.items():
        try:
            validate_assembly(P, A.subposet, {**A.alpha, **change})
            accepted.append(name)
        except AssemblyError:
            pass
    return accepted


SUITES = ("combinatorics", "rules", "fracture", "tors", "vertex", "mgm", "splittings",
          "assembly")


def cmd_verify(args) -> int:
    try:
        seed = int(os.environ.get("TTG_SEED", "20260801"))
    except ValueError:
        raise InputError(f"TTG_SEED must be an integer, got {os.environ['TTG_SEED']!r}") from None
    if args.count is not None and args.count < 1:
        raise InputError(f"--count must be at least 1, got {args.count}")
    suites = list(SUITES) if args.suite == "all" else args.suite.split(",")
    unknown = [s for s in suites if s not in SUITES]
    if unknown:
        raise InputError(f"unknown suite {unknown[0]!r}")
    if args.force and "splittings" not in suites:
        raise InputError("--force applies to the splittings suite only")
    if args.count is not None and not {"mgm", "splittings"} & set(suites):
        raise InputError("--count applies to the mgm and splittings suites only")
    rng = random.Random(seed)
    site = _site(args)
    cube = AdelicCube(site)
    lines = []
    ok_all = True

    def record(check, ok, **extra):
        nonlocal ok_all
        ok_all &= bool(ok)
        lines.append({"check": check, "ok": bool(ok), **extra})

    for suite in suites:
        if suite == "combinatorics":
            for d in range(1, 7):
                record("cube-combinatorics", len(build_iminus(d).vertices) ==
                       iminus_count(d), d=d)
        elif suite == "rules":
            from .ruleoracle import validate_rule_tables
            try:
                n = validate_rule_tables(site.backend)
                record("rule-table-oracle", True, entries=n)
            except OracleMismatch as exc:
                record("rule-table-oracle", False, detail=str(exc))
        elif suite == "fracture":
            for name, X in library(site):
                try:
                    D = cube.tensor(X)
                    rep = reconstruct_limit(D, X)
                    record("fracture-limit", rep.agree and
                           is_adelic_object(D, cube), object=name)
                except (TruncationTooSmall, UnsupportedRegionError, UnsupportedMixedShape,
                        DegreeWindowError) as exc:
                    record("fracture-limit", False, object=name, detail=str(exc))
        elif suite == "tors":
            for name, X in library(site):
                rt = reconstruct(site, tors(site, X, cube), X, cube)
                record("torsion-roundtrip", rt.validation.ok and rt.agree, object=name)
        elif suite == "vertex":
            TD = tors(site, site.unit(), cube)
            for v in TD.shape.plain_vertices():
                vr = one_tors_vertex(site, v.label, v.k, cube, TD)
                record("torsion-vertex-formula", vr.agree, vertex=v.name)
        elif suite == "mgm":
            count = args.count or 200
            fails = 0
            for _ in range(count):
                X = random_complex(rng, site.base, primes=site.T)
                p = f"({rng.choice(site.T)})" if site.backend == "zint" else \
                    rng.choice(sorted(site.poset.elements))
                if not site.mgm_check(site.poset.down(p), X).agree:
                    fails += 1
            record("mgm", fails == 0, cases=count, failures=fails)
        elif suite == "splittings":
            count = args.count or 200
            done = refused = fails = forced_disagreements = 0
            while done + refused < count:
                X = random_complex(rng, site.base, primes=site.T)
                pick = rng.sample(sorted(site.poset.elements),
                                  rng.randint(1, len(site.poset.elements)))
                V = down_closure(site.poset, pick).members
                for op in (site.split_gamma, site.split_l):
                    try:
                        rep = op(V, X)
                        done += 1
                        if not rep.agree:
                            fails += 1
                    except HypothesisFailed:
                        refused += 1
                        if args.force:
                            # compute both sides anyway; disagreement is data
                            rep = op(V, X, force=True)
                            forced_disagreements += 0 if rep.agree else 1
            extra = {"forced_disagreements": forced_disagreements} if args.force else {}
            record("splitting-suite", fails == 0, checked=done,
                   refused=refused, failures=fails, **extra)
        elif suite == "assembly":
            P, A = torus_poset(2, 2)
            accepted = _accepted_assembly_mutants(P, A)
            extra = {"detail": f"mutants accepted: {accepted}"} if accepted else {}
            record("assembly-validation", not accepted, poset=len(P.elements), **extra)
    doc = {"check": "verify", "backend": site.backend, "truncation": list(site.T),
           "seed": seed, "ok": ok_all, "results": lines}
    _emit(doc, args.out)
    return 0 if ok_all else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(prog="adeltors")
    sub = ap.add_subparsers(dest="cmd", required=True)

    def common(p, backend=True):
        if backend:
            p.add_argument("--backend", default="zint",
                           choices=["zint", "valrank2", "formal"])
            p.add_argument("--T", default=None, help="comma-separated primes")
        p.add_argument("--out", default=None)
        p.add_argument("--dot", action="store_true")

    p = sub.add_parser("spectrum")
    p.add_argument("file")
    common(p, backend=False)
    p.set_defaults(fn=cmd_spectrum)

    p = sub.add_parser("assembly")
    p.add_argument("poset")
    p.add_argument("assembly")
    common(p, backend=False)
    p.set_defaults(fn=cmd_assembly)

    p = sub.add_parser("shape")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--index", default="iminus")
    common(p, backend=False)
    p.set_defaults(fn=cmd_shape)

    p = sub.add_parser("adelic")
    p.add_argument("--object", default=None)
    common(p)
    p.set_defaults(fn=cmd_adelic)

    p = sub.add_parser("tors")
    p.add_argument("--object", default=None)
    p.add_argument("--height", type=int, default=None,
                   help="chain height for the formal backend (default 2)")
    common(p)
    p.set_defaults(fn=cmd_tors)

    p = sub.add_parser("verify")
    p.add_argument("suite", nargs="?", default="all")
    p.add_argument("--count", type=int, default=None)
    p.add_argument("--force", action="store_true")
    common(p)
    p.set_defaults(fn=cmd_verify)

    args = ap.parse_args(argv)
    try:
        return args.fn(args)
    except InputError as exc:
        print(f"input error [{exc.check or args.cmd}]: {exc}", file=sys.stderr)
        return 2
    except UnsupportedMixedShape as exc:
        print(f"refused [mixed-homology]: {exc}", file=sys.stderr)
        return 1
    except DegreeWindowError as exc:
        print(f"refused [degree-window]: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # the process boundary: what is left is a defect
        print(f"internal error [{args.cmd}]: {exc!r}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
