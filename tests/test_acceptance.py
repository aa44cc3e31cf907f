"""Acceptance criteria, one test per criterion, each printing a PASS line.

Everything is exact (ModuleClass equality); the only tolerances are the
stated wall-clock budgets, which are asserted."""

import math
import random
import time
from fractions import Fraction as F

from adeltors.adelic import AdelicCube, reconstruct_limit
from adeltors.classes import GradedClasses, ModuleClass
from adeltors.complexes import ChainComplex, ChainMap
from adeltors.homology import homology
from adeltors.library import library, random_complex
from adeltors.localize import HypothesisFailed, Site
from adeltors.posets import AssemblyError, torus_poset, validate_assembly
from adeltors.ruleoracle import validate_rule_tables
from adeltors.shapes import (CubeDiagram, build_iminus, fib_cof_inverse_check,
                             full_cube, holim_punctured, iminus_count)
from adeltors.torsion import one_tors_vertex, reconstruct, tors
from adeltors.worlds import VAL, Z_INT, Z_LOC, Z_RAT, invert_primes

SEED = 20260801


def _report(name, ok, detail=""):
    print(f"[{'PASS' if ok else 'FAIL'}] {name}" + (f" ({detail})" if detail else ""))
    assert ok, name


def test_criterion_1_unit_fracture_valrank2(vsite, vcube):
    t0 = time.time()
    D = vcube.unit_diagram()
    lim = holim_punctured(D)
    got = homology(lim)
    want = GradedClasses({0: ModuleClass.free(VAL("V"))})
    dt = time.time() - t0
    _report("unit fracture on the rank-2 valuation backend",
            got == want and dt < 10, f"{dt:.2f}s")


def test_criterion_2_truncated_fracture_zint():
    cases = [
        ("Zloc2", ChainComplex.unit(Z_LOC(2)), {2}),
        ("Q+Z8", ChainComplex.unit(Z_RAT()).dsum(
            ChainComplex.two_term(Z_INT(), F(8))), {2}),
        ("Z6", ChainComplex.two_term(Z_INT(), F(6)), {2, 3}),
        ("Z2+Zloc3", ChainComplex.two_term(Z_INT(), F(2)).dsum(
            ChainComplex.unit(Z_LOC(3))), {2, 3}),
    ]
    ok = True
    for name, X, minimal in cases:
        for T in ({2, 3}, {2, 3, 5}, minimal):
            if not minimal <= T:
                continue
            t0 = time.time()
            site = Site("zint", T=tuple(sorted(T)))
            cube = AdelicCube(site)
            rep = reconstruct_limit(cube.tensor(X), X)
            dt = time.time() - t0
            ok &= rep.agree and dt < 5
    _report("truncated fracture over the sampled integer primes", ok)


def test_criterion_3_torsion_round_trip(zsite, zcube, vsite, vcube):
    t0 = time.time()
    ok = True
    for site, cube in ((zsite, zcube), (vsite, vcube)):
        for name, X in library(site):
            TD = tors(site, X, cube)
            rep = reconstruct(site, TD, X, cube)
            ok &= rep.validation.ok and rep.agree
    dt = time.time() - t0
    _report("torsion-model round trip with membership certificates",
            ok and dt < 30, f"{dt:.2f}s")


def test_criterion_4_vertex_formula(zsite, zcube, vsite, vcube):
    ok = True
    for site, cube in ((zsite, zcube), (vsite, vcube)):
        TD = tors(site, site.unit(), cube)
        for v in TD.shape.plain_vertices():
            ok &= one_tors_vertex(site, v.label, v.k, cube, TD).agree
    _report("unit vertex identification on both backends", ok)


def test_criterion_5_mgm_suite():
    site = Site("zint", T=(2, 3, 5))
    rng = random.Random(SEED)
    failures = 0
    for _ in range(200):
        X = random_complex(rng, site.base, primes=site.T)
        p = f"({rng.choice(site.T)})"
        if not site.mgm_check(site.poset.down(p), X).agree:
            failures += 1
    _report("torsion/completion equivalence on 200 random complexes",
            failures == 0, f"failures={failures}")


def test_criterion_6_splitting_suite():
    site = Site("zint", T=(2, 3, 5))
    rng = random.Random(SEED + 1)
    from adeltors.posets import down_closure
    checked = refused = failures = 0
    while checked + refused < 200:
        X = random_complex(rng, site.base, primes=site.T)
        pick = rng.sample(sorted(site.poset.elements),
                          rng.randint(1, len(site.poset.elements)))
        V = down_closure(site.poset, pick).members
        for op in (site.split_gamma, site.split_l):
            try:
                rep = op(V, X)
                checked += 1
                if not rep.agree:
                    failures += 1
            except HypothesisFailed:
                refused += 1
    _report("splitting suite with hypothesis refusals",
            failures == 0 and refused > 0,
            f"checked={checked} refused={refused}")


def test_criterion_7_cube_combinatorics(rng):
    counts_ok = all(len(build_iminus(d).vertices) == iminus_count(d)
                    for d in range(1, 7))
    counts_ok &= [iminus_count(d) for d in (1, 2, 3)] == [3, 8, 19]
    inv_ok = True
    Z = Z_INT()
    op = lambda w: invert_primes(w, frozenset({2}))
    for _ in range(1000):
        X = random_complex(rng, Z, primes=(2, 3), atoms=2, degs=(0, 1))
        X2 = X.base_change(op)
        u = ChainMap.from_unit(X, X2)
        idm = ChainMap.from_unit(X, X)
        D = CubeDiagram(full_cube(1),
                        {"e": X, "0": X, "1": X2, "10": X2},
                        {("e", "0"): idm, ("e", "1"): u, ("0", "10"): u,
                         ("1", "10"): ChainMap.from_unit(X2, X2)}, {}, {})
        i = rng.choice([0, 1])
        inv_ok &= fib_cof_inverse_check(D, i)
        if not inv_ok:
            break
    _report("layer-category counts and exact cofibre/fibre inversion",
            counts_ok and inv_ok)


def test_criterion_8_oracle_consistency():
    n1 = validate_rule_tables("zint")
    n2 = validate_rule_tables("valrank2")
    # stabilization of a completion identification out to N = 2^10
    from adeltors.oracle import _cap, _predicted, _reading, oracle_check, zint_truncate
    C = ChainComplex.unit(Z_LOC(2))
    want = _predicted(homology(C), lambda M: M.zint_trunc(2, math.inf))
    for N in (16, 64, 256, 1024):
        assert _reading(*zint_truncate(C, 2, N), 2, N) == _cap(want, N)
    oracle_check(C, homology(C))
    _report("rule-table entries stabilize under the residue oracle",
            n1 + n2 >= 60, f"entries={n1 + n2}")


def test_criterion_9_assembly_validation():
    P, A = torus_poset(2, 2)
    ok = A is not None
    named = []
    # mutant 1: collapse a subtorus class to the point class (dimension drop)
    try:
        validate_assembly(P, A.subposet, {**A.alpha, "H10xC2": "e"})
        named.append(None)
    except AssemblyError as exc:
        named.append(type(exc).__name__)
    # mutant 2: send a finite sample to an incomparable subtorus (order break)
    try:
        validate_assembly(P, A.subposet, {**A.alpha, "C2": "H11"})
        named.append(None)
    except AssemblyError as exc:
        named.append(type(exc).__name__)
    # mutant 3: move the top (not a retraction on the subposet)
    try:
        validate_assembly(P, A.subposet, {**A.alpha, "G": "H10"})
        named.append(None)
    except AssemblyError as exc:
        named.append(type(exc).__name__)
    ok &= all(n is not None for n in named)
    _report("identity-component assembly on the torus sample", ok,
            "mutants=" + ",".join(str(n) for n in named))
