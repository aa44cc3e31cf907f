import itertools

import pytest

from adeltors.posets import (AssemblyError, CycleError, DimMismatchError,
                             DimensionNotPreservedError, NotSpecClosedError,
                             RangeError, UnknownElementError, chain_poset,
                             coarsest, dim_filtration, down_closure, finest,
                             poset_from_json, preimage_family,
                             torus_poset, up_cone, validate_assembly,
                             validate_poset, valrank2_poset, zint_poset)


def fan():
    return validate_poset([("m", f"p{i}") for i in range(1, 6)]
                          + [(f"p{i}", "g") for i in range(1, 6)])


def brute_force_dim(P, p):
    """Independent longest-chain enumeration below p."""
    best = 0
    els = [q for q in P.elements if q != p and P.leq(q, p)]
    for r in range(len(els), 0, -1):
        for chain in itertools.permutations(els, r):
            if all(P.leq(chain[i], chain[i + 1]) and chain[i] != chain[i + 1]
                   for i in range(r - 1)) and P.leq(chain[-1], p):
                best = max(best, r)
                break
        if best:
            break
    return best


def test_chain_dims():
    P = chain_poset(2)
    assert [P.dim[e] for e in ("0", "1", "2")] == [0, 1, 2]
    assert P.dimension == 2


def test_fan_dims_against_enumeration():
    P = fan()
    assert P.dimension == 2
    for p in P.elements:
        assert P.dim[p] == brute_force_dim(P, p)
    assert all(P.dim[f"p{i}"] == 1 for i in range(1, 6))


def test_single_element():
    P = validate_poset([], elements=["only"])
    assert P.dimension == 0


def test_cycle_and_dim_mismatch():
    with pytest.raises(CycleError):
        validate_poset([("a", "b"), ("b", "a")])
    with pytest.raises(DimMismatchError):
        validate_poset([("a", "b")], dims={"a": 1, "b": 0})


def test_closures():
    P = chain_poset(2)
    assert down_closure(P, {"1"}).members == {"0", "1"}
    F = fan()
    assert down_closure(F, {"p2"}).members == {"p2", "m"}
    assert up_cone(F, "m") == frozenset(F.elements)
    assert up_cone(F, "g") == {"g"}
    with pytest.raises(UnknownElementError):
        up_cone(F, "zz")
    # minimality of singleton closures
    for p in F.elements:
        d = down_closure(F, {p}).members
        for other in _spec_closed_sets(F):
            if p in other:
                assert d <= other


def _spec_closed_sets(P):
    out = []
    for r in range(len(P.elements) + 1):
        for sub in itertools.combinations(P.elements, r):
            s = set(sub)
            if all(P.down(p) <= s for p in s):
                out.append(frozenset(s))
    return out


def test_dim_filtration():
    P, F = chain_poset(2), fan()
    assert dim_filtration(P, 1).members == {"0", "1"}
    assert dim_filtration(F, 0).members == {"m"}
    assert dim_filtration(F, 1).members == {"m", "p1", "p2", "p3", "p4", "p5"}
    assert dim_filtration(F, -1).members == frozenset()
    with pytest.raises(RangeError):
        dim_filtration(P, 3)
    # nesting and exhaustion
    prev = frozenset()
    for n in range(-1, F.dimension + 1):
        cur = dim_filtration(F, n).members
        assert prev <= cur
        prev = cur
    assert prev == frozenset(F.elements)


def test_assembly_validation():
    F = fan()
    assert finest(F).subposet == frozenset(F.elements)
    C = coarsest(F)
    assert C.subposet == {"m", "p1", "g"}
    assert C.alpha["p4"] == "p1"
    with pytest.raises(DimensionNotPreservedError):
        validate_assembly(F, frozenset({"m", "g"}),
                          {p: "m" for p in F.elements} | {"g": "g"})


def test_preimage_family():
    F = fan()
    fine = finest(F)
    assert preimage_family(fine, {"m"}).members == {"m"}
    C = coarsest(F)
    assert preimage_family(C, {"m"}).members == {"m"}
    # preimage of the dim<=1 part collects every height-one prime
    assert preimage_family(C, {"m", "p1"}).members == {"m", "p1", "p2", "p3", "p4", "p5"}
    with pytest.raises(NotSpecClosedError):
        preimage_family(C, {"p1"})


def test_torus_rank1():
    P, A = torus_poset(1, 3)
    assert set(P.elements) == {"C1", "C2", "C3", "G"}
    assert P.dimension == 1 and P.dim["C2"] == 0
    assert A.alpha["C3"] == "C1"


def test_torus_rank2_shapes():
    P1, A1 = torus_poset(2, 1)
    assert len(P1.elements) == 3 and P1.dimension == 2   # the chain of Fig-3 shape
    P2, A2 = torus_poset(2, 2)
    assert P2.dimension == 2
    dims = sorted(set(P2.dim.values()))
    assert dims == [0, 1, 2]
    # conn is dimension-preserving by construction
    for p in P2.elements:
        assert P2.dim[A2.alpha[p]] == P2.dim[p]
    # the nonconnected sample maps to its subtorus
    assert A2.alpha["H10xC2"] == "H10"
    # preimage of the trivial class picks up every finite sample
    pre = preimage_family(A2, {"e"}).members
    assert pre == {"e", "C2"}


def test_torus_mutants_fail():
    P, A = torus_poset(2, 2)
    with pytest.raises(AssemblyError):
        validate_assembly(P, A.subposet, {**A.alpha, "H10xC2": "e"})
    bad_order = {**A.alpha, "C2": "H11"}
    with pytest.raises(AssemblyError):
        validate_assembly(P, A.subposet, bad_order)
    with pytest.raises(AssemblyError):
        validate_assembly(P, A.subposet, {**A.alpha, "G": "H10"})


def test_coarsest_random_posets(rng):
    """dim(alpha(p)) = dim(p) on 500 random posets of dimension <= 4."""
    for _ in range(500):
        n = rng.randint(1, 8)
        els = [f"e{i}" for i in range(n)]
        rels = []
        for i in range(n):
            for j in range(i + 1, n):
                if rng.random() < 0.3:
                    rels.append((els[i], els[j]))
        P = validate_poset(rels, elements=els)
        if P.dimension > 4:
            continue
        A = coarsest(P)
        for p in P.elements:
            assert P.dim[A.alpha[p]] == P.dim[p]
        # preimage of a spec-closed set stays spec-closed (constructor checks)
        sub = sorted(A.subposet)
        for k in range(len(sub) + 1):
            V = {x for x in sub if P.dim[x] < k}
            if V:
                preimage_family(A, V)


def test_json_round_trip():
    F = fan()
    doc = {"elements": [{"id": e} for e in F.elements],
           "relations": [["m", f"p{i}"] for i in range(1, 6)]
                        + [[f"p{i}", "g"] for i in range(1, 6)]}
    P = poset_from_json(doc)
    assert P.order == F.order and P.dim == F.dim
    assert all(P.leq(q, p) for q, p in doc["relations"])
    assert P.leq("m", "g") and not P.leq("p1", "p2") and not P.leq("g", "m")


def test_backend_posets():
    assert valrank2_poset().dimension == 2
    Z = zint_poset((2, 3))
    assert Z.dimension == 1 and Z.dim["g"] == 1
