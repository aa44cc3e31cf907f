"""The verified bit: only a passed check, or a trusted operation on
verified inputs, marks a complex or chain map as verified.

The pipeline test re-runs the full check on every value a trusted
operation hands out as verified, on the library and on seeded random
objects of both backends, and compares the verdicts with an unwrapped
run.  A guard keeps every function that sets the bit through _built in
that list."""

import ast
import inspect
import json
import os
import random
from fractions import Fraction as F

import pytest

import adeltors
from adeltors import adelic, complexes, localize, shapes, torsion
from adeltors.adelic import AdelicCube, is_adelic_object, reconstruct_limit
from adeltors.complexes import (ChainComplex, ChainMap, IncompatibleWorldsError,
                                NotChainMapError, ShapeError, _check_blocks, compose, cone,
                                fan_out_unit, fib, induced_cone_map)
from adeltors.homology import UnsupportedMixedShape
from adeltors.library import library, random_complex
from adeltors.ratfunc import y as ry
from adeltors.shapes import (CubeDiagram, _fibre_map, big_R, fib_cof_inverse_check,
                             full_cube, holim_punctured, punctured_cube)
from adeltors.torsion import reconstruct, tors, validate
from adeltors.worlds import (VAL, ZERO, Z_INT, Z_INV, Z_RAT, complete_world, invert_primes,
                             invert_val)

# the trusted operations by qualified name, each with the module or class
# that defines it first and then the modules that import it by name
TRUSTED = {"ChainComplex.shift": (complexes.ChainComplex,),
           "ChainComplex.dsum": (complexes.ChainComplex,),
           "ChainComplex.fan_out": (complexes.ChainComplex,),
           "ChainMap.from_unit": (complexes.ChainMap,),
           "fan_out_unit": (complexes, localize),
           "cone": (complexes, shapes, adelic),
           "cone_inclusion": (complexes, shapes),
           "fib_projection": (complexes, shapes),
           "induced_cone_map": (complexes, shapes),
           "_fibre_map": (shapes,),
           "_comparison_map": (shapes,),
           "holim_punctured": (shapes, torsion, adelic),
           "AdelicCube.tensor": (adelic.AdelicCube,)}


def _recheck(value, seen):
    """The full check of a value handed out as verified."""
    if id(value) in seen:
        return
    seen[id(value)] = value
    if isinstance(value, ChainComplex):
        value._validate()
        return
    _check_blocks(value.blocks, value.src, value.dst, 0)
    assert value.is_chain_map()
    _recheck(value.src, seen)
    _recheck(value.dst, seen)


def _wrap_trusted(monkeypatch):
    """Route every trusted operation through the recheck; counts[name]
    tallies the values it hands out as verified and as unverified."""
    seen, counts = {}, {name: {"verified": 0, "unverified": 0} for name in TRUSTED}
    for name, owners in TRUSTED.items():
        attr = name.rsplit(".", 1)[-1]
        op = getattr(owners[0], attr)

        def wrapped(*args, _op=op, _tally=counts[name]):
            out = _op(*args)
            values = out if isinstance(out, tuple) else \
                [*out.values.values(), *out.maps.values()] if isinstance(out, CubeDiagram) \
                else (out,)
            for value in values:
                if not isinstance(value, (ChainComplex, ChainMap)):
                    continue    # fan_out's slots, or no comparison map
                if value.verified:
                    _tally["verified"] += 1
                    _recheck(value, seen)
                else:
                    _tally["unverified"] += 1
            return out
        for owner in owners:
            static = isinstance(inspect.getattr_static(owner, attr), staticmethod)
            monkeypatch.setattr(owner, attr, staticmethod(wrapped) if static else wrapped)
    return counts


def _unit_square(X, backend):
    def invert(w):
        return invert_primes(w, frozenset({2})) if backend == "zint" else \
            invert_val(w, frozenset({"x"}))
    Y = X.base_change(invert)
    u = ChainMap.from_unit(X, Y)
    return CubeDiagram(full_cube(1), {"e": X, "0": X, "1": Y, "10": Y},
                       {("e", "0"): ChainMap.from_unit(X, X), ("e", "1"): u,
                        ("0", "10"): u, ("1", "10"): ChainMap.from_unit(Y, Y)}, {}, {})


def _verdicts(sites) -> str:
    """The pipeline's verdicts on the library and 40 seeded random
    objects per backend, built afresh (which runs dsum) on each call."""
    rng = random.Random(20260806)
    out = []
    for backend, site in sites.items():
        cube = AdelicCube(site)
        objects = [X for _, X in library(site)] + \
            [random_complex(rng, site.base, primes=(2, 3), atoms=1 + k % 4) for k in range(40)]
        for X in objects:
            try:
                TD = tors(site, X, cube)
                rt = reconstruct(site, TD, X, cube)
                D = cube.tensor(X)
                out.append({"membership": validate(site, TD, cube).to_json(),
                            "roundtrip": rt.to_json(),
                            "adelic": is_adelic_object(D, cube),
                            "limit": reconstruct_limit(D, X).to_json(),
                            "inverse": [fib_cof_inverse_check(_unit_square(X, backend), i)
                                        for i in (0, 1)]})
            except UnsupportedMixedShape as exc:
                out.append({"refused": str(exc)})
    return json.dumps(out, sort_keys=True)


def test_trusted_outputs_pass_their_checks(zsite, vsite, monkeypatch):
    sites = {"zint": zsite, "valrank2": vsite}
    plain = _verdicts(sites)
    counts = _wrap_trusted(monkeypatch)
    assert _verdicts(sites) == plain
    # every trusted operation is used, and every value the pipeline builds
    # with one has verified inputs, so it is trusted
    assert all(c["verified"] > 0 and c["unverified"] == 0 for c in counts.values()), counts
    assert sum(c["verified"] for c in counts.values()) > 1000


def test_every_caller_of_built_is_rechecked():
    """Every function in the package that sets the verified bit through
    _built is a trusted operation the pipeline test re-checks."""
    package = os.path.dirname(adeltors.__file__)
    callers = set()

    def visit(node, module, scope):
        if isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            scope = scope + (node.name,)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and \
                node.func.id == "_built":
            callers.add((module, ".".join(scope)))
        for child in ast.iter_child_nodes(node):
            visit(child, module, scope)

    for fname in sorted(os.listdir(package)):
        if fname.endswith(".py"):
            with open(os.path.join(package, fname)) as fh:
                visit(ast.parse(fh.read()), "adeltors." + fname[:-3], ())
    home = {name: getattr(owners[0], "__module__", owners[0].__name__)
            for name, owners in TRUSTED.items()}
    assert callers == {(module, name) for name, module in home.items()}


def test_check_false_is_not_verified():
    Z = Z_INT()
    C = ChainComplex.two_term(Z, F(4))
    assert C.verified and C.shift(1).verified and C.dsum(C).verified
    assert not ChainComplex(C.backend, C.strands, C.blocks, check=False).verified
    assert not ChainComplex(C.backend, C.strands, C.blocks, check=False).dsum(C).verified
    # a non-chain map built unchecked stays unverified, and its cone still checks
    bad = ChainMap(C, C, {(1, 0, 0): [[F(1)]]}, check=False)
    assert not bad.verified
    with pytest.raises(ShapeError):
        cone(bad)
    with pytest.raises(ShapeError):
        fib(bad)
    # a checked map is verified only with verified ends
    U = ChainComplex(C.backend, C.strands, C.blocks, check=False)
    assert not ChainMap(U, C, {(n, 0, 0): [[F(1)]] for n in (0, 1)}).verified
    idm = ChainMap.from_unit(C, C)
    assert idm.verified and cone(idm).verified
    # an induced cone map skips its check only when all four sides are
    # verified: the square of zero maps commutes, but an unchecked p that
    # is no chain map still fails the check
    zero = ChainMap(C, C, {})
    assert induced_cone_map(zero, zero, idm, zero).verified
    with pytest.raises(NotChainMapError):
        induced_cone_map(zero, zero, bad, zero)


def test_compose_is_not_trusted():
    C = ChainComplex.two_term(Z_INT(), F(6))
    idm = ChainMap.from_unit(C, C)
    assert idm.verified and not compose(idm, idm).verified


# -- maps that are chain maps by construction -----------------------------------------


def test_fibre_map_of_a_non_chain_map_raises():
    C = ChainComplex.two_term(Z_INT(), F(4))
    zero = ChainMap(C, C, {})
    idm, bad = ChainMap.from_unit(C, C), ChainMap(C, C, {(1, 0, 0): [[F(1)]]}, check=False)
    # the square of zero maps commutes whatever p is
    with pytest.raises(NotChainMapError):
        _fibre_map(zero, zero, bad, zero, fib(zero), fib(zero))
    assert _fibre_map(zero, zero, idm, zero, fib(zero), fib(zero)).verified
    # ends built unchecked send the map to its check, which leaves it unverified
    U = fib(zero)
    U = ChainComplex(U.backend, U.strands, U.blocks, check=False)
    assert not _fibre_map(zero, zero, idm, zero, U, U).verified


def test_identity_from_unit_is_trusted_only_on_itself():
    Z = Z_INT()
    C = ChainComplex.two_term(Z, F(4)).dsum(ChainComplex.two_term(Z, F(9)))
    U = ChainComplex(C.backend, C.strands, C.blocks, check=False)
    assert ChainMap.from_unit(C, C).verified and not ChainMap.from_unit(U, U).verified
    # a unit map into another complex keeps its check: one block of the
    # target's differential changed makes it raise
    Y = C.base_change(lambda w: invert_primes(w, frozenset({3})))
    assert ChainMap.from_unit(C, Y).verified
    changed = ChainComplex(Y.backend, Y.strands, {**Y.blocks, (1, 0, 0): [[F(8)]]})
    assert changed.verified
    with pytest.raises(NotChainMapError):
        ChainMap.from_unit(C, changed)


def test_fan_out_unit_is_trusted_only_on_verified_natural_input():
    X = ChainComplex.two_term(Z_INT(), F(12))
    LX, u = fan_out_unit(X, lambda w: [complete_world(w, p) for p in (2, 3)])
    assert u.verified and u.src is X and u.dst is LX
    # an unverified source comes back checked but unverified
    U = ChainComplex(X.backend, X.strands, X.blocks, check=False)
    LU, uu = fan_out_unit(U, lambda w: [complete_world(w, p) for p in (2, 3)])
    assert LU == LX and uu.blocks == u.blocks and not uu.verified
    # a twisted block K --y^3--> V loses its source under completion at p
    # but keeps its target: the unit is then no chain map, and says so
    K, V = VAL("K"), VAL("V")
    T = ChainComplex("valrank2", {1: [(K, 1)], 0: [(V, 1)]}, {(1, 0, 0): [[ry() ** 3]]})
    assert T.verified
    with pytest.raises(NotChainMapError):
        fan_out_unit(T, lambda w: [complete_world(w, "p")])
    # strands that map to no canonical image are checked too
    with pytest.raises(IncompatibleWorldsError):
        fan_out_unit(ChainComplex.unit(Z_INV(2)), lambda w: [Z_INT()])


def test_fan_out_is_trusted_only_on_verified_natural_input(monkeypatch):
    Z, K, V = Z_INT(), VAL("K"), VAL("V")
    X = ChainComplex.two_term(Z, F(12))
    U = ChainComplex(X.backend, X.strands, X.blocks, check=False)
    # a twisted block K --y^3--> V, fanned out to the same worlds
    T = ChainComplex("valrank2", {1: [(K, 1)], 0: [(V, 1)]}, {(1, 0, 0): [[ry() ** 3]]})
    # a canonical block Int --2--> IntInv(2) whose source fans out to the
    # zero world while its target survives
    Y = ChainComplex("zint", {1: [(Z, 1)], 0: [(Z_INV(2), 1)]}, {(1, 0, 0): [[F(2)]]})
    assert X.verified and T.verified and Y.verified and not U.verified

    def completions(w):
        return [complete_world(w, p) for p in (2, 3)]
    calls = _count_validate(monkeypatch)
    LX, slots = X.fan_out(completions)
    assert LX.verified and calls == [] and len(slots[(1, 0)]) == 2
    for C, worlds_of in ((U, completions), (T, lambda w: [w]),
                         (Y, lambda w: [ZERO("zint") if w == Z else w])):
        out, _ = C.fan_out(worlds_of)
        assert out.verified and calls.pop() is out and calls == []
    assert U.fan_out(completions)[0] == LX
    calls.clear()
    # a block whose d o d term loses its middle strand in a slot: the full
    # check refuses the output instead of trusting it
    W = ChainComplex("zint", {1: [(Z, 1)], 0: [(Z_INV(2), 1), (Z, 1)], -1: [(Z_RAT(), 1)]},
                     {(1, 0, 0): [[F(1)]], (1, 0, 1): [[F(1)]],
                      (0, 0, 0): [[F(1)]], (0, 1, 0): [[F(-1)]]})
    assert W.verified
    with pytest.raises(ShapeError, match="d o d"):
        W.fan_out(lambda w: [ZERO("zint") if w == Z_INV(2) else w])


def _count_chain_map_checks(monkeypatch):
    calls = []
    full_check = ChainMap.is_chain_map

    def counted(self):
        calls.append(self)
        return full_check(self)
    monkeypatch.setattr(ChainMap, "is_chain_map", counted)
    return calls


def test_tensor_maps_are_trusted_only_on_verified_canonical_input(zcube, vcube, monkeypatch):
    X = ChainComplex.two_term(Z_INT(), 12)
    U = ChainComplex(X.backend, X.strands, X.blocks, check=False)
    # a twisted block K --y^3--> V: its source dies where its target
    # survives, at the x-complete factors
    T = ChainComplex("valrank2", {1: [(VAL("K"), 1)], 0: [(VAL("V"), 1)]},
                     {(1, 0, 0): [[ry() ** 3]]})
    assert X.verified and T.verified and not U.verified
    calls = _count_chain_map_checks(monkeypatch)
    D = zcube.tensor(X)
    assert calls == [] and all(f.verified for f in D.maps.values())
    # the same maps from an unchecked X, each through the full check (its
    # ends, checked fan-outs, are verified, so it is verified once passed)
    checked = zcube.tensor(U).maps
    assert [id(f) for f in calls] == [id(f) for f in checked.values()]
    assert all(f.verified and f.blocks == D.maps[k].blocks for k, f in checked.items())
    calls.clear()
    twisted = vcube.tensor(T).maps
    assert [id(f) for f in calls] == [id(f) for f in twisted.values()]


def _tensor_with_combine(cube, X, rule, monkeypatch):
    """cube.tensor(X) with the strand world u (x) f, for a strand u of X
    and a ring factor f, read off rule(u, f) where it gives a world."""
    combine = adelic._combine
    monkeypatch.setattr(adelic, "_combine", lambda u, f: rule(u, f) or combine(u, f))
    return cube.tensor(X)


def test_tensor_map_whose_slots_do_not_join_is_checked(zsite, monkeypatch):
    # Z --1--> Z[1/2], with the target strand dying at the 3-adic factor of
    # vertex 0 while the source survives: along the unit pair into the
    # 3-adic factor of vertex 10, d o f passes through the source's image
    # there, but f o d has no middle strand at vertex 0
    X = ChainComplex("zint", {1: [(Z_INT(), 1)], 0: [(Z_INV(2), 1)]}, {(1, 0, 0): [[1]]})
    cube = AdelicCube(zsite)

    def rule(u, f):
        return ZERO("zint") if u == Z_INV(2) and f == complete_world(Z_INT(), 3) else None
    with pytest.raises(NotChainMapError):
        _tensor_with_combine(cube, X, rule, monkeypatch)


def test_tensor_map_between_non_canonical_slots_is_checked(zsite, monkeypatch):
    # Z over the 3-adic rationals of vertex 10 read as the 2-adic
    # integers: the unit pairs into it join worlds with no canonical map
    cube = AdelicCube(zsite)
    qp3 = cube.ring_worlds((0, 1))[1]
    assert qp3.comp == 3 and qp3.inv

    def rule(u, f):
        return complete_world(Z_INT(), 2) if f == qp3 else None
    with pytest.raises(IncompatibleWorldsError):
        _tensor_with_combine(cube, ChainComplex.unit(Z_INT()), rule, monkeypatch)


def test_comparison_map_is_trusted_once_its_homotopy_holds(monkeypatch):
    # f, r zero maps Z[0] -> 0 -> Z[1]: any h: Z[0] -> Z[1] has dh + hd = 0
    C, E = ChainComplex.single(Z_INT(), {0: 1}), ChainComplex.single(Z_INT(), {1: 1})
    zero = ChainComplex.zero("zint")
    f, r = ChainMap(C, zero, {}), ChainMap(zero, E, {})
    calls = _count_chain_map_checks(monkeypatch)
    phi = shapes._comparison_map(f, r, {(0, 0, 0): [[3]]})
    assert phi.verified and calls == [] and phi.blocks == {(1, 0, 0): [[3]]}
    # h's blocks keep their shape and entry checks
    with pytest.raises(IncompatibleWorldsError):
        shapes._comparison_map(f, r, {(0, 0, 0): [[F(1, 2)]]})
    with pytest.raises(ShapeError):
        shapes._comparison_map(f, r, {(0, 0, 0): [[1], [1]]})
    # an unchecked f sends phi to the full check; a broken homotopy gives none
    U = ChainMap(C, zero, {}, check=False)
    assert shapes._comparison_map(U, r, {(0, 0, 0): [[3]]}) and len(calls) == 1
    idm = ChainMap.from_unit(C, C)
    assert shapes._comparison_map(idm, idm, {}) is None


# -- the punctured-cube limit ------------------------------------------------------------


def _unchecked(D, arrow=None):
    """D with the structure map at arrow (every one when None) rebuilt
    with check=False, so that D's limit takes the full check."""
    maps = {k: ChainMap(f.src, f.dst, f.blocks, check=False) if arrow in (None, k) else f
            for k, f in D.maps.items()}
    return CubeDiagram(D.shape, D.values, maps, D.homotopies, D.ring_names)


def _count_validate(monkeypatch):
    calls = []
    full_check = ChainComplex._validate

    def counted(self):
        calls.append(self)
        full_check(self)
    monkeypatch.setattr(ChainComplex, "_validate", counted)
    return calls


def test_trusted_limit_equals_checked_limit(zsite, vsite):
    rng = random.Random(20261019)
    for site in (zsite, vsite):
        cube = AdelicCube(site)
        objects = [X for _, X in library(site)] + \
            [random_complex(rng, site.base, primes=(2, 3), atoms=1 + k % 4) for k in range(40)]
        for X in objects:
            for D in (cube.tensor(X), big_R(tors(site, X, cube))):
                lim, full = holim_punctured(D), holim_punctured(_unchecked(D))
                assert lim.verified and full.verified and lim == full
                lim._validate()


def test_trusted_limit_runs_no_total_check(zsite, zcube, vsite, vcube, monkeypatch):
    diagrams = [big_R(tors(site, X, cube)) for site, cube in ((zsite, zcube), (vsite, vcube))
                for _, X in library(site)[:3]]
    calls = _count_validate(monkeypatch)
    for D in diagrams:
        assert holim_punctured(D).verified
    assert calls == []
    for D in diagrams:
        full = holim_punctured(_unchecked(D))
        assert full.verified and calls.pop() is full and calls == []


def _square_cube(twist):
    """punctured_cube(2) on one Z in degree 0 with identity structure maps,
    except 0 -> 10, which is multiplication by twist: the square
    0 -> {10, 20} -> 210 commutes exactly when twist is 1."""
    C = ChainComplex.single(Z_INT(), {0: 1})
    pc = punctured_cube(2)
    maps = {(s, t): ChainMap(C, C, {(0, 0, 0): [[twist if (s, t) == ("0", "10") else 1]]})
            for (s, t, _) in pc.arrows}
    return CubeDiagram(pc, {v.name: C for v in pc.vertices}, maps, {}, {})


def test_limit_of_a_square_that_does_not_commute_raises():
    D = _square_cube(2)
    assert all(f.verified for f in D.maps.values()) and not D.check_commutes()
    with pytest.raises(ShapeError, match="does not commute"):
        holim_punctured(D)


def test_unchecked_input_sends_the_limit_to_the_full_check(monkeypatch):
    ok, bad = (_unchecked(_square_cube(twist), ("0", "10")) for twist in (1, 2))
    assert not ok.maps[("0", "10")].verified
    # a value built unchecked does the same as a map
    by_value = _square_cube(1)
    C = by_value.values["0"]
    by_value.values["0"] = ChainComplex(C.backend, C.strands, C.blocks, check=False)
    calls = _count_validate(monkeypatch)
    for D in (ok, by_value):
        lim = holim_punctured(D)
        assert lim.verified and calls.pop() is lim and calls == []
    with pytest.raises(ShapeError, match="d o d"):
        holim_punctured(bad)
