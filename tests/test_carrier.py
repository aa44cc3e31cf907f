"""The zint carrier: an int when integral, a Fraction only where a real
denominator appears, and never a float.

Callers may hand in integral Fractions (object files are read with
Fraction(s), and so are the library and the generators).  The pipeline
keeps a caller's complex as given, but every complex and chain map that
tors, reconstruct and reconstruct_limit hand out or build holds only
ints and non-integral Fractions."""

import random
from fractions import Fraction as F

from adeltors import torsion
from adeltors.adelic import AdelicCube, reconstruct_limit
from adeltors.cli import object_from_json
from adeltors.complexes import ChainComplex, ChainMap, cone, fib
from adeltors.homology import UnsupportedMixedShape
from adeltors.library import random_complex, zint_library
from adeltors.localize import Site
from adeltors.shapes import CubeDiagram
from adeltors.torsion import reconstruct, tors
from adeltors.worlds import Z_INT, Z_INV, carrier_block, invert_primes


def _carrier_ok(e) -> bool:
    return type(e) is int or (type(e) is F and e.denominator != 1)


def _bad_entries(value, seen, bad):
    """Collect the entries of every complex and map reachable from value
    (diagram values, maps, their ends, kept cones, homotopy blocks) that
    break the carrier rule."""
    if id(value) in seen:
        return
    seen[id(value)] = value
    if isinstance(value, CubeDiagram):
        for part in (value.values, value.maps, value.homotopies):
            _bad_entries(part, seen, bad)
    elif isinstance(value, ChainMap):
        for part in (value.blocks, value.src, value.dst, value._cone):
            _bad_entries(part, seen, bad)
    elif isinstance(value, ChainComplex):
        _bad_entries(value.blocks, seen, bad)
    elif isinstance(value, dict):
        for v in value.values():
            _bad_entries(v, seen, bad)
    elif isinstance(value, list):  # a block
        bad.extend(e for row in value for e in row if not _carrier_ok(e))


def _round_trip_outputs(site, cube, X, monkeypatch):
    """Everything tors, reconstruct and reconstruct_limit hand out or
    build along the way; None when the classifier refuses X."""
    built = []
    for name in ("big_R", "holim_punctured"):
        def keep(*args, _op=getattr(torsion, name)):
            out = _op(*args)
            built.append(out)
            return out
        monkeypatch.setattr(torsion, name, keep)
    try:
        D = cube.tensor(X)
        TD = tors(site, X, cube)
        rep = reconstruct(site, TD, X, cube)
        lim = reconstruct_limit(D, X)
    except UnsupportedMixedShape:
        return None
    finally:
        monkeypatch.undo()
    assert rep.agree and lim.agree
    return [D, TD, lim.limit] + built


def _fraction_inputs(X) -> int:
    return sum(type(e) is F for M in X.blocks.values() for row in M for e in row)


def _objects(site):
    objs = [X for _, X in zint_library(site)]
    rng = random.Random(1107)
    objs += [random_complex(rng, site.base, primes=(2, 3), atoms=3) for _ in range(40)]
    doc = {"parts": [
        {"world": "Int", "degrees": {"1": 2, "0": 2}, "diff": {"1": [["2", "4"], ["6", "8"]]}},
        {"world": "IntInv(2)", "degrees": {"1": 1, "0": 1}, "diff": {"1": [["3/2"]]}}]}
    objs.append(object_from_json(doc, site))
    return objs


def test_round_trip_hands_out_ints_and_proper_fractions(monkeypatch):
    site = Site("zint", T=(2, 3))
    cube = AdelicCube(site)
    objs = _objects(site)
    assert len(objs) == 48
    # the inputs carry integral Fractions, as an object file gives them
    assert sum(_fraction_inputs(X) > 0 for X in objs) >= 40
    decided = 0
    for X in objs:
        out = _round_trip_outputs(site, cube, X, monkeypatch)
        if out is None:
            continue
        decided += 1
        bad, seen = [], {}
        for value in out:
            _bad_entries(value, seen, bad)
        assert not bad, f"entries breaking the carrier rule: {bad[:5]}"
    assert decided >= 40


def test_real_denominators_survive_as_fractions():
    doc = {"world": "IntInv(2)", "degrees": {"1": 1, "0": 1}, "diff": {"1": [["3/2"]]}}
    site = Site("zint", T=(2, 3))
    TD = tors(site, object_from_json(doc, site), AdelicCube(site))
    entries = [e for X in TD.values.values() for M in X.blocks.values()
               for row in M for e in row]
    assert F(3, 2) in entries
    assert all(_carrier_ok(e) for e in entries)


def test_carrier_block_demotes_integral_fractions():
    M = [[F(2), F(1, 2)], [F(-6), 0]]
    out = carrier_block(Z_INT(), Z_INV(2), M)
    assert out == M
    assert [[type(e) for e in row] for row in out] == [[int, F], [int, int]]
    assert M[0][0].__class__ is F  # the caller's block is left as given
    ints = [[1, 2]]
    assert carrier_block(Z_INT(), Z_INV(2), ints) is ints


def test_cone_fib_and_shift_of_fraction_inputs_are_int_only():
    """The negation in cone, the sign in shift and the Kronecker blocks and
    Koszul sign of tensor demote a caller's integral Fractions; a real
    denominator stays a Fraction."""
    site = Site("zint", T=(2, 3))
    objs = _objects(site)
    assert sum(_fraction_inputs(X) > 0 for X in objs) >= 40
    tensors = 0
    for X in objs:
        Y = X.base_change(lambda w: invert_primes(w, frozenset({2})))
        u = ChainMap.from_unit(X, Y)
        values = [cone(u), fib(u), X.shift(1), X.shift(-1), X.shift(2)]
        if X.single_world() == site.base:
            values.append(ChainComplex.two_term(site.base, F(4)).tensor(X))
            tensors += 1
        bad = []
        for value in values:
            _bad_entries(value, {}, bad)
        assert not bad, f"entries breaking the carrier rule: {bad[:5]}"
    assert tensors >= 40
    assert F(-3, 2) in objs[-1].shift(1).blocks[(2, 1, 1)][0]
