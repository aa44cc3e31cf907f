"""The verified bit: only a passed check, or a trusted operation on
verified inputs, marks a complex or chain map as verified.

The pipeline test re-runs the full check on every value the trusted
cone operations hand out as verified, on the library and on seeded
random objects of both backends, and compares the verdicts with an
unwrapped run."""

import json
import random
from fractions import Fraction as F

import pytest

from adeltors import adelic, complexes, shapes
from adeltors.adelic import AdelicCube, is_adelic_object, reconstruct_limit
from adeltors.complexes import (ChainComplex, ChainMap, NotChainMapError, ShapeError,
                                _check_blocks, compose, cone, fib, induced_cone_map)
from adeltors.homology import UnsupportedMixedShape
from adeltors.library import library, random_complex
from adeltors.shapes import CubeDiagram, fib_cof_inverse_check, full_cube
from adeltors.torsion import reconstruct, tors, validate
from adeltors.worlds import Z_INT, invert_primes, invert_val

# the trusted cone operations, with the modules that import them by name
TRUSTED = {"cone": (complexes, shapes, adelic),
           "cone_inclusion": (complexes, shapes),
           "fib_projection": (complexes, shapes),
           "induced_cone_map": (complexes, shapes)}


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
    seen, counts = {}, {"verified": 0, "unverified": 0}
    for name, modules in TRUSTED.items():
        op = getattr(complexes, name)

        def wrapped(*args, _op=op):
            out = _op(*args)
            if out.verified:
                counts["verified"] += 1
                _recheck(out, seen)
            else:
                counts["unverified"] += 1
            return out
        for mod in modules:
            monkeypatch.setattr(mod, name, wrapped)
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


def _verdicts(sites, objects) -> str:
    out = []
    for backend, site in sites.items():
        cube = AdelicCube(site)
        for X in objects[backend]:
            try:
                TD = tors(site, X, cube)
                rt = reconstruct(site, TD, X, cube, require_valid=False)
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
    rng = random.Random(20260806)
    objects = {b: [X for _, X in library(s)] +
               [random_complex(rng, s.base, primes=(2, 3), atoms=1 + k % 4)
                for k in range(40)]
               for b, s in sites.items()}
    plain = _verdicts(sites, objects)
    counts = _wrap_trusted(monkeypatch)
    assert _verdicts(sites, objects) == plain
    # every cone the pipeline builds has verified inputs, so it is trusted
    assert counts["verified"] > 1000 and counts["unverified"] == 0


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
