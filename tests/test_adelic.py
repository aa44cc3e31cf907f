from fractions import Fraction as F

import pytest

from adeltors.adelic import AdelicCube, is_adelic_object, reconstruct_limit
from adeltors.classes import GradedClasses, ModuleClass
from adeltors.complexes import ChainComplex, ChainMap, map_equal
from adeltors.library import library
from adeltors.localize import Site, TruncationTooSmall
from adeltors.oracle import oracle_check
from adeltors.shapes import CubeDiagram
from adeltors.worlds import Z_LOC


def test_zint_rings(zcube):
    assert zcube.ring_name((0,)) == "Padic(2) x Padic(3)"
    assert zcube.ring_name((1,)) == "IntInv(2,3)"
    assert zcube.ring_name((0, 1)) == "PadicRat(2) x PadicRat(3)"


def test_val_rings(vcube):
    names = {tuple(v.label): vcube.ring_name(v.label)
             for v in vcube.shape.vertices}
    assert names[(0,)] == "VhatM"
    assert names[(1,)] == "VhatP"
    assert names[(2,)] == "K"          # the fraction field at the top
    assert names[(0, 1)] == "VhatMInv"
    assert names[(0, 2)] == "0"
    assert names[(1, 2)] == "VhatPInv"
    assert names[(0, 1, 2)] == "0"


def test_unit_cubes_commute(zcube, vcube):
    assert zcube.unit_diagram().check_commutes()
    assert vcube.unit_diagram().check_commutes()


def test_unit_reconstruction(zcube, zsite, vcube, vsite):
    for cube, site in ((zcube, zsite), (vcube, vsite)):
        rep = reconstruct_limit(cube.unit_diagram(), site.unit())
        assert rep.agree
        assert rep.got == GradedClasses({0: ModuleClass.free(site.base)})


def test_adelic_tensor_zloc2():
    site = Site("zint", T=(2,))
    cube = AdelicCube(site)
    X = ChainComplex.unit(Z_LOC(2))
    D = cube.tensor(X)
    worlds = {v.name: [w.name for (w, _) in D.value(v.name).strand_list(0)]
              for v in cube.shape.vertices}
    assert worlds == {"0": ["Padic(2)"], "1": ["Rat"], "10": ["PadicRat(2)"]}
    assert is_adelic_object(D, cube)
    assert reconstruct_limit(D, X).agree


def test_adelic_tensor_torsion_collapse(zcube, zsite):
    X = ChainComplex.two_term(zsite.base, F(6))
    D = zcube.tensor(X)
    # the generic vertex of a torsion object is acyclic
    from adeltors.homology import is_acyclic
    assert is_acyclic(D.value("1"))
    assert reconstruct_limit(D, X).agree


def test_library_round_trips(zcube, zsite, vcube, vsite):
    for cube, site in ((zcube, zsite), (vcube, vsite)):
        for name, X in library(site):
            D = cube.tensor(X)
            assert is_adelic_object(D, cube), name
            rep = reconstruct_limit(D, X)
            assert rep.agree, (name, rep.got, rep.want)
            oracle_check(rep.limit, rep.got,
                         primes=site.T if site.backend == "zint" else (2, 3))


def test_truncation_monotone():
    from adeltors.worlds import Z_INT
    X = ChainComplex.unit(Z_LOC(2)).dsum(ChainComplex.two_term(Z_INT(), F(2)))
    got = {}
    for T in ((2,), (2, 3), (2, 3, 5)):
        site = Site("zint", T=T)
        cube = AdelicCube(site)
        rep = reconstruct_limit(cube.tensor(X), X)
        assert rep.agree
        got[T] = rep.got
    assert got[(2,)] == got[(2, 3)] == got[(2, 3, 5)]


def test_truncation_refusals(zcube, zsite):
    with pytest.raises(TruncationTooSmall):
        zcube.tensor(ChainComplex.two_term(zsite.base, F(10)))
    with pytest.raises(TruncationTooSmall):
        site5 = Site("zint", T=(5,))
        AdelicCube(site5).tensor(ChainComplex.two_term(site5.base, F(2)))


def test_membership_mutants(zcube, zsite):
    X = ChainComplex.unit(Z_LOC(2))
    D = zcube.tensor(X)
    # vertex zeroing
    vals = dict(D.values)
    vals["10"] = ChainComplex.zero("zint")
    maps = dict(D.maps)
    maps[("0", "10")] = ChainMap(vals["0"], vals["10"], {})
    maps[("1", "10")] = ChainMap(vals["1"], vals["10"], {})
    assert not is_adelic_object(CubeDiagram(D.shape, vals, maps, {}, {}), zcube)
    # arrow zeroing
    maps2 = dict(D.maps)
    maps2[("0", "10")] = ChainMap(D.value("0"), D.value("10"), {})
    assert not is_adelic_object(CubeDiagram(D.shape, dict(D.values), maps2, {}, {}),
                                zcube)
    # wrong-world substitution
    vals3 = dict(D.values)
    vals3["1"] = ChainComplex.unit(zsite.base)
    maps3 = dict(D.maps)
    maps3[("1", "10")] = ChainMap(vals3["1"], D.value("10"),
                                  maps.get(("1", "10"), ChainMap(
                                      D.value("1"), D.value("10"), {})).blocks,
                                  check=False)
    assert not is_adelic_object(CubeDiagram(D.shape, vals3, maps3, {}, {}), zcube)
    # unit rescaling keeps membership
    vals4 = dict(D.values)
    maps4 = dict(D.maps)
    f = D.map("0", "10")
    maps4[("0", "10")] = ChainMap(D.value("0"), D.value("10"),
                                  {k: [[e * F(-1) for e in row] for row in M]
                                   for k, M in f.blocks.items()})
    assert is_adelic_object(CubeDiagram(D.shape, vals4, maps4, {}, {}), zcube)


def _same_diagram(D, E) -> bool:
    return (D.values == E.values and D.ring_names == E.ring_names
            and D.maps.keys() == E.maps.keys()
            and all(map_equal(D.maps[k], E.maps[k]) for k in D.maps))


def test_cube_ext_table_matches_fresh_cubes(zsite, vsite):
    for site in (zsite, vsite):
        cube = AdelicCube(site)
        for name, X in library(site):
            assert is_adelic_object(cube.tensor(X), cube), name
        assert cube._ext_worlds
        for (A, B, u), worlds in cube._ext_worlds.items():
            assert AdelicCube(site).ext_strand_worlds(A, B, u) == worlds, (A, B, u)


def test_tensor_leaves_the_shared_unit_diagram_alone(zsite, vsite):
    for site in (zsite, vsite):
        cube = AdelicCube(site)
        for name, X in library(site):
            assert _same_diagram(cube.tensor(X), cube.tensor(X)), name
        fresh = AdelicCube(site).unit_diagram()
        assert _same_diagram(cube.unit_diagram(), fresh)
        assert _same_diagram(cube._unit, fresh)
