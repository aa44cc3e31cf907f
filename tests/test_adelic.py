import random
from collections import Counter
from fractions import Fraction as F

import pytest

from adeltors import adelic
from adeltors.adelic import (AdelicCube, _adjoint_blocks, _relabels, adjoint_iso,
                             is_adelic_object, reconstruct_limit)
from adeltors.classes import GradedClasses, ModuleClass
from adeltors.complexes import ChainComplex, ChainMap, cone, map_equal
from adeltors.homology import UnsupportedMixedShape, is_acyclic
from adeltors.library import library, random_complex
from adeltors.localize import Site, TruncationTooSmall
from adeltors.oracle import oracle_check
from adeltors.shapes import CubeDiagram, _restrict, build_ifull, punctured_cube
from adeltors.torsion import tors, validate
from adeltors.worlds import Z_INT, Z_LOC, Z_PADIC, Z_PADICRAT


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


def test_relabel_certificate_agrees_with_the_cone():
    """Whenever the strand-bijection certificate accepts an adjoint map
    (an arrow of a tensor cube, or an oplax arrow of a torsion diagram),
    the map is also a chain map with an acyclic cone."""
    accepted = Counter()
    for site in (Site("zint", T=(2, 3)), Site("valrank2")):
        cube = AdelicCube(site)
        rng = random.Random(1212)
        objs = [X for _, X in library(site)]
        objs += [random_complex(rng, site.base, primes=(2, 3), atoms=3) for _ in range(20)]
        for X in objs:
            try:
                D, TD = cube.tensor(X), tors(site, X, cube)
            except UnsupportedMixedShape:
                continue
            arrows = ([(D, s, t) for (s, t, _) in D.shape.arrows]
                      + [(TD, s, t) for (s, t, kind) in TD.shape.arrows if kind == "oplax"])
            for D, s, t in arrows:
                E, MB, blocks = _adjoint_blocks(cube, D, s, t)
                if _relabels(E, MB, blocks):
                    accepted[site.backend] += 1
                    assert is_acyclic(cone(ChainMap(E, MB, blocks))), (s, t)
    assert accepted["zint"] >= 81 and accepted["valrank2"] >= 390, accepted


def test_swapped_strands_arrow_is_a_strand_permutation(zcube, zsite, monkeypatch):
    """An arrow (1,) -> (0,1) whose identity blocks swap the Padic(2) and
    Padic(3) strands of ext is certified without a cone.  ext and tensor
    fan strands out in one order, so on a tensor cube, Q+Z8 included, the
    relabelling is the identity."""
    D = zcube.tensor(dict(library(zsite))["Q+Z8"])
    E, MB, blocks = _adjoint_blocks(zcube, D, "1", "10")
    assert _relabels(E, MB, blocks) and all(i == j for (_, i, j) in blocks)

    ws = [(Z_PADIC(3), 1), (Z_PADIC(2), 1)]
    dst = ChainComplex("zint", {1: ws, 0: ws}, {(1, 0, 0): [[8]], (1, 1, 1): [[8]]})
    D = _one_arrow(ChainComplex.two_term(Z_INT(), 8), dst,
                   {(n, 0, j): [[1]] for n in (0, 1) for j in (0, 1)})
    E, MB, blocks = _adjoint_blocks(zcube, D, "1", "10")
    assert _relabels(E, MB, blocks)
    assert any(i != j for (_, i, j) in blocks)

    def no_cone(f):
        raise AssertionError("the cone path ran")
    monkeypatch.setattr(adelic, "cone", no_cone)
    assert adjoint_iso(zcube, D, "1", "10")


def _one_arrow(src, dst, blocks, check=True) -> CubeDiagram:
    """The arrow 1 -> 10 of the punctured 1-cube on its own."""
    pc = punctured_cube(1)
    shape = _restrict(pc, [pc.vertex("1"), pc.vertex("10")], "pcube")
    return CubeDiagram(shape, {"1": src, "10": dst},
                       {("1", "10"): ChainMap(src, dst, blocks, check=check)})


def test_relabel_certificate_needs_a_bijection_and_the_same_differential(zcube):
    """Identity blocks alone do not certify: the strands must correspond
    one to one, and the differentials must agree entry by entry."""
    P2, P3 = Z_PADIC(2), Z_PADIC(3)
    src = ChainComplex.two_term(Z_INT(), 8)
    ones = {(n, 0, j): [[1]] for n in (0, 1) for j in (0, 1)}

    def dst(e2, e3, flip=False):
        ws = [(P3, 1), (P2, 1)] if flip else [(P2, 1), (P3, 1)]
        d = {(1, 0, 0): [[e3 if flip else e2]], (1, 1, 1): [[e2 if flip else e3]]}
        return ChainComplex("zint", {1: ws, 0: ws}, d, check=False)
    assert is_adelic_object(_one_arrow(src, dst(8, 8), ones), zcube)
    assert is_adelic_object(_one_arrow(src, dst(8, 8, flip=True), ones), zcube)
    assert not is_adelic_object(_one_arrow(src, dst(4, 8), ones, check=False), zcube)
    # a differential on the target only
    bare = ChainComplex("zint", {1: [(Z_INT(), 1)], 0: [(Z_INT(), 1)]}, {})
    assert not is_adelic_object(_one_arrow(bare, dst(8, 8), ones, check=False), zcube)
    # identity blocks into other worlds: Z_p -> Q_p
    unit = ChainComplex.unit(Z_INT())
    rat = ChainComplex("zint", {0: [(Z_PADICRAT(2), 1), (Z_PADICRAT(3), 1)]}, {})
    assert not is_adelic_object(_one_arrow(unit, rat, {(0, 0, 0): [[1]], (0, 0, 1): [[1]]}),
                                zcube)
    # identity blocks with no strand bijection: two Z strands onto one
    # Padic(2) x Padic(3); one onto two; one onto Padic(2) x Padic(3) x
    # Padic(2); two onto two copies, both onto the first Padic(2); and two
    # onto two copies summed on the Padic(2) strands (a strand with two
    # blocks must not pass for a bijection, whatever block comes last)
    two = unit.dsum(unit)
    flat = ChainComplex("zint", {0: [(P2, 1), (P3, 1)]}, {})
    three = ChainComplex("zint", {0: [(P2, 1), (P3, 1), (P2, 1)]}, {})
    summed = {(0, 0, 2): [[1]], (0, 1, 0): [[1]], (0, 1, 2): [[1]], (0, 0, 0): [[1]],
              (0, 0, 1): [[1]], (0, 1, 3): [[1]]}
    for D in (_one_arrow(two, flat, {(0, i, j): [[1]] for i in (0, 1) for j in (0, 1)}),
              _one_arrow(two, flat.dsum(flat), {(0, 0, j): [[1]] for j in range(4)}),
              _one_arrow(unit, three, {(0, 0, 0): [[1]], (0, 0, 1): [[1]]}),
              _one_arrow(two, flat.dsum(flat), {(0, 0, 0): [[1]], (0, 0, 1): [[1]],
                                                (0, 1, 0): [[1]], (0, 1, 3): [[1]]}),
              _one_arrow(two, flat.dsum(flat), summed)):
        assert not _relabels(*_adjoint_blocks(zcube, D, "1", "10"))
        assert not is_adelic_object(D, zcube)


def test_non_unit_rescaling_fails_both_certificates(zcube, zsite):
    """A structure map scaled by a non-unit of its target world is not
    an adjoint isomorphism.  On the full cube of this site every adjoint
    lands over PadicRat(p), a field, where each nonzero scalar is a
    unit; so the arrow 1 -> 10 is taken on its own, with Z at vertex 1,
    whose ext is Padic(2) x Padic(3)."""
    src = ChainComplex.unit(Z_INT())
    dst = ChainComplex("zint", {0: [(Z_PADIC(2), 1), (Z_PADIC(3), 1)]}, {})
    ifull = build_ifull(1)
    ifull = _restrict(ifull, [ifull.vertex("1^1"), ifull.vertex("10^1")], "ifull")
    for c, member in ((1, True), (-1, True), (5, True), (2, False), (3, False), (6, False)):
        D = _one_arrow(src, dst, {(0, 0, 0): [[c]], (0, 0, 1): [[c]]})
        TD = CubeDiagram(ifull, {"1^1": src, "10^1": dst}, {("1^1", "10^1"): D.map("1", "10")})
        assert is_adelic_object(D, zcube) is member, c
        assert validate(zsite, TD, zcube).adjoint == {("1^1", "10^1"): member}, c
