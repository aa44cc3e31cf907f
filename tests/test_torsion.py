import inspect
from fractions import Fraction as F

import pytest

from adeltors.adelic import AdelicCube
from adeltors.classes import GradedClasses, ModuleClass
from adeltors.complexes import ChainComplex, ChainMap
from adeltors.homology import homology, is_acyclic
from adeltors.library import library
from adeltors.localize import Site
from adeltors.shapes import CubeDiagram, big_R
from adeltors.torsion import (ValidateFailed, chromatic_report, cousin_report,
                              one_tors_vertex, reconstruct, tors, validate)
from adeltors.worlds import VAL, Z_INV, Z_RAT


def test_zint_unit_diagram(zsite, zcube):
    TD = tors(zsite, zsite.unit(), zcube)
    h = {v.name: homology(TD.value(v.name)) for v in TD.shape.plain_vertices()}
    assert h["1^1"] == GradedClasses({0: ModuleClass.free(Z_INV(2, 3))})
    assert h["0^0"] == GradedClasses({0: ModuleClass.quot("pruefer", 2)
                                      + ModuleClass.quot("pruefer", 3)})
    assert validate(zsite, TD, zcube).ok


def test_rational_object_only_generic(zsite, zcube):
    TD = tors(zsite, ChainComplex.unit(Z_RAT()), zcube)
    for v in TD.shape.plain_vertices():
        nonzero = not is_acyclic(TD.value(v.name))
        if v.k == 0:
            assert not nonzero
    assert not is_acyclic(TD.value("1^1"))


def test_val_unit_diagram(vsite, vcube):
    TD = tors(vsite, vsite.unit(), vcube)
    assert len(TD.shape.plain_vertices()) == 8
    got = {v.name: homology(TD.value(v.name)) for v in TD.shape.plain_vertices()}
    assert got["0^1"] == GradedClasses({1: ModuleClass.free(VAL("VhatM"))})
    assert got["1^1"] == GradedClasses({0: ModuleClass.quot("prueferY")})
    assert got["0^0"] == GradedClasses({1: ModuleClass.quot("prueferX")})
    assert validate(vsite, TD, vcube).ok


@pytest.mark.parametrize("T", [(2,), (2, 3), (2, 3, 5)])
def test_vertex_formula_zint(T):
    site = Site("zint", T=T)
    cube = AdelicCube(site)
    TD = tors(site, site.unit(), cube)
    for v in TD.shape.plain_vertices():
        rep = one_tors_vertex(site, v.label, v.k, cube, TD)
        assert rep.agree, (T, v.name, rep.got, rep.want)


def test_vertex_formula_val(vsite, vcube):
    TD = tors(vsite, vsite.unit(), vcube)
    for v in TD.shape.plain_vertices():
        rep = one_tors_vertex(vsite, v.label, v.k, vcube, TD)
        assert rep.agree, (v.name, rep.got, rep.want)


def test_round_trips_library(zsite, zcube, vsite, vcube):
    for site, cube in ((zsite, zcube), (vsite, vcube)):
        for name, X in library(site):
            TD = tors(site, X, cube)
            rep = reconstruct(site, TD, X, cube)
            assert rep.validation.ok, name
            assert rep.agree, (name, rep.got, rep.want)


def test_stored_maps_join_vertex_values(zsite, zcube, vsite, vcube):
    """Every stored map of tors and of big_R(tors) starts and ends at the
    very complexes stored at its vertices, not at copies of them."""
    for site, cube in ((zsite, zcube), (vsite, vcube)):
        for name, X in library(site):
            TD = tors(site, X, cube)
            for D in (TD, big_R(TD)):
                for (s, t), f in D.maps.items():
                    assert f.src is D.value(s) and f.dst is D.value(t), (name, s, t)


def test_round_trip_zero(zsite, zcube):
    TD = tors(zsite, ChainComplex.zero("zint"), zcube)
    rep = reconstruct(zsite, TD, ChainComplex.zero("zint"), zcube)
    assert rep.agree and rep.got.is_zero()


def _mutate_vertex(TD, name, newval, newmaps):
    vals = dict(TD.values)
    vals[name] = newval
    maps = dict(TD.maps)
    maps.update(newmaps)
    return CubeDiagram(TD.shape, vals, maps, dict(TD.homotopies),
                       dict(TD.ring_names))


def test_validate_mutants(zsite, zcube):
    TD = tors(zsite, zsite.unit(), zcube)
    # adding a rational summand at 0^0 breaks the torsion condition
    bad = TD.value("0^0").dsum(ChainComplex.unit(Z_RAT()))
    old = TD.value("0^0")
    newmaps = {}
    for (s, t), m in TD.maps.items():
        if t == "0^0":
            newmaps[(s, t)] = ChainMap(TD.value(s), bad, m.blocks, check=False)
    mut = _mutate_vertex(TD, "0^0", bad, newmaps)
    rep = validate(zsite, mut, zcube)
    assert not rep.torsion["0^0"] and not rep.ok
    # zeroing an ext arrow breaks the adjoint condition
    m = TD.map("1^1", "10^1")
    mut2 = _mutate_vertex(TD, "1^1", TD.value("1^1"),
                          {("1^1", "10^1"): ChainMap(TD.value("1^1"),
                                                     TD.value("10^1"), {})})
    rep2 = validate(zsite, mut2, zcube)
    assert not rep2.adjoint[("1^1", "10^1")] and not rep2.ok
    with pytest.raises(ValidateFailed):
        reconstruct(zsite, mut2, zsite.unit(), zcube)


def test_cofibre_layer_needs_its_witness(vsite, vcube):
    """Dropping the null-homotopy witness at 0^(0), doubling its entry, or
    giving the dummy vertex 0^(0) a nonzero value fails the cofibre-layer
    certificate."""
    TD = tors(vsite, vsite.unit(), vcube)
    assert validate(vsite, TD, vcube).layers[0]
    h = TD.homotopies["0^(0)"]
    doubled = {key: [[2 * e for e in row] for row in M] for key, M in h.items()}
    for values, homs in ((TD.values, {n: w for n, w in TD.homotopies.items() if n != "0^(0)"}),
                         (TD.values, dict(TD.homotopies, **{"0^(0)": doubled})),
                         (dict(TD.values, **{"0^(0)": vsite.unit()}), TD.homotopies)):
        mut = CubeDiagram(TD.shape, values, TD.maps, homs, TD.ring_names)
        assert not validate(vsite, mut, vcube).layers[0]


def test_membership_soundness_random_mutants(zsite, zcube, rng):
    """Random mutations must trip at least one certificate or leave the
    round trip intact."""
    X = ChainComplex.two_term(zsite.base, F(4))
    TD = tors(zsite, X, zcube)
    names = [v.name for v in TD.shape.plain_vertices()]
    trials = 0
    for _ in range(50):
        name = rng.choice(names)
        kind = rng.random()
        if kind < 0.5:
            bad = TD.value(name).dsum(ChainComplex.unit(Z_RAT()))
            newmaps = {}
            ok_shape = True
            for (s, t), m in TD.maps.items():
                if t == name:
                    newmaps[(s, t)] = ChainMap(TD.value(s), bad, m.blocks,
                                               check=False)
                if s == name:
                    try:
                        newmaps[(s, t)] = ChainMap(bad, TD.value(t), m.blocks,
                                                   check=False)
                    except Exception:
                        ok_shape = False
            if not ok_shape:
                continue
            mut = _mutate_vertex(TD, name, bad, newmaps)
        else:
            picks = [(s, t) for (s, t) in TD.maps if s == name]
            if not picks:
                continue
            s, t = rng.choice(picks)
            mut = _mutate_vertex(TD, name, TD.value(name),
                                 {(s, t): ChainMap(TD.value(s), TD.value(t), {})})
        trials += 1
        rep = validate(zsite, mut, zcube)
        if rep.ok:
            rt = reconstruct(zsite, mut, X, zcube, require_valid=False)
            assert rt.agree
    assert trials >= 30


def test_suspension_bookkeeping(vsite, vcube):
    """Filtration-i vertices sit in degrees shifted by d - i."""
    TD = tors(vsite, vsite.unit(), vcube)
    d = vsite.poset.dimension
    for v in TD.shape.plain_vertices():
        h = homology(TD.value(v.name))
        base = homology(vsite.gamma_le(v.k, vcube.ring_complex(tuple(v.label))))
        assert h == base.shift(d - v.k)


def test_cousin_reports(zsite, vsite):
    rep = cousin_report(zsite, zsite.unit())
    assert rep["layers"]["0"]["(2)"] == {"-1": ["Quot(Pruefer(2))"]}
    assert list(rep["layers"]["1"]) == ["g"]
    z8 = cousin_report(zsite, ChainComplex.two_term(zsite.base, F(8)))
    assert z8["layers"]["0"]["(2)"] == {"0": ["Cyclic(Z,8)"]}
    assert z8["layers"]["0"]["(3)"] == {}
    v = cousin_report(vsite, vsite.unit())
    assert set(v["layers"]) == {"0", "1", "2"}


def test_chromatic_formal():
    rep = chromatic_report(2)
    assert set(rep["slots"]) == {"0", "1", "2"}
    assert "M_2" in rep["slots"]["0"]
    assert "no homotopy groups" in rep["note"]


def test_cube_and_unit_diagram_are_required():
    # a default cube rebuilt every world table on each call
    for fn, names in ((tors, ["cube"]), (validate, ["cube"]), (reconstruct, ["cube"]),
                      (one_tors_vertex, ["cube", "TD"])):
        params = inspect.signature(fn).parameters
        assert all(params[n].default is inspect.Parameter.empty for n in names), fn
