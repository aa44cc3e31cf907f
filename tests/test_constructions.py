"""One construction per adelic object: the ring at a chain is ext folded
over its indices, the unit cube is tensor(unit), and the punctured-cube
limit is laid out by complexes._total.  Each is checked against a
literal copy of the code it replaced."""

import random

import pytest

from adeltors.adelic import AdelicCube
from adeltors.complexes import ChainComplex, ChainMap, _built, map_equal
from adeltors.homology import UnsupportedMixedShape
from adeltors.library import library, random_complex
from adeltors.localize import Site
from adeltors.shapes import (CubeDiagram, D_backend, MissingArrowError, ShapeError,
                             ShapeMismatchError, big_L, big_R, holim_punctured)
from adeltors.worlds import canonical_map_exists


def _old_build_vertex(cube, label):
    dims = sorted(label)
    worlds = []
    for p in cube.site.poset.of_dim(dims[0]):
        worlds.extend(cube._factor_worlds[p])
    for i in dims[1:]:
        new = []
        for p in cube.site.poset.of_dim(i):
            new.extend(map(cube._inversions[p], worlds))
        worlds = new
    return [w for w in worlds if not w.is_zero_world]


def _old_canonical_flat_map(CA, CB):
    blocks = {}
    for i, (u, _) in enumerate(CA.strand_list(0)):
        for j, (v, _) in enumerate(CB.strand_list(0)):
            if canonical_map_exists(u, v):
                blocks[(0, i, j)] = [[v.el_one()]]
    return ChainMap(CA, CB, blocks)


def _old_unit_diagram(cube):
    values = {v.name: cube.ring_complex(v.label) for v in cube.shape.vertices}
    maps = {}
    for (s, t, _) in cube.shape.arrows:
        values_s, values_t = values[s], values[t]
        maps[(s, t)] = _old_canonical_flat_map(values_s, values_t)
    rings = {v.name: cube.ring_name(v.label) for v in cube.shape.vertices}
    return CubeDiagram(cube.shape, values, maps, {}, rings)


def _old_holim_punctured(D):
    shape = D.shape
    if shape.kind != "pcube":
        raise ShapeMismatchError("holim_punctured consumes a punctured cube diagram")
    strands = {}
    index = {}
    backend = D_backend(D)
    by_name = {v.name: v for v in shape.vertices}
    for name, v in by_name.items():
        C = D.value(name)
        sh = 1 - len(v.label)
        for n in C.degrees():
            m = n + sh
            strands.setdefault(m, [])
            for i, (w, r) in enumerate(C.strand_list(n)):
                index[(name, n, i)] = len(strands[m])
                strands[m].append((w, r))
    blocks = {}
    for name, v in by_name.items():
        C = D.value(name)
        sh = 1 - len(v.label)
        sgn = 1 if sh % 2 == 0 else -1
        for (n, i, j), M in C.blocks.items():
            si = index[(name, n, i)]
            tj = index[(name, n - 1, j)]
            blocks[(n + sh, si, tj)] = [[e * sgn for e in row] for row in M]
    maps = {}
    for (s, t, kind) in shape.arrows:
        A = tuple(by_name[s].label)
        i_new = next(iter(set(by_name[t].label) - set(A)))
        cech = (-1) ** sum(1 for j in A if j < i_new)
        f = D.maps.get((s, t))
        if f is None:
            raise MissingArrowError(f"holim needs the structure map {s} -> {t}")
        maps[(s, t)] = f
        shA = 1 - len(A)
        for (n, i, j), M in f.blocks.items():
            si = index[(s, n, i)]
            tj = index[(t, n, j)]
            blocks[(n + shA, si, tj)] = [[e * cech for e in row] for row in M]
    trusted = all(D.value(name).verified for name in by_name) and \
        all(f.verified and f.src == D.value(s) and f.dst == D.value(t)
            for (s, t), f in maps.items())
    if trusted and not CubeDiagram(shape, D.values, maps).check_commutes():
        raise ShapeError("holim: a square of the punctured cube does not commute")
    return _built(ChainComplex(backend, strands, blocks, check=not trusted), trusted)


SITES = [("zint", (2,)), ("zint", (2, 3)), ("zint", (2, 3, 5)), ("zint", (2, 3, 5, 7)),
         ("valrank2", None)]


@pytest.mark.parametrize("backend, T", SITES)
def test_rings_are_ext_folded_as_the_old_loops(backend, T):
    cube = AdelicCube(Site(backend, T=T) if T else Site(backend))
    for v in cube.shape.vertices:
        assert cube.ring_worlds(v.label) == _old_build_vertex(cube, v.label), v.name


@pytest.mark.parametrize("backend, T", SITES)
def test_unit_cube_is_the_tensor_of_the_unit(backend, T):
    cube = AdelicCube(Site(backend, T=T) if T else Site(backend))
    new, old = cube.unit_diagram(), _old_unit_diagram(cube)
    assert new.values == old.values and new.ring_names == old.ring_names
    assert new.maps.keys() == old.maps.keys()
    assert all(map_equal(new.maps[k], old.maps[k]) for k in old.maps)


@pytest.mark.parametrize("backend", ["zint", "valrank2"])
def test_holim_lays_out_as_the_old_loops(backend):
    site = Site(backend, T=(2, 3)) if backend == "zint" else Site(backend)
    cube = AdelicCube(site)
    rng = random.Random(2510)
    objects = [X for _, X in library(site)] + \
        [random_complex(rng, site.base, primes=(2, 3), atoms=1 + k % 3) for k in range(20)]
    compared = 0
    for X in objects:
        try:
            D = cube.tensor(X)
            R = big_R(big_L(D))
        except UnsupportedMixedShape:
            continue
        for E in (D, R):
            new, old = holim_punctured(E), _old_holim_punctured(E)
            assert new == old and new.verified == old.verified
            compared += 1
    assert compared >= 2 * 20
