"""One construction per adelic object: the ring at a chain is ext folded
over its indices, the unit cube is tensor(unit), and the punctured-cube
limit and ChainComplex.tensor are laid out by complexes._total.  Each is
checked against a literal copy of the code it replaced."""

import random

import pytest

from adeltors.adelic import AdelicCube
from adeltors.complexes import (DEGREE_HI, DEGREE_LO, ChainComplex, ChainMap, DegreeWindowError,
                                IncompatibleWorldsError, _built, _kron, map_equal, merge_strands)
from adeltors.homology import UnsupportedMixedShape
from adeltors.library import library, random_complex
from adeltors.localize import Site
from adeltors.linalg import mat_id
from adeltors.shapes import (CubeDiagram, D_backend, MissingArrowError, ShapeError,
                             ShapeMismatchError, big_L, big_R, holim_punctured)
from adeltors.worlds import VAL, Z_LOC, Z_RAT, canonical_map_exists, carrier_block


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


def _old_tensor(self, other):
    wo = other.single_world()
    if other.is_empty():
        return ChainComplex.zero(self.backend)
    if self.is_empty():
        return ChainComplex.zero(self.backend)
    if wo is None:
        raise IncompatibleWorldsError("tensor: right factor must be single-world")
    if any(len(ss) > 1 for ss in other.strands.values()):
        other = merge_strands(other)
    index = {}   # (p, i, q) -> new strand index per degree
    strands = {}
    for p in self.degrees():
        for i, (w, r) in enumerate(self.strand_list(p)):
            if not canonical_map_exists(wo, w):
                raise IncompatibleWorldsError(f"tensor: no map {wo} -> {w}")
            for q in other.degrees():
                n = p + q
                if not (DEGREE_LO <= n <= DEGREE_HI):
                    raise DegreeWindowError("tensor leaves the degree window")
                strands.setdefault(n, [])
                index[(p, i, q)] = len(strands[n])
                strands[n].append((w, r * other.rank(q)))
    blocks = {}
    for (p, i, q), si in index.items():
        w = self.strand_list(p)[i][0]
        r = self.strand_list(p)[i][1]
        # d_C (x) id
        for j in range(len(self.strand_list(p - 1))):
            M = self.blocks.get((p, i, j))
            if M is not None and (p - 1, j, q) in index:
                wj = self.strand_list(p - 1)[j][0]
                eye = mat_id(other.rank(q), wj.el_one())
                blocks[(p + q, si, index[(p - 1, j, q)])] = _kron(M, eye, wj.el_zero())
        # (-1)^p id (x) d_X
        DX = other.blocks.get((q, 0, 0))
        if DX is not None and (p, i, q - 1) in index:
            sign = 1 if p % 2 == 0 else -1
            DXw = [[e * sign for e in row] for row in carrier_block(wo, w, DX)]
            eye = mat_id(r, w.el_one())
            blocks[(p + q, si, index[(p, i, q - 1)])] = _kron(eye, DXw, w.el_zero())
    return ChainComplex(self.backend, strands, blocks)


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


def _entry_types(C):
    return {key: [[type(e) for e in row] for row in M] for key, M in C.blocks.items()}


@pytest.mark.parametrize("backend", ["zint", "valrank2"])
def test_tensor_matches_the_old_index_layout(backend):
    """Every left factor (library, random, e(i)) against every right one
    (library, random), and two pairs the tensor refuses (a world with no
    map into the left factor's, and a product leaving the degree window):
    the same strands, blocks and entry types, or the same exception.  The
    Koszul sign is pinned here only: flipping every (-1)^p still gives an
    isomorphic complex."""
    site = Site(backend, T=(2, 3)) if backend == "zint" else Site(backend)
    rng = random.Random(2811)
    rights = [X for _, X in library(site)] + \
        [random_complex(rng, site.base, primes=(2, 3), atoms=1 + k % 4) for k in range(20)]
    lefts = rights + [site.e_object(i) for i in range(site.poset.dimension + 1)]
    far = ChainComplex.single(site.base, {8: 1}), ChainComplex.single(site.base, {1: 1})
    no_map = (ChainComplex.unit(VAL("V")), ChainComplex.unit(VAL("VhatM"))) \
        if backend == "valrank2" else (ChainComplex.unit(Z_LOC(2)), ChainComplex.unit(Z_RAT()))
    compared = refused = 0
    for C, X in [(C, X) for C in lefts for X in rights] + [far, no_map]:
        try:
            old = _old_tensor(C, X)
        except (IncompatibleWorldsError, DegreeWindowError) as exc:
            with pytest.raises(type(exc)):
                C.tensor(X)
            refused += 1
            continue
        new = C.tensor(X)
        assert new == old and new.strands == old.strands and new.blocks == old.blocks
        assert _entry_types(new) == _entry_types(old) and new.verified == old.verified
        compared += 1
    assert compared >= 20 * 20 and refused >= 2
