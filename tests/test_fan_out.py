"""ChainComplex.fan_out against the four loops it replaced.

Base change, completion, ext along an arrow of the adelic cube and the
vertexwise adelic tensor each replaced every strand by its images in a
product of rings and carried each block along.  The reference below
keeps a literal copy of each of those loops (the completion also hands
back its index); fan_out must give the same complexes, unit maps and
strand index.  The one deliberate difference is the strand order of
completion and ext: they listed each strand's images together, and now
list factor by factor, as the tensor always did (it is the order the
`adelic` report prints).
"""

import random

import pytest

from adeltors.adelic import AdelicCube, _combine, _ext_steps
from adeltors.complexes import ChainComplex, ChainMap, map_equal
from adeltors.homology import UnsupportedMixedShape
from adeltors.library import library, random_complex
from adeltors.linalg import mat_id
from adeltors.localize import Site
from adeltors.torsion import tors
from adeltors.worlds import VAL, canonical_map_exists, carrier_block, complete_world


# -- the reference: the loops as they were ---------------------------------------------

def _old_base_change(self, world_op):
    strands = {n: [(world_op(w), r) for (w, r) in ss] for n, ss in self.strands.items()}
    blocks = {}
    for (n, i, j), M in self.blocks.items():
        old_tgt = self.strand_list(n - 1)[j][0]
        new_tgt = strands[n - 1][j][0]
        if new_tgt.is_zero_world or strands[n][i][0].is_zero_world:
            continue
        blocks[(n, i, j)] = carrier_block(old_tgt, new_tgt, M)
    return ChainComplex(self.backend, strands, blocks)


def _old_completed(X, targets):
    new_strands = {}
    index = {}
    for n in X.degrees():
        new_strands[n] = []
        for i, (w, r) in enumerate(X.strand_list(n)):
            for k, t in enumerate(targets):
                cw = complete_world(w, t)
                if cw.is_zero_world:
                    continue
                index[(n, i, k)] = len(new_strands[n])
                new_strands[n].append((cw, r))
    blocks = {}
    for (n, i, j), M in X.blocks.items():
        wj = X.strand_list(n - 1)[j][0]
        for k, t in enumerate(targets):
            si = index.get((n, i, k))
            tj = index.get((n - 1, j, k))
            if si is None or tj is None:
                continue
            cw = new_strands[n - 1][tj][0]
            blocks[(n, si, tj)] = carrier_block(wj, cw, M)
    LX = ChainComplex(X.backend, new_strands, blocks)
    ublocks = {}
    for (n, i, k), si in index.items():
        cw = LX.strand_list(n)[si][0]
        r = X.strand_list(n)[i][1]
        ublocks[(n, i, si)] = mat_id(r, cw.el_one())
    return LX, ChainMap(X, LX, ublocks), index


def _old_ext_strand_worlds(self, label_a, label_b, u):
    A = tuple(sorted(label_a))
    B = tuple(sorted(label_b))
    (j,) = set(B) - set(A)
    classes = self.site.poset.of_dim(j)
    if u.is_zero_world:
        out = []
    elif j > min(A):
        out = [self._inversions[x](u) for x in classes]
    else:
        out = [_combine(u, f) for x in classes for f in self._factor_worlds[x]]
    return tuple(w for w in out if not w.is_zero_world)


def _old_ext_one(self, A, B, C):
    strands = {}
    index = {}
    for n in C.degrees():
        strands[n] = []
        for i, (w, r) in enumerate(C.strand_list(n)):
            idxs = []
            for nw in _old_ext_strand_worlds(self, A, B, w):
                idxs.append(len(strands[n]))
                strands[n].append((nw, r))
            index[(n, i)] = idxs
    blocks = {}
    for (n, i, j), M in C.blocks.items():
        for a, si in enumerate(index[(n, i)]):
            for b, tj in enumerate(index[(n - 1, j)]):
                wsrc = strands[n][si][0]
                wtgt = strands[n - 1][tj][0]
                if not canonical_map_exists(wsrc, wtgt):
                    continue
                # with equal fan-out on both sides the slots must match
                if len(index[(n, i)]) == len(index[(n - 1, j)]) and a != b:
                    continue
                old_t = C.strand_list(n - 1)[j][0]
                blocks[(n, si, tj)] = carrier_block(old_t, wtgt, M)
    return ChainComplex(C.backend, strands, blocks)


def _old_ext_complex(cube, label_a, label_b, C):
    out = C
    for src, dst in _ext_steps(label_a, label_b):
        out = _old_ext_one(cube, src, dst, out)
    return out


def _old_ext_index(cube, A, B, MA):
    """The strand index _adjoint_blocks built beside ext."""
    index = {}
    for n in MA.degrees():
        at = 0
        for i, (w, r) in enumerate(MA.strand_list(n)):
            worlds = [w]
            for src, dst in _ext_steps(A, B):
                worlds = [nw for u in worlds for nw in _old_ext_strand_worlds(cube, src, dst, u)]
            index[(n, i)] = list(range(at, at + len(worlds)))
            at += len(worlds)
    return index


def _old_tensor(cube, X):
    """The vertex and arrow loops of AdelicCube.tensor, with the layout."""
    base = cube.unit_diagram()
    values, layout = {}, {}
    for v in cube.shape.vertices:
        flat = base.value(v.name)
        ring = flat.strand_list(0)
        strands = {}
        index = {}
        for i, (w, _) in enumerate(ring):
            for q in X.degrees():
                for a, (wa, ra) in enumerate(X.strand_list(q)):
                    nw = _combine(wa, w)
                    if nw.is_zero_world:
                        continue
                    strands.setdefault(q, [])
                    index[(i, q, a)] = len(strands[q])
                    strands[q].append((nw, ra))
        blocks = {}
        for (q, a, b), M in X.blocks.items():
            wb = X.strand_list(q - 1)[b][0]
            for i, (w, _) in enumerate(ring):
                si = index.get((i, q, a))
                tj = index.get((i, q - 1, b))
                if si is None or tj is None:
                    continue
                nwt = strands[q - 1][tj][0]
                blocks[(q, si, tj)] = carrier_block(wb, nwt, M)
        values[v.name] = ChainComplex(cube.site.backend, strands, blocks)
        layout[v.name] = index
    maps = {}
    for (s, t, _) in cube.shape.arrows:
        f = base.map(s, t)
        blocks = {}
        for (_z, i, j), M in f.blocks.items():
            for q in X.degrees():
                for a, (wa, ra) in enumerate(X.strand_list(q)):
                    si = layout[s].get((i, q, a))
                    tj = layout[t].get((j, q, a))
                    if si is None or tj is None:
                        continue
                    blocks[(q, si, tj)] = mat_id(ra, M[0][0])
        maps[(s, t)] = ChainMap(values[s], values[t], blocks)
    return values, maps, layout


# -- helpers -----------------------------------------------------------------------------

def _outcome(f, *args):
    """f's value, or the type and text of what it raised."""
    try:
        return f(*args)
    except ValueError as err:
        return (type(err).__name__, str(err))


def _moved(C, perm):
    """C with strand p of degree n moved to perm[n][p]."""
    strands = {}
    for n, ss in C.strands.items():
        out = strands[n] = [None] * len(ss)
        for p, s in enumerate(ss):
            out[perm[n][p]] = s
    blocks = {(n, perm[n][i], perm[n - 1][j]): M for (n, i, j), M in C.blocks.items()}
    return ChainComplex(C.backend, strands, blocks)


def _perm(old, new):
    """perm[n][p] = q where old puts a key at (n, p) and new at (n, q)."""
    assert old.keys() == new.keys()
    perm = {}
    for key, (n, p) in old.items():
        perm.setdefault(n, {})[p] = new[key][1]
    return perm


def _listed(index):
    """(n, i, m) -> (n, p) for an index (n, i) -> [p_0, p_1, ...]."""
    return {(n, i, m): (n, p) for (n, i), ps in index.items() for m, p in enumerate(ps)}


SITES = [("zint", (2, 3)), ("zint", (2, 3, 5)), ("valrank2", ())]


def _objects(site, seed):
    rng = random.Random(seed)
    objs = [X for _, X in library(site)]
    objs += [random_complex(rng, site.base, primes=site.T or (2, 3), atoms=rng.randint(1, 4))
             for _ in range(12)]
    return objs


def _ops(site):
    """Localizations at every realizable region but the whole poset."""
    closed = sorted(p for p in site.poset.elements if site.poset.dim[p] == 0)
    if site.backend == "zint":
        sets = [frozenset(int(p.strip("()")) for p in closed[:k]) for k in range(len(closed) + 1)]
    else:
        sets = [frozenset(), frozenset({"x"}), frozenset({"y"})]
    return [site.localize_op(S) for S in sets]


def _targets(site):
    if site.backend == "zint":
        return [(p,) for p in site.T] + [site.T]
    return [("m",), ("p",), ("m", "p")]


# -- the comparisons -----------------------------------------------------------------------

@pytest.mark.parametrize("backend,T", SITES)
def test_fan_out_matches_the_old_loops(backend, T):
    site = Site(backend, T=T or (2, 3))
    cube = AdelicCube(site)
    unit = cube.unit_diagram()
    reordered = 0
    mixed = []
    for X in _objects(site, f"fan-out-{backend}-{T}"):
        # the adelic tensor: the same values, maps and layout
        old = _outcome(_old_tensor, cube, X)
        D = _outcome(cube.tensor, X)
        if isinstance(old[0], str):
            assert D == old
            continue
        values, maps, layout = old
        for v in cube.shape.vertices:
            ring = [w for (w, _) in unit.value(v.name).strand_list(0)]
            new, slots = X.fan_out(lambda u: [_combine(u, w) for w in ring])
            assert new == D.value(v.name) == values[v.name], v.name
            assert {(i, q, a): si for (q, a), ks in slots.items() for i, si in ks} == \
                layout[v.name]
            mixed.append(D.value(v.name))
        for (s, t), f in maps.items():
            assert map_equal(f, D.map(s, t)), (s, t)
        # ext along every arrow of the tensor cube and every oplax arrow of
        # tors, up to the strand order
        try:
            TD = tors(site, X, cube)
            arrows = [(D, s, t) for (s, t, _) in D.shape.arrows]
            arrows += [(TD, s, t) for (s, t, kind) in TD.shape.arrows if kind == "oplax"]
        except UnsupportedMixedShape:
            arrows = [(D, s, t) for (s, t, _) in D.shape.arrows]
        for E, s, t in arrows:
            A, B, MA = tuple(E.shape.vertex(s).label), tuple(E.shape.vertex(t).label), E.value(s)
            got, where = cube.ext_complex(A, B, MA)
            perm = _perm(_listed(_old_ext_index(cube, A, B, MA)), _listed(where))
            assert got == _moved(_old_ext_complex(cube, A, B, MA), perm), (s, t)
            reordered += any(p != q for moves in perm.values() for p, q in moves.items())
    # base change exactly, completion up to the strand order, on
    # single-world and mixed complexes
    for X in _objects(site, f"fan-out-{backend}-{T}") + mixed:
        for op in _ops(site):
            assert _outcome(X.base_change, op) == _outcome(_old_base_change, X, op)
        for targets in _targets(site):
            new, old = _outcome(site.completed, X, targets), _outcome(_old_completed, X, targets)
            if isinstance(old[0], str):
                assert new == old
                continue
            _, slots = X.fan_out(lambda w: [complete_world(w, t) for t in targets])
            perm = _perm({key: (key[0], si) for key, si in old[2].items()},
                         {(n, i, k): (n, si) for (n, i), ks in slots.items() for k, si in ks})
            assert new[0] == _moved(old[0], perm)
            moved = {(n, i, perm[n][j]): M for (n, i, j), M in old[1].blocks.items()}
            assert map_equal(new[1], ChainMap(X, new[0], moved))
            reordered += any(p != q for moves in perm.values() for p, q in moves.items())
    assert reordered > 0 or backend == "valrank2"   # each valrank2 ring has one factor


def test_ext_keeps_zero_worlds_in_its_slots(vcube):
    """Along (1,) -> (0,1), VhatP goes to VhatMInv and VhatPInv to the
    zero world: the one fan-out whose two ends differ once zero worlds
    are dropped.  A block between them has no surviving slot pair."""
    VhatP, VhatPInv = VAL("VhatP"), VAL("VhatPInv")
    assert vcube.ext_strand_worlds((1,), (0, 1), VhatPInv)[0].is_zero_world
    C = ChainComplex("valrank2", {1: [(VhatP, 1)], 0: [(VhatPInv, 1), (VhatP, 1)]},
                     {(1, 0, 0): [[VhatPInv.el_one()]], (1, 0, 1): [[VhatP.el_one()]]})
    got, where = vcube.ext_complex((1,), (0, 1), C)
    assert got == _old_ext_complex(vcube, (1,), (0, 1), C)
    assert where == _old_ext_index(vcube, (1,), (0, 1), C) == {(1, 0): [0], (0, 0): [],
                                                              (0, 1): [0]}
    assert list(got.blocks) == [(1, 0, 0)]
