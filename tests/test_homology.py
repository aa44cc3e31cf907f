import functools
import importlib
import random
import sys
from collections import Counter
from fractions import Fraction as F

import pytest

from adeltors.adelic import reconstruct_limit
from adeltors.classes import GradedClasses, ModuleClass
from adeltors.complexes import ChainComplex, ChainMap, cone, fib
from adeltors.homology import (UnsupportedMixedShape, decompose_single,
                               homology, is_acyclic)
from adeltors.library import library, merge_strands, random_complex, randomize_basis
from adeltors.linalg import mat_mul, snf
from adeltors.oracle import oracle_check
from adeltors.ratfunc import RatXY, x as rx, y as ry
from adeltors.shapes import (IndexCategory, build_ifull, build_igeq, build_iminus,
                             full_cube, punctured_cube)
from adeltors.torsion import reconstruct, tors
from adeltors.worlds import (VAL, Z_INT, Z_INV, Z_LOC, Z_PADIC, Z_PADICRAT,
                             Z_RAT, Z_SEMILOC, inv_el, is_zero_el, map_act, mult_map_allowed)

# the package re-exports the function homology under the module's name
homology_module = importlib.import_module("adeltors.homology")


def test_cyclic_normalization():
    Z = Z_INT()
    # Z/2 (+) Z/3 displays as the invariant factor Z/6
    a = ModuleClass.cyclic(Z, F(2)) + ModuleClass.cyclic(Z, F(3))
    b = ModuleClass.cyclic(Z, F(6))
    assert a == b
    assert "Cyclic(Z,6)" in repr(b)
    # world reduction: completed cyclics match integer ones
    assert ModuleClass.cyclic(Z_PADIC(2), F(8)) == ModuleClass.cyclic(Z, F(8))
    assert ModuleClass.cyclic(Z_LOC(2), F(12)) == ModuleClass.cyclic(Z, F(4))
    # valuation families
    assert ModuleClass.cyclic(VAL("VhatM"), rx() ** 2) == \
        ModuleClass.cyclic(VAL("V"), rx() ** 2)
    assert ModuleClass.cyclic(VAL("VhatP"), ry()) == \
        ModuleClass.cyclic(VAL("Vp"), ry())
    assert ModuleClass.cyclic(VAL("V"), ry()) != ModuleClass.cyclic(VAL("Vp"), ry())


def test_single_world_homology_and_oracle(rng):
    for _ in range(50):
        C = random_complex(rng, Z_INT())
        h = homology(C)
        oracle_check(C, h)
    # the residue oracle is independent of the cell reduction, which both
    # homology and decompose_single (the reassembly test below) run
    for w in (Z_LOC(2), Z_INV(2), Z_SEMILOC(2, 3), VAL("V")):
        for _ in range(30):
            C = random_complex(rng, w)
            oracle_check(C, homology(C))


def test_oracle_reads_the_series_of_a_non_monomial_denominator():
    """[V^2 --M--> V^2] with M = [[1, 1/(1+x)], [1+x, 1]] has rank one, so
    H_1 = H_0 = Free(V).  The rank of its residues depends on the whole
    x-series of 1/(1+x), not just its constant term."""
    V = VAL("V")
    one = V.el_one()
    u = one + rx()
    C = ChainComplex.single(V, {1: 2, 0: 2}, {1: [[one, u.inv()], [u, one]]})
    h = homology(C)
    assert h == GradedClasses({0: ModuleClass.free(V), 1: ModuleClass.free(V)})
    assert oracle_check(C, h)


def test_semilocal_pid_homology():
    # IntSemiLoc(2,3) is a PID but not local: gcd(2, 3) = 1 is a unit
    W = Z_SEMILOC(2, 3)
    C = ChainComplex.single(W, {1: 2, 0: 1}, {1: [[F(2), F(3)]]})
    assert homology(C) == GradedClasses({1: ModuleClass.free(W)})
    oracle_check(C, homology(C))


def test_cone_of_identity_acyclic(rng):
    for _ in range(100):
        C = random_complex(rng, Z_INT())
        assert is_acyclic(cone(ChainMap.from_unit(C, C)))


def test_decompose_reassembles(rng):
    for _ in range(80):
        C = random_complex(rng, Z_INT())
        atoms = decompose_single(C)
        total = ChainComplex.zero("zint")
        Z = Z_INT()
        for (t, a) in atoms:
            total = total.dsum(ChainComplex.single(Z, {t: 1}) if a is None
                               else ChainComplex.two_term(Z, a, top_degree=t))
        assert homology(total) == homology(C)


def test_fracture_square_collapse():
    Z, Q, Z2, Q2 = Z_INT(), Z_RAT(), Z_PADIC(2), Z_PADICRAT(2)
    sq = ChainComplex("zint",
                      {0: [(Z, 1)], -1: [(Z_INV(2), 1), (Z2, 1)], -2: [(Q2, 1)]},
                      {(0, 0, 0): [[F(1)]], (0, 0, 1): [[F(1)]],
                       (-1, 0, 0): [[F(1)]], (-1, 1, 0): [[F(-1)]]})
    assert is_acyclic(sq)
    frac = ChainComplex("zint", {0: [(Q, 1), (Z2, 1)], -1: [(Q2, 1)]},
                        {(0, 0, 0): [[F(1)]], (0, 1, 0): [[F(-1)]]})
    assert homology(frac) == GradedClasses({0: ModuleClass.free(Z_LOC(2))})


def test_val_cube_collapse():
    one = VAL("K").el_one()
    cube = ChainComplex("valrank2",
                        {0: [(VAL("VhatM"), 1), (VAL("VhatP"), 1), (VAL("K"), 1)],
                         -1: [(VAL("VhatMInv"), 1), (VAL("VhatPInv"), 1)]},
                        {(0, 0, 0): [[one]], (0, 1, 0): [[-one]],
                         (0, 1, 1): [[one]], (0, 2, 1): [[-one]]})
    assert homology(cube) == GradedClasses({0: ModuleClass.free(VAL("V"))})


def test_quot_classes_from_cones():
    Z = Z_INT()
    u = ChainMap.from_unit(ChainComplex.unit(Z), ChainComplex.unit(Z_INV(2)))
    h = homology(cone(u))
    assert h == GradedClasses({0: ModuleClass.quot("pruefer", 2)})
    V = VAL("V")
    uv = ChainMap.from_unit(ChainComplex.unit(V), ChainComplex.unit(VAL("Vp")))
    assert homology(fib(uv)) == GradedClasses({-1: ModuleClass.quot("prueferX")})
    uk = ChainMap.from_unit(ChainComplex.unit(V), ChainComplex.unit(VAL("K")))
    assert homology(fib(uk)) == GradedClasses({-1: ModuleClass.quot("quotKV")})


def test_homology_invariant_under_unit_rescale():
    # base-change compatible rescaling by a unit does not move classes
    Z2 = Z_LOC(2)
    C = ChainComplex.two_term(Z2, F(4))
    D = ChainComplex.two_term(Z2, F(4) * F(3, 7))
    assert homology(C) == homology(D)


def test_unsupported_shapes_raise():
    # a cross-completion pair with no rule must refuse, not guess
    C = ChainComplex("valrank2", {0: [(VAL("Vp"), 1)], -1: [(VAL("VhatP"), 1)]},
                     {(0, 0, 0): [[VAL("VhatP").el_one()]]})
    with pytest.raises(UnsupportedMixedShape, match="no cross-atom rule"):
        homology(C)


def test_refusal_names_island_independent_of_strand_order():
    # the same island, its two source strands in either order
    x2 = rx() ** 2
    messages = set()
    for order in (("VhatM", "VhatPFull"), ("VhatPFull", "VhatM")):
        C = ChainComplex("valrank2", {0: [(VAL(w), 1) for w in order],
                                      -1: [(VAL("VhatMInv"), 1)]},
                         {(0, 0, 0): [[x2]], (0, 1, 0): [[x2]]})
        with pytest.raises(UnsupportedMixedShape) as err:
            homology(C)
        messages.add(str(err.value))
    assert messages == {"unrecognized island [(-1, 'VhatMInv'), (0, 'VhatM'), (0, 'VhatPFull')]"}


def _check_index(cells):
    """The cell graph's invariant: each entry stored once and mirrored,
    never zero, a valid module map one degree down, on known cells."""
    assert set(cells.world) == set(cells.deg) == set(cells.out) == set(cells.inn)
    for s, row in cells.out.items():
        for t, e in row.items():
            assert cells.inn[t][s] is e
            assert not is_zero_el(e)
            assert mult_map_allowed(cells.world[s], cells.world[t], e)
            assert cells.deg[s] == cells.deg[t] + 1
    for t, col in cells.inn.items():
        for s, e in col.items():
            assert cells.out[s][t] is e


def _round_trip_inputs(site, cube, objs, monkeypatch):
    """Every complex the classifier is handed while tors, reconstruct
    and reconstruct_limit read the objects."""
    seen = []

    class Recording(homology_module._Cells):
        def __init__(self, C):
            seen.append(C)
            super().__init__(C)
    monkeypatch.setattr(homology_module, "_Cells", Recording)
    for X in objs:
        try:
            reconstruct(site, tors(site, X, cube), X, cube)
            reconstruct_limit(cube.tensor(X), X)
        except UnsupportedMixedShape:
            pass
    monkeypatch.undo()
    return seen


def test_cell_index_holds_after_every_move(zsite, zcube, vsite, vcube, monkeypatch):
    rng = random.Random(20261019)
    complexes = []
    for site, cube in ((zsite, zcube), (vsite, vcube)):
        complexes += [V for _, X in library(site) for V in cube.tensor(X).values.values()
                      if V.single_world() is None and not V.is_empty()]
        objs = [random_complex(rng, site.base, primes=(2, 3), atoms=rng.randint(1, 4))
                for _ in range(12)]
        complexes += _round_trip_inputs(site, cube, objs, monkeypatch)
    moves = Counter()
    for C in complexes:
        cells = homology_module._Cells(C)
        _check_index(cells)
        try:
            while cells.world:
                move = next((m for m in (cells.try_m1, cells.try_m2, cells.try_m0) if m()), None)
                if move is None:
                    break
                moves[C.backend, move.__name__] += 1
                _check_index(cells)
        except UnsupportedMixedShape:
            moves[C.backend, "refused"] += 1
    for backend in ("zint", "valrank2"):
        assert all(moves[backend, m] for m in ("try_m1", "try_m2", "try_m0")), moves


class _Rescan(homology_module._Cells):
    """The reduction as it ran before M1 kept a worklist: a literal copy
    of the old try_m1, which scanned from the lowest cell after every
    cancellation, and of the reduce loop."""

    def try_m1(self) -> bool:
        for s in sorted(self.world, key=lambda c: (self.deg[c], c)):
            w = self.world[s]
            for t in sorted(self.out[s]):
                e = self.out[s][t]
                if self.world[t] != w or not w.is_unit(e):
                    continue
                einv = inv_el(e)
                ins_t = [u for u in self.inn[t] if u != s]
                outs_s = [v for v in self.out[s] if v != t]
                for u in ins_t:
                    for v in outs_s:
                        wv = self.world[v]
                        upd = self.out[u].get(v, wv.el_zero())
                        # u -> t, homotopy t -> s over W, then s -> v; the middle
                        # factor passes through the canonical map W -> W_v
                        corr = self.out[s][v] * map_act(w, wv, einv * self.inn[t][u])
                        self.set_entry(u, v, upd - corr)
                self.delete(s)
                self.delete(t)
                return True
        return False

    def reduce(self):
        """Run the moves until none applies."""
        while self.world and (self.try_m1() or self.try_m2() or self.try_m0()):
            pass


def _reduced_state(cells):
    """What reduce leaves, or the refusal it raises: each cell's world,
    degree and out-entries."""
    try:
        cells.reduce()
    except UnsupportedMixedShape as exc:
        return "refused", str(exc)
    return "reduced", {c: (cells.world[c], cells.deg[c], cells.out[c]) for c in cells.world}


def test_worklist_makes_the_moves_of_the_rescan(zsite, zcube, vsite, vcube, monkeypatch):
    rng = random.Random(20261019)
    complexes = []
    for site, cube in ((zsite, zcube), (vsite, vcube)):
        objs = [X for _, X in library(site)]
        objs += [random_complex(rng, site.base, primes=(2, 3), atoms=rng.randint(1, 4))
                 for _ in range(24)]
        complexes += _round_trip_inputs(site, cube, objs, monkeypatch)
        for n in (8, 16):
            plain = functools.reduce(lambda X, Y: X.dsum(Y), (
                random_complex(rng, site.base, primes=(2, 3), atoms=1) for _ in range(n)))
            complexes += [merge_strands(plain), randomize_basis(plain, rng, steps=2 * n)]
    # a cancellation turns an entry of a cell already passed into a unit
    # (u -> v becomes 3 - 2 = 1: over a local ring it cannot), and M2 and
    # M0 each leave a unit behind
    Z = Z_INT()
    complexes += [ChainComplex.single(Z, {1: 2, 0: 2}, {1: [[F(2), F(1)], [F(3), F(1)]]}),
                  ChainComplex("zint", {0: [(Z, 1)], -1: [(Z_INV(2), 1), (Z_PADIC(2), 1)],
                                        -2: [(Z_PADICRAT(2), 1)]},
                               {(0, 0, 0): [[F(1)]], (0, 0, 1): [[F(1)]],
                                (-1, 0, 0): [[F(1)]], (-1, 1, 0): [[F(-1)]]}),
                  ChainComplex.single(Z, {1: 2, 0: 1}, {1: [[F(2), F(3)]]})]
    for C in complexes:
        assert _reduced_state(homology_module._Cells(C)) == _reduced_state(_Rescan(C)), C
    assert len(complexes) > 400


# Upper bounds on the reduction's work over one tors + reconstruct +
# reconstruct_limit pass of the library objects on both backends: snf
# calls, the entries of the matrices snf is handed, _Cells built, full
# d o d checks of a complex (ChainComplex._validate), full chain-map
# checks of a map (ChainMap.is_chain_map), index categories built from
# cold shape caches (IndexCategory), RatXY elements constructed
# (RatXY.new), and the entry products of mat_mul, n*k*m for an n x k
# times k x m call, as bench/trace.py counts them (mat_mul.products).
# A change that lowers the work lowers these bounds with it.
WORK_BOUNDS = {"snf.calls": 2, "snf.entries": 4, "_Cells": 97, "ChainComplex._validate": 23,
               "ChainMap.is_chain_map": 0, "IndexCategory": 6, "RatXY.new": 489,
               "mat_mul.products": 36}


def test_reduction_work_is_pinned(zsite, zcube, vsite, vcube, monkeypatch):
    work = Counter()

    def counted(A, w):
        work["snf.calls"] += 1
        work["snf.entries"] += len(A) * (len(A[0]) if A else 0)
        return snf(A, w)

    def counted_mul(A, B):
        work["mat_mul.products"] += len(A) * len(B) * (len(B[0]) if B else 0)
        return mat_mul(A, B)

    class Counted(homology_module._Cells):
        def __init__(self, C):
            work["_Cells"] += 1
            super().__init__(C)

    def validate(C, _full=ChainComplex._validate):
        work["ChainComplex._validate"] += 1
        _full(C)

    def is_chain_map(f, _full=ChainMap.is_chain_map):
        work["ChainMap.is_chain_map"] += 1
        return _full(f)
    for name, mod in list(sys.modules.items()):
        if name.startswith("adeltors.") and getattr(mod, "snf", None) is snf:
            monkeypatch.setattr(mod, "snf", counted)
        if name.startswith("adeltors.") and getattr(mod, "mat_mul", None) is mat_mul:
            monkeypatch.setattr(mod, "mat_mul", counted_mul)
    monkeypatch.setattr(homology_module, "_Cells", Counted)
    monkeypatch.setattr(ChainComplex, "_validate", validate)
    monkeypatch.setattr(ChainMap, "is_chain_map", is_chain_map)
    for cls, key in ((IndexCategory, "IndexCategory"), (RatXY, "RatXY.new")):
        monkeypatch.setattr(cls, "__init__", _counting(work, key, cls.__init__))
    for build in (full_cube, punctured_cube, build_iminus, build_ifull, build_igeq):
        build.cache_clear()
    for site, cube in ((zsite, zcube), (vsite, vcube)):
        for _, X in library(site):
            reconstruct(site, tors(site, X, cube), X, cube)
            reconstruct_limit(cube.tensor(X), X)
    assert work["_Cells"] and all(work[k] <= bound for k, bound in WORK_BOUNDS.items()), work


def _counting(work, key, init):
    def counted(self, *args, **kwargs):
        work[key] += 1
        init(self, *args, **kwargs)
    return counted
